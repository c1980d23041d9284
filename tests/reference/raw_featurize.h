// Copyright 2026 The LearnRisk Authors
// Reference featurization: evaluates the raw metric kernels (raw_metrics.h)
// on each record pair (re-deriving every record-level artifact per pair),
// gathers the
// classifier's input columns and predicts. FeaturePipeline's prepared paths
// must match it bit-for-bit (tests/prepared_parity_test.cc).

#ifndef LEARNRISK_REFERENCE_RAW_FEATURIZE_H_
#define LEARNRISK_REFERENCE_RAW_FEATURIZE_H_

#include <vector>

#include "classifier/classifier.h"
#include "data/table.h"
#include "data/workload.h"
#include "gateway/feature_pipeline.h"
#include "metrics/metric_suite.h"

namespace learnrisk {
namespace reference {

/// \brief Metric rows + classifier probabilities for `pairs` indexing into
/// `left` and `right`. `classifier_columns` lists the metric columns the
/// classifier reads (empty = all). With a `probe`, the probe takes every
/// pair's left slot and `left` is not read (the single-record path). The
/// caller keeps every index in range; the stage timings stay 0.
FeaturizedBatch RawFeaturize(const MetricSuite& suite,
                             const BinaryClassifier& classifier,
                             const std::vector<size_t>& classifier_columns,
                             const Table& left, const Table& right,
                             const std::vector<RecordPair>& pairs,
                             const Record* probe = nullptr);

}  // namespace reference
}  // namespace learnrisk

#endif  // LEARNRISK_REFERENCE_RAW_FEATURIZE_H_
