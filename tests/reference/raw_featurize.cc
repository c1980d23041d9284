// Copyright 2026 The LearnRisk Authors

#include "reference/raw_featurize.h"

#include "reference/raw_metrics.h"

namespace learnrisk {
namespace reference {

FeaturizedBatch RawFeaturize(const MetricSuite& suite,
                             const BinaryClassifier& classifier,
                             const std::vector<size_t>& classifier_columns,
                             const Table& left, const Table& right,
                             const std::vector<RecordPair>& pairs,
                             const Record* probe) {
  const size_t num_metrics = suite.num_metrics();
  FeaturizedBatch batch;
  batch.features = FeatureMatrix(pairs.size(), num_metrics);
  batch.features.column_names = suite.MetricNames();
  batch.probs.resize(pairs.size());
  const bool gather = !classifier_columns.empty();
  const size_t width = gather ? classifier_columns.size() : num_metrics;
  std::vector<double> gathered(gather ? width : 0);
  for (size_t i = 0; i < pairs.size(); ++i) {
    const Record& l = probe != nullptr ? *probe : left.record(pairs[i].left);
    double* row = batch.features.mutable_row(i);
    EvaluateRawPairInto(suite, l, right.record(pairs[i].right), row);
    const double* input = row;
    if (gather) {
      for (size_t k = 0; k < width; ++k) {
        gathered[k] = row[classifier_columns[k]];
      }
      input = gathered.data();
    }
    batch.probs[i] = classifier.PredictProba(input, width);
  }
  return batch;
}

}  // namespace reference
}  // namespace learnrisk
