// Copyright 2026 The LearnRisk Authors
// Inline featurization — the middle layer of the request gateway. Evaluates
// the fitted MetricSuite and the frozen classifier on record pairs in one
// chunk-parallel pass: each thread writes metric rows straight into the
// output FeatureMatrix and gathers the classifier's input columns into a
// reused per-thread scratch buffer, so the hot loop allocates no per-pair
// vectors.
//
// RunPrepared/RunProbePrepared evaluate PreparedRecords — per-record caches
// built once — through the suite's prepared kernels with per-thread
// MetricScratch, over two row sources: flat PreparedTables (the parity tests
// and offline benches) and the gateway's ShardedSideView, where an
// unsharded namespace is one shard. Every path is bit-identical to the raw
// reference featurization in tests/reference/raw_featurize.h, which
// re-derives every record-level artifact per pair, and to the offline
// ComputeFeatures + PredictProbaAll stages over the same pairs (enforced by
// tests/prepared_parity_test.cc).

#ifndef LEARNRISK_GATEWAY_FEATURE_PIPELINE_H_
#define LEARNRISK_GATEWAY_FEATURE_PIPELINE_H_

#include <memory>
#include <vector>

#include "classifier/classifier.h"
#include "common/status.h"
#include "data/table.h"
#include "data/workload.h"
#include "metrics/metric_suite.h"
#include "metrics/prepared_record.h"

namespace learnrisk {

class ShardedSideView;

/// \brief Featurization output for one batch of pairs: the metric rows (the
/// rule-evaluation input) plus the classifier's equivalence probabilities —
/// exactly what a ScoreRequest consumes.
struct FeaturizedBatch {
  FeatureMatrix features;
  std::vector<double> probs;
  /// Wall time of the two internal passes (metric evaluation vs classifier
  /// inference) — the gateway splits its featurize/classify stage telemetry
  /// on these without re-timing the pipeline.
  double featurize_ms = 0.0;
  double classify_ms = 0.0;
};

/// \brief A frozen (suite, classifier) pair evaluating record pairs.
///
/// The pipeline owns a copy of the fitted metric suite and shares ownership
/// of the classifier; both are immutable here, so every Run* method is safe
/// to call concurrently from many request threads.
class FeaturePipeline {
 public:
  FeaturePipeline() = default;

  /// \brief `classifier_columns` lists the metric columns the classifier was
  /// trained on (empty = all columns). The suite must already be fitted.
  FeaturePipeline(MetricSuite suite,
                  std::shared_ptr<const BinaryClassifier> classifier,
                  std::vector<size_t> classifier_columns = {});

  const MetricSuite& suite() const { return suite_; }
  const std::vector<size_t>& classifier_columns() const {
    return classifier_columns_;
  }

  /// \brief Names of the suite's metric columns, cached at construction —
  /// the gateway labels its per-column drift instruments with these without
  /// re-deriving them from the specs per registration or snapshot.
  const std::vector<std::string>& metric_names() const {
    return metric_names_;
  }

  /// \brief Prepares one record under the pipeline's suite (for probes and
  /// incremental cache maintenance).
  PreparedRecord Prepare(const Record& record) const {
    return suite_.PrepareRecord(record);
  }

  /// \brief Metric rows + classifier probabilities for record pairs indexing
  /// into two PreparedTables built (and kept index-aligned) from the same
  /// tables under this pipeline's suite.
  Result<FeaturizedBatch> RunPrepared(const PreparedTable& left,
                                      const PreparedTable& right,
                                      const std::vector<RecordPair>& pairs)
      const;

  /// \brief Same pass for one prepared probe record against prepared
  /// candidates (the online single-record path). The probe takes the pair's
  /// left slot.
  Result<FeaturizedBatch> RunProbePrepared(
      const PreparedRecord& probe, const PreparedTable& table,
      const std::vector<size_t>& candidates) const;

  /// \brief Sharded-view overloads — the gateway's snapshot path. Pairs (or
  /// candidates) carry *global* record ids over a ShardedSideView of
  /// per-shard SideStores (see gateway/shard_merge.h; an unsharded
  /// namespace is the one-shard view). Bit-identical to the PreparedTable
  /// overloads on the equivalent flat tables.
  Result<FeaturizedBatch> RunPrepared(const ShardedSideView& left,
                                      const ShardedSideView& right,
                                      const std::vector<RecordPair>& pairs)
      const;
  Result<FeaturizedBatch> RunProbePrepared(
      const PreparedRecord& probe, const ShardedSideView& table,
      const std::vector<size_t>& candidates) const;

  /// \brief Caps the worker threads of each internal pass: 0 (default) uses
  /// the shared process pool's full concurrency, 1 evaluates serially on the
  /// calling thread. The shared pool runs one parallel loop at a time, so
  /// gateways serving many concurrent requests set 1 to let requests scale
  /// across threads instead of queueing on the pool (bit-identical output
  /// either way).
  void set_parallelism(size_t parallelism) { parallelism_ = parallelism; }
  size_t parallelism() const { return parallelism_; }

 private:
  /// \brief Shared core: featurize row i via `eval_row(i, out_row, scratch)`,
  /// then gather classifier columns and predict.
  template <typename EvalRow>
  Result<FeaturizedBatch> RunImpl(size_t n, const EvalRow& eval_row) const;

  /// \brief Shared bodies of the prepared overloads, one row loop over
  /// either row source (a PreparedTable or a ShardedSideView).
  template <typename LeftStore, typename RightStore>
  Result<FeaturizedBatch> RunPreparedImpl(
      const LeftStore& left, const RightStore& right,
      const std::vector<RecordPair>& pairs) const;
  template <typename Store>
  Result<FeaturizedBatch> RunProbePreparedImpl(
      const PreparedRecord& probe, const Store& table,
      const std::vector<size_t>& candidates) const;

  MetricSuite suite_;
  std::shared_ptr<const BinaryClassifier> classifier_;
  std::vector<size_t> classifier_columns_;
  std::vector<std::string> metric_names_;  ///< suite_.MetricNames(), cached
  size_t parallelism_ = 0;                 ///< see set_parallelism()
};

}  // namespace learnrisk

#endif  // LEARNRISK_GATEWAY_FEATURE_PIPELINE_H_
