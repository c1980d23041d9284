// Copyright 2026 The LearnRisk Authors
// Inline featurization — the middle layer of the request gateway. Evaluates
// the fitted MetricSuite and the frozen classifier on record pairs in one
// chunk-parallel tiled pass: each chunk featurizes and classifies its rows
// kServeTileRows at a time into buffers it reuses for every tile, and hands
// each finished tile, with its chunk's index, to one TileFn. The gateway's
// function scores the tile, observes drift and keeps the chunk's riskiest
// rows, so a request never holds more than one tile of metric rows per
// chunk; RunPrepared's function copies every tile into one whole
// FeatureMatrix.
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

#include <functional>
#include <memory>
#include <vector>

#include "classifier/classifier.h"
#include "common/parallel.h"
#include "common/status.h"
#include "data/table.h"
#include "data/workload.h"
#include "metrics/metric_suite.h"
#include "metrics/prepared_record.h"

namespace learnrisk {

class ShardedSideView;

/// \brief Rows per tile of the tiled pass. One tile's metric rows (up to
/// ~30 metrics x 8 B x 1024 rows ≈ 240 KB) stay in a core's L2 while they
/// are classified, scored and observed; a request's metric-row memory is
/// one tile per parallel chunk, whatever its pair count.
inline constexpr size_t kServeTileRows = 1024;

/// \brief One tile of the tiled pass: request rows [begin, begin + rows),
/// their metric rows and classifier probabilities. Valid only during the
/// TileFn call that receives it.
struct FeatureTile {
  size_t begin = 0;
  size_t rows = 0;
  size_t cols = 0;                   ///< metric columns per row
  const double* features = nullptr;  ///< rows x cols, row-major
  const double* probs = nullptr;     ///< rows
};

/// \brief Receives one tile of chunk `chunk` (< TileChunks(n); each index
/// is handed out once per pass), on the chunk's thread. A chunk's tiles
/// arrive in ascending row order; tiles of different chunks arrive
/// concurrently, so the function addresses per-chunk state the caller
/// sized before the pass.
using TileFn = std::function<void(size_t chunk, const FeatureTile& tile)>;

/// \brief Time accounting of one tiled pass: its wall time plus the busy
/// time of each pipeline stage summed over every tile of every chunk.
/// Consumers split the wall time across stages in proportion to busy time
/// (SplitWall), since the stages interleave tile by tile.
struct TilePassTiming {
  double wall_ms = 0.0;
  double featurize_busy_ms = 0.0;
  double classify_busy_ms = 0.0;
};

/// \brief `busy_ms`'s share of `wall_ms` among `total_busy_ms` (0 when
/// nothing was busy).
inline double SplitWall(double wall_ms, double busy_ms, double total_busy_ms) {
  return total_busy_ms > 0.0 ? wall_ms * (busy_ms / total_busy_ms) : 0.0;
}

/// \brief Featurization output for one batch of pairs: the metric rows (the
/// rule-evaluation input) plus the classifier's equivalence probabilities —
/// exactly what a ScoreRequest consumes.
struct FeaturizedBatch {
  FeatureMatrix features;
  std::vector<double> probs;
  /// The pass's wall time split between metric evaluation and classifier
  /// inference in proportion to their summed per-tile busy time.
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

  /// \brief The tiled pass over record pairs carrying global record ids on
  /// the gateway's ShardedSideViews (see gateway/shard_merge.h; an
  /// unsharded namespace is the one-shard view): validates every pair, then
  /// hands every tile to `on_tile`. Resolve's request body; the
  /// whole-matrix RunPrepared overloads are this loop with a collecting
  /// function.
  Result<TilePassTiming> RunPreparedTiles(
      const ShardedSideView& left, const ShardedSideView& right,
      const std::vector<RecordPair>& pairs,
      const TileFn& on_tile) const;

  /// \brief The tiled pass for one prepared probe record (the pair's left
  /// slot) against candidates of a ShardedSideView — ResolveRecord's body.
  Result<TilePassTiming> RunProbePreparedTiles(
      const PreparedRecord& probe, const ShardedSideView& table,
      const std::vector<size_t>& candidates,
      const TileFn& on_tile) const;

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

  /// \brief Whole-matrix sharded-view probe: the tiled probe pass above
  /// collected into one FeaturizedBatch. Candidates carry *global* record
  /// ids over a ShardedSideView of per-shard SideStores. Bit-identical to
  /// the PreparedTable overload on the equivalent flat table.
  Result<FeaturizedBatch> RunProbePrepared(
      const PreparedRecord& probe, const ShardedSideView& table,
      const std::vector<size_t>& candidates) const;

  /// \brief Caps the worker threads of the tiled pass: 0 (default) uses
  /// the shared process pool's full concurrency, 1 evaluates serially on the
  /// calling thread. The shared pool runs one parallel loop at a time, so
  /// gateways serving many concurrent requests set 1 to let requests scale
  /// across threads instead of queueing on the pool (bit-identical output
  /// either way).
  void set_parallelism(size_t parallelism) { parallelism_ = parallelism; }

  /// \brief Number of chunks, hence of chunk indexes, a tiled pass over
  /// `n` rows started from this thread uses, so a caller can size per-chunk
  /// state before the pass. No chunk covers more than ceil(n / chunks)
  /// rows.
  size_t TileChunks(size_t n) const {
    return ParallelChunks(n, parallelism_);
  }

 private:
  /// \brief Shared core: chunk-parallel over rows [0, n), featurize row i
  /// via `eval_row(i, out_row, scratch)` tile by tile, classify each tile,
  /// and hand it to `on_tile`.
  template <typename EvalRow>
  Result<TilePassTiming> RunTiles(size_t n, const EvalRow& eval_row,
                                  const TileFn& on_tile) const;

  /// \brief Runs `run_tiles(on_tile)` with a function that copies every
  /// tile into one whole n-row FeaturizedBatch.
  template <typename RunTilesFn>
  Result<FeaturizedBatch> Collect(size_t n, const RunTilesFn& run_tiles) const;

  /// \brief Shared bodies of the prepared overloads, one row loop over
  /// either row source (a PreparedTable or a ShardedSideView).
  template <typename LeftStore, typename RightStore>
  Result<TilePassTiming> RunPreparedImpl(
      const LeftStore& left, const RightStore& right,
      const std::vector<RecordPair>& pairs,
      const TileFn& on_tile) const;
  template <typename Store>
  Result<TilePassTiming> RunProbePreparedImpl(
      const PreparedRecord& probe, const Store& table,
      const std::vector<size_t>& candidates,
      const TileFn& on_tile) const;

  MetricSuite suite_;
  std::shared_ptr<const BinaryClassifier> classifier_;
  std::vector<size_t> classifier_columns_;
  std::vector<std::string> metric_names_;  ///< suite_.MetricNames(), cached
  size_t parallelism_ = 0;                 ///< see set_parallelism()
};

}  // namespace learnrisk

#endif  // LEARNRISK_GATEWAY_FEATURE_PIPELINE_H_
