// Copyright 2026 The LearnRisk Authors

#include "gateway/feature_pipeline.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <utility>

#include "common/parallel.h"
#include "common/timer.h"
#include "gateway/shard_merge.h"

namespace learnrisk {

FeaturePipeline::FeaturePipeline(
    MetricSuite suite, std::shared_ptr<const BinaryClassifier> classifier,
    std::vector<size_t> classifier_columns)
    : suite_(std::move(suite)),
      classifier_(std::move(classifier)),
      classifier_columns_(std::move(classifier_columns)),
      metric_names_(suite_.MetricNames()) {}

template <typename EvalRow>
Result<TilePassTiming> FeaturePipeline::RunTiles(
    size_t n, const EvalRow& eval_row,
    const TileFn& on_tile) const {
  if (classifier_ == nullptr) {
    return Status::FailedPrecondition("feature pipeline has no classifier");
  }
  const size_t num_metrics = suite_.num_metrics();
  if (num_metrics == 0) {
    return Status::FailedPrecondition("feature pipeline has an empty suite");
  }
  for (size_t c : classifier_columns_) {
    if (c >= num_metrics) {
      return Status::InvalidArgument("classifier column out of range");
    }
  }

  const bool gather = !classifier_columns_.empty();
  const size_t classifier_width =
      gather ? classifier_columns_.size() : num_metrics;
  // One tile of metric rows and probabilities per chunk, reused by every
  // tile of the chunk. They are allocated here, on the calling thread: a
  // pool thread's malloc arena would keep request-sized buffers after the
  // request. A chunk holds at most ceil(n / chunks) rows.
  const size_t chunks = TileChunks(n);
  const size_t tile_rows =
      chunks == 0 ? 0 : std::min(kServeTileRows, (n + chunks - 1) / chunks);
  std::vector<double> tile_features(chunks * tile_rows * num_metrics);
  std::vector<double> tile_probs(chunks * tile_rows);
  std::atomic<size_t> next_chunk{0};
  TilePassTiming timing;
  std::mutex timing_mu;
  Timer wall;
  ParallelForRange(
      n,
      [&](size_t begin, size_t end) {
        const size_t chunk = next_chunk.fetch_add(1);
        double* features =
            tile_features.data() + chunk * tile_rows * num_metrics;
        double* probs = tile_probs.data() + chunk * tile_rows;
        // Per-chunk kernel scratch and the classifier's gathered input
        // columns.
        MetricScratch scratch;
        std::vector<double> gathered(gather ? classifier_width : 0);
        double featurize_ms = 0.0;
        double classify_ms = 0.0;
        for (size_t tile = begin; tile < end; tile += kServeTileRows) {
          const size_t rows = std::min(kServeTileRows, end - tile);
          Timer timer;
          for (size_t i = 0; i < rows; ++i) {
            eval_row(tile + i, features + i * num_metrics, &scratch);
          }
          featurize_ms += timer.ElapsedMillis();
          timer.Reset();
          for (size_t i = 0; i < rows; ++i) {
            const double* row = features + i * num_metrics;
            const double* classifier_input = row;
            if (gather) {
              for (size_t k = 0; k < classifier_width; ++k) {
                gathered[k] = row[classifier_columns_[k]];
              }
              classifier_input = gathered.data();
            }
            probs[i] =
                classifier_->PredictProba(classifier_input, classifier_width);
          }
          classify_ms += timer.ElapsedMillis();
          on_tile(chunk, FeatureTile{tile, rows, num_metrics, features, probs});
        }
        std::lock_guard<std::mutex> lock(timing_mu);
        timing.featurize_busy_ms += featurize_ms;
        timing.classify_busy_ms += classify_ms;
      },
      parallelism_);
  timing.wall_ms = wall.ElapsedMillis();
  return timing;
}

template <typename RunTilesFn>
Result<FeaturizedBatch> FeaturePipeline::Collect(
    size_t n, const RunTilesFn& run_tiles) const {
  FeaturizedBatch batch;
  batch.features = FeatureMatrix(n, suite_.num_metrics());
  batch.features.column_names = metric_names_;
  batch.probs.resize(n);
  // Every tile lands in its rows of the one whole batch.
  Result<TilePassTiming> timing =
      run_tiles([&batch](size_t, const FeatureTile& tile) {
        std::copy(tile.features, tile.features + tile.rows * tile.cols,
                  batch.features.mutable_row(tile.begin));
        std::copy(tile.probs, tile.probs + tile.rows,
                  batch.probs.data() + tile.begin);
      });
  if (!timing.ok()) return timing.status();
  const double busy = timing->featurize_busy_ms + timing->classify_busy_ms;
  batch.featurize_ms =
      SplitWall(timing->wall_ms, timing->featurize_busy_ms, busy);
  batch.classify_ms =
      SplitWall(timing->wall_ms, timing->classify_busy_ms, busy);
  return batch;
}

namespace {

// Uniform row access over the two prepared row sources. Both are always
// read through these helpers so the templated bodies below stay one copy.
inline const PreparedRecord& PreparedRow(const PreparedTable& t, size_t i) {
  return t.record(i);
}
inline const PreparedRecord& PreparedRow(const ShardedSideView& t, size_t i) {
  return t.prepared(i);
}

// Bounds checks. The sharded view addresses records by global id, where
// validity is per-shard (a global id can exceed a momentarily smaller
// sibling shard while being valid on its own shard), so it answers through
// its exact InRange instead of a flat size comparison.
inline bool RowInRange(const PreparedTable& t, size_t i) {
  return i < t.size();
}
inline bool RowInRange(const ShardedSideView& t, size_t i) {
  return t.InRange(i);
}

}  // namespace

template <typename LeftStore, typename RightStore>
Result<TilePassTiming> FeaturePipeline::RunPreparedImpl(
    const LeftStore& left, const RightStore& right,
    const std::vector<RecordPair>& pairs,
    const TileFn& on_tile) const {
  for (const RecordPair& pair : pairs) {
    if (!RowInRange(left, pair.left) || !RowInRange(right, pair.right)) {
      return Status::OutOfRange("record pair index out of table range");
    }
  }
  return RunTiles(
      pairs.size(),
      [&](size_t i, double* row, MetricScratch* scratch) {
        suite_.EvaluatePairPreparedInto(PreparedRow(left, pairs[i].left),
                                        PreparedRow(right, pairs[i].right),
                                        scratch, row);
      },
      on_tile);
}

template <typename Store>
Result<TilePassTiming> FeaturePipeline::RunProbePreparedImpl(
    const PreparedRecord& probe, const Store& table,
    const std::vector<size_t>& candidates,
    const TileFn& on_tile) const {
  if (probe.values.size() != suite_.schema().num_attributes()) {
    return Status::InvalidArgument(
        "probe record width does not match the pipeline schema");
  }
  for (size_t c : candidates) {
    if (!RowInRange(table, c)) {
      return Status::OutOfRange("candidate record index out of table range");
    }
  }
  return RunTiles(
      candidates.size(),
      [&](size_t i, double* row, MetricScratch* scratch) {
        suite_.EvaluatePairPreparedInto(
            probe, PreparedRow(table, candidates[i]), scratch, row);
      },
      on_tile);
}

Result<TilePassTiming> FeaturePipeline::RunPreparedTiles(
    const ShardedSideView& left, const ShardedSideView& right,
    const std::vector<RecordPair>& pairs,
    const TileFn& on_tile) const {
  return RunPreparedImpl(left, right, pairs, on_tile);
}

Result<TilePassTiming> FeaturePipeline::RunProbePreparedTiles(
    const PreparedRecord& probe, const ShardedSideView& table,
    const std::vector<size_t>& candidates,
    const TileFn& on_tile) const {
  return RunProbePreparedImpl(probe, table, candidates, on_tile);
}

Result<FeaturizedBatch> FeaturePipeline::RunPrepared(
    const PreparedTable& left, const PreparedTable& right,
    const std::vector<RecordPair>& pairs) const {
  return Collect(pairs.size(), [&](const TileFn& on_tile) {
    return RunPreparedImpl(left, right, pairs, on_tile);
  });
}

Result<FeaturizedBatch> FeaturePipeline::RunProbePrepared(
    const PreparedRecord& probe, const PreparedTable& table,
    const std::vector<size_t>& candidates) const {
  return Collect(candidates.size(), [&](const TileFn& on_tile) {
    return RunProbePreparedImpl(probe, table, candidates, on_tile);
  });
}

Result<FeaturizedBatch> FeaturePipeline::RunProbePrepared(
    const PreparedRecord& probe, const ShardedSideView& table,
    const std::vector<size_t>& candidates) const {
  return Collect(candidates.size(), [&](const TileFn& on_tile) {
    return RunProbePreparedTiles(probe, table, candidates, on_tile);
  });
}

}  // namespace learnrisk
