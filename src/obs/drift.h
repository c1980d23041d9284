// Copyright 2026 The LearnRisk Authors
// Online drift monitoring — the third pillar of decision observability.
// At publish time the trainer freezes per-column histograms of the
// training feature matrix (and optionally the training risk-score
// distribution) into a DriftBaseline that rides the ScorerSnapshot; at
// serve time the gateway streams every observed feature value into
// per-column ValueHistograms (FeatureBuckets: local bucket arrays, one
// RecordBucketed flush per column per parallel chunk); at scrape time a
// PSI divergence between the frozen and live distributions surfaces as
// per-column gauges (learnrisk_gateway_drift_psi_micros) through
// MetricsSnapshot() and the Prometheus exporter. Math and thresholds:
// docs/TRACING.md.

#ifndef LEARNRISK_OBS_DRIFT_H_
#define LEARNRISK_OBS_DRIFT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "metrics/metric_suite.h"
#include "obs/metrics.h"

namespace learnrisk {

/// \brief Frozen distribution of one feature column: sample counts over
/// the same 64 linear [0, 1] buckets ValueHistogram uses, so the live and
/// baseline sides compare bucket-for-bucket with no re-binning.
struct DriftColumn {
  std::string name;
  std::vector<uint64_t> counts;  ///< ValueHistogram::kNumBuckets entries
  uint64_t total = 0;
};

/// \brief Training-time reference distributions, frozen into the
/// ScorerSnapshot when a model is published with one (Gateway::Publish /
/// ServingEngine::Publish). Immutable after construction; shared by
/// const shared_ptr between the scorer and the gateway's drift gauges,
/// which read it from the served snapshot. Not persisted by model_io: a
/// model reloaded from disk (crash recovery) serves without a baseline and
/// its drift gauges read 0 until the next Publish supplies one.
class DriftBaseline {
 public:
  static constexpr size_t kNumBuckets = ValueHistogram::kNumBuckets;

  /// \brief Buckets every value of the training feature matrix column-wise
  /// through FeatureBuckets, the live side's accumulator (non-finite values
  /// are dropped, everything else clamped to [0, 1] in micro-units). Column
  /// names come from `features.column_names` when present. `risk_scores`,
  /// when non-empty, freezes the training risk-score distribution for
  /// comparison against the live risk-score ValueHistogram.
  static DriftBaseline FromTraining(const FeatureMatrix& features,
                                    const std::vector<double>& risk_scores = {});

  const std::vector<DriftColumn>& columns() const { return columns_; }

  /// \brief Frozen risk-score distribution; total == 0 when none was given.
  const DriftColumn& risk() const { return risk_; }
  bool has_risk() const { return risk_.total > 0; }

 private:
  std::vector<DriftColumn> columns_;
  DriftColumn risk_;
};

/// \brief Population Stability Index between a frozen baseline column and a
/// live histogram snapshot over the same bucket layout:
///   PSI = sum_i (p_i - q_i) * ln(p_i / q_i)
/// with Laplace smoothing (+0.5 per bucket) so empty buckets on either side
/// stay finite. Symmetric and >= 0; 0 when either side has no samples. The
/// conventional reading: < 0.1 stable, 0.1–0.2 moderate shift, > 0.2 drift.
double Psi(const DriftColumn& baseline, const HistogramSnapshot& live);

/// \brief Psi() in integer micro-units (1e6 = PSI 1.0) — the gauge
/// representation exported by the gateway.
int64_t PsiMicros(const DriftColumn& baseline, const HistogramSnapshot& live);

/// \brief Per-column bucket counts of a run of feature rows, gathered in a
/// local array and flushed into live ValueHistograms with one
/// RecordBucketed per column, so the atomic traffic is one add per
/// non-empty bucket per column rather than four per sample. The gateway's
/// tiled request pass keeps one per parallel chunk, observes each tile as
/// it is scored and flushes once the request succeeds; ObserveFeatures is
/// the same accumulator over a whole matrix. The flushed histogram state
/// (buckets, count, sum, min, max) does not depend on how the rows were
/// split into runs.
class FeatureBuckets {
 public:
  explicit FeatureBuckets(size_t num_columns = 0) : columns_(num_columns) {}

  size_t num_columns() const { return columns_.size(); }

  /// \brief Buckets `num_rows` rows of a row-major block whose rows start
  /// `stride` values apart; column c reads row[c] for c < num_columns().
  /// Non-finite values are skipped, as ValueHistogram::Record skips them.
  void Observe(const double* rows, size_t num_rows, size_t stride);

  /// \brief Adds column c's buckets into `histogram` (skipped when null).
  void Flush(size_t c, ValueHistogram* histogram) const;

 private:
  friend class DriftBaseline;  // FromTraining freezes the columns' counts

  struct Column {
    uint64_t counts[ValueHistogram::kNumBuckets] = {};
    uint64_t total = 0;
    uint64_t sum = 0;
    uint64_t min = UINT64_MAX;
    uint64_t max = 0;
  };
  std::vector<Column> columns_;
};

/// \brief Streams every value of a featurized batch into the per-column
/// live histograms (columns[c] receives features column c; extra columns on
/// either side are ignored): one FeatureBuckets pass over the matrix, then
/// one flush per column — cheap enough to run on every request.
void ObserveFeatures(const FeatureMatrix& features,
                     const std::vector<ValueHistogram*>& columns);

}  // namespace learnrisk

#endif  // LEARNRISK_OBS_DRIFT_H_
