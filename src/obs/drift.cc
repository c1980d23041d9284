// Copyright 2026 The LearnRisk Authors

#include "obs/drift.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace learnrisk {
namespace {

constexpr double kSmoothing = 0.5;  // Laplace mass added to every bucket

}  // namespace

DriftBaseline DriftBaseline::FromTraining(
    const FeatureMatrix& features, const std::vector<double>& risk_scores) {
  // The live side's accumulator, run once over the training values; each
  // column keeps its frozen counts and total.
  FeatureBuckets buckets(features.cols());
  buckets.Observe(features.row(0), features.rows(), features.cols());
  FeatureBuckets risk(1);
  risk.Observe(risk_scores.data(), risk_scores.size(), 1);
  auto freeze = [](const FeatureBuckets::Column& column, std::string name) {
    return DriftColumn{std::move(name),
                       {std::begin(column.counts), std::end(column.counts)},
                       column.total};
  };
  DriftBaseline baseline;
  for (size_t c = 0; c < features.cols(); ++c) {
    baseline.columns_.push_back(
        freeze(buckets.columns_[c], c < features.column_names.size()
                                        ? features.column_names[c]
                                        : "column_" + std::to_string(c)));
  }
  baseline.risk_ = freeze(risk.columns_[0], "risk_score");
  return baseline;
}

double Psi(const DriftColumn& baseline, const HistogramSnapshot& live) {
  if (baseline.total == 0 || live.count == 0) return 0.0;
  if (baseline.counts.size() != DriftBaseline::kNumBuckets) return 0.0;
  // Re-densify the sparse live snapshot onto the shared fixed layout.
  uint64_t live_counts[DriftBaseline::kNumBuckets] = {0};
  for (const HistogramBucket& bucket : live.buckets) {
    live_counts[ValueHistogram::BucketIndex(bucket.upper_bound)] +=
        bucket.count;
  }
  const double base_denom =
      static_cast<double>(baseline.total) +
      kSmoothing * static_cast<double>(DriftBaseline::kNumBuckets);
  const double live_denom =
      static_cast<double>(live.count) +
      kSmoothing * static_cast<double>(DriftBaseline::kNumBuckets);
  double psi = 0.0;
  for (size_t i = 0; i < DriftBaseline::kNumBuckets; ++i) {
    const double q =
        (static_cast<double>(baseline.counts[i]) + kSmoothing) / base_denom;
    const double p =
        (static_cast<double>(live_counts[i]) + kSmoothing) / live_denom;
    psi += (p - q) * std::log(p / q);
  }
  return psi;
}

int64_t PsiMicros(const DriftColumn& baseline, const HistogramSnapshot& live) {
  return static_cast<int64_t>(std::llround(Psi(baseline, live) * 1e6));
}

void FeatureBuckets::Observe(const double* rows, size_t num_rows,
                             size_t stride) {
  const size_t num_columns = columns_.size();
  for (size_t r = 0; r < num_rows; ++r) {
    const double* row = rows + r * stride;
    for (size_t c = 0; c < num_columns; ++c) {
      const double value = row[c];
      if (!std::isfinite(value)) continue;
      const uint64_t micro = ValueHistogram::ToMicro(value);
      Column& column = columns_[c];
      ++column.counts[ValueHistogram::BucketIndex(micro)];
      ++column.total;
      column.sum += micro;
      column.min = std::min(column.min, micro);
      column.max = std::max(column.max, micro);
    }
  }
}

void FeatureBuckets::Flush(size_t c, ValueHistogram* histogram) const {
  if (histogram == nullptr) return;
  const Column& column = columns_[c];
  histogram->RecordBucketed(column.counts, column.total, column.sum,
                            column.min, column.max);
}

void ObserveFeatures(const FeatureMatrix& features,
                     const std::vector<ValueHistogram*>& columns) {
  if (features.rows() == 0) return;
  FeatureBuckets buckets(std::min(columns.size(), features.cols()));
  buckets.Observe(features.row(0), features.rows(), features.cols());
  for (size_t c = 0; c < buckets.num_columns(); ++c) {
    buckets.Flush(c, columns[c]);
  }
}

}  // namespace learnrisk
