// Copyright 2026 The LearnRisk Authors
// Lock-free metric primitives — the bottom layer of the runtime telemetry
// subsystem (src/obs). Everything here is built for the gateway's Resolve
// hot path: recording a sample is a handful of relaxed atomic operations on
// per-thread stripes or histogram buckets, with no locks, no allocation, and
// no contention between recorder threads that stay on their own stripe.
// Aggregation (stripe summing, bucket copying) happens only at snapshot
// time, off the serving path. The full metric catalog, naming convention,
// and exporter formats are documented in docs/OBSERVABILITY.md.
//
//  - ShardedCounter / ShardedGauge: per-thread cache-line-padded atomic
//    stripes; Add() touches one stripe, Value() sums them.
//  - HistogramCells<N>: the one lock-free histogram store — N bucket
//    counters plus count, sum, min and max — that both histogram kinds
//    below keep; each kind adds only its bucket layout.
//  - LatencyHistogram: HDR-style log-bucketed histogram over uint64 values
//    (the gateway records nanoseconds). Fixed bucket layout — values below
//    32 are exact, above that every power-of-two range splits into 32
//    linear sub-buckets (relative error <= 1/32) — so histograms merge
//    bucket-for-bucket and quantiles extract without interpolation guesses.
//  - ValueHistogram: 64 linear buckets over [0, 1] (risk scores), recorded
//    in fixed-point micro-units so the snapshot side is integer-exact.
//  - TraceSpan: RAII span that records its elapsed wall-clock nanoseconds
//    into a LatencyHistogram and optionally a double-milliseconds slot.

#ifndef LEARNRISK_OBS_METRICS_H_
#define LEARNRISK_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace learnrisk {

/// \brief Number of independent atomic stripes per sharded metric. Each
/// recording thread is assigned one stripe round-robin at first use, so up
/// to this many threads record with zero cache-line contention.
inline constexpr size_t kMetricStripes = 16;

/// \brief This thread's stripe slot in [0, kMetricStripes): assigned
/// round-robin on first call, stable for the thread's lifetime.
size_t ThisThreadStripe();

/// \brief Monotonically increasing lock-free counter. Add() is a relaxed
/// fetch_add on the calling thread's stripe; Value() sums the stripes (a
/// point-in-time floor under concurrent writers, exact once writers are
/// quiescent or joined).
class ShardedCounter {
 public:
  ShardedCounter() = default;
  ShardedCounter(const ShardedCounter&) = delete;
  ShardedCounter& operator=(const ShardedCounter&) = delete;

  void Add(uint64_t delta = 1) {
    stripes_[ThisThreadStripe()].value.fetch_add(delta,
                                                 std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t sum = 0;
    for (const Stripe& stripe : stripes_) {
      sum += stripe.value.load(std::memory_order_relaxed);
    }
    return sum;
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<uint64_t> value{0};
  };
  std::array<Stripe, kMetricStripes> stripes_;
};

/// \brief Lock-free up/down gauge: sharded signed deltas, summed at read
/// time. Set() is a convenience for single-writer gauges (it rewrites every
/// stripe and must not race concurrent Add calls); prefer delta updates or
/// a snapshot-time gauge callback (MetricRegistry::GaugeCallback) for
/// absolute values.
class ShardedGauge {
 public:
  ShardedGauge() = default;
  ShardedGauge(const ShardedGauge&) = delete;
  ShardedGauge& operator=(const ShardedGauge&) = delete;

  void Add(int64_t delta) {
    stripes_[ThisThreadStripe()].value.fetch_add(delta,
                                                 std::memory_order_relaxed);
  }

  void Set(int64_t value) {
    stripes_[0].value.store(value, std::memory_order_relaxed);
    for (size_t i = 1; i < stripes_.size(); ++i) {
      stripes_[i].value.store(0, std::memory_order_relaxed);
    }
  }

  int64_t Value() const {
    int64_t sum = 0;
    for (const Stripe& stripe : stripes_) {
      sum += stripe.value.load(std::memory_order_relaxed);
    }
    return sum;
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<int64_t> value{0};
  };
  std::array<Stripe, kMetricStripes> stripes_;
};

/// \brief Sorted key/value label set attached to one instrument (e.g.
/// {{"namespace", "ds"}, {"stage", "block"}}).
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// \brief One histogram bucket in a snapshot: per-bucket (non-cumulative)
/// count of samples with value <= upper_bound (and > the previous bucket's
/// upper bound). Raw recorded units; exporters apply the family scale.
struct HistogramBucket {
  uint64_t upper_bound = 0;  ///< inclusive, raw units
  uint64_t count = 0;
};

/// \brief Immutable point-in-time view of one histogram instrument.
struct HistogramSnapshot {
  std::string name;
  std::string help;
  MetricLabels labels;
  /// Multiplier from raw recorded units to the exported unit (1e-9 for
  /// nanosecond latency histograms exported as seconds; 1e-6 for
  /// micro-unit value histograms exported as ratios).
  double scale = 1.0;
  uint64_t count = 0;
  uint64_t sum = 0;  ///< raw units
  uint64_t min = 0;  ///< exact observed minimum (0 when count == 0)
  uint64_t max = 0;  ///< exact observed maximum
  /// Non-empty buckets in ascending upper_bound order.
  std::vector<HistogramBucket> buckets;

  /// \brief Quantile in raw units: the upper bound of the bucket holding
  /// rank ceil(q * count), clamped to the exact observed max — exact for
  /// values that map to single-value buckets, within one bucket's
  /// resolution (<= 1/32 relative) otherwise. q in [0, 1]; 0 when empty.
  double Quantile(double q) const;

  /// \brief Folds `other` into this snapshot bucket-for-bucket (same fixed
  /// layout, so merging is exact): counts, sum, min/max. Both snapshots
  /// must come from the same histogram family (same scale).
  void Merge(const HistogramSnapshot& other);
};

/// \brief Lock-free histogram store over N buckets: one relaxed atomic
/// counter per bucket plus the sample count, sum, min and max. The bucket
/// layout (value -> bucket, bucket -> upper bound) belongs to the caller;
/// LatencyHistogram and ValueHistogram are the two layouts, and metrics.cc
/// instantiates the store for exactly those two.
template <size_t N>
class HistogramCells {
 public:
  /// \brief One sample of raw value `value`, which lands in `bucket`:
  /// relaxed atomic ops on the bucket, count, sum, min and max; no locks.
  void Add(size_t bucket, uint64_t value);

  /// \brief A batch of pre-bucketed samples: counts[i] samples landed in
  /// bucket i (N entries), with their total count, sum and observed min and
  /// max. Equivalent to the corresponding sequence of Add() calls but costs
  /// one atomic add per non-empty bucket. No-op when total is 0.
  void AddBucketed(const uint64_t* counts, uint64_t total, uint64_t sum,
                   uint64_t min, uint64_t max);

  /// \brief Point-in-time copy of the non-empty buckets, each labelled
  /// `upper_bound(i)`, and the summary stats (name, labels, help and scale
  /// are filled by the registry). Safe under concurrent Add calls; totals
  /// are exact once recorders are joined.
  HistogramSnapshot Snapshot(uint64_t (*upper_bound)(size_t)) const;

 private:
  std::array<std::atomic<uint64_t>, N> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
};

/// \brief Lock-free log-bucketed latency histogram over uint64 samples
/// (record nanoseconds). Fixed HDR-style layout: values < 32 get one bucket
/// each (exact); above that each power-of-two range [2^e, 2^(e+1)) splits
/// into 32 linear sub-buckets, bounding relative error by 1/32 (~3.1%).
/// The layout is identical across instances, so snapshots merge exactly.
class LatencyHistogram {
 public:
  static constexpr size_t kSubBucketBits = 5;
  static constexpr size_t kSubBucketCount = size_t{1} << kSubBucketBits;  // 32
  /// 32 exact buckets + 59 octaves (exponents 5..63) x 32 sub-buckets,
  /// covering the full uint64 range with no overflow bucket.
  static constexpr size_t kNumBuckets =
      kSubBucketCount + (63 - kSubBucketBits + 1) * kSubBucketCount;

  void Record(uint64_t value) { cells_.Add(BucketIndex(value), value); }

  /// \brief Bucket index of a value under the fixed layout.
  static size_t BucketIndex(uint64_t value);
  /// \brief Smallest value mapping to bucket `index`.
  static uint64_t BucketLowerBound(size_t index);
  /// \brief Largest value mapping to bucket `index` (inclusive).
  static uint64_t BucketUpperBound(size_t index);

  HistogramSnapshot Snapshot() const {
    return cells_.Snapshot(&BucketUpperBound);
  }

 private:
  HistogramCells<kNumBuckets> cells_;
};

/// \brief Lock-free linear histogram over [0, 1] (risk scores, classifier
/// probabilities). Samples are clamped to [0, 1] and recorded in fixed-point
/// micro-units (1e6 = 1.0) across 64 equal-width buckets, so snapshots are
/// integer-exact and merge bucket-for-bucket; non-finite samples are
/// dropped. Same Record cost as LatencyHistogram.
class ValueHistogram {
 public:
  static constexpr size_t kNumBuckets = 64;
  static constexpr uint64_t kScale = 1000000;  ///< micro-units per 1.0

  void Record(double value);

  /// \brief Merges a batch of pre-bucketed samples in one pass
  /// (HistogramCells::AddBucketed over micro-units) — the drift monitor
  /// uses this to observe every feature value of a batch for the price of a
  /// local array walk (see obs/drift.h).
  void RecordBucketed(const uint64_t* counts, uint64_t total,
                      uint64_t micro_sum, uint64_t micro_min,
                      uint64_t micro_max) {
    cells_.AddBucketed(counts, total, micro_sum, micro_min, micro_max);
  }

  /// \brief Fixed-point micro-units of a finite sample, clamped to [0, 1] —
  /// the exact quantization Record() applies before bucketing.
  static uint64_t ToMicro(double value);

  static size_t BucketIndex(uint64_t micro_value);
  static uint64_t BucketUpperBound(size_t index);  ///< inclusive, micro-units

  HistogramSnapshot Snapshot() const {
    return cells_.Snapshot(&BucketUpperBound);
  }

 private:
  HistogramCells<kNumBuckets> cells_;
};

/// \brief One named stage measurement inside a request-scoped trace (see
/// obs/trace.h). `stage` is expected to be a string literal ("block",
/// "featurize", ...) so spans stay allocation-free.
struct TraceStageSpan {
  const char* stage = "";
  double ms = 0.0;
};

/// \brief RAII trace span: starts a wall clock on construction and records
/// the elapsed nanoseconds into `histogram` (when non-null) on destruction
/// or Stop(), optionally also writing elapsed milliseconds to `out_ms`, so
/// one measurement can feed both a per-request field and a histogram.
class TraceSpan {
 public:
  explicit TraceSpan(LatencyHistogram* histogram, double* out_ms = nullptr)
      : histogram_(histogram),
        out_ms_(out_ms),
        start_(std::chrono::steady_clock::now()) {}
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan() { Stop(); }

  /// \brief Ends the span now (idempotent) and returns the elapsed
  /// nanoseconds that were recorded.
  uint64_t Stop();

 private:
  LatencyHistogram* histogram_;
  double* out_ms_;
  std::chrono::steady_clock::time_point start_;
  bool stopped_ = false;
  uint64_t elapsed_ns_ = 0;
};

/// \brief Immutable point-in-time view of one counter instrument.
struct CounterSnapshot {
  std::string name;
  std::string help;
  MetricLabels labels;
  uint64_t value = 0;
};

/// \brief Immutable point-in-time view of one gauge instrument.
struct GaugeSnapshot {
  std::string name;
  std::string help;
  MetricLabels labels;
  int64_t value = 0;
};

/// \brief Immutable point-in-time view of every instrument in a
/// MetricRegistry: what Gateway::MetricsSnapshot() returns and what the
/// exporters (ExportJson / ExportPrometheusText) consume. Entries are
/// sorted by (name, labels) for deterministic output.
struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// \brief Lookup helpers (exact name + label match); null when absent.
  const CounterSnapshot* FindCounter(const std::string& name,
                                     const MetricLabels& labels = {}) const;
  const GaugeSnapshot* FindGauge(const std::string& name,
                                 const MetricLabels& labels = {}) const;
  const HistogramSnapshot* FindHistogram(const std::string& name,
                                         const MetricLabels& labels = {}) const;
};

}  // namespace learnrisk

#endif  // LEARNRISK_OBS_METRICS_H_
