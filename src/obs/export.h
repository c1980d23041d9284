// Copyright 2026 The LearnRisk Authors
// Snapshot exporters — the presentation layer of the telemetry subsystem.
// Both consume an immutable MetricsSnapshot (Gateway::MetricsSnapshot() /
// MetricRegistry::Snapshot()) and are pure functions of it, so they are safe
// anywhere and never touch live instruments. Formats are documented with
// examples in docs/OBSERVABILITY.md; the metrics_format_check ctest
// validates the Prometheus output with tools/check_metrics_format.sh.

#ifndef LEARNRISK_OBS_EXPORT_H_
#define LEARNRISK_OBS_EXPORT_H_

#include <string>

#include "obs/metrics.h"

namespace learnrisk {

/// \brief JSON document: {"counters": [...], "gauges": [...],
/// "histograms": [...]}. Histogram entries carry count/sum/min/max and
/// derived p50/p90/p99 in exported units (seconds for latency families)
/// plus the non-empty buckets.
std::string ExportJson(const MetricsSnapshot& snapshot);

/// \brief Prometheus text exposition format (version 0.0.4): one HELP/TYPE
/// header per family, counters as `_total` samples, histograms as
/// cumulative `_bucket{le="..."}` series with `_sum` and `_count`, all
/// values in exported units and label values escaped per the spec.
std::string ExportPrometheusText(const MetricsSnapshot& snapshot);

/// \brief `value` as printf "%.10g" (every exported number, metrics and
/// traces alike).
std::string FormatDouble(double value);

/// \brief JSON string-body escaping: quotes, backslash, control characters.
std::string EscapeJson(const std::string& value);

}  // namespace learnrisk

#endif  // LEARNRISK_OBS_EXPORT_H_
