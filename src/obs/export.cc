// Copyright 2026 The LearnRisk Authors

#include "obs/export.h"

#include <cinttypes>
#include <cstdio>
#include <sstream>

namespace learnrisk {

std::string FormatDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.10g", value);
  return buffer;
}

std::string EscapeJson(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

namespace {

// Prometheus label-value escaping: backslash, double quote, newline.
std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

// `{k1="v1",k2="v2"}`, or empty when there are no labels. `extra` appends
// one more pair (used for the histogram `le` label).
std::string PrometheusLabels(const MetricLabels& labels,
                             const std::string& extra_key = "",
                             const std::string& extra_value = "") {
  if (labels.empty() && extra_key.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out.push_back(',');
    first = false;
    out += key + "=\"" + EscapeLabelValue(value) + "\"";
  }
  if (!extra_key.empty()) {
    if (!first) out.push_back(',');
    out += extra_key + "=\"" + EscapeLabelValue(extra_value) + "\"";
  }
  out.push_back('}');
  return out;
}

std::string JsonLabels(const MetricLabels& labels) {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out.push_back(',');
    first = false;
    out += "\"" + EscapeJson(key) + "\":\"" + EscapeJson(value) + "\"";
  }
  out.push_back('}');
  return out;
}

void EmitFamilyHeader(std::ostringstream* out, std::string* last_name,
                      const std::string& name, const std::string& help,
                      const char* type) {
  if (name == *last_name) return;
  *last_name = name;
  *out << "# HELP " << name << " " << help << "\n";
  *out << "# TYPE " << name << " " << type << "\n";
}

}  // namespace

std::string ExportPrometheusText(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  std::string last_name;
  for (const CounterSnapshot& counter : snapshot.counters) {
    EmitFamilyHeader(&out, &last_name, counter.name, counter.help, "counter");
    out << counter.name << PrometheusLabels(counter.labels) << " "
        << counter.value << "\n";
  }
  for (const GaugeSnapshot& gauge : snapshot.gauges) {
    EmitFamilyHeader(&out, &last_name, gauge.name, gauge.help, "gauge");
    out << gauge.name << PrometheusLabels(gauge.labels) << " " << gauge.value
        << "\n";
  }
  for (const HistogramSnapshot& histogram : snapshot.histograms) {
    EmitFamilyHeader(&out, &last_name, histogram.name, histogram.help,
                     "histogram");
    uint64_t cumulative = 0;
    for (const HistogramBucket& bucket : histogram.buckets) {
      cumulative += bucket.count;
      out << histogram.name << "_bucket"
          << PrometheusLabels(
                 histogram.labels, "le",
                 FormatDouble(static_cast<double>(bucket.upper_bound) *
                              histogram.scale))
          << " " << cumulative << "\n";
    }
    out << histogram.name << "_bucket"
        << PrometheusLabels(histogram.labels, "le", "+Inf") << " "
        << histogram.count << "\n";
    out << histogram.name << "_sum" << PrometheusLabels(histogram.labels)
        << " "
        << FormatDouble(static_cast<double>(histogram.sum) * histogram.scale)
        << "\n";
    out << histogram.name << "_count" << PrometheusLabels(histogram.labels)
        << " " << histogram.count << "\n";
  }
  return out.str();
}

std::string ExportJson(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  out << "{\n  \"counters\": [";
  for (size_t i = 0; i < snapshot.counters.size(); ++i) {
    const CounterSnapshot& counter = snapshot.counters[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"name\": \""
        << EscapeJson(counter.name) << "\", \"labels\": "
        << JsonLabels(counter.labels) << ", \"value\": " << counter.value
        << "}";
  }
  out << "\n  ],\n  \"gauges\": [";
  for (size_t i = 0; i < snapshot.gauges.size(); ++i) {
    const GaugeSnapshot& gauge = snapshot.gauges[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"name\": \""
        << EscapeJson(gauge.name) << "\", \"labels\": "
        << JsonLabels(gauge.labels) << ", \"value\": " << gauge.value << "}";
  }
  out << "\n  ],\n  \"histograms\": [";
  for (size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const HistogramSnapshot& histogram = snapshot.histograms[i];
    const double scale = histogram.scale;
    out << (i == 0 ? "\n" : ",\n") << "    {\"name\": \""
        << EscapeJson(histogram.name) << "\", \"labels\": "
        << JsonLabels(histogram.labels) << ", \"count\": " << histogram.count
        << ", \"sum\": "
        << FormatDouble(static_cast<double>(histogram.sum) * scale)
        << ", \"min\": "
        << FormatDouble(static_cast<double>(histogram.min) * scale)
        << ", \"max\": "
        << FormatDouble(static_cast<double>(histogram.max) * scale)
        << ", \"p50\": " << FormatDouble(histogram.Quantile(0.5) * scale)
        << ", \"p90\": " << FormatDouble(histogram.Quantile(0.9) * scale)
        << ", \"p99\": " << FormatDouble(histogram.Quantile(0.99) * scale)
        << ", \"buckets\": [";
    for (size_t b = 0; b < histogram.buckets.size(); ++b) {
      out << (b == 0 ? "" : ", ") << "{\"le\": "
          << FormatDouble(
                 static_cast<double>(histogram.buckets[b].upper_bound) * scale)
          << ", \"count\": " << histogram.buckets[b].count << "}";
    }
    out << "]}";
  }
  out << "\n  ]\n}\n";
  return out.str();
}

}  // namespace learnrisk
