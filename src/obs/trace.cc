// Copyright 2026 The LearnRisk Authors

#include "obs/trace.h"

#include <algorithm>
#include <sstream>

#include "obs/export.h"

namespace learnrisk {
namespace {

void EmitTrace(std::ostringstream* out, const RequestTrace& trace) {
  *out << "{\"request_id\": " << trace.request_id << ", \"api\": \""
       << EscapeJson(trace.api) << "\", \"namespace\": \""
       << EscapeJson(trace.ns) << "\", \"model_version\": "
       << trace.model_version << ", \"start_ns\": " << trace.start_ns
       << ", \"total_ns\": " << trace.total_ns << ", \"candidates\": "
       << trace.candidates << ", \"pairs_scored\": " << trace.pairs_scored
       << ", \"max_risk\": " << FormatDouble(trace.max_risk)
       << ", \"head_sampled\": " << (trace.head_sampled ? "true" : "false")
       << ", \"slow\": " << (trace.slow ? "true" : "false")
       << ", \"high_risk\": " << (trace.high_risk ? "true" : "false")
       << ", \"stages\": [";
  for (size_t i = 0; i < trace.stages.size(); ++i) {
    *out << (i == 0 ? "" : ", ") << "{\"stage\": \""
         << EscapeJson(trace.stages[i].stage) << "\", \"ms\": "
         << FormatDouble(trace.stages[i].ms) << "}";
  }
  *out << "], \"top_risky\": [";
  for (size_t i = 0; i < trace.top_risky.size(); ++i) {
    const TracedDecision& decision = trace.top_risky[i];
    *out << (i == 0 ? "" : ", ") << "{\"left\": " << decision.left
         << ", \"right\": " << decision.right << ", \"risk\": "
         << FormatDouble(decision.risk) << ", \"classifier_prob\": "
         << FormatDouble(decision.classifier_prob) << ", \"machine_label\": "
         << (decision.machine_label ? "true" : "false")
         << ", \"active_rules\": [";
    for (size_t r = 0; r < decision.active_rules.size(); ++r) {
      *out << (r == 0 ? "" : ", ") << decision.active_rules[r];
    }
    *out << "], \"explanation\": [";
    for (size_t e = 0; e < decision.explanation.size(); ++e) {
      const TraceContribution& c = decision.explanation[e];
      *out << (e == 0 ? "" : ", ") << "{\"rule\": \""
           << EscapeJson(c.description) << "\", \"weight\": "
           << FormatDouble(c.weight) << ", \"expectation\": "
           << FormatDouble(c.expectation) << ", \"rsd\": "
           << FormatDouble(c.rsd) << "}";
    }
    *out << "]}";
  }
  *out << "]}";
}

}  // namespace

std::string ExportTracesJson(
    const std::vector<std::shared_ptr<const RequestTrace>>& traces) {
  std::vector<std::shared_ptr<const RequestTrace>> ordered;
  ordered.reserve(traces.size());
  for (const auto& trace : traces) {
    if (trace != nullptr) ordered.push_back(trace);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const std::shared_ptr<const RequestTrace>& a,
               const std::shared_ptr<const RequestTrace>& b) {
              if (a->start_ns != b->start_ns) return a->start_ns < b->start_ns;
              return a->request_id < b->request_id;
            });
  std::ostringstream out;
  out << "{\"traces\": [";
  for (size_t i = 0; i < ordered.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n");
    EmitTrace(&out, *ordered[i]);
  }
  out << "\n]}\n";
  return out.str();
}

}  // namespace learnrisk
