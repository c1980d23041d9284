// Copyright 2026 The LearnRisk Authors
// End-to-end request gateway walkthrough: fit a LearnRisk pipeline per
// dataset, register each as a gateway namespace (tables + blocking + metric
// suite + frozen classifier), publish the trained risk models into the
// multi-tenant registry, and resolve raw record pairs — batch (block_all)
// and online (add a record, probe it) — through one API. Ends by reading
// the gateway's built-in telemetry back out: a metrics snapshot with
// per-stage latency histograms, the slowest captured request traces with
// their stage spans, the per-column drift gauges (PSI vs each model's
// training baseline), and the Prometheus rendering of it all. The gateway is
// durable: one namespace is checkpointed and recovered in a fresh gateway,
// model version included.
//
// Leaves three dumps in the working directory: gateway_metrics_1.prom
// (after the batch section), gateway_metrics_2.prom and gateway_traces.json
// (at the end). The metrics_format_check ctest runs this walkthrough and
// validates them with tools/check_metrics_format.sh.
//
//   ./gateway_end_to_end

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <vector>

#include "classifier/mlp.h"
#include "gateway/gateway.h"
#include "learnrisk/learnrisk.h"
#include "obs/drift.h"
#include "obs/export.h"
#include "obs/trace.h"

using namespace learnrisk;  // NOLINT

namespace {

// Fits the full LearnRisk stack on a generated dataset and registers the
// result as a gateway namespace. `recover` receives the code-side half of
// the namespace that a restarted gateway needs to recover it.
bool SetUpNamespace(Gateway* gateway, const std::string& ns,
                    const std::string& dataset, uint64_t seed,
                    RecoverNamespaceSpec* recover) {
  GeneratorOptions options;
  options.scale = 0.05;
  options.seed = seed;
  Result<Workload> workload = GenerateDataset(dataset, options);
  if (!workload.ok()) return false;
  Rng rng(seed);
  Result<WorkloadSplit> split = StratifiedSplit(*workload, 3, 2, 5, &rng);
  if (!split.ok()) return false;

  PipelineOptions pipeline_options;
  pipeline_options.risk_trainer.epochs = 150;
  LearnRiskPipeline pipeline(pipeline_options);
  if (!pipeline.Fit(*workload, split->train, split->valid).ok()) return false;

  NamespaceSpec spec;
  spec.left = workload->left_ptr();
  spec.right = workload->right_ptr();
  spec.suite = pipeline.suite();
  // The gateway freezes a copy of the fitted classifier; the pipeline
  // object can be discarded after registration.
  spec.classifier = std::make_shared<MlpClassifier>(pipeline.classifier());
  spec.classifier_columns = pipeline.classifier_columns();
  recover->schema = workload->left().schema();
  recover->suite = spec.suite;
  recover->classifier = spec.classifier;
  recover->classifier_columns = spec.classifier_columns;
  if (!gateway->RegisterNamespace(ns, std::move(spec)).ok()) return false;
  // Freeze the training-time feature and risk-score distributions into the
  // published model so the gateway's drift gauges compare live traffic
  // against what this model actually saw at fit time (docs/TRACING.md).
  std::vector<size_t> all_pairs(pipeline.features().rows());
  std::iota(all_pairs.begin(), all_pairs.end(), size_t{0});
  const auto training_risk = pipeline.Score(all_pairs);
  if (!training_risk.ok()) return false;
  auto baseline = std::make_shared<const DriftBaseline>(
      DriftBaseline::FromTraining(pipeline.features(), *training_risk));
  const auto version =
      gateway->Publish(ns, pipeline.risk_model(), std::move(baseline));
  if (!version.ok()) return false;
  std::printf("namespace %-4s <- %s: %zu risk rules, model v%llu\n",
              ns.c_str(), dataset.c_str(),
              pipeline.risk_model().num_rules(),
              static_cast<unsigned long long>(*version));
  return true;
}

// Writes one telemetry dump into the working directory.
bool WriteDump(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  return static_cast<bool>(out);
}

}  // namespace

int main() {
  // Capture a trace for every request (this walkthrough only issues a
  // handful); production deployments keep the default 1-in-64 head
  // sampling and arm the slow / high-risk tail thresholds instead.
  GatewayOptions gateway_options;
  gateway_options.trace.sample_every = 1;
  // Durable namespaces: every registration commits checkpoint 1 under this
  // directory, and every AddRecord is write-ahead-logged. Start clean so a
  // rerun does not find the previous run's committed state.
  gateway_options.durability.dir = "/tmp/learnrisk_gateway_durable";
  std::filesystem::remove_all(gateway_options.durability.dir);
  Gateway gateway(gateway_options);
  RecoverNamespaceSpec ds_recover;
  RecoverNamespaceSpec ab_recover;
  if (!SetUpNamespace(&gateway, "ds", "DS", 7, &ds_recover) ||
      !SetUpNamespace(&gateway, "ab", "AB", 11, &ab_recover)) {
    std::fprintf(stderr, "namespace setup failed\n");
    return 1;
  }

  // --- Batch: raw tables -> blocking -> ranked risky pairs. ---------------
  for (const std::string& ns : gateway.Namespaces()) {
    ResolveRequest request;
    request.block_all = true;
    request.explain_top_k = 2;
    const auto response = gateway.Resolve(ns, request);
    if (!response.ok()) {
      std::fprintf(stderr, "resolve failed: %s\n",
                   response.status().ToString().c_str());
      return 1;
    }
    // Riskiest labeled pair in the namespace.
    size_t top = 0;
    for (size_t i = 1; i < response->scores.risk.size(); ++i) {
      if (response->scores.risk[i] > response->scores.risk[top]) top = i;
    }
    std::printf(
        "\n[%s] %zu candidate pairs (blocking %.1f ms, featurize %.1f ms, "
        "classify %.1f ms, score %.1f ms)\n",
        ns.c_str(), response->pairs.size(), response->timing.blocking_ms,
        response->timing.featurize_ms, response->timing.classify_ms,
        response->timing.score_ms);
    std::printf("  riskiest pair (%zu, %zu): label=%s risk=%.3f\n",
                response->pairs[top].left, response->pairs[top].right,
                response->scores.machine_label[top] ? "match" : "unmatch",
                response->scores.risk[top]);
    for (const RiskContribution& c : response->scores.explanations[top]) {
      std::printf("    %-50.50s weight=%.2f mu=%.2f\n", c.description.c_str(),
                  c.weight, c.expectation);
    }
  }
  if (!WriteDump("gateway_metrics_1.prom",
                 ExportPrometheusText(gateway.MetricsSnapshot()))) {
    return 1;
  }

  // --- Online: a new record arrives, gets indexed, and is probed. ---------
  // Append a fresh bibliography record to the right side, then probe with a
  // copy of it — the blocking index picks it (and any other token-sharing
  // record) up without a rebuild, and the same Resolve stack scores the
  // candidates.
  Record arrival;
  arrival.values = {"incremental entity resolution at serving time",
                    "chen q, lee w", "sigmod", "2020"};
  if (!gateway.AddRecord("ds", BlockingSide::kRight, arrival).ok()) return 1;
  const auto probe_response = gateway.ResolveRecord("ds", arrival, 1);
  if (!probe_response.ok()) {
    std::fprintf(stderr, "probe failed: %s\n",
                 probe_response.status().ToString().c_str());
    return 1;
  }
  std::printf("\n[ds] online probe after AddRecord: %zu blocking "
              "candidates, %zu scored\n",
              probe_response->candidates.size(),
              probe_response->scores.risk.size());

  // --- Persistence: checkpoint, then recover in a fresh gateway. ----------
  // The checkpoint commits the namespace's records (the online arrival
  // included) and, on shard 0, the served model at its exact version. A
  // fresh gateway over the same directory rebuilds the namespace and
  // re-publishes that model under the same version (docs/DURABILITY.md).
  if (!gateway.Checkpoint("ds").ok()) return 1;
  {
    GatewayOptions restart_options;
    restart_options.durability.dir = gateway_options.durability.dir;
    Gateway restarted(restart_options);
    const Status recovered =
        restarted.RecoverNamespace("ds", std::move(ds_recover));
    if (!recovered.ok()) {
      std::fprintf(stderr, "recover failed: %s\n",
                   recovered.ToString().c_str());
      return 1;
    }
    const auto served = gateway.registry().Engine("ds");
    const auto restored = restarted.registry().Engine("ds");
    const auto records = restarted.NumRecords("ds", BlockingSide::kRight);
    if (!served.ok() || !restored.ok() || !records.ok() ||
        (*restored)->version() != (*served)->version()) {
      return 1;
    }
    std::printf("\n[ds] checkpointed and recovered in a fresh gateway: %zu "
                "right-side records, model v%llu\n",
                *records,
                static_cast<unsigned long long>((*restored)->version()));
  }

  // --- Telemetry: everything above left a trail in the metrics. -----------
  // One lock-free snapshot covers both namespaces: request counts, pairs
  // scored, per-stage latency histograms, and the risk-score distribution
  // (docs/OBSERVABILITY.md catalogs every series). The same snapshot also
  // renders as JSON (ExportJson) or Prometheus text for scraping.
  const MetricsSnapshot metrics = gateway.MetricsSnapshot();
  std::printf("\ntelemetry snapshot: %zu counters, %zu gauges, %zu "
              "histograms\n",
              metrics.counters.size(), metrics.gauges.size(),
              metrics.histograms.size());
  for (const std::string& ns : gateway.Namespaces()) {
    const CounterSnapshot* pairs = metrics.FindCounter(
        "learnrisk_gateway_pairs_scored_total", {{"namespace", ns}});
    const HistogramSnapshot* latency = metrics.FindHistogram(
        "learnrisk_gateway_request_latency_seconds",
        {{"api", "resolve"}, {"namespace", ns}});
    if (pairs == nullptr || latency == nullptr) return 1;
    std::printf("  [%s] %llu pairs scored; resolve p99 %.2f ms over %llu "
                "requests\n",
                ns.c_str(), static_cast<unsigned long long>(pairs->value),
                static_cast<double>(latency->Quantile(0.99)) *
                    latency->scale * 1e3,
                static_cast<unsigned long long>(latency->count));
  }
  // --- Decision observability: traces and drift. --------------------------
  // Every request above was captured (sample_every = 1) into the audit
  // ring. Pull the two slowest back out with their stage spans — this is
  // the exemplar a dashboard would link from a latency alert.
  auto traces = gateway.RecentTraces();
  if (traces.empty()) {
    std::fprintf(stderr, "tracing armed but no traces captured\n");
    return 1;
  }
  std::sort(traces.begin(), traces.end(),
            [](const std::shared_ptr<const RequestTrace>& a,
               const std::shared_ptr<const RequestTrace>& b) {
              return a->total_ns > b->total_ns;
            });
  std::printf("\n%zu request traces captured; two slowest:\n", traces.size());
  for (size_t i = 0; i < traces.size() && i < 2; ++i) {
    const RequestTrace& trace = *traces[i];
    std::printf("  #%llu %s [%s] model v%llu: %.2f ms, %zu pairs scored, "
                "max risk %.3f\n",
                static_cast<unsigned long long>(trace.request_id),
                trace.api, trace.ns.c_str(),
                static_cast<unsigned long long>(trace.model_version),
                static_cast<double>(trace.total_ns) / 1e6, trace.pairs_scored,
                trace.max_risk);
    for (const TraceStageSpan& span : trace.stages) {
      std::printf("    %-12s %8.2f ms\n", span.stage, span.ms);
    }
  }

  // Drift gauges: PSI of each live feature-value distribution against the
  // training baseline frozen at Publish. The models were fit on the
  // workload's labeled candidate pairs, but block_all swept every blocking
  // pair — far more dissimilar ones — so several similarity columns land
  // above the conventional 0.2 alert line. That gap between training
  // sample and served traffic is exactly what these gauges exist to
  // surface.
  int64_t max_psi = 0;
  size_t drifted = 0;
  for (const GaugeSnapshot& gauge : metrics.gauges) {
    if (gauge.name != "learnrisk_gateway_drift_psi_micros") continue;
    max_psi = std::max(max_psi, gauge.value);
    if (static_cast<double>(gauge.value) < 0.2 * 1e6) continue;
    ++drifted;
    std::string column = "?";
    std::string ns = "?";
    for (const auto& label : gauge.labels) {
      if (label.first == "column") column = label.second;
      if (label.first == "namespace") ns = label.second;
    }
    std::printf("  DRIFT WARNING [%s] %s: PSI %.4f >= 0.2\n", ns.c_str(),
                column.c_str(), static_cast<double>(gauge.value) / 1e6);
  }
  std::printf("\ndrift check: max PSI %.4f across columns, %zu at or above "
              "the 0.2 alert line\n",
              static_cast<double>(max_psi) / 1e6, drifted);

  // Tail of the Prometheus exposition, as a scraper would see it.
  const std::string prom = ExportPrometheusText(metrics);
  const size_t tail = prom.size() > 400 ? prom.size() - 400 : 0;
  std::printf("\nprometheus exposition tail:\n...%s", prom.c_str() + tail);
  if (!WriteDump("gateway_metrics_2.prom", prom) ||
      !WriteDump("gateway_traces.json", ExportTracesJson(traces))) {
    return 1;
  }
  return 0;
}
