// Copyright 2026 The LearnRisk Authors
//
// bulk_resolve: one closed-loop client resolves a DS two-table namespace
// (scale 0.1, about 60k candidate pairs per request) with block_all, over
// and over. request_parallelism = 0, so featurize and classify run on the
// shared pool across all cores; default observability with a drift
// baseline armed; review off. Featurize dominates; blocking, risk scoring
// and drift observation are the serial rest of the request path. Never
// touches the WAL, publish, review or the trainer after set-up.
//
// Output check: every served response (pairs, truth flags, risk bits,
// machine labels) must match the digest of the offline reference
// (TokenBlocking + ComputeFeatures + classifier + ServingEngine::Score)
// computed at set-up.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/timer.h"
#include "metrics/prepared_record.h"
#include "serve/compiled_rules.h"
#include "serve/serving_engine.h"

namespace erbench {

namespace {

constexpr double kScale = 0.1;

Status Register(Gateway* gateway, const Material& m) {
  LEARNRISK_RETURN_NOT_OK(gateway->RegisterNamespace(
      "ds", SpecFor(m, m.workload.left_ptr(), m.workload.right_ptr(), 1)));
  return gateway->Publish("ds", *m.risk, m.baseline).status();
}

ResolveRequest BlockAll() {
  ResolveRequest request;
  request.block_all = true;
  return request;
}

/// Alternating single-toggle observability costs: four gateways over the
/// same namespace, each taking one block_all per round.
void MeasureObservability(const Material& m, double seconds, Outcome* out) {
  enum { kDefault, kNoDrift, kNoTrace, kNoDriftNoMetrics, kSides };
  std::unique_ptr<Gateway> sides[kSides];
  for (int s = 0; s < kSides; ++s) {
    GatewayOptions options;
    if (s == kNoDrift || s == kNoDriftNoMetrics) options.drift.enabled = false;
    if (s == kNoTrace) options.trace.enabled = false;
    if (s == kNoDriftNoMetrics) options.enable_metrics = false;
    sides[s] = std::make_unique<Gateway>(options);
    const Status registered = Register(sides[s].get(), m);
    out->Op(registered);
    if (!registered.ok()) return;
  }
  const ResolveRequest block_all = BlockAll();
  std::vector<double> ms[kSides];
  Timer run;
  for (int round = 0; round < 2 || run.ElapsedSeconds() < seconds; ++round) {
    for (int k = 0; k < kSides; ++k) {
      const int s = (round + k) % kSides;  // rotate who goes first
      Timer timer;
      const auto response = sides[s]->Resolve("ds", block_all);
      const double elapsed = timer.ElapsedMillis();
      out->Op(response.status());
      if (round > 0) ms[s].push_back(elapsed);  // round 0 warms every side
    }
  }
  out->Metric("obs.metrics_overhead",
              MedianOverhead(ms[kNoDrift], ms[kNoDriftNoMetrics]), "ratio");
  out->Metric("obs.drift_overhead", MedianOverhead(ms[kDefault], ms[kNoDrift]),
              "ratio");
  out->Metric("obs.trace_overhead", MedianOverhead(ms[kDefault], ms[kNoTrace]),
              "ratio");
  out->Param("obs_rounds", static_cast<double>(ms[kDefault].size()));
}

/// Traced run: the gateway's block_all next to a replay of the same
/// request through the layer functions, with bench-side spans.
void TracedRun(const Args& args, const Material& m, Gateway* gateway,
               const ScoredPairs& ref, Outcome* out) {
  const Table& left = m.workload.left();
  const Table& right = m.workload.right();
  auto index = BlockingIndex::Build(left, right, BlockingConfig{});
  if (!index.ok()) {
    out->Op(index.status());
    return;
  }
  const PreparedTable left_prepared = PreparedTable::Build(left, m.suite);
  const PreparedTable right_prepared = PreparedTable::Build(right, m.suite);
  FeaturePipeline pipeline(m.suite, m.classifier, m.classifier_columns);
  ServingEngine engine;
  engine.Publish(*m.risk, m.baseline);
  std::vector<std::unique_ptr<ValueHistogram>> owned(m.suite.num_metrics());
  std::vector<ValueHistogram*> columns;
  for (auto& h : owned) {
    h = std::make_unique<ValueHistogram>();
    columns.push_back(h.get());
  }

  Tracer tracer;
  uint64_t next_request = 0;
  std::vector<double> featurize_rate, classify_ms, replay_traced_ms,
      replay_plain_ms, gateway_ms, serial_share;
  // One replay of the request; `tracer` null = the untraced twin used for
  // the tracing-overhead comparison. Only traced replays take request ids,
  // so each round's gateway call is noted under its traced twin's id.
  auto replay = [&](Tracer* t) {
    const uint64_t request = t != nullptr ? ++next_request : 0;
    Timer wall;
    uint64_t digest = 0;
    {
      Tracer::Scope root(t, "request", 0, request);
      std::vector<RecordPair> pairs;
      {
        Tracer::Scope s(t, "gateway.block.all_candidates", root.id(), request);
        pairs = index->AllCandidates();
      }
      Result<FeaturizedBatch> batch = Status::InvalidArgument("not run");
      {
        Tracer::Scope s(t, "metrics.featurize_classify", root.id(), request);
        batch = pipeline.RunPrepared(left_prepared, right_prepared, pairs);
      }
      out->Op(batch.status());
      if (!batch.ok()) return;
      ScoreRequest score_request;
      score_request.metric_features = &batch->features;
      score_request.classifier_probs = batch->probs;
      Result<ScoreResponse> scores = Status::InvalidArgument("not run");
      {
        Tracer::Scope s(t, "serve.score", root.id(), request);
        scores = engine.Score(score_request);
      }
      out->Op(scores.status());
      if (!scores.ok()) return;
      {
        Tracer::Scope s(t, "obs.observe_features", root.id(), request);
        ObserveFeatures(batch->features, columns);
      }
      digest = ScoredDigest(pairs, *scores);
      if (t != nullptr) {
        featurize_rate.push_back(static_cast<double>(pairs.size()) /
                                 (batch->featurize_ms / 1e3));
        classify_ms.push_back(batch->classify_ms);
      }
    }
    (t != nullptr ? replay_traced_ms : replay_plain_ms)
        .push_back(wall.ElapsedMillis());
    if (digest != ref.digest) out->Mismatch("replayed request differs from reference");
  };

  const ResolveRequest block_all = BlockAll();
  Timer run;
  const double replay_seconds = 0.45 * args.seconds;
  for (int round = 0; round < 3 || run.ElapsedSeconds() < replay_seconds;
       ++round) {
    Timer timer;
    const auto response = gateway->Resolve("ds", block_all);
    const double wall = timer.ElapsedMillis();
    out->Op(response.status());
    if (response.ok()) {
      gateway_ms.push_back(wall);
      const StageTiming& st = response->timing;
      serial_share.push_back((wall - st.featurize_ms - st.classify_ms) / wall);
      tracer.NoteStages(next_request + 1, "resolve", wall, st);
    }
    if (round % 2 == 0) {
      replay(&tracer);
      replay(nullptr);
    } else {
      replay(nullptr);
      replay(&tracer);
    }
  }
  for (const auto& [name, totals] : tracer.Totals()) {
    const double per_call =
        totals.count == 0 ? 0.0 : totals.self_ms / totals.count;
    if (name == "gateway.block.all_candidates") {
      out->Metric("gateway.block.all_candidates_ms", per_call, "ms");
    } else if (name == "serve.score") {
      out->Metric("serve.score_ms", per_call, "ms");
    } else if (name == "obs.observe_features") {
      out->Metric("obs.observe_features_ms", per_call, "ms");
    }
  }
  out->Metric("metrics.featurize.pairs_per_busy_s", Median(featurize_rate),
              "pairs/s");
  out->Metric("classifier.classify_ms", Median(classify_ms), "ms");
  out->Metric("gateway.serial_share", Median(serial_share), "ratio");
  out->Metric("gateway.resolve_unattributed_ms",
              Median(gateway_ms) -
                  Median(tracer.LayerSelfMsPerRequest("request")),
              "ms");
  out->Metric("bench.trace_overhead",
              MedianOverhead(replay_traced_ms, replay_plain_ms), "ratio");
  const Status dumped =
      tracer.Dump(args.work_dir + "/spans.json", args.workload);
  out->Op(dumped);

  // Featurize at parallelism 1 vs 0 over the same pairs (alternating).
  {
    const std::vector<RecordPair> pairs = index->AllCandidates();
    FeaturePipeline serial = pipeline;
    serial.set_parallelism(1);
    std::vector<double> one, all;
    for (int round = 0; round < 3; ++round) {
      const auto a = serial.RunPrepared(left_prepared, right_prepared, pairs);
      const auto b = pipeline.RunPrepared(left_prepared, right_prepared, pairs);
      out->Op(a.status());
      out->Op(b.status());
      if (!a.ok() || !b.ok()) return;
      one.push_back(a->featurize_ms);
      all.push_back(b->featurize_ms);
    }
    out->Metric("metrics.featurize.parallel_speedup", Median(one) / Median(all),
                "ratio");
  }
  // Work count: active rules per pair from the compiled rule plan.
  {
    auto batch = pipeline.RunPrepared(left_prepared, right_prepared,
                                      index->AllCandidates());
    out->Op(batch.status());
    if (!batch.ok()) return;
    const CompiledRuleSet plan(m.risk->features().rules());
    const CsrActivation csr = plan.EvaluateCsr(batch->features);
    out->Metric("serve.active_rules_per_pair",
                static_cast<double>(csr.rule.size()) /
                    static_cast<double>(std::max<size_t>(1, csr.rows())),
                "count");
  }
  MeasureObservability(m, 0.45 * args.seconds, out);
}

}  // namespace

void RunBulkResolve(const Args& args, Outcome* out) {
  out->Param("dataset", "DS");
  out->Param("scale", kScale);
  out->Param("shards", 1.0);
  out->Param("clients", 1.0);
  out->Param("request_parallelism", 0.0);

  std::unique_ptr<Material> material;
  std::unique_ptr<Gateway> gateway;
  SetupTimes setup;
  const ResolveRequest block_all = BlockAll();
  auto open = [&](const Material& built) -> Result<std::unique_ptr<Gateway>> {
    auto opened = std::make_unique<Gateway>();
    LEARNRISK_RETURN_NOT_OK(Register(opened.get(), built));
    for (int warm = 0; warm < 2; ++warm) {
      LEARNRISK_RETURN_NOT_OK(opened->Resolve("ds", block_all).status());
    }
    return opened;
  };
  const Status set_up = SetUpRepeatedly("DS", kScale, args.seed, open, &setup,
                                        &material, &gateway);
  out->Op(set_up);
  if (!set_up.ok()) return;
  const Material& m = *material;

  auto reference = OfflineBlockAll(m);
  out->Op(reference.status());
  if (!reference.ok()) return;
  const ScoredPairs& ref = *reference;
  const std::vector<uint8_t> truth = TruthOf(ref.pairs);
  const size_t budget =
      std::max<size_t>(1, CountMislabeled(ref.scores.machine_label, truth));
  out->Param("records_left", static_cast<double>(m.workload.left().num_records()));
  out->Param("records_right",
             static_cast<double>(m.workload.right().num_records()));
  out->Param("candidate_pairs", static_cast<double>(ref.pairs.size()));
  out->Param("review_budget", static_cast<double>(budget));
  out->Param("rules", static_cast<double>(m.risk->features().num_rules()));

  if (args.trace) {
    setup.ReportLayers(out);
    TracedRun(args, m, gateway.get(), ref, out);
    return;
  }

  // Each request's CPU time is the process's: the client is alone, and
  // featurize and classify run on the shared pool's threads.
  std::vector<double> wall_ms, cpu_ms;
  Timer run;
  while (run.ElapsedSeconds() < args.seconds || cpu_ms.size() < 10) {
    Timer timer;
    const double cpu_start = ProcessCpuSeconds();
    const auto response = gateway->Resolve("ds", block_all);
    const double cpu = 1e3 * (ProcessCpuSeconds() - cpu_start);
    const double elapsed = timer.ElapsedMillis();
    out->Op(response.status());
    if (!response.ok()) continue;
    wall_ms.push_back(elapsed);
    cpu_ms.push_back(cpu);
    if (ScoredDigest(response->pairs, response->scores) != ref.digest) {
      out->Mismatch("block_all response differs from the offline reference");
    }
  }
  const double cpu_p50 = Median(cpu_ms);
  out->Param("requests", static_cast<double>(cpu_ms.size()));
  out->Param("wall_p50_ms", Median(wall_ms));
  out->Param("wall_p80_ms", Quantile(wall_ms, 0.8));
  out->Param("wall_pairs_per_s",
             static_cast<double>(ref.pairs.size()) / (Median(wall_ms) / 1e3));
  ReportCommon(setup, out);
  out->Metric("pairs_per_cpu_s",
              static_cast<double>(ref.pairs.size()) / (cpu_p50 / 1e3),
              "pairs/cpu_s");
  out->Metric("request_cpu_ms", cpu_p50, "ms");
  out->Metric("risk_auroc",
              RiskAuroc(ref.scores.risk, ref.scores.machine_label, truth),
              "ratio");
  out->Metric("review_precision",
              PrecisionAtBudget(ref.scores.risk, ref.scores.machine_label,
                                truth, budget),
              "ratio");
}

}  // namespace erbench
