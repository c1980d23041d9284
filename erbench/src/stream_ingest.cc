// Copyright 2026 The LearnRisk Authors
//
// stream_ingest: the streaming ER pattern, probe then insert. An SG dedup
// namespace is registered over a base prefix of the generated table; the
// rest of the records arrive as a fixed stream. Each of three closed-loop
// clients takes the next record, probes it (ResolveRecord), then adds it
// (AddRecord). The namespace is durable (WAL on, automatic checkpoints),
// has four shards, review on at its default budget, and
// request_parallelism = 1.
//
// Adds are applied in stream order (a ticket turnstile between the
// clients; probes stay concurrent), so the final namespace is a
// deterministic function of the seed and can be checked: after each
// stream, the record count must equal the acked adds and block_all must
// equal that of a namespace freshly registered over the final table. The
// work is a fixed stream per episode, not a fixed time, because every add
// grows the namespace; a run repeats whole episodes on fresh namespaces.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/timer.h"
#include "gateway/durability.h"
#include "gateway/namespace_segments.h"
#include "gateway/shard_merge.h"
#include "serve/serving_engine.h"

namespace erbench {

namespace {

constexpr double kScale = 0.1;
constexpr size_t kStream = 2000;  // records per episode
constexpr size_t kShards = 4;
constexpr size_t kClients = 3;
// Per-shard WAL entries (record and review frames) that trigger a
// checkpoint. Shard 0 also logs every review offer, so it checkpoints a
// few times per episode and the others not at all: checkpointing adds stay
// near 0.15% of adds, far below the 1% that would move the p99.
constexpr size_t kCheckpointThreshold = 2500;
constexpr size_t kWarmProbes = 16;
constexpr double kTailQuantile = 0.99;

const char kNs[] = "sg";

/// The base prefix as its own table; the stream is the rest of `full`.
struct Tables {
  std::shared_ptr<const Table> full;
  std::shared_ptr<const Table> base;
  size_t base_size = 0;
};

Tables SplitTables(const Material& m) {
  Tables t;
  t.full = m.workload.left_ptr();
  t.base_size = t.full->num_records() - std::min(kStream, t.full->num_records());
  auto base = std::make_shared<Table>(t.full->schema());
  for (size_t i = 0; i < t.base_size; ++i) {
    (void)base->Append(t.full->record(i), t.full->entity_id(i));
  }
  t.base = std::move(base);
  return t;
}

GatewayOptions StreamOptions(const std::string& dir) {
  GatewayOptions options;
  options.durability.dir = dir;
  options.durability.wal_checkpoint_threshold = kCheckpointThreshold;
  options.review.enabled = true;
  options.request_parallelism = 1;
  return options;
}

/// A fresh durable namespace over the base prefix, published and warmed.
Result<std::unique_ptr<Gateway>> OpenNamespace(const Material& m,
                                               const Tables& t,
                                               const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  auto gateway = std::make_unique<Gateway>(StreamOptions(dir));
  LEARNRISK_RETURN_NOT_OK(
      gateway->RegisterNamespace(kNs, SpecFor(m, t.base, t.base, kShards)));
  LEARNRISK_RETURN_NOT_OK(gateway->Publish(kNs, *m.risk, m.baseline).status());
  for (size_t i = 0; i < kWarmProbes; ++i) {
    LEARNRISK_RETURN_NOT_OK(
        gateway->ResolveRecord(kNs, t.full->record(t.base_size + i)).status());
  }
  return gateway;
}

/// block_all of a non-durable namespace registered over the final table.
Result<ResolveResponse> ReferenceBlockAll(const Material& m, const Tables& t) {
  Gateway gateway;
  LEARNRISK_RETURN_NOT_OK(
      gateway.RegisterNamespace(kNs, SpecFor(m, t.full, t.full, 1)));
  LEARNRISK_RETURN_NOT_OK(gateway.Publish(kNs, *m.risk).status());
  ResolveRequest request;
  request.block_all = true;
  return gateway.Resolve(kNs, request);
}

/// Client-observed timings of one streamed episode.
struct Episode {
  std::vector<double> probe_ms;
  std::vector<double> add_ms;
  std::vector<double> step_ms;      ///< probe + add of one record
  std::vector<double> step_cpu_ms;  ///< the client thread's CPU of a step
  std::vector<double> add_wait_us;  ///< AddRecord wall - WAL - publish
  size_t candidates = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< process CPU of the whole stream
};

/// Streams every record after the base prefix through `kClients` clients.
void StreamEpisode(Gateway* gateway, const Tables& t, Tracer* notes,
                   Episode* episode, Outcome* out) {
  const size_t n = t.full->num_records() - t.base_size;
  std::atomic<size_t> next{0};
  std::mutex turn_mu;
  std::condition_variable turn_cv;
  size_t turn = 0;  // guarded by turn_mu: the stream index allowed to add
  std::vector<Episode> per_client(kClients);

  auto client = [&](Episode* mine) {
    for (;;) {
      const size_t i = next.fetch_add(1);
      if (i >= n) return;
      const size_t row = t.base_size + i;
      const Record& record = t.full->record(row);
      // request_parallelism = 1: a step's work runs on the client thread.
      Timer probe_timer;
      const double probe_cpu_start = ThreadCpuSeconds();
      const auto probe = gateway->ResolveRecord(kNs, record);
      const double probe_cpu_ms = 1e3 * (ThreadCpuSeconds() - probe_cpu_start);
      const double probe_ms = probe_timer.ElapsedMillis();
      out->Op(probe.status());
      if (probe.ok()) {
        mine->probe_ms.push_back(probe_ms);
        mine->candidates += probe->candidates.size();
        if (notes != nullptr) {
          notes->NoteStages(2 * i + 1, "resolve_record", probe_ms,
                            probe->timing);
        }
      }
      {
        std::unique_lock<std::mutex> lock(turn_mu);
        turn_cv.wait(lock, [&] { return turn == i; });
      }
      StageTiming timing;
      Timer add_timer;
      const double add_cpu_start = ThreadCpuSeconds();
      const Status added = gateway->AddRecord(
          kNs, BlockingSide::kLeft, record, t.full->entity_id(row), &timing);
      const double add_cpu_ms = 1e3 * (ThreadCpuSeconds() - add_cpu_start);
      const double add_ms = add_timer.ElapsedMillis();
      {
        std::lock_guard<std::mutex> lock(turn_mu);
        ++turn;
      }
      turn_cv.notify_all();
      out->Op(added);
      if (added.ok()) {
        mine->add_ms.push_back(add_ms);
        if (probe.ok()) {
          mine->step_ms.push_back(probe_ms + add_ms);
          mine->step_cpu_ms.push_back(probe_cpu_ms + add_cpu_ms);
        }
        mine->add_wait_us.push_back(
            1e3 * (add_ms - timing.wal_append_ms - timing.publish_ms));
        if (notes != nullptr) notes->NoteStages(2 * i + 2, "add_record", add_ms, timing);
      }
    }
  };
  Timer wall;
  const double cpu_start = ProcessCpuSeconds();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) threads.emplace_back(client, &per_client[c]);
  for (std::thread& thread : threads) thread.join();
  episode->cpu_s += ProcessCpuSeconds() - cpu_start;
  episode->wall_s += wall.ElapsedSeconds();
  for (const Episode& e : per_client) {
    episode->probe_ms.insert(episode->probe_ms.end(), e.probe_ms.begin(),
                             e.probe_ms.end());
    episode->add_ms.insert(episode->add_ms.end(), e.add_ms.begin(), e.add_ms.end());
    episode->step_ms.insert(episode->step_ms.end(), e.step_ms.begin(),
                            e.step_ms.end());
    episode->step_cpu_ms.insert(episode->step_cpu_ms.end(),
                                e.step_cpu_ms.begin(), e.step_cpu_ms.end());
    episode->add_wait_us.insert(episode->add_wait_us.end(),
                                e.add_wait_us.begin(), e.add_wait_us.end());
    episode->candidates += e.candidates;
  }
}

/// After a stream: record count and block_all against the reference.
void CheckEpisode(Gateway* gateway, const Tables& t, uint64_t reference,
                  Outcome* out) {
  const auto records = gateway->NumRecords(kNs, BlockingSide::kLeft);
  out->Op(records.status());
  if (records.ok() && *records != t.full->num_records()) {
    out->Mismatch("record count " + std::to_string(*records) +
                  " != base + acked adds " +
                  std::to_string(t.full->num_records()));
  }
  ResolveRequest request;
  request.block_all = true;
  const auto all = gateway->Resolve(kNs, request);
  out->Op(all.status());
  if (all.ok() && ScoredDigest(all->pairs, all->scores) != reference) {
    out->Mismatch("block_all after the stream differs from a fresh namespace");
  }
}

/// Traced run: the same stream replayed sequentially through the layer
/// functions over per-shard structures built like the gateway's (shard of
/// global id g is g % S), with bench-side spans. Returns the replay's wall
/// time; a null tracer is the untraced twin (no spans, no metrics).
double ReplayStream(const Args& args, const Material& m, const Tables& t,
                    Tracer* tracer, Outcome* out) {
  const Schema& schema = t.full->schema();
  const std::string dir = args.work_dir + "/replay";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  DurabilityOptions durability;
  durability.dir = dir;
  ShardedCounter wal_bytes;
  DurabilityMetrics counters;
  counters.wal_append_bytes = &wal_bytes;

  ServingEngine engine;
  engine.Publish(*m.risk, m.baseline);
  auto save_model = [&engine](const std::string& path) {
    return engine.SaveCurrent(path);
  };
  ReviewQueue queue(ReviewOptions{}.queue_capacity);
  const size_t review_budget = ReviewOptions{}.per_request_budget;
  FeaturePipeline pipeline(m.suite, m.classifier, m.classifier_columns);
  pipeline.set_parallelism(1);

  std::vector<SideStore> stores(kShards);
  std::vector<BlockingIndex> indexes(kShards);
  std::vector<std::unique_ptr<NamespaceLog>> logs(kShards);
  for (size_t k = 0; k < kShards; ++k) {
    Table shard_table(schema);
    for (size_t g = k; g < t.base_size; g += kShards) {
      (void)shard_table.Append(t.full->record(g), t.full->entity_id(g));
    }
    stores[k] = SideStore::Build(shard_table, m.suite);
    auto index = BlockingIndex::Build(shard_table, shard_table, BlockingConfig{});
    auto log = NamespaceLog::Create(durability, "s" + std::to_string(k));
    out->Op(index.status());
    out->Op(log.status());
    if (!index.ok() || !log.ok()) return 0.0;
    indexes[k] = index.MoveValueOrDie();
    logs[k] = log.MoveValueOrDie();
    logs[k]->set_metrics(counters);
    const ReviewQueue::CheckpointState review = queue.Snapshot();
    const Status checkpointed = logs[k]->WriteCheckpoint(
        shard_table, nullptr, 1, save_model, k == 0 ? &review : nullptr);
    out->Op(checkpointed);
    if (!checkpointed.ok()) return 0.0;
  }

  Timer wall;
  size_t offered = 0, admitted = 0, candidates = 0;
  uint64_t record_bytes = 0;
  const size_t n = t.full->num_records() - t.base_size;
  for (size_t i = 0; i < n; ++i) {
    const size_t row = t.base_size + i;
    const Record& record = t.full->record(row);
    const int64_t entity = t.full->entity_id(row);
    // The probe half; returns early when there is nothing to score.
    [&] {
      const uint64_t request = 2 * i + 1;
      Tracer::Scope root(tracer, "probe", 0, request);
      PreparedRecord prepared;
      {
        Tracer::Scope s(tracer, "metrics.prepare_record", root.id(), request);
        prepared = m.suite.PrepareRecord(record);
      }
      std::vector<const BlockingIndex*> shard_ptrs;
      std::vector<const SideStore*> store_ptrs;
      for (size_t k = 0; k < kShards; ++k) {
        shard_ptrs.push_back(&indexes[k]);
        store_ptrs.push_back(&stores[k]);
        Tracer::Scope s(tracer, "gateway.block.probe", root.id(), request);
        (void)indexes[k].Candidates(record, BlockingSide::kLeft);
      }
      std::vector<size_t> found;
      {
        Tracer::Scope s(tracer, "gateway.block.merged_candidates", root.id(),
                        request);
        found = MergedCandidates(shard_ptrs, record, BlockingSide::kLeft);
      }
      candidates += found.size();
      if (found.empty()) return;
      Result<FeaturizedBatch> batch = Status::InvalidArgument("not run");
      {
        Tracer::Scope s(tracer, "metrics.featurize_probe", root.id(), request);
        batch = pipeline.RunProbePrepared(prepared, ShardedSideView(store_ptrs),
                                          found);
      }
      out->Op(batch.status());
      if (!batch.ok()) return;
      ScoreRequest score_request;
      score_request.metric_features = &batch->features;
      score_request.classifier_probs = batch->probs;
      Result<ScoreResponse> scores = Status::InvalidArgument("not run");
      {
        Tracer::Scope s(tracer, "serve.score", root.id(), request);
        scores = engine.Score(score_request);
      }
      out->Op(scores.status());
      if (!scores.ok()) return;
      std::vector<size_t> order(found.size());
      std::iota(order.begin(), order.end(), 0);
      std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return scores->risk[a] > scores->risk[b];
      });
      Tracer::Scope s(tracer, "review.enqueue", root.id(), request);
      for (size_t rank = 0; rank < std::min(review_budget, order.size()); ++rank) {
        const size_t idx = order[rank];
        ReviewWalEvent event;
        event.item.right = static_cast<int64_t>(found[idx]);
        event.item.risk = scores->risk[idx];
        event.item.classifier_prob = batch->probs[idx];
        event.item.machine_label = scores->machine_label[idx];
        event.item.model_version = scores->model_version;
        event.item.request_id = request;
        const double* features = batch->features.row(idx);
        event.item.features.assign(features, features + batch->features.cols());
        const Status logged = logs[0]->AppendReview(event);
        out->Op(logged);
        ++offered;
        admitted += queue.Offer(std::move(event.item)) ==
                    ReviewQueue::Offered::kAdmitted;
      }
    }();
    {
      const uint64_t request = 2 * i + 2;
      const size_t k = row % kShards;  // least-loaded routing, sequential adds
      Tracer::Scope root(tracer, "add", 0, request);
      const uint64_t bytes_before = wal_bytes.Value();
      {
        Tracer::Scope s(tracer, "durability.wal_append", root.id(), request);
        WalEntry entry;
        entry.side = BlockingSide::kLeft;
        entry.entity_id = entity;
        entry.record = record;
        out->Op(logs[k]->Append(entry));
      }
      record_bytes += wal_bytes.Value() - bytes_before;
      {
        Tracer::Scope s(tracer, "gateway.publish", root.id(), request);
        stores[k] = stores[k].WithAppended(record, entity, m.suite);
        out->Op(indexes[k].AddRecord(BlockingSide::kLeft, record, entity));
      }
      if (logs[k]->wal_entries_since_checkpoint() >= kCheckpointThreshold) {
        const Table materialized = stores[k].Materialize(schema);
        const ReviewQueue::CheckpointState review = queue.Snapshot();
        Tracer::Scope s(tracer, "durability.checkpoint", root.id(), request);
        out->Op(logs[k]->WriteCheckpoint(materialized, nullptr, 1, save_model,
                                         k == 0 ? &review : nullptr));
      }
    }
  }
  const double wall_s = wall.ElapsedSeconds();
  logs.clear();
  std::filesystem::remove_all(dir, ec);
  if (tracer == nullptr) return wall_s;

  auto per_call_us = [&](const std::string& name) {
    for (const auto& [span, totals] : tracer->Totals()) {
      if (span == name && totals.count > 0) {
        return 1e3 * totals.self_ms / static_cast<double>(totals.count);
      }
    }
    return 0.0;
  };
  double shard_probe_ms = 0.0, merged_ms = 0.0;
  size_t probes = 0;
  for (const auto& [span, totals] : tracer->Totals()) {
    if (span == "gateway.block.probe") shard_probe_ms = totals.self_ms;
    if (span == "gateway.block.merged_candidates") {
      merged_ms = totals.self_ms;
      probes = totals.count;
    }
  }
  out->Metric("metrics.prepare_record_us", per_call_us("metrics.prepare_record"),
              "us");
  out->Metric("gateway.block.probe_us", per_call_us("gateway.block.probe"), "us");
  out->Metric("gateway.shard_merge_us",
              probes == 0 ? 0.0 : 1e3 * (merged_ms - shard_probe_ms) / probes,
              "us");
  out->Metric("gateway.block.candidates_per_probe",
              static_cast<double>(candidates) / static_cast<double>(n), "count");
  out->Metric("metrics.featurize_probe_us", per_call_us("metrics.featurize_probe"),
              "us");
  out->Metric("serve.score_us", per_call_us("serve.score"), "us");
  out->Metric("review.enqueue_us", per_call_us("review.enqueue"), "us");
  out->Metric("review.offer_admit_share",
              offered == 0 ? 0.0 : static_cast<double>(admitted) / offered,
              "ratio");
  out->Metric("durability.wal_append_us", per_call_us("durability.wal_append"),
              "us");
  out->Metric("durability.wal_bytes_per_record",
              static_cast<double>(record_bytes) / static_cast<double>(n), "B");
  out->Metric("gateway.publish_us", per_call_us("gateway.publish"), "us");
  out->Metric("durability.checkpoint_ms",
              per_call_us("durability.checkpoint") / 1e3, "ms");
  size_t side_segments = 0, posting_segments = 0;
  for (size_t k = 0; k < kShards; ++k) {
    side_segments += stores[k].segment_count();
    posting_segments += indexes[k].segment_count(BlockingSide::kLeft);
  }
  out->Metric("gateway.side_segments", static_cast<double>(side_segments),
              "count");
  out->Metric("gateway.posting_segments", static_cast<double>(posting_segments),
              "count");
  return wall_s;
}

}  // namespace

void RunStreamIngest(const Args& args, Outcome* out) {
  out->Param("dataset", "SG");
  out->Param("scale", kScale);
  out->Param("shards", static_cast<double>(kShards));
  out->Param("clients", static_cast<double>(kClients));
  out->Param("request_parallelism", 1.0);
  out->Param("stream_records", static_cast<double>(kStream));
  out->Param("wal_checkpoint_threshold", static_cast<double>(kCheckpointThreshold));

  std::unique_ptr<Material> material;
  std::unique_ptr<Gateway> gateway;
  Tables tables;
  SetupTimes setup;
  // Every namespace lives here in turn; OpenNamespace clears it first.
  const std::string ns_dir = args.work_dir + "/ns";
  auto open = [&](const Material& built) {
    tables = SplitTables(built);
    return OpenNamespace(built, tables, ns_dir);
  };
  const Status set_up = SetUpRepeatedly("SG", kScale, args.seed, open, &setup,
                                        &material, &gateway);
  out->Op(set_up);
  if (!set_up.ok()) return;
  const Material& m = *material;
  out->Param("records", static_cast<double>(tables.full->num_records()));
  out->Param("base_records", static_cast<double>(tables.base_size));

  const auto reference = ReferenceBlockAll(m, tables);
  out->Op(reference.status());
  if (!reference.ok()) return;
  const uint64_t reference_digest =
      ScoredDigest(reference->pairs, reference->scores);
  const std::vector<uint8_t> truth = TruthOf(reference->pairs);
  const size_t budget = std::max<size_t>(
      1, CountMislabeled(reference->scores.machine_label, truth));
  out->Param("final_candidate_pairs", static_cast<double>(truth.size()));
  out->Param("review_budget", static_cast<double>(budget));

  if (args.trace) {
    setup.ReportLayers(out);
    // Real episodes (client-observed timings and the gateway's own stage
    // clock) for half the time, then the stream replayed through the layers.
    Tracer tracer;
    Episode episode;
    Timer real;
    do {
      if (gateway == nullptr) {
        auto opened = OpenNamespace(m, tables, ns_dir);
        out->Op(opened.status());
        if (!opened.ok()) return;
        gateway = opened.MoveValueOrDie();
      }
      StreamEpisode(gateway.get(), tables, &tracer, &episode, out);
      CheckEpisode(gateway.get(), tables, reference_digest, out);
      gateway.reset();
    } while (real.ElapsedSeconds() < 0.5 * args.seconds);
    const double plain_s = ReplayStream(args, m, tables, nullptr, out);
    const double traced_s = ReplayStream(args, m, tables, &tracer, out);
    out->Metric("bench.trace_overhead", traced_s / plain_s - 1.0, "ratio");
    out->Metric("ingest_records_per_s",
                static_cast<double>(episode.add_ms.size()) / episode.wall_s,
                "records/s");
    out->Metric("probe_p50_ms", Median(episode.probe_ms), "ms");
    out->Metric("probe_p99_ms", Quantile(episode.probe_ms, 0.99), "ms");
    out->Metric("add_p50_ms", Median(episode.add_ms), "ms");
    out->Metric("add_p99_ms", Quantile(episode.add_ms, 0.99), "ms");
    out->Metric("gateway.add_wait_us", Median(episode.add_wait_us), "us");
    out->Metric("gateway.probe_unattributed_us",
                1e3 * (Median(episode.probe_ms) -
                       Median(tracer.LayerSelfMsPerRequest("probe"))),
                "us");
    out->Op(tracer.Dump(args.work_dir + "/spans.json", args.workload));
    return;
  }

  // Throughput is a median over episodes, so one episode that meets a host
  // hiccup moves it by one sample.
  std::vector<double> step_cpu_ms, pairs_per_cpu_s, step_ms, pairs_per_s,
      tail_ms;
  Timer run;
  int episodes = 0;
  do {
    if (gateway == nullptr) {
      auto opened = OpenNamespace(m, tables, ns_dir);
      out->Op(opened.status());
      if (!opened.ok()) return;
      gateway = opened.MoveValueOrDie();
    }
    Episode one;
    StreamEpisode(gateway.get(), tables, nullptr, &one, out);
    CheckEpisode(gateway.get(), tables, reference_digest, out);
    gateway.reset();
    // One client request = one ingest step: the probe plus the add.
    step_cpu_ms.insert(step_cpu_ms.end(), one.step_cpu_ms.begin(),
                       one.step_cpu_ms.end());
    step_ms.insert(step_ms.end(), one.step_ms.begin(), one.step_ms.end());
    const double candidates = static_cast<double>(one.candidates);
    pairs_per_cpu_s.push_back(candidates / one.cpu_s);
    pairs_per_s.push_back(candidates / one.wall_s);
    tail_ms.push_back(Quantile(one.step_ms, kTailQuantile));
    ++episodes;
  } while (run.ElapsedSeconds() < args.seconds);

  out->Param("episodes", static_cast<double>(episodes));
  out->Param("wall_pairs_per_s", Median(pairs_per_s));
  out->Param("wall_p50_ms", Median(step_ms));
  out->Param("wall_p99_ms", Median(tail_ms));
  ReportCommon(setup, out);
  out->Metric("pairs_per_cpu_s", Median(pairs_per_cpu_s), "pairs/cpu_s");
  out->Metric("request_cpu_ms", Median(step_cpu_ms), "ms");
  out->Metric("risk_auroc",
              RiskAuroc(reference->scores.risk, reference->scores.machine_label,
                        truth),
              "ratio");
  out->Metric("review_precision",
              PrecisionAtBudget(reference->scores.risk,
                                reference->scores.machine_label, truth, budget),
              "ratio");
}

}  // namespace erbench
