// Copyright 2026 The LearnRisk Authors
//
// review_loop: the paper's loop on a durable DS namespace (scale 0.05)
// served by a risk model trained by the paper recipe, review on.
//
// Each episode runs on a fresh namespace. First a deterministic phase: one
// block_all offers the whole frontier to the review queue, and the top B
// pairs are drained and labeled by an oracle (the generator's truth); B is
// the number of mislabeled pairs in the frontier, so review_precision is
// the queue's R-precision. Then a resolver sends a fixed number of 256-pair
// Resolve batches (request_parallelism = 0), first alone and then beside a
// reviewer that runs a fixed number of cycles, each draining and labeling K
// pairs and then calling RetrainFromReview with a checkpoint. K, the cycle
// count and the batch counts are fixed, so neither the retrain input nor
// the section's total work depends on how fast other layers run.
//
// Output checks: the frontier equals the offline reference, every resolve
// sees a non-decreasing model version, and retrain versions strictly
// increase.

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "active/incremental_retrain.h"
#include "bench.h"
#include "common/timer.h"
#include "gateway/durability.h"
#include "gateway/model_registry.h"
#include "metrics/prepared_record.h"
#include "serve/serving_engine.h"

namespace erbench {

namespace {

constexpr double kScale = 0.05;
constexpr size_t kBatchPairs = 256;
constexpr size_t kLabelsPerCycle = 32;  // K
constexpr size_t kCycles = 6;
constexpr size_t kSoloBatches = 64;  // resolver batches before the reviewer starts
constexpr size_t kConcurrentBatches = 64;  // resolver batches beside the reviewer
// About one resolve per retrain waits behind its checkpoint or pool loop
// (30-45 ms against 4-7 ms), so p99 sits on that cliff and flips between
// runs; p99.5 stays inside the blocked cluster.
constexpr double kTailQuantile = 0.995;

const char kNs[] = "ds";

using PairKey = std::pair<int64_t, int64_t>;

GatewayOptions LoopOptions(const std::string& dir) {
  GatewayOptions options;
  options.durability.dir = dir;
  options.review.enabled = true;
  options.review.per_request_budget = 1u << 20;  // block_all offers it all
  options.review.queue_capacity = 1u << 20;
  return options;
}

Result<std::unique_ptr<Gateway>> OpenNamespace(const Material& m,
                                               const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  auto gateway = std::make_unique<Gateway>(LoopOptions(dir));
  LEARNRISK_RETURN_NOT_OK(gateway->RegisterNamespace(
      kNs, SpecFor(m, m.workload.left_ptr(), m.workload.right_ptr(), 1)));
  LEARNRISK_RETURN_NOT_OK(gateway->Publish(kNs, *m.risk, m.baseline).status());
  return gateway;
}

/// Everything one episode observed.
struct Episode {
  size_t mislabeled_in_budget = 0;
  std::vector<double> resolve_ms;
  std::vector<std::pair<int64_t, int64_t>> resolve_spans;  ///< start/end ns
  std::vector<std::pair<int64_t, int64_t>> retrain_spans;
  std::vector<double> retrain_ms;
  std::vector<double> drain_us;
  std::vector<double> label_us;
  std::vector<double> enqueue_us;  ///< StageTiming::review_ms of resolves
  std::vector<double> solo_cpu_ms;  ///< process CPU of each solo resolve
  size_t resolver_pairs = 0;
  double resolver_wall_s = 0.0;
  /// Process CPU of the resolver and reviewer section (solo resolves,
  /// concurrent resolves, drains, labels, retrains, publishes, checkpoints).
  double section_cpu_s = 0.0;
  /// Labels in submission order, and how many existed at each retrain.
  std::vector<LabeledReview> labels;
  std::vector<size_t> labels_at_retrain;
};

/// Drains up to `count` pairs and labels each with the oracle's truth.
void DrainAndLabel(Gateway* gateway, size_t count,
                   const std::map<PairKey, size_t>& index,
                   const std::vector<uint8_t>& truth, Episode* e,
                   Outcome* out) {
  Timer drain_timer;
  auto drained = gateway->DrainReview(kNs, count);
  e->drain_us.push_back(1e3 * drain_timer.ElapsedMillis());
  out->Op(drained.status());
  if (!drained.ok()) return;
  for (const ReviewItem& item : *drained) {
    const auto it = index.find(PairKey(item.left, item.right));
    if (it == index.end()) {
      out->Mismatch("drained a pair outside the frontier");
      continue;
    }
    const uint8_t label = truth[it->second];
    Timer label_timer;
    const Status labeled =
        gateway->SubmitReviewLabel(kNs, item.left, item.right, label);
    e->label_us.push_back(1e3 * label_timer.ElapsedMillis());
    out->Op(labeled);
    if (labeled.ok()) e->labels.push_back({item, label});
  }
}

/// One episode on a freshly opened namespace.
void RunEpisode(Gateway* gateway, const ScoredPairs& ref, size_t budget,
                Tracer* notes, Episode* e, Outcome* out) {
  ResolveRequest block_all;
  block_all.block_all = true;
  const auto frontier = gateway->Resolve(kNs, block_all);
  out->Op(frontier.status());
  if (!frontier.ok()) return;
  if (ScoredDigest(frontier->pairs, frontier->scores) != ref.digest) {
    out->Mismatch("frontier differs from the offline reference");
  }
  const std::vector<uint8_t> truth = TruthOf(frontier->pairs);
  std::map<PairKey, size_t> index;
  for (size_t i = 0; i < frontier->pairs.size(); ++i) {
    index.emplace(PairKey(static_cast<int64_t>(frontier->pairs[i].left),
                          static_cast<int64_t>(frontier->pairs[i].right)),
                  i);
  }

  // Deterministic phase: the top B of the queue, oracle-labeled.
  DrainAndLabel(gateway, budget, index, truth, e, out);
  for (const LabeledReview& labeled : e->labels) {
    e->mislabeled_in_budget += labeled.item.machine_label != labeled.truth;
  }

  std::vector<ResolveRequest> batches;
  for (size_t begin = 0; begin + kBatchPairs <= frontier->pairs.size();
       begin += kBatchPairs) {
    ResolveRequest request;
    request.pairs.assign(frontier->pairs.begin() + static_cast<ptrdiff_t>(begin),
                         frontier->pairs.begin() +
                             static_cast<ptrdiff_t>(begin + kBatchPairs));
    batches.push_back(std::move(request));
  }
  uint64_t last_version = 0;
  auto resolve = [&](size_t j) {
    const int64_t start = NowNs();
    const auto response = gateway->Resolve(kNs, batches[j % batches.size()]);
    const int64_t end = NowNs();
    out->Op(response.status());
    if (!response.ok()) return;
    const double ms = static_cast<double>(end - start) / 1e6;
    e->resolve_ms.push_back(ms);
    e->resolve_spans.emplace_back(start, end);
    e->enqueue_us.push_back(1e3 * response->timing.review_ms);
    e->resolver_pairs += response->pairs.size();
    if (notes != nullptr) notes->NoteStages(j + 1, "resolve", ms, response->timing);
    if (response->scores.model_version < last_version) {
      out->Mismatch("a resolve saw the model version go backwards");
    }
    last_version = response->scores.model_version;
  };

  // The resolver first runs alone for a fixed number of batches: each one's
  // process CPU is its own, and the run has resolves outside any retrain to
  // compare against. Then it sends a fixed number more while the reviewer
  // runs its cycles, so the section's total work does not depend on how
  // the two interleave.
  Timer wall;
  const double cpu_start = ProcessCpuSeconds();
  for (size_t j = 0; j < kSoloBatches; ++j) {
    const double solo_start = ProcessCpuSeconds();
    resolve(j);
    e->solo_cpu_ms.push_back(1e3 * (ProcessCpuSeconds() - solo_start));
  }
  std::thread resolver([&] {
    for (size_t j = kSoloBatches; j < kSoloBatches + kConcurrentBatches; ++j) {
      resolve(j);
    }
  });
  uint64_t last_retrain = 0;
  for (size_t cycle = 0; cycle < kCycles; ++cycle) {
    DrainAndLabel(gateway, kLabelsPerCycle, index, truth, e, out);
    e->labels_at_retrain.push_back(e->labels.size());
    ReviewRetrainOptions options;  // checkpoint = true by default
    const int64_t start = NowNs();
    const auto retrained = gateway->RetrainFromReview(kNs, options);
    const int64_t end = NowNs();
    out->Op(retrained.status());
    if (!retrained.ok()) continue;
    e->retrain_ms.push_back(static_cast<double>(end - start) / 1e6);
    e->retrain_spans.emplace_back(start, end);
    if (retrained->model_version <= last_retrain) {
      out->Mismatch("retrain versions did not strictly increase");
    }
    last_retrain = retrained->model_version;
  }
  resolver.join();
  e->section_cpu_s = ProcessCpuSeconds() - cpu_start;
  e->resolver_wall_s = wall.ElapsedSeconds();
}

/// Resolve latencies split by whether a retrain was in flight.
void SplitByRetrain(const Episode& e, std::vector<double>* during,
                    std::vector<double>* outside) {
  for (size_t i = 0; i < e.resolve_ms.size(); ++i) {
    const auto [start, end] = e.resolve_spans[i];
    bool overlaps = false;
    for (const auto& [rs, re] : e.retrain_spans) {
      overlaps = overlaps || (start < re && end > rs);
    }
    (overlaps ? during : outside)->push_back(e.resolve_ms[i]);
  }
}

/// Traced run: the episode's retrain cycles replayed through the layer
/// functions (RetrainFromLabels, DriftBaseline::FromTraining,
/// ModelRegistry::Publish, NamespaceLog::WriteCheckpoint) with spans, over
/// a review queue rebuilt from the same frontier and labels. Returns the
/// wall time of the retrain cycles; a null tracer is the untraced twin.
double ReplayRetrains(const Args& args, const Material& m, const ScoredPairs& ref,
                    const Episode& e, Tracer* tracer, Outcome* out) {
  const PreparedTable left = PreparedTable::Build(m.workload.left(), m.suite);
  const PreparedTable right = PreparedTable::Build(m.workload.right(), m.suite);
  const FeaturePipeline pipeline(m.suite, m.classifier, m.classifier_columns);
  const auto batch = pipeline.RunPrepared(left, right, ref.pairs);
  out->Op(batch.status());
  if (!batch.ok()) return 0.0;
  ReviewQueue queue(LoopOptions("").review.queue_capacity);
  for (size_t i = 0; i < ref.pairs.size(); ++i) {
    ReviewItem item;
    item.left = static_cast<int64_t>(ref.pairs[i].left);
    item.right = static_cast<int64_t>(ref.pairs[i].right);
    item.risk = ref.scores.risk[i];
    item.classifier_prob = batch->probs[i];
    item.machine_label = ref.scores.machine_label[i];
    const double* row = batch->features.row(i);
    item.features.assign(row, row + batch->features.cols());
    queue.Offer(std::move(item));
  }

  const std::string dir = args.work_dir + "/replay";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  DurabilityOptions durability;
  durability.dir = dir;
  ShardedCounter checkpoint_bytes;
  DurabilityMetrics counters;
  counters.checkpoint_bytes = &checkpoint_bytes;
  auto log = NamespaceLog::Create(durability, kNs);
  out->Op(log.status());
  if (!log.ok()) return 0.0;
  (*log)->set_metrics(counters);
  ModelRegistry registry;
  auto published = registry.Publish(kNs, *m.risk, m.baseline);
  out->Op(published.status());
  if (!published.ok()) return 0.0;
  auto save_model = [&registry](const std::string& path) -> Status {
    auto engine = registry.Engine(kNs);
    if (!engine.ok()) return engine.status();
    return (*engine)->SaveCurrent(path);
  };
  {
    const ReviewQueue::CheckpointState state = queue.Snapshot();
    out->Op((*log)->WriteCheckpoint(m.workload.left(), &m.workload.right(),
                                    *published, save_model, &state));
  }

  Timer wall;
  RiskModel serving = *m.risk;
  size_t labeled = 0;
  const IncrementalRetrainOptions retrain_options;
  std::vector<double> bytes_per_checkpoint;
  for (size_t cycle = 0; cycle < e.labels_at_retrain.size(); ++cycle) {
    for (; labeled < e.labels_at_retrain[cycle]; ++labeled) {
      const LabeledReview& l = e.labels[labeled];
      queue.Label(l.item.left, l.item.right, l.truth);
    }
    const std::vector<LabeledReview> labels(
        e.labels.begin(),
        e.labels.begin() + static_cast<ptrdiff_t>(e.labels_at_retrain[cycle]));
    const uint64_t request = cycle + 1;
    Tracer::Scope root(tracer, "retrain_publish", 0, request);
    Result<IncrementalRetrainOutput> retrained =
        Status::InvalidArgument("not run");
    {
      Tracer::Scope s(tracer, "risk.retrain", root.id(), request);
      retrained = RetrainFromLabels(serving, labels, retrain_options);
    }
    out->Op(retrained.status());
    if (!retrained.ok()) return 0.0;
    std::shared_ptr<const DriftBaseline> baseline;
    {
      Tracer::Scope s(tracer, "obs.baseline_build", root.id(), request);
      baseline = std::make_shared<const DriftBaseline>(DriftBaseline::FromTraining(
          retrained->features, retrained->risk_scores));
    }
    serving = retrained->model;
    Result<uint64_t> version = Status::InvalidArgument("not run");
    {
      Tracer::Scope s(tracer, "gateway.model_publish", root.id(), request);
      version = registry.Publish(kNs, retrained->model, baseline);
    }
    out->Op(version.status());
    if (!version.ok()) return 0.0;
    const ReviewQueue::CheckpointState state = queue.Snapshot();
    const uint64_t bytes_before = checkpoint_bytes.Value();
    {
      Tracer::Scope s(tracer, "durability.checkpoint", root.id(), request);
      out->Op((*log)->WriteCheckpoint(m.workload.left(), &m.workload.right(),
                                      *version, save_model, &state));
    }
    bytes_per_checkpoint.push_back(
        static_cast<double>(checkpoint_bytes.Value() - bytes_before));
  }
  const double wall_s = wall.ElapsedSeconds();
  log->reset();
  std::filesystem::remove_all(dir, ec);
  if (tracer == nullptr) return wall_s;

  for (const auto& [name, totals] : tracer->Totals()) {
    const double per_call =
        totals.count == 0 ? 0.0 : totals.self_ms / static_cast<double>(totals.count);
    if (name == "risk.retrain") {
      out->Metric("risk.retrain_ms", per_call, "ms");
      out->Metric("risk.retrain_epochs_per_s",
                  static_cast<double>(retrain_options.trainer.epochs) /
                      (per_call / 1e3),
                  "1/s");
    } else if (name == "obs.baseline_build") {
      out->Metric("obs.baseline_build_ms", per_call, "ms");
    } else if (name == "gateway.model_publish") {
      out->Metric("gateway.model_publish_ms", per_call, "ms");
    } else if (name == "durability.checkpoint") {
      out->Metric("durability.checkpoint_ms", per_call, "ms");
    }
  }
  out->Metric("durability.checkpoint_bytes", Median(bytes_per_checkpoint), "B");
  return wall_s;
}

}  // namespace

void RunReviewLoop(const Args& args, Outcome* out) {
  out->Param("dataset", "DS");
  out->Param("scale", kScale);
  out->Param("shards", 1.0);
  out->Param("clients", 2.0);
  out->Param("request_parallelism", 0.0);
  out->Param("batch_pairs", static_cast<double>(kBatchPairs));
  out->Param("labels_per_cycle", static_cast<double>(kLabelsPerCycle));
  out->Param("cycles", static_cast<double>(kCycles));
  out->Param("solo_batches", static_cast<double>(kSoloBatches));
  out->Param("concurrent_batches", static_cast<double>(kConcurrentBatches));

  std::unique_ptr<Material> material;
  std::unique_ptr<Gateway> gateway;
  SetupTimes setup;
  // Every namespace lives here in turn; OpenNamespace clears it first.
  const std::string ns_dir = args.work_dir + "/ns";
  auto open = [&](const Material& built) { return OpenNamespace(built, ns_dir); };
  const Status set_up = SetUpRepeatedly("DS", kScale, args.seed, open, &setup,
                                        &material, &gateway);
  out->Op(set_up);
  if (!set_up.ok()) return;
  const Material& m = *material;

  const auto reference = OfflineBlockAll(m);
  out->Op(reference.status());
  if (!reference.ok()) return;
  const ScoredPairs& ref = *reference;
  const std::vector<uint8_t> truth = TruthOf(ref.pairs);
  const size_t budget =
      std::max<size_t>(1, CountMislabeled(ref.scores.machine_label, truth));
  out->Param("frontier_pairs", static_cast<double>(ref.pairs.size()));
  out->Param("review_budget", static_cast<double>(budget));

  // Episodes on fresh namespaces until the time is spent (at least one).
  Tracer tracer;
  Episode all;    // timings pooled over episodes
  std::vector<double> pairs_per_cpu_s;  // one per episode
  Episode first;  // the first episode's labels, replayed by traced runs
  std::vector<double> during_retrain, outside_retrain;
  int episodes = 0;
  Timer run;
  const double episode_seconds = args.trace ? 0.5 * args.seconds : args.seconds;
  do {
    if (gateway == nullptr) {
      auto opened = OpenNamespace(m, ns_dir);
      out->Op(opened.status());
      if (!opened.ok()) return;
      gateway = opened.MoveValueOrDie();
    }
    Episode e;
    RunEpisode(gateway.get(), ref, budget, args.trace ? &tracer : nullptr, &e, out);
    gateway.reset();
    for (auto v : {&Episode::resolve_ms, &Episode::retrain_ms, &Episode::drain_us,
                   &Episode::label_us, &Episode::enqueue_us,
                   &Episode::solo_cpu_ms}) {
      (all.*v).insert((all.*v).end(), (e.*v).begin(), (e.*v).end());
    }
    all.resolver_pairs += e.resolver_pairs;
    all.resolver_wall_s += e.resolver_wall_s;
    pairs_per_cpu_s.push_back(static_cast<double>(e.resolver_pairs) /
                              e.section_cpu_s);
    SplitByRetrain(e, &during_retrain, &outside_retrain);
    if (episodes == 0) {
      first = std::move(e);
    } else if (e.mislabeled_in_budget != first.mislabeled_in_budget) {
      out->Mismatch("the deterministic review phase differs between episodes");
    }
    ++episodes;
  } while (run.ElapsedSeconds() < episode_seconds);
  out->Param("episodes", static_cast<double>(episodes));
  const double precision = static_cast<double>(first.mislabeled_in_budget) /
                           static_cast<double>(budget);

  if (args.trace) {
    setup.ReportLayers(out);
    out->Metric("retrain_publish_p50_ms", Median(all.retrain_ms), "ms");
    out->Metric("resolve_p50_ms", Median(all.resolve_ms), "ms");
    out->Metric("resolve_p99_ms", Quantile(all.resolve_ms, 0.99), "ms");
    out->Metric("review.drain_us", Median(all.drain_us), "us");
    out->Metric("review.label_us", Median(all.label_us), "us");
    out->Metric("review.enqueue_us", Median(all.enqueue_us), "us");
    out->Metric("gateway.resolve_p99_during_retrain_ms",
                Quantile(during_retrain, 0.99), "ms");
    out->Metric("gateway.resolve_p99_outside_retrain_ms",
                Quantile(outside_retrain, 0.99), "ms");
    const double plain_s = ReplayRetrains(args, m, ref, first, nullptr, out);
    const double traced_s = ReplayRetrains(args, m, ref, first, &tracer, out);
    out->Metric("bench.trace_overhead", traced_s / plain_s - 1.0, "ratio");
    out->Op(tracer.Dump(args.work_dir + "/spans.json", args.workload));
    return;
  }
  out->Param("wall_pairs_per_s",
             static_cast<double>(all.resolver_pairs) / all.resolver_wall_s);
  out->Param("wall_p50_ms", Median(all.resolve_ms));
  out->Param("wall_p99.5_ms", Quantile(all.resolve_ms, kTailQuantile));
  ReportCommon(setup, out);
  out->Metric("pairs_per_cpu_s", Median(pairs_per_cpu_s), "pairs/cpu_s");
  out->Metric("request_cpu_ms", Median(all.solo_cpu_ms), "ms");
  out->Metric("risk_auroc", RiskAuroc(ref.scores.risk, ref.scores.machine_label, truth),
              "ratio");
  out->Metric("review_precision", precision, "ratio");
}

}  // namespace erbench
