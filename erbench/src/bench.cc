// Copyright 2026 The LearnRisk Authors

#include "bench.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <numeric>
#include <sstream>

#include "classifier/logistic.h"
#include "data/blocking.h"
#include "data/generators.h"
#include "eval/experiment.h"
#include "eval/roc.h"
#include "risk/risk_feature.h"
#include "risk/trainer.h"
#include "rules/one_sided_tree.h"
#include "serve/serving_engine.h"

namespace erbench {

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

// --- Outcome ----------------------------------------------------------------

void Outcome::Metric(const std::string& name, double value,
                     const std::string& unit) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_.push_back({name, value, unit});
}

void Outcome::Param(const std::string& name, const std::string& value) {
  std::lock_guard<std::mutex> lock(mu_);
  params_.emplace_back(name, JsonString(value));
}

void Outcome::Param(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  params_.emplace_back(name, JsonNumber(value));
}

void Outcome::Mismatch(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  if (errors_.size() < 16) errors_.push_back(what);
}

void Outcome::Op(const Status& status) {
  std::lock_guard<std::mutex> lock(mu_);
  ++attempted_;
  if (!status.ok()) {
    ++failed_;
    if (errors_.size() < 16) errors_.push_back("op failed: " + status.ToString());
  }
}

std::string Outcome::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "{\"correct\": " << (errors_.empty() ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    os << (i ? ", " : "") << JsonString(metrics_[i].name)
       << ": {\"value\": " << JsonNumber(metrics_[i].value)
       << ", \"unit\": " << JsonString(metrics_[i].unit) << "}";
  }
  os << "}, \"params\": {";
  for (size_t i = 0; i < params_.size(); ++i) {
    os << (i ? ", " : "") << JsonString(params_[i].first) << ": "
       << params_[i].second;
  }
  os << "}, \"errors\": [";
  for (size_t i = 0; i < errors_.size(); ++i) {
    os << (i ? ", " : "") << JsonString(errors_[i]);
  }
  os << "]}";
  return os.str();
}

// --- Statistics ---------------------------------------------------------------

double Quantile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = p * static_cast<double>(xs.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + frac * (xs[hi] - xs[lo]);
}

double MedianOverhead(const std::vector<double>& a,
                      const std::vector<double>& b) {
  std::vector<double> ratios;
  for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    if (b[i] > 0.0) ratios.push_back(a[i] / b[i]);
  }
  return ratios.empty() ? 0.0 : Median(ratios) - 1.0;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

double CpuClockSeconds(clockid_t clock) {
  struct timespec ts;
  if (clock_gettime(clock, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

}  // namespace

double ProcessCpuSeconds() { return CpuClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }

double ThreadCpuSeconds() { return CpuClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

// --- Tracer -------------------------------------------------------------------

Tracer::Scope::Scope(Tracer* tracer, const char* name, uint64_t parent,
                     uint64_t request)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;  // untraced twin: no span
  span_.name = name;
  span_.id = tracer_->NextId();
  span_.parent = parent;
  span_.request = request;
  span_.start_ns = NowNs();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.end_ns = NowNs();
  std::lock_guard<std::mutex> lock(tracer_->mu_);
  tracer_->spans_.push_back(std::move(span_));
}

uint64_t Tracer::NextId() {
  std::lock_guard<std::mutex> lock(mu_);
  return ++next_id_;
}

void Tracer::NoteStages(uint64_t request, const char* api, double wall_ms,
                        const StageTiming& timing) {
  std::lock_guard<std::mutex> lock(mu_);
  stages_.push_back({request, api, wall_ms, timing});
}

namespace {

/// Per-span child coverage (ns), keyed by parent id. Children of one span
/// never overlap in this benchmark (each replay is sequential), so the sum
/// of their durations is the covered part.
std::map<uint64_t, int64_t> ChildCoverage(
    const std::vector<Tracer::Span>& spans) {
  std::map<uint64_t, int64_t> covered;
  for (const Tracer::Span& s : spans) {
    if (s.parent != 0) covered[s.parent] += s.end_ns - s.start_ns;
  }
  return covered;
}

}  // namespace

std::vector<std::pair<std::string, Tracer::NameTotals>> Tracer::Totals()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::map<uint64_t, int64_t> covered = ChildCoverage(spans_);
  std::map<std::string, NameTotals> totals;
  for (const Span& s : spans_) {
    const auto it = covered.find(s.id);
    const int64_t child = it == covered.end() ? 0 : it->second;
    NameTotals& t = totals[s.name];
    t.self_ms += static_cast<double>(s.end_ns - s.start_ns - child) / 1e6;
    ++t.count;
  }
  return {totals.begin(), totals.end()};
}

std::vector<double> Tracer::LayerSelfMsPerRequest(
    const std::string& root) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::map<uint64_t, int64_t> covered = ChildCoverage(spans_);
  std::map<uint64_t, double> per_request;
  for (const Span& s : spans_) {
    if (s.name == root) per_request.emplace(s.request, 0.0);
  }
  for (const Span& s : spans_) {
    const auto request = per_request.find(s.request);
    if (s.name == root || request == per_request.end()) continue;
    const auto it = covered.find(s.id);
    const int64_t child = it == covered.end() ? 0 : it->second;
    request->second += static_cast<double>(s.end_ns - s.start_ns - child) / 1e6;
  }
  std::vector<double> out;
  for (const auto& [request, ms] : per_request) out.push_back(ms);
  return out;
}

Status Tracer::Dump(const std::string& path,
                    const std::string& workload) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot write " + path);
  std::fprintf(f, "{\"workload\": %s,\n\"spans\": [",
               JsonString(workload).c_str());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\": %s, \"id\": %llu, \"parent\": %llu, "
                 "\"request\": %llu, \"start_ns\": %lld, \"end_ns\": %lld}",
                 i ? "," : "", JsonString(s.name).c_str(),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  std::fprintf(f, "\n],\n\"stages\": [");
  for (size_t i = 0; i < stages_.size(); ++i) {
    const StageNote& n = stages_[i];
    const StageTiming& t = n.timing;
    std::fprintf(
        f,
        "%s\n{\"request\": %llu, \"api\": %s, \"gateway_request_id\": %llu, "
        "\"wall_ms\": %s, \"blocking_ms\": %s, \"shard_merge_ms\": %s, "
        "\"featurize_ms\": %s, \"classify_ms\": %s, \"score_ms\": %s, "
        "\"review_ms\": %s, \"wal_append_ms\": %s, \"publish_ms\": %s}",
        i ? "," : "", static_cast<unsigned long long>(n.request),
        JsonString(n.api).c_str(),
        static_cast<unsigned long long>(t.request_id),
        JsonNumber(n.wall_ms).c_str(), JsonNumber(t.blocking_ms).c_str(),
        JsonNumber(t.shard_merge_ms).c_str(),
        JsonNumber(t.featurize_ms).c_str(), JsonNumber(t.classify_ms).c_str(),
        JsonNumber(t.score_ms).c_str(), JsonNumber(t.review_ms).c_str(),
        JsonNumber(t.wal_append_ms).c_str(),
        JsonNumber(t.publish_ms).c_str());
  }
  std::fprintf(f, "\n]}\n");
  const bool ok = std::fclose(f) == 0;
  return ok ? Status::OK() : Status::IOError("short write to " + path);
}

// --- Material -------------------------------------------------------------------

Result<Material> BuildMaterial(const std::string& dataset, double scale,
                               uint64_t seed) {
  Material m;
  const double generate_start = ProcessCpuSeconds();
  GeneratorOptions generator;
  generator.scale = scale;
  generator.seed = seed;
  Result<Workload> workload = GenerateDataset(dataset, generator);
  if (!workload.ok()) return workload.status();
  m.workload = workload.MoveValueOrDie();
  m.suite = MetricSuite::ForSchema(m.workload.left().schema());
  m.suite.Fit(m.workload);
  for (size_t c = 0; c < m.suite.specs().size(); ++c) {
    if (!IsDifferenceMetric(m.suite.specs()[c].kind)) {
      m.classifier_columns.push_back(c);
    }
  }
  const FeatureMatrix features = ComputeFeatures(m.workload, m.suite);
  const double train_start = ProcessCpuSeconds();
  m.generate_s = train_start - generate_start;

  const FeatureMatrix classifier_view =
      GatherColumns(features, m.classifier_columns);
  const std::vector<uint8_t> truth = m.workload.Labels();
  LogisticOptions logistic;
  logistic.epochs = 10;  // weak on purpose: review needs mislabeled pairs
  logistic.seed = seed + 1;
  auto classifier = std::make_shared<LogisticClassifier>(logistic);
  LEARNRISK_RETURN_NOT_OK(classifier->Train(classifier_view, truth));
  const std::vector<double> probs = classifier->PredictProbaAll(classifier_view);
  std::vector<uint8_t> machine(probs.size());
  for (size_t i = 0; i < probs.size(); ++i) machine[i] = probs[i] >= 0.5;
  auto rules = OneSidedForest::Generate(features, truth, {});
  if (!rules.ok()) return rules.status();
  RiskFeatureSet risk_features =
      RiskFeatureSet::Build(rules.MoveValueOrDie(), features, truth);
  auto model = std::make_shared<RiskModel>(risk_features);
  const RiskActivation activation =
      ComputeActivation(risk_features, features, probs);
  RiskTrainerOptions trainer;
  trainer.epochs = 120;
  trainer.seed = seed + 2;
  LEARNRISK_RETURN_NOT_OK(RiskTrainer(trainer).Train(
      model.get(), activation, MislabelFlags(machine, truth)));
  m.classifier = classifier;
  m.risk = model;
  m.baseline =
      std::make_shared<const DriftBaseline>(DriftBaseline::FromTraining(features));
  m.train_s = ProcessCpuSeconds() - train_start;
  return m;
}

bool SetupTimes::Done() const {
  constexpr size_t kMinSetups = 5;
  constexpr double kMinSetupSeconds = 3.0;  // CPU seconds
  return total_s.size() >= kMinSetups &&
         std::accumulate(total_s.begin(), total_s.end(), 0.0) >=
             kMinSetupSeconds;
}

void SetupTimes::Add(const Material& m, double register_seconds,
                     double total_seconds) {
  total_s.push_back(total_seconds);
  generate_s.push_back(m.generate_s);
  train_s.push_back(m.train_s);
  register_s.push_back(register_seconds);
}

void SetupTimes::ReportLayers(Outcome* out) const {
  out->Param("setup_reps", static_cast<double>(total_s.size()));
  out->Metric("setup.generate_s", Median(generate_s), "s");
  out->Metric("setup.train_s", Median(train_s), "s");
  out->Metric("setup.register_s", Median(register_s), "s");
}

void ReportCommon(const SetupTimes& setup, Outcome* out) {
  out->Param("setup_reps", static_cast<double>(setup.total_s.size()));
  out->Metric("setup_s", Median(setup.total_s), "s");
  out->Metric("peak_rss_mb", PeakRssMb(), "MB");
  out->Metric("ops_ok_share",
              1.0 - static_cast<double>(out->failed()) /
                        static_cast<double>(std::max<uint64_t>(1, out->attempted())),
              "ratio");
}

NamespaceSpec SpecFor(const Material& m, std::shared_ptr<const Table> left,
                      std::shared_ptr<const Table> right, size_t shards) {
  NamespaceSpec spec;
  spec.left = std::move(left);
  spec.right = std::move(right);
  spec.suite = m.suite;
  spec.classifier = m.classifier;
  spec.classifier_columns = m.classifier_columns;
  spec.shards = shards;
  return spec;
}

// --- Quality and checks ---------------------------------------------------------

Result<ScoredPairs> OfflineBlockAll(const Material& m) {
  ScoredPairs ref;
  auto blocked = TokenBlocking(m.workload.left(), m.workload.right(),
                               BlockingConfig{});
  if (!blocked.ok()) return blocked.status();
  ref.pairs = blocked.MoveValueOrDie();
  const Workload blocked_workload("blocked", m.workload.left_ptr(),
                                  m.workload.right_ptr(), ref.pairs);
  const FeatureMatrix features = ComputeFeatures(blocked_workload, m.suite);
  ServingEngine engine;
  engine.Publish(*m.risk);
  ScoreRequest request;
  request.metric_features = &features;
  request.classifier_probs = m.classifier->PredictProbaAll(
      GatherColumns(features, m.classifier_columns));
  auto scored = engine.Score(request);
  if (!scored.ok()) return scored.status();
  ref.scores = scored.MoveValueOrDie();
  ref.digest = ScoredDigest(ref.pairs, ref.scores);
  return ref;
}

std::vector<uint8_t> TruthOf(const std::vector<RecordPair>& pairs) {
  std::vector<uint8_t> truth(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) truth[i] = pairs[i].is_equivalent;
  return truth;
}

double RiskAuroc(const std::vector<double>& risk,
                 const std::vector<uint8_t>& machine,
                 const std::vector<uint8_t>& truth) {
  return Auroc(risk, MislabelFlags(machine, truth));
}

double PrecisionAtBudget(const std::vector<double>& risk,
                         const std::vector<uint8_t>& machine,
                         const std::vector<uint8_t>& truth, size_t budget) {
  std::vector<size_t> order(risk.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return risk[a] > risk[b]; });
  budget = std::min(budget, order.size());
  size_t hits = 0;
  for (size_t k = 0; k < budget; ++k) hits += machine[order[k]] != truth[order[k]];
  return budget == 0 ? 0.0 : static_cast<double>(hits) / budget;
}

size_t CountMislabeled(const std::vector<uint8_t>& machine,
                       const std::vector<uint8_t>& truth) {
  size_t n = 0;
  for (size_t i = 0; i < machine.size(); ++i) n += machine[i] != truth[i];
  return n;
}

uint64_t ScoredDigest(const std::vector<RecordPair>& pairs,
                      const ScoreResponse& scores) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  mix(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    mix(pairs[i].left);
    mix(pairs[i].right);
    mix(pairs[i].is_equivalent ? 1 : 0);
    uint64_t bits = 0;
    if (i < scores.risk.size()) std::memcpy(&bits, &scores.risk[i], sizeof(bits));
    mix(bits);
    mix(i < scores.machine_label.size() ? scores.machine_label[i] : 2);
  }
  return h;
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace erbench
