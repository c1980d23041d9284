// Copyright 2026 The LearnRisk Authors
// Shared pieces of the repository benchmark (erbench): command-line
// arguments, the result record each workload fills, latency statistics, the
// bench-side span tracer used by traced runs, and the trained "namespace
// material" (generated tables, fitted metric suite, weak classifier, and a
// risk model trained by the paper recipe) every workload serves from.
//
// The benchmark only calls the library's public API; it adds no spans or
// counters inside the program.

#ifndef ERBENCH_BENCH_H_
#define ERBENCH_BENCH_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "classifier/classifier.h"
#include "common/status.h"
#include "data/workload.h"
#include "gateway/gateway.h"
#include "metrics/metric_suite.h"
#include "obs/drift.h"
#include "risk/risk_model.h"

namespace erbench {

using namespace learnrisk;  // NOLINT

/// \brief Parsed command line (see main.cc for the flags).
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory (inside the checkout) for durable namespace state
  /// and the span dump; created and removed by the caller.
  std::string work_dir;
};

/// \brief What one workload run reports: output-check verdict, operation
/// accounting, named metrics with units, and provenance parameters.
class Outcome {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Param(const std::string& name, const std::string& value);
  void Param(const std::string& name, double value);
  /// Records an output-check mismatch; the run reports correct = false.
  void Mismatch(const std::string& what);
  /// Counts one client operation; a failed one also records its status.
  void Op(const Status& status);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  /// \brief One-line JSON: correct, attempted, failed, metrics, params,
  /// errors. erbench/run.py reduces it to the contract's four keys.
  std::string ToJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  mutable std::mutex mu_;
  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> params_;
  std::vector<std::string> errors_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// \brief Linear-interpolated quantile (p in [0, 1]) of a sample; 0 when
/// empty.
double Quantile(std::vector<double> xs, double p);
inline double Median(std::vector<double> xs) {
  return Quantile(std::move(xs), 0.5);
}
/// \brief Median of the per-round ratios a[i] / b[i] minus 1 — the
/// overhead of side `a` over side `b` measured as alternating pairs.
double MedianOverhead(const std::vector<double>& a,
                      const std::vector<double>& b);

/// \brief Steady-clock nanoseconds (the tracer's time base).
int64_t NowNs();

/// \brief CPU seconds used so far by every thread of this process, and by
/// the calling thread alone. Neither counts time spent waiting. On a Linux
/// guest with paravirtual steal accounting (CONFIG_PARAVIRT_TIME_ACCOUNTING)
/// neither counts time the host gave to other guests either, so on a shared
/// host they vary far less between runs than wall time does.
double ProcessCpuSeconds();
double ThreadCpuSeconds();

/// \brief Bench-side span recorder for traced runs. Spans are kept in
/// memory (thread-safe append) and written out once at the end. A span's
/// self time is its duration minus the part its direct children cover.
class Tracer {
 public:
  struct Span {
    std::string name;
    uint64_t id = 0;
    uint64_t parent = 0;   ///< 0 = root
    uint64_t request = 0;  ///< spans of one replayed request share this id
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  /// \brief RAII span: records [construction, destruction). A null
  /// tracer makes it a no-op (the untraced twin of a traced replay).
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, uint64_t parent,
          uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    uint64_t id() const { return span_.id; }

   private:
    Tracer* tracer_;
    Span span_;
  };

  /// \brief Records the gateway's own StageTiming for a request beside the
  /// spans, so the outside replay and the gateway's stage clock compare.
  void NoteStages(uint64_t request, const char* api, double wall_ms,
                  const StageTiming& timing);

  /// \brief Sum of self time (ms) and span count per span name.
  struct NameTotals {
    double self_ms = 0.0;
    size_t count = 0;
  };
  std::vector<std::pair<std::string, NameTotals>> Totals() const;

  /// \brief For every request whose root span is named `root`, the sum of
  /// the self times (ms) of its other spans, in request id order.
  std::vector<double> LayerSelfMsPerRequest(const std::string& root) const;

  /// \brief Writes {"spans": [...], "stages": [...]} as JSON.
  Status Dump(const std::string& path, const std::string& workload) const;

 private:
  uint64_t NextId();

  struct StageNote {
    uint64_t request;
    std::string api;
    double wall_ms;
    StageTiming timing;
  };
  mutable std::mutex mu_;
  uint64_t next_id_ = 0;
  std::vector<Span> spans_;
  std::vector<StageNote> stages_;
};

/// \brief Everything a namespace of one generated dataset needs, trained at
/// setup: the tables, fitted suite, a deliberately weak logistic classifier
/// over the similarity columns (so there are mislabeled pairs to rank), and
/// a risk model trained by the paper recipe (one-sided forest rules plus
/// the analytic-gradient trainer), with its training drift baseline.
struct Material {
  Workload workload;
  MetricSuite suite;
  std::vector<size_t> classifier_columns;
  std::shared_ptr<const BinaryClassifier> classifier;
  std::shared_ptr<const RiskModel> risk;
  std::shared_ptr<const DriftBaseline> baseline;
  double generate_s = 0.0;  ///< generate + fit, process CPU seconds
  double train_s = 0.0;     ///< classifier + rules + risk training, CPU s
};

Result<Material> BuildMaterial(const std::string& dataset, double scale,
                               uint64_t seed);

/// \brief Process CPU seconds of a run's repeated set-ups; medians are
/// reported. Each workload sets up until Done() (the last set-up serves): at
/// least five times and for at least three CPU seconds, so a quick set-up's
/// median rests on more samples.
struct SetupTimes {
  std::vector<double> total_s, generate_s, train_s, register_s;
  bool Done() const;
  void Add(const Material& m, double register_seconds, double total_seconds);
  /// The per-layer setup.generate_s, setup.train_s and setup.register_s.
  void ReportLayers(Outcome* out) const;
};

/// \brief Sets up until `setup->Done()`. Each round builds the material and
/// calls `open(material)` (register, publish, warm up), which returns the
/// serving gateway; the last round's material and gateway are kept.
template <typename Open>
Status SetUpRepeatedly(const std::string& dataset, double scale, uint64_t seed,
                       const Open& open, SetupTimes* setup,
                       std::unique_ptr<Material>* material,
                       std::unique_ptr<Gateway>* gateway) {
  while (!setup->Done()) {
    gateway->reset();  // free the previous round first
    material->reset();
    const double total = ProcessCpuSeconds();
    auto built = BuildMaterial(dataset, scale, seed);
    if (!built.ok()) return built.status();
    *material = std::make_unique<Material>(built.MoveValueOrDie());
    const double registering = ProcessCpuSeconds();
    auto opened = open(**material);
    if (!opened.ok()) return opened.status();
    *gateway = opened.MoveValueOrDie();
    const double now = ProcessCpuSeconds();
    setup->Add(**material, now - registering, now - total);
  }
  return Status::OK();
}

/// \brief The end-to-end metrics every workload reports the same way:
/// setup_s, peak_rss_mb and ops_ok_share.
void ReportCommon(const SetupTimes& setup, Outcome* out);

/// \brief A namespace spec over two tables (pass the same table twice for
/// dedup) with the material's suite and classifier.
NamespaceSpec SpecFor(const Material& m, std::shared_ptr<const Table> left,
                      std::shared_ptr<const Table> right, size_t shards);

/// \brief Scored pairs plus the digest of the whole response.
struct ScoredPairs {
  std::vector<RecordPair> pairs;
  ScoreResponse scores;
  uint64_t digest = 0;
};

/// \brief The offline reference of a block_all request over the material's
/// two tables: TokenBlocking + ComputeFeatures + classifier +
/// ServingEngine::Score with the material's risk model.
Result<ScoredPairs> OfflineBlockAll(const Material& m);

/// \brief Ground-truth labels of pairs (1 = equivalent).
std::vector<uint8_t> TruthOf(const std::vector<RecordPair>& pairs);

/// \brief Ranking quality of served risk: AUROC of `risk` for flagging
/// pairs whose machine label disagrees with the truth.
double RiskAuroc(const std::vector<double>& risk,
                 const std::vector<uint8_t>& machine,
                 const std::vector<uint8_t>& truth);

/// \brief Share of mislabeled pairs among the `budget` riskiest (ties
/// broken by index, as the review queue breaks them by enqueue order).
double PrecisionAtBudget(const std::vector<double>& risk,
                         const std::vector<uint8_t>& machine,
                         const std::vector<uint8_t>& truth, size_t budget);

/// \brief Number of pairs whose machine label disagrees with the truth.
size_t CountMislabeled(const std::vector<uint8_t>& machine,
                       const std::vector<uint8_t>& truth);

/// \brief FNV-1a digest of scored pairs: ids, truth flags, risk bits and
/// machine labels.
uint64_t ScoredDigest(const std::vector<RecordPair>& pairs,
                      const ScoreResponse& scores);

/// \brief Peak resident set size of this process so far, in MB.
double PeakRssMb();

/// \brief The three workloads (one process each).
void RunBulkResolve(const Args& args, Outcome* out);
void RunStreamIngest(const Args& args, Outcome* out);
void RunReviewLoop(const Args& args, Outcome* out);

}  // namespace erbench

#endif  // ERBENCH_BENCH_H_
