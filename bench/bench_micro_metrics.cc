// Copyright 2026 The LearnRisk Authors
//
// Micro-benchmarks (google-benchmark): throughput of the similarity /
// difference metrics, rule evaluation and VaR scoring — the inner loops of
// feature generation and risk ranking. The *Fast kernels and the prepared
// Monge-Elkan are the ones the serving path runs; each sits next to its raw
// reference in tests/reference/raw_metrics.h, which the other metric
// benchmarks time. The /50 and /100 arguments select a title pair of
// that length: after common-end stripping the 100-char pair leaves a
// remainder longer than 64 chars, so it runs the multi-word kernels.
//
// BM_Column/<metric> is the featurize layer ledger: one metric column of
// the DS scale-0.1 block_all (TokenBlocking pairs, seed 1) evaluated
// single-threaded over prepared records, reported as CPU time per pair
// (`per_pair`), so the per-column sum shows where featurization CPU goes.
// BM_MongeElkanRuns/<DS|SG>/<run length> is the Monge-Elkan column cache's
// ledger by blocking-run length (see the comment above its definition).
//
// BM_ForestGenerate/<DS|SG> and BM_RiskFeatureBuild/<DS|SG> are the fit's
// rule-stage ledger: Algorithm 1 and RiskFeatureSet::Build with default
// options over ComputeFeatures of the dataset's scale-0.1 workload (seed 1;
// 4,142 x 21 for DS, 14,495 x 29 for SG) and its ground-truth labels,
// reported as process CPU time, since Build runs on the pool. BM_RngWords
// times one engine word, the unit the risk trainer draws per rank pair.
//
// BM_PrepareRecord/<DS|SG> is the prepared-record ledger:
// MetricSuite::PrepareRecord over every record of the dataset's scale-0.1
// tables (seed 1; a dedup dataset's one table once), reported as CPU time
// per record (`per_record`) and the heap bytes one prepared record holds
// (`bytes_per_record`: glibc's mallinfo2 in-use delta across preparing all
// of them on this thread, malloc chunk overhead included, divided by the
// record count; the vector holding the records is allocated beforehand),
// next to what PreparedRecord::Bytes() counts of the same records
// (`counted_per_record`, the unit of learnrisk_gateway_prepared_bytes).
//
// BM_MergedAllCandidates/<S> is sharded block_all candidate generation: the
// SG scale-0.1 table (seed 1, dedup) split round-robin over S BlockingIndex
// shards, then 2,000 records of the seed-2 table added through AddRecord to
// the least-loaded shard, so each shard holds several posting segments —
// the state a sharded namespace serves block_all from after online adds.
//
// BM_ReviewQueue/<offer|drain_label> is the review stage's ledger, on a
// queue of the default capacity (1,024) and items with 21 features (DS's
// metric count). `offer` starts each iteration from 960 resident pairs and
// offers 4,096 pairs drawn from 3,072 keys with uniform risks, so the
// stream admits, merges, displaces and drops (`admit_share`,
// `merge_share`, `displace_share`, `drop_share`); `per_op` is CPU time per
// Offer. `drain_label` starts from 1,024 resident pairs and empties the
// queue by DrainTop(8) followed by Label of each drained pair; `per_op` is
// CPU time per drained-and-labeled pair. Building each iteration's queue
// and item copies, and destroying the queue, are excluded from the timing.

#include <malloc.h>

#include <array>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/math_util.h"
#include "common/random.h"
#include "data/blocking.h"
#include "data/generators.h"
#include "gateway/blocking_index.h"
#include "gateway/shard_merge.h"
#include "metrics/metric_suite.h"
#include "metrics/prepared_record.h"
#include "metrics/string_kernels.h"
#include "reference/raw_metrics.h"
#include "risk/risk_feature.h"
#include "review/review_queue.h"
#include "risk/risk_model.h"
#include "rules/one_sided_tree.h"

namespace learnrisk {
namespace {

const char* kTitleA = "towards interpretable and learnable risk analysis";
const char* kTitleB = "toward interpretble and lernable risk analysis for er";
const char* kAuthorsA = "zhaoqiang chen, qun chen, boyi hou, tianyi duan";
const char* kAuthorsB = "z chen, q chen, b hou, g li";
const char* kLongTitleA =
    "towards interpretable and learnable risk analysis for entity resolution "
    "with rule based risk features";
const char* kLongTitleB =
    "toward interpretble and lernable risk analysis of er: learning "
    "rule-based risk features for matching";

// The title pair of (about) state.range(0) chars: 50 or 100.
std::pair<const char*, const char*> TitlePair(const benchmark::State& state) {
  if (state.range(0) >= 100) return {kLongTitleA, kLongTitleB};
  return {kTitleA, kTitleB};
}

void BM_EditDistance(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(reference::EditDistance(kTitleA, kTitleB));
  }
}
BENCHMARK(BM_EditDistance);

void BM_NormalizedEditSimilarityFast(benchmark::State& state) {
  const auto [a, b] = TitlePair(state);
  MetricScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(NormalizedEditSimilarityFast(a, b, &scratch));
  }
}
BENCHMARK(BM_NormalizedEditSimilarityFast)->Arg(50)->Arg(100);

void BM_JaroWinkler(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        reference::JaroWinklerSimilarity(kTitleA, kTitleB));
  }
}
BENCHMARK(BM_JaroWinkler);

void BM_JaroWinklerSimilarityFast(benchmark::State& state) {
  const auto [a, b] = TitlePair(state);
  MetricScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(JaroWinklerSimilarityFast(a, b, &scratch));
  }
}
BENCHMARK(BM_JaroWinklerSimilarityFast)->Arg(50)->Arg(100);

// Token pairs as Monge-Elkan compares them: all <= 16 bytes, so the
// prepared kernel runs JaroWinklerPacked on them.
const std::pair<const char*, const char*> kTokenPairs[] = {
    {"towards", "toward"},     {"interpretable", "interpretble"},
    {"learnable", "lernable"}, {"risk", "analysis"},
    {"analysis", "analysis"},  {"resolution", "relational"},
    {"zhaoqiang", "chen"},     {"entity", "identity"},
};

void BM_JaroWinklerTokensFast(benchmark::State& state) {
  MetricScratch scratch;
  for (auto _ : state) {
    for (const auto& [a, b] : kTokenPairs) {
      benchmark::DoNotOptimize(JaroWinklerSimilarityFast(a, b, &scratch));
    }
  }
  state.SetItemsProcessed(state.iterations() * std::size(kTokenPairs));
}
BENCHMARK(BM_JaroWinklerTokensFast);

void BM_JaroWinklerPacked(benchmark::State& state) {
  std::vector<std::pair<PackedToken, size_t>> lefts;
  std::vector<std::pair<PackedToken, size_t>> rights;
  for (const auto& [a, b] : kTokenPairs) {
    lefts.emplace_back(PackToken(a), std::string_view(a).size());
    rights.emplace_back(PackToken(b), std::string_view(b).size());
  }
  for (auto _ : state) {
    for (size_t k = 0; k < lefts.size(); ++k) {
      benchmark::DoNotOptimize(JaroWinklerPacked(
          lefts[k].first, lefts[k].second, rights[k].first, rights[k].second));
    }
  }
  state.SetItemsProcessed(state.iterations() * lefts.size());
}
BENCHMARK(BM_JaroWinklerPacked);

void BM_TokenJaccard(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(reference::TokenJaccard(kTitleA, kTitleB));
  }
}
BENCHMARK(BM_TokenJaccard);

void BM_LcsRatio(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(reference::LcsRatio(kTitleA, kTitleB));
  }
}
BENCHMARK(BM_LcsRatio);

void BM_LcsRatioFast(benchmark::State& state) {
  const auto [a, b] = TitlePair(state);
  MetricScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(LcsRatioFast(a, b, &scratch));
  }
}
BENCHMARK(BM_LcsRatioFast)->Arg(50)->Arg(100);

void BM_MongeElkan(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(reference::MongeElkan(kAuthorsA, kAuthorsB));
  }
}
BENCHMARK(BM_MongeElkan);

// Monge-Elkan as featurization serves it: both records prepared once, then
// MetricSuite::EvaluatePrepared per pair. The cold benchmark alternates two
// left values, so no pair follows one with the same left value and every
// evaluation runs the uncached kernel; the warm twin repeats one pair, so
// every right token's column comes from the scratch's column cache.
struct AuthorsPair {
  AuthorsPair()
      : suite(MetricSuite::FromSpecs(
                  Schema({{"authors", AttributeType::kText}}),
                  {MetricSpec{0, MetricKind::kMongeElkan,
                              "authors.monge_elkan"}})
                  .MoveValueOrDie()) {
    left.values = {kAuthorsA};
    other_left.values = {std::string(kAuthorsA) + ", q li"};
    right.values = {kAuthorsB};
    prepared_left = suite.PrepareRecord(left);
    prepared_other_left = suite.PrepareRecord(other_left);
    prepared_right = suite.PrepareRecord(right);
  }

  double Evaluate(const PreparedRecord& l, MetricScratch* scratch) const {
    return suite.EvaluatePrepared(l, prepared_right, 0, scratch);
  }

  MetricSuite suite;
  Record left;
  Record other_left;
  Record right;
  PreparedRecord prepared_left;
  PreparedRecord prepared_other_left;
  PreparedRecord prepared_right;
};

void BM_MongeElkanPrepared(benchmark::State& state) {
  const AuthorsPair p;
  MetricScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.Evaluate(p.prepared_left, &scratch));
    benchmark::DoNotOptimize(p.Evaluate(p.prepared_other_left, &scratch));
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_MongeElkanPrepared);

void BM_MongeElkanPreparedWarm(benchmark::State& state) {
  const AuthorsPair p;
  MetricScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.Evaluate(p.prepared_left, &scratch));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MongeElkanPreparedWarm);

// A dataset's scale-0.1 block_all in prepared form, built on first use.
struct ColumnFixture {
  Workload workload;
  MetricSuite suite;
  std::vector<RecordPair> pairs;
  PreparedTable left;
  PreparedTable right;
};

GeneratorOptions ScaleOptions(double scale) {
  GeneratorOptions options;
  options.scale = scale;
  options.seed = 1;
  return options;
}

ColumnFixture* BuildBlockAll(const std::string& dataset) {
  auto* f = new ColumnFixture;
  f->workload = GenerateDataset(dataset, ScaleOptions(0.1)).MoveValueOrDie();
  f->suite = MetricSuite::ForSchema(f->workload.left().schema());
  f->suite.Fit(f->workload);
  f->pairs = TokenBlocking(f->workload.left(), f->workload.right(),
                           BlockingConfig{})
                 .MoveValueOrDie();
  f->left = PreparedTable::Build(f->workload.left(), f->suite);
  f->right = PreparedTable::Build(f->workload.right(), f->suite);
  return f;
}

const ColumnFixture& DsBlockAll() {
  static const ColumnFixture* fixture = BuildBlockAll("DS");
  return *fixture;
}

const ColumnFixture& SgBlockAll() {
  static const ColumnFixture* fixture = BuildBlockAll("SG");
  return *fixture;
}

void BM_Column(benchmark::State& state, size_t column) {
  const ColumnFixture& f = DsBlockAll();
  MetricScratch scratch;
  for (auto _ : state) {
    for (const RecordPair& pair : f.pairs) {
      benchmark::DoNotOptimize(f.suite.EvaluatePrepared(
          f.left.record(pair.left), f.right.record(pair.right), column,
          &scratch));
    }
  }
  state.counters["pairs"] = static_cast<double>(f.pairs.size());
  // Seconds per pair; the console prints it with an SI prefix (e.g. ns).
  state.counters["per_pair"] = benchmark::Counter(
      static_cast<double>(f.pairs.size()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

// One BM_Column/<metric> per DS metric column. The column names depend only
// on the schema, so a tiny DS names them without building the fixture.
const bool kColumnsRegistered = [] {
  const Workload tiny =
      GenerateDataset("DS", ScaleOptions(0.01)).MoveValueOrDie();
  const std::vector<std::string> names =
      MetricSuite::ForSchema(tiny.left().schema()).MetricNames();
  for (size_t c = 0; c < names.size(); ++c) {
    benchmark::RegisterBenchmark(("BM_Column/" + names[c]).c_str(), BM_Column,
                                 c)
        ->Unit(benchmark::kMillisecond);
  }
  return true;
}();

// BM_MongeElkanRuns/<dataset>/<run lengths> is the column cache's ledger by
// run length: the Monge-Elkan columns of the dataset's scale-0.1 block_all
// over every run (consecutive pairs sharing a left record) whose length is
// in the bucket, each run through a fresh MetricScratch as a request chunk
// gets one, reported as CPU time per pair (`per_pair`) with the share of
// right-token columns served from the cache (`hit_share`).
struct RunBucket {
  const char* name;
  size_t min_len;
  size_t max_len;
};

constexpr RunBucket kRunBuckets[] = {
    {"1", 1, 1}, {"2-4", 2, 4}, {"5-16", 5, 16}, {"17-64", 17, 64},
    {"65+", 65, static_cast<size_t>(-1)}};

void BM_MongeElkanRuns(benchmark::State& state,
                       const ColumnFixture& (*fixture)(), RunBucket bucket) {
  const ColumnFixture& f = fixture();
  std::vector<size_t> columns;
  for (size_t m = 0; m < f.suite.num_metrics(); ++m) {
    if (f.suite.specs()[m].kind == MetricKind::kMongeElkan) {
      columns.push_back(m);
    }
  }
  std::vector<std::pair<size_t, size_t>> runs;
  size_t pairs = 0;
  for (size_t begin = 0, end = 0; begin < f.pairs.size(); begin = end) {
    end = begin + 1;
    while (end < f.pairs.size() && f.pairs[end].left == f.pairs[begin].left) {
      ++end;
    }
    if (end - begin >= bucket.min_len && end - begin <= bucket.max_len) {
      runs.emplace_back(begin, end);
      pairs += end - begin;
    }
  }
  if (runs.empty()) {
    state.SkipWithError("no blocking run of this length");
    return;
  }
  size_t hits = 0;
  size_t misses = 0;
  for (auto _ : state) {
    for (const auto& [begin, end] : runs) {
      MetricScratch scratch;
      for (size_t i = begin; i < end; ++i) {
        const PreparedRecord& left = f.left.record(f.pairs[i].left);
        const PreparedRecord& right = f.right.record(f.pairs[i].right);
        for (size_t m : columns) {
          benchmark::DoNotOptimize(
              f.suite.EvaluatePrepared(left, right, m, &scratch));
        }
      }
      for (const MongeElkanColumnCache& cache : scratch.monge_elkan) {
        hits += cache.hits;
        misses += cache.misses;
      }
    }
  }
  state.counters["runs"] = static_cast<double>(runs.size());
  state.counters["pairs"] = static_cast<double>(pairs);
  state.counters["hit_share"] =
      hits + misses == 0 ? 0.0
                         : static_cast<double>(hits) /
                               static_cast<double>(hits + misses);
  state.counters["per_pair"] = benchmark::Counter(
      static_cast<double>(pairs),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

const bool kRunsRegistered = [] {
  const std::pair<const char*, const ColumnFixture& (*)()> datasets[] = {
      {"DS", DsBlockAll}, {"SG", SgBlockAll}};
  for (const auto& [name, fixture] : datasets) {
    for (const RunBucket& bucket : kRunBuckets) {
      benchmark::RegisterBenchmark(
          (std::string("BM_MongeElkanRuns/") + name + "/" + bucket.name)
              .c_str(),
          BM_MongeElkanRuns, fixture, bucket)
          ->Unit(benchmark::kMillisecond);
    }
  }
  return true;
}();

void BM_PrepareRecord(benchmark::State& state,
                      const ColumnFixture& (*fixture)()) {
  const ColumnFixture& f = fixture();
  std::vector<const Record*> records;
  const Table& left = f.workload.left();
  const Table& right = f.workload.right();
  for (size_t i = 0; i < left.num_records(); ++i) {
    records.push_back(&left.record(i));
  }
  if (&right != &left) {
    for (size_t i = 0; i < right.num_records(); ++i) {
      records.push_back(&right.record(i));
    }
  }
  const double n = static_cast<double>(records.size());
  double bytes_per_record = 0.0;
  double counted_per_record = 0.0;
  {
    std::vector<PreparedRecord> held(records.size());
    const size_t before = mallinfo2().uordblks;
    for (size_t i = 0; i < records.size(); ++i) {
      held[i] = f.suite.PrepareRecord(*records[i]);
    }
    bytes_per_record =
        static_cast<double>(mallinfo2().uordblks - before) / n;
    for (const PreparedRecord& record : held) {
      counted_per_record += static_cast<double>(record.Bytes()) / n;
    }
  }
  for (auto _ : state) {
    for (const Record* record : records) {
      benchmark::DoNotOptimize(f.suite.PrepareRecord(*record));
    }
  }
  state.counters["records"] = n;
  state.counters["bytes_per_record"] = bytes_per_record;
  state.counters["counted_per_record"] = counted_per_record;
  state.counters["per_record"] = benchmark::Counter(
      n, benchmark::Counter::kIsIterationInvariantRate |
             benchmark::Counter::kInvert);
}

BENCHMARK_CAPTURE(BM_PrepareRecord, DS, DsBlockAll)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PrepareRecord, SG, SgBlockAll)
    ->Unit(benchmark::kMillisecond);

// A dataset's scale-0.1 labeled metric rows and the rules Algorithm 1 finds
// on them, built on first use.
struct FitFixture {
  FeatureMatrix features;
  std::vector<uint8_t> labels;
  std::vector<Rule> rules;
};

FitFixture* BuildFitRows(const std::string& dataset) {
  auto* f = new FitFixture;
  const Workload workload =
      GenerateDataset(dataset, ScaleOptions(0.1)).MoveValueOrDie();
  MetricSuite suite = MetricSuite::ForSchema(workload.left().schema());
  suite.Fit(workload);
  f->features = ComputeFeatures(workload, suite);
  f->labels = workload.Labels();
  f->rules =
      OneSidedForest::Generate(f->features, f->labels, {}).MoveValueOrDie();
  return f;
}

const FitFixture& DsFitRows() {
  static const FitFixture* fixture = BuildFitRows("DS");
  return *fixture;
}

const FitFixture& SgFitRows() {
  static const FitFixture* fixture = BuildFitRows("SG");
  return *fixture;
}

void SetFitCounters(benchmark::State& state, const FitFixture& f) {
  state.counters["rows"] = static_cast<double>(f.features.rows());
  state.counters["metrics"] = static_cast<double>(f.features.cols());
  state.counters["rules"] = static_cast<double>(f.rules.size());
}

void BM_ForestGenerate(benchmark::State& state,
                       const FitFixture& (*fixture)()) {
  const FitFixture& f = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        OneSidedForest::Generate(f.features, f.labels, {}));
  }
  SetFitCounters(state, f);
}

// Includes copying the rules into Build, as GenerateRiskFeatures hands
// them over by value.
void BM_RiskFeatureBuild(benchmark::State& state,
                         const FitFixture& (*fixture)()) {
  const FitFixture& f = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        RiskFeatureSet::Build(f.rules, f.features, f.labels));
  }
  SetFitCounters(state, f);
}

const bool kFitRegistered = [] {
  const std::pair<const char*, const FitFixture& (*)()> datasets[] = {
      {"DS", DsFitRows}, {"SG", SgFitRows}};
  for (const auto& [name, fixture] : datasets) {
    benchmark::RegisterBenchmark(
        (std::string("BM_ForestGenerate/") + name).c_str(), BM_ForestGenerate,
        fixture)
        ->Unit(benchmark::kMillisecond)
        ->MeasureProcessCPUTime();
    benchmark::RegisterBenchmark(
        (std::string("BM_RiskFeatureBuild/") + name).c_str(),
        BM_RiskFeatureBuild, fixture)
        ->Unit(benchmark::kMillisecond)
        ->MeasureProcessCPUTime();
  }
  return true;
}();

// S shard indexes over the SG table, grown past their base segment.
std::vector<BlockingIndex> BuildShardedSg(size_t num_shards) {
  const Workload base =
      GenerateDataset("SG", ScaleOptions(0.1)).MoveValueOrDie();
  GeneratorOptions added_options = ScaleOptions(0.1);
  added_options.seed = 2;
  const Workload added =
      GenerateDataset("SG", added_options).MoveValueOrDie();
  const Table& table = base.left();
  std::vector<BlockingIndex> shards;
  for (size_t k = 0; k < num_shards; ++k) {
    Table part(table.schema());
    for (size_t i = k; i < table.num_records(); i += num_shards) {
      (void)part.Append(table.record(i), table.entity_id(i));
    }
    shards.push_back(
        BlockingIndex::Build(part, part, BlockingConfig{}).MoveValueOrDie());
  }
  // Sequential least-loaded routing continues the round-robin.
  for (size_t i = 0; i < 2000; ++i) {
    const size_t k = (table.num_records() + i) % num_shards;
    (void)shards[k].AddRecord(BlockingSide::kLeft, added.left().record(i));
  }
  return shards;
}

void BM_MergedAllCandidates(benchmark::State& state) {
  const size_t num_shards = static_cast<size_t>(state.range(0));
  const std::vector<BlockingIndex> shards = BuildShardedSg(num_shards);
  std::vector<const BlockingIndex*> list;
  size_t records = 0;
  size_t segments = 0;
  for (const BlockingIndex& shard : shards) {
    list.push_back(&shard);
    records += shard.num_records(BlockingSide::kLeft);
    segments += shard.segment_count(BlockingSide::kLeft);
  }
  size_t pairs = 0;
  for (auto _ : state) {
    const std::vector<RecordPair> candidates = MergedAllCandidates(list);
    pairs = candidates.size();
    benchmark::DoNotOptimize(candidates.data());
  }
  state.counters["records"] = static_cast<double>(records);
  state.counters["pairs"] = static_cast<double>(pairs);
  state.counters["segments"] = static_cast<double>(segments);
}
BENCHMARK(BM_MergedAllCandidates)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// Pairs with uniform risks over `num_keys` keys (left i, right i + 1).
std::vector<ReviewItem> ReviewStream(size_t count, size_t num_keys,
                                     uint64_t seed) {
  Rng rng(seed);
  std::vector<ReviewItem> items(count);
  for (ReviewItem& item : items) {
    item.left = static_cast<int64_t>(rng.Index(num_keys));
    item.right = item.left + 1;
    item.risk = rng.Uniform();
    item.classifier_prob = rng.Uniform();
    item.features.assign(21, item.risk);
  }
  return items;
}

// Fills a fresh queue with `resident` pairs of uniform risk on keys
// 0..resident-1, which the offer stream's keys overlap (so some offers
// merge onto residents).
std::unique_ptr<ReviewQueue> FilledReviewQueue(size_t resident) {
  auto queue = std::make_unique<ReviewQueue>(1024);
  std::vector<ReviewItem> items = ReviewStream(resident, 1, 11);
  for (size_t i = 0; i < resident; ++i) {
    items[i].left = static_cast<int64_t>(i);
    items[i].right = items[i].left + 1;
    queue->Offer(std::move(items[i]));
  }
  return queue;
}

void BM_ReviewQueue(benchmark::State& state, bool drain_label) {
  const size_t resident = drain_label ? 1024 : 960;
  const std::vector<ReviewItem> stream =
      drain_label ? std::vector<ReviewItem>() : ReviewStream(4096, 3072, 12);
  size_t ops = 0;
  // Offer outcomes (indexed by ReviewQueue::Offered) and the drops they
  // caused, over the last iteration.
  std::array<size_t, 3> outcomes{};
  uint64_t dropped = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::unique_ptr<ReviewQueue> queue = FilledReviewQueue(resident);
    std::vector<ReviewItem> offers = stream;
    const uint64_t dropped_before = queue->Stats().dropped;
    outcomes = {};
    state.ResumeTiming();
    if (drain_label) {
      ops = 0;
      while (queue->depth() > 0) {
        for (const ReviewItem& item : queue->DrainTop(8)) {
          queue->Label(item.left, item.right, item.risk > 0.5);
          ++ops;
        }
      }
    } else {
      for (ReviewItem& item : offers) {
        ++outcomes[static_cast<size_t>(queue->Offer(std::move(item)))];
      }
      ops = offers.size();
    }
    state.PauseTiming();
    dropped = queue->Stats().dropped - dropped_before;
    queue.reset();
    state.ResumeTiming();
  }
  if (!drain_label) {
    // A displacing offer is admitted and drops a resident; a dropped offer
    // drops itself.
    const double n = static_cast<double>(ops);
    const size_t drops = outcomes[static_cast<size_t>(
        ReviewQueue::Offered::kDropped)];
    const size_t displaced = dropped - drops;
    const size_t admitted =
        outcomes[static_cast<size_t>(ReviewQueue::Offered::kAdmitted)];
    state.counters["admit_share"] = (admitted - displaced) / n;
    state.counters["displace_share"] = displaced / n;
    state.counters["merge_share"] =
        outcomes[static_cast<size_t>(ReviewQueue::Offered::kMerged)] / n;
    state.counters["drop_share"] = drops / n;
  }
  state.counters["per_op"] = benchmark::Counter(
      static_cast<double>(ops), benchmark::Counter::kIsIterationInvariantRate |
                                    benchmark::Counter::kInvert);
}
BENCHMARK_CAPTURE(BM_ReviewQueue, offer, false);
BENCHMARK_CAPTURE(BM_ReviewQueue, drain_label, true);

void BM_RngWords(benchmark::State& state) {
  Rng rng(42);
  uint64_t sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < 1024; ++i) sink ^= rng.engine()();
    benchmark::DoNotOptimize(sink);
  }
  // Seconds per word; the console prints it with an SI prefix (e.g. ns).
  state.counters["per_word"] = benchmark::Counter(
      1024.0, benchmark::Counter::kIsIterationInvariantRate |
                  benchmark::Counter::kInvert);
}
BENCHMARK(BM_RngWords);

void BM_DistinctEntity(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        reference::DistinctEntityCount(kAuthorsA, kAuthorsB));
  }
}
BENCHMARK(BM_DistinctEntity);

void BM_AbbrNonSubstring(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        reference::AbbrNonSubstring("very large data bases", "vldb"));
  }
}
BENCHMARK(BM_AbbrNonSubstring);

void BM_TruncatedNormalQuantile(benchmark::State& state) {
  double p = 0.9;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        TruncatedNormalQuantile(p, 0.42, 0.17, 0.0, 1.0));
  }
}
BENCHMARK(BM_TruncatedNormalQuantile);

RiskFeatureSet MicroFeatures() {
  Rule matching;
  matching.predicates = {{1, "sim", true, 0.8}};
  matching.label = RuleClass::kMatching;
  Rule unmatching;
  unmatching.predicates = {{0, "diff", true, 0.5}};
  unmatching.label = RuleClass::kUnmatching;
  FeatureMatrix train(20, 2);
  std::vector<uint8_t> labels(20);
  for (size_t i = 0; i < 20; ++i) {
    labels[i] = i < 8 ? 1 : 0;
    train.set(i, 0, i < 8 ? 0.0 : 1.0);
    train.set(i, 1, i < 8 ? 0.9 : 0.1);
  }
  return RiskFeatureSet::Build({matching, unmatching}, train, labels);
}

void BM_VaRScore(benchmark::State& state) {
  RiskModel model(MicroFeatures());
  std::vector<uint32_t> active = {0, 1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.RiskScore(active, 0.73, 1));
  }
}
BENCHMARK(BM_VaRScore);

void BM_RuleActivation(benchmark::State& state) {
  RiskFeatureSet features = MicroFeatures();
  double row[] = {0.9, 0.3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(features.ActiveRules(row));
  }
}
BENCHMARK(BM_RuleActivation);

}  // namespace
}  // namespace learnrisk

BENCHMARK_MAIN();
