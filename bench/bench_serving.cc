// Copyright 2026 The LearnRisk Authors
//
// Serving-path bench: naive vs compiled rule activation throughput, and
// end-to-end ServingEngine batch scoring (ScorerSnapshot::ScoreRows:
// per-row activation + the model's baked risk kernel) across rule counts
// {16, 64, 256}.
// Prints a table and writes BENCH_serving.json with pairs/sec per path plus
// engine p50/p99 batch latency, so later PRs have an online-scoring perf
// trajectory.
//
// Env knobs:
//   LEARNRISK_BENCH_PAIRS   workload pairs per run      (default 20000)
//   LEARNRISK_BENCH_BATCH   engine request batch size   (default 512)
//   LEARNRISK_BENCH_METRICS metric columns              (default 24)
//   LEARNRISK_SEED          master seed                 (default 7)

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/timer.h"
#include "reference/naive_activation.h"
#include "risk/risk_feature.h"
#include "serve/serving_engine.h"

namespace {

using namespace learnrisk;  // NOLINT

constexpr double kMinRunSeconds = 0.4;

FeatureMatrix MakeFeatures(size_t rows, size_t num_metrics, uint64_t seed) {
  Rng rng(seed);
  FeatureMatrix features(rows, num_metrics);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t m = 0; m < num_metrics; ++m) {
      features.set(i, m, rng.Uniform());
    }
  }
  return features;
}

/// Runs fn repeatedly until kMinRunSeconds elapse; returns runs per second.
template <typename Fn>
double Throughput(const Fn& fn) {
  fn();  // warm-up
  Timer timer;
  size_t runs = 0;
  do {
    fn();
    ++runs;
  } while (timer.ElapsedSeconds() < kMinRunSeconds);
  return static_cast<double>(runs) / timer.ElapsedSeconds();
}

struct RunStats {
  size_t rules = 0;
  double naive_pairs_per_sec = 0.0;
  double compiled_pairs_per_sec = 0.0;
  double activation_speedup = 0.0;
  double engine_pairs_per_sec = 0.0;
  double engine_p50_ms = 0.0;
  double engine_p99_ms = 0.0;
  size_t avg_active_rules_x100 = 0;  ///< mean active rules per pair * 100
};

RunStats RunOne(size_t num_rules, size_t num_pairs, size_t num_metrics,
                size_t batch_size, uint64_t seed) {
  RunStats stats;
  stats.rules = num_rules;
  RiskModel model = bench::MakeSyntheticRuleModel(num_rules, num_metrics, seed);
  const RiskFeatureSet& features = model.features();
  const FeatureMatrix metric_features =
      MakeFeatures(num_pairs, num_metrics, seed + 1);
  Rng rng(seed + 2);
  std::vector<double> probs(num_pairs);
  for (double& p : probs) p = rng.Uniform();

  const size_t nnz =
      features.compiled().EvaluateCsr(metric_features).rule.size();
  stats.avg_active_rules_x100 = num_pairs == 0 ? 0 : nnz * 100 / num_pairs;

  const double naive_runs_per_sec = Throughput([&]() {
    reference::ComputeActivationNaive(features, metric_features, probs);
  });
  stats.naive_pairs_per_sec =
      naive_runs_per_sec * static_cast<double>(num_pairs);

  const double compiled_runs_per_sec = Throughput([&]() {
    ComputeActivation(features, metric_features, probs);
  });
  stats.compiled_pairs_per_sec =
      compiled_runs_per_sec * static_cast<double>(num_pairs);
  stats.activation_speedup =
      stats.naive_pairs_per_sec > 0.0
          ? stats.compiled_pairs_per_sec / stats.naive_pairs_per_sec
          : 0.0;

  // End-to-end engine: batched requests over pre-sliced feature windows.
  ServingEngine engine;
  engine.Publish(std::move(model));
  std::vector<FeatureMatrix> batches;
  std::vector<std::vector<double>> batch_probs;
  for (size_t begin = 0; begin < num_pairs; begin += batch_size) {
    const size_t end = std::min(begin + batch_size, num_pairs);
    FeatureMatrix window(end - begin, num_metrics);
    for (size_t i = begin; i < end; ++i) {
      for (size_t m = 0; m < num_metrics; ++m) {
        window.set(i - begin, m, metric_features.at(i, m));
      }
    }
    batches.push_back(std::move(window));
    batch_probs.emplace_back(probs.begin() + static_cast<ptrdiff_t>(begin),
                             probs.begin() + static_cast<ptrdiff_t>(end));
  }

  std::vector<double> latencies_ms;
  Timer run_timer;
  size_t scored = 0;
  do {
    for (size_t b = 0; b < batches.size(); ++b) {
      ScoreRequest request;
      request.metric_features = &batches[b];
      request.classifier_probs = batch_probs[b];
      Timer batch_timer;
      const auto response = engine.Score(request);
      latencies_ms.push_back(batch_timer.ElapsedMillis());
      if (!response.ok()) {
        std::fprintf(stderr, "engine score failed: %s\n",
                     response.status().ToString().c_str());
        return stats;
      }
      scored += response->risk.size();
    }
  } while (run_timer.ElapsedSeconds() < kMinRunSeconds);
  stats.engine_pairs_per_sec =
      static_cast<double>(scored) / run_timer.ElapsedSeconds();
  stats.engine_p50_ms = bench::Percentile(latencies_ms, 0.5);
  stats.engine_p99_ms = bench::Percentile(latencies_ms, 0.99);
  return stats;
}

}  // namespace

int main() {
  const size_t num_pairs = bench::EnvSize("LEARNRISK_BENCH_PAIRS", 20000);
  const size_t batch_size = bench::EnvSize("LEARNRISK_BENCH_BATCH", 512);
  const size_t num_metrics = bench::EnvSize("LEARNRISK_BENCH_METRICS", 24);
  bench::PrintBanner(
      "Serving throughput: naive vs compiled activation + engine end-to-end",
      bench::Format("seed=%llu",
                    static_cast<unsigned long long>(bench::Seed())));
  const size_t rule_counts[] = {16, 64, 256};

  std::printf("workload: %zu pairs, %zu metric columns, batch=%zu\n\n",
              num_pairs, num_metrics, batch_size);
  std::printf("  %6s %8s %16s %16s %8s %16s %10s %10s\n", "rules",
              "act/pair", "naive pairs/s", "compiled pairs/s", "speedup",
              "engine pairs/s", "p50 ms", "p99 ms");

  std::vector<RunStats> results;
  for (size_t rules : rule_counts) {
    const RunStats s =
        RunOne(rules, num_pairs, num_metrics, batch_size, bench::Seed());
    std::printf("  %6zu %8.2f %16.0f %16.0f %7.1fx %16.0f %10.3f %10.3f\n",
                s.rules, static_cast<double>(s.avg_active_rules_x100) / 100.0,
                s.naive_pairs_per_sec, s.compiled_pairs_per_sec,
                s.activation_speedup, s.engine_pairs_per_sec, s.engine_p50_ms,
                s.engine_p99_ms);
    results.push_back(s);
  }

  FILE* json = std::fopen("BENCH_serving.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"pairs\": %zu,\n  \"batch\": %zu,\n", num_pairs,
                 batch_size);
    std::fprintf(json, "  \"metric_columns\": %zu,\n  \"runs\": [\n",
                 num_metrics);
    for (size_t k = 0; k < results.size(); ++k) {
      const RunStats& s = results[k];
      std::fprintf(
          json,
          "    {\"rules\": %zu, \"avg_active_per_pair\": %.2f,\n"
          "     \"naive_pairs_per_sec\": %.1f, \"compiled_pairs_per_sec\": "
          "%.1f, \"activation_speedup\": %.3f,\n"
          "     \"engine_pairs_per_sec\": %.1f, \"engine_p50_ms\": %.4f, "
          "\"engine_p99_ms\": %.4f}%s\n",
          s.rules, static_cast<double>(s.avg_active_rules_x100) / 100.0,
          s.naive_pairs_per_sec, s.compiled_pairs_per_sec,
          s.activation_speedup, s.engine_pairs_per_sec, s.engine_p50_ms,
          s.engine_p99_ms, k + 1 < results.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("\n  wrote BENCH_serving.json\n");
  }
  return 0;
}
