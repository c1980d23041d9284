// Copyright 2026 The LearnRisk Authors
// Shared helpers for the figure/table bench binaries: environment-variable
// configuration and paper-vs-measured table printing.
//
// Environment knobs (all optional):
//   LEARNRISK_SCALE   workload scale relative to paper Table 2 (default 0.2)
//   LEARNRISK_EPOCHS  risk-training epochs (default 1000, the paper value)
//   LEARNRISK_SEED    master seed (default 7)

#ifndef LEARNRISK_BENCH_BENCH_UTIL_H_
#define LEARNRISK_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/random.h"
#include "risk/risk_feature.h"
#include "risk/risk_model.h"

namespace learnrisk::bench {

inline double EnvDouble(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : std::atof(v);
}

inline size_t EnvSize(const char* name, size_t fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : static_cast<size_t>(std::atoll(v));
}

inline double Scale() { return EnvDouble("LEARNRISK_SCALE", 0.2); }
inline size_t Epochs() { return EnvSize("LEARNRISK_EPOCHS", 1000); }
inline uint64_t Seed() {
  return static_cast<uint64_t>(EnvSize("LEARNRISK_SEED", 7));
}

/// printf into a std::string (a banner's knob list).
inline std::string Format(const char* format, ...) {
  char buf[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

/// The knob list of a paper-figure bench: LEARNRISK_SCALE, `epochs` (the
/// risk-training epochs it actually runs) and LEARNRISK_SEED.
inline std::string PaperKnobs(size_t epochs) {
  return Format("scale=%.2f, epochs=%zu, seed=%llu; paper numbers are the "
                "published values,\n measured numbers come from the "
                "synthetic workloads -- compare shapes, not decimals",
                Scale(), epochs, static_cast<unsigned long long>(Seed()));
}

/// Prints the bench title and `knobs`, the settings this run actually read
/// (omitted when empty: the bench reads no knob).
inline void PrintBanner(const char* title, const std::string& knobs) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  if (!knobs.empty()) std::printf("(%s)\n", knobs.c_str());
  std::printf("================================================================\n");
}

/// Prints one "method: paper vs measured" row.
inline void PrintPaperMeasured(const char* method, double paper,
                               double measured) {
  std::printf("  %-12s paper=%.3f  measured=%.3f\n", method, paper, measured);
}

/// The p-quantile (nearest-rank on the sorted copy) of a latency sample.
inline double Percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const size_t k = static_cast<size_t>(p * static_cast<double>(xs.size() - 1));
  return xs[k];
}

/// A RiskModel over synthetic rules (1-3 random threshold predicates each on
/// `num_metrics` columns, uniform priors) — the shared workload generator of
/// the serving and gateway benches.
inline RiskModel MakeSyntheticRuleModel(size_t num_rules, size_t num_metrics,
                                        uint64_t seed) {
  Rng rng(seed);
  std::vector<Rule> rules(num_rules);
  std::vector<double> expectations(num_rules);
  std::vector<size_t> support(num_rules);
  for (size_t j = 0; j < num_rules; ++j) {
    const size_t n_preds = 1 + rng.Index(3);
    for (size_t k = 0; k < n_preds; ++k) {
      Predicate p;
      p.metric = rng.Index(num_metrics);
      p.metric_name = "m" + std::to_string(p.metric);
      p.greater = rng.Bernoulli(0.5);
      p.threshold = rng.Uniform();
      rules[j].predicates.push_back(std::move(p));
    }
    expectations[j] = rng.Uniform(0.1, 0.9);
    support[j] = 10 + rng.Index(200);
  }
  return RiskModel(RiskFeatureSet::FromParts(std::move(rules),
                                             std::move(expectations),
                                             std::move(support)));
}

}  // namespace learnrisk::bench

#endif  // LEARNRISK_BENCH_BENCH_UTIL_H_
