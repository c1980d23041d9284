// Copyright 2026 The LearnRisk Authors
//
// Table 2 reproduction: dataset statistics (candidate pairs, matches,
// attributes) of the generated DS / DA / AB / AG / SG workloads against the
// published numbers, scaled by LEARNRISK_SCALE.

#include <cstdio>

#include "bench_util.h"
#include "data/generators.h"

int main() {
  using namespace learnrisk;  // NOLINT
  bench::PrintBanner("Table 2: dataset statistics (paper target x scale vs "
                     "generated)",
                     bench::Format("scale=%.2f, seed=%llu", bench::Scale(),
                                   static_cast<unsigned long long>(
                                       bench::Seed())));

  std::printf("%-6s %12s %12s %10s %10s %6s %6s %8s\n", "data", "pairs(tgt)",
              "pairs(gen)", "match(tgt)", "match(gen)", "attrs", "attrs",
              "match%%");
  for (const std::string& name : AvailableDatasets()) {
    const DatasetStats stats = *PaperStats(name);
    GeneratorOptions opts;
    opts.scale = bench::Scale();
    opts.seed = bench::Seed();
    auto workload = GenerateDataset(name, opts);
    if (!workload.ok()) {
      std::printf("%-6s generation failed: %s\n", name.c_str(),
                  workload.status().ToString().c_str());
      continue;
    }
    const double tgt_pairs = static_cast<double>(stats.pairs) * opts.scale;
    const double tgt_matches = static_cast<double>(stats.matches) * opts.scale;
    std::printf("%-6s %12.0f %12zu %10.0f %10zu %6zu %6zu %7.1f%%\n",
                name.c_str(), tgt_pairs, workload->size(), tgt_matches,
                workload->num_matches(), stats.attributes,
                workload->left().schema().num_attributes(),
                100.0 * static_cast<double>(workload->num_matches()) /
                    static_cast<double>(workload->size()));
  }
  std::printf("\npaper Table 2 at scale 1.0: DS 41416/5073/4, AB 52191/904/3, "
              "AG 13049/1150/4, SG 144946/6842/7 (DA from the published "
              "DBLP-ACM release: 14777/2220/4)\n");
  return 0;
}
