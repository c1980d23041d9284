// Copyright 2026 The LearnRisk Authors
//
// Figure 9 reproduction: comparative AUROC of Baseline / Uncertainty /
// TrustScore / StaticRisk / LearnRisk on DS, AB, AG, SG with split ratios
// 1:2:7, 2:2:6 and 3:2:5 (paper Sec. 7.2). Prints one block per panel
// (a)-(l) with paper-vs-measured AUROC per method.

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "eval/experiment.h"

namespace {

using learnrisk::Experiment;
using learnrisk::ExperimentConfig;
using learnrisk::MethodResult;
using learnrisk::Result;

struct Ratio {
  double train, valid, test;
  const char* label;
};

// Published AUROCs from Fig. 9, keyed by "<dataset>:<ratio>:<method>".
const std::map<std::string, double>& PaperAuroc() {
  static const std::map<std::string, double> kPaper = {
      {"DS:1:2:7:Baseline", 0.793},   {"DS:1:2:7:Uncertainty", 0.931},
      {"DS:1:2:7:TrustScore", 0.909}, {"DS:1:2:7:StaticRisk", 0.884},
      {"DS:1:2:7:LearnRisk", 0.982},  {"DS:2:2:6:Baseline", 0.843},
      {"DS:2:2:6:Uncertainty", 0.905}, {"DS:2:2:6:TrustScore", 0.932},
      {"DS:2:2:6:StaticRisk", 0.922}, {"DS:2:2:6:LearnRisk", 0.985},
      {"DS:3:2:5:Baseline", 0.741},   {"DS:3:2:5:Uncertainty", 0.890},
      {"DS:3:2:5:TrustScore", 0.919}, {"DS:3:2:5:StaticRisk", 0.915},
      {"DS:3:2:5:LearnRisk", 0.973},  {"AB:1:2:7:Baseline", 0.879},
      {"AB:1:2:7:Uncertainty", 0.811}, {"AB:1:2:7:TrustScore", 0.906},
      {"AB:1:2:7:StaticRisk", 0.907}, {"AB:1:2:7:LearnRisk", 0.974},
      {"AB:2:2:6:Baseline", 0.808},   {"AB:2:2:6:Uncertainty", 0.857},
      {"AB:2:2:6:TrustScore", 0.922}, {"AB:2:2:6:StaticRisk", 0.881},
      {"AB:2:2:6:LearnRisk", 0.954},  {"AB:3:2:5:Baseline", 0.843},
      {"AB:3:2:5:Uncertainty", 0.801}, {"AB:3:2:5:TrustScore", 0.908},
      {"AB:3:2:5:StaticRisk", 0.928}, {"AB:3:2:5:LearnRisk", 0.959},
      {"AG:1:2:7:Baseline", 0.787},   {"AG:1:2:7:Uncertainty", 0.819},
      {"AG:1:2:7:TrustScore", 0.854}, {"AG:1:2:7:StaticRisk", 0.848},
      {"AG:1:2:7:LearnRisk", 0.939},  {"AG:2:2:6:Baseline", 0.789},
      {"AG:2:2:6:Uncertainty", 0.826}, {"AG:2:2:6:TrustScore", 0.861},
      {"AG:2:2:6:StaticRisk", 0.824}, {"AG:2:2:6:LearnRisk", 0.914},
      {"AG:3:2:5:Baseline", 0.780},   {"AG:3:2:5:Uncertainty", 0.835},
      {"AG:3:2:5:TrustScore", 0.857}, {"AG:3:2:5:StaticRisk", 0.879},
      {"AG:3:2:5:LearnRisk", 0.930},  {"SG:1:2:7:Baseline", 0.743},
      {"SG:1:2:7:Uncertainty", 0.684}, {"SG:1:2:7:TrustScore", 0.874},
      {"SG:1:2:7:StaticRisk", 0.798}, {"SG:1:2:7:LearnRisk", 0.989},
      {"SG:2:2:6:Baseline", 0.717},   {"SG:2:2:6:Uncertainty", 0.612},
      {"SG:2:2:6:TrustScore", 0.788}, {"SG:2:2:6:StaticRisk", 0.830},
      {"SG:2:2:6:LearnRisk", 0.984},  {"SG:3:2:5:Baseline", 0.919},
      {"SG:3:2:5:Uncertainty", 0.653}, {"SG:3:2:5:TrustScore", 0.928},
      {"SG:3:2:5:StaticRisk", 0.936}, {"SG:3:2:5:LearnRisk", 0.992},
  };
  return kPaper;
}

void Report(const std::string& dataset, const char* ratio,
            const MethodResult& result) {
  const auto& paper = PaperAuroc();
  const auto it = paper.find(dataset + ":" + ratio + ":" + result.name);
  const double paper_value = it == paper.end() ? 0.0 : it->second;
  learnrisk::bench::PrintPaperMeasured(result.name.c_str(), paper_value,
                                       result.auroc);
}

}  // namespace

int main() {
  learnrisk::bench::PrintBanner(
      "Figure 9: comparative risk-analysis AUROC (4 datasets x 3 ratios)",
      learnrisk::bench::PaperKnobs(learnrisk::bench::Epochs()));

  const std::vector<std::string> datasets = {"DS", "AB", "AG", "SG"};
  const std::vector<Ratio> ratios = {
      {1, 2, 7, "1:2:7"}, {2, 2, 6, "2:2:6"}, {3, 2, 5, "3:2:5"}};

  char panel = 'a';
  for (const std::string& dataset : datasets) {
    for (const Ratio& ratio : ratios) {
      ExperimentConfig config;
      config.dataset = dataset;
      config.scale = learnrisk::bench::Scale();
      config.train_ratio = ratio.train;
      config.valid_ratio = ratio.valid;
      config.test_ratio = ratio.test;
      config.seed = learnrisk::bench::Seed();
      config.risk_trainer.epochs = learnrisk::bench::Epochs();

      auto experiment = Experiment::Prepare(config);
      if (!experiment.ok()) {
        std::printf("[%s %s] prepare failed: %s\n", dataset.c_str(),
                    ratio.label, experiment.status().ToString().c_str());
        continue;
      }
      Experiment& e = **experiment;
      const auto cm = e.TestConfusion();
      std::printf("\n(%c) %s (%s): test=%zu mislabeled=%zu classifier_f1=%.3f "
                  "rules=%zu coverage=%.2f\n",
                  panel++, dataset.c_str(), ratio.label, e.split().test.size(),
                  e.NumTestMislabeled(), cm.F1(), e.rules().size(),
                  e.TestRuleCoverage());

      Report(dataset, ratio.label, e.RunBaseline());
      auto uncertainty = e.RunUncertainty();
      if (uncertainty.ok()) Report(dataset, ratio.label, *uncertainty);
      auto trust = e.RunTrustScore();
      if (trust.ok()) Report(dataset, ratio.label, *trust);
      auto static_risk = e.RunStaticRisk();
      if (static_risk.ok()) Report(dataset, ratio.label, *static_risk);
      auto learn_risk = e.RunLearnRisk();
      if (learn_risk.ok()) {
        Report(dataset, ratio.label, *learn_risk);
      } else {
        std::printf("  LearnRisk failed: %s\n",
                    learn_risk.status().ToString().c_str());
      }
    }
  }
  return 0;
}
