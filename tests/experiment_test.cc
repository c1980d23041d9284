// Copyright 2026 The LearnRisk Authors
// Integration tests: the full experiment harness on small generated
// workloads, including the paper's headline claim (LearnRisk beats the
// classifier-output baseline) and the OOD schema alignment.

#include "eval/experiment.h"

#include <gtest/gtest.h>

#include "learnrisk/learnrisk.h"

namespace learnrisk {
namespace {

ExperimentConfig FastConfig(const std::string& dataset) {
  ExperimentConfig config;
  config.dataset = dataset;
  config.scale = 0.05;
  config.seed = 7;
  config.risk_trainer.epochs = 150;
  config.ensemble_size = 5;
  config.classifier.epochs = 25;
  return config;
}

// The pipeline options an experiment's config maps to: classifier seed
// `seed + 31`, the config's rules, risk model, trainer and classifier view.
PipelineOptions MappedOptions(const ExperimentConfig& config) {
  PipelineOptions options;
  options.classifier = config.classifier;
  options.classifier.seed = config.seed + 31;
  options.rules = config.rules;
  options.risk_model = config.risk_model;
  options.risk_trainer = config.risk_trainer;
  options.classifier_uses_difference_metrics =
      config.classifier_uses_difference_metrics;
  return options;
}

template <typename T>
std::vector<T> At(const std::vector<T>& all, const std::vector<size_t>& idx) {
  std::vector<T> out;
  for (size_t i : idx) out.push_back(all[i]);
  return out;
}

std::vector<std::string> RuleStrings(const std::vector<Rule>& rules) {
  std::vector<std::string> out;
  for (const Rule& rule : rules) out.push_back(rule.ToString());
  return out;
}

std::vector<uint8_t> TestMislabelFlags(const Experiment& e,
                                       const std::vector<double>& probs) {
  std::vector<uint8_t> flags;
  for (size_t i : e.split().test) {
    flags.push_back((probs[i] >= 0.5 ? 1 : 0) != e.truth_labels()[i]);
  }
  return flags;
}

TEST(ExperimentTest, FitMatchesLearnRiskPipeline) {
  // In-distribution: a pipeline fitted by hand on the experiment's split.
  {
    const ExperimentConfig config = FastConfig("DS");
    auto experiment = Experiment::Prepare(config);
    ASSERT_TRUE(experiment.ok());
    Experiment& e = **experiment;
    LearnRiskPipeline pipeline(MappedOptions(config));
    ASSERT_TRUE(
        pipeline.Fit(e.workload(), e.split().train, e.split().valid).ok());
    EXPECT_EQ(e.metric_suite().MetricNames(), pipeline.suite().MetricNames());
    EXPECT_EQ(e.classifier_probs(), pipeline.classifier_probs());
    EXPECT_EQ(RuleStrings(e.rules()), pipeline.RuleDescriptions());
    auto scores = pipeline.Score(e.split().test);
    ASSERT_TRUE(scores.ok());
    auto learnrisk = e.RunLearnRisk();
    ASSERT_TRUE(learnrisk.ok());
    EXPECT_EQ(learnrisk->auroc,
              ComputeRoc(*scores, TestMislabelFlags(e, e.classifier_probs()))
                  .auroc);
  }
  // OOD: the pipeline fits on the source split PrepareOod draws, then its
  // suite featurizes and its classifier scores the target.
  {
    const ExperimentConfig config = FastConfig("AB");
    auto experiment = Experiment::PrepareOod(config, "AG");
    ASSERT_TRUE(experiment.ok());
    Experiment& e = **experiment;
    GeneratorOptions gen;
    gen.scale = config.scale;
    gen.seed = config.seed;
    const Workload source = GenerateDataset("AB", gen).MoveValueOrDie();
    Rng rng(config.seed + 23);
    const WorkloadSplit source_split =
        StratifiedSplit(source, config.train_ratio, config.valid_ratio,
                        config.test_ratio, &rng)
            .MoveValueOrDie();
    LearnRiskPipeline pipeline(MappedOptions(config));
    ASSERT_TRUE(pipeline.Fit(source, source_split.train, {}).ok());
    const FeatureMatrix target = ComputeFeatures(e.workload(), pipeline.suite());
    const std::vector<double> probs = pipeline.classifier().PredictProbaAll(
        GatherColumns(target, pipeline.classifier_columns()));
    EXPECT_EQ(e.metric_suite().MetricNames(), pipeline.suite().MetricNames());
    EXPECT_EQ(e.classifier_probs(), probs);
    EXPECT_EQ(RuleStrings(e.rules()), pipeline.RuleDescriptions());

    // LearnRisk: the pipeline's prior model trained on the target's
    // validation split, scored on its test split.
    RiskModel model = pipeline.risk_model();
    const std::vector<size_t>& valid = e.split().valid;
    const RiskActivation valid_act = ComputeActivation(
        model.features(), GatherRows(target, valid), At(probs, valid));
    ASSERT_TRUE(RiskTrainer(config.risk_trainer)
                    .Train(&model, valid_act,
                           MislabelFlags(valid_act.machine_label,
                                         At(e.truth_labels(), valid)))
                    .ok());
    const std::vector<double> scores = model.Score(
        ComputeActivation(model.features(), GatherRows(target, e.split().test),
                          At(probs, e.split().test)));
    auto learnrisk = e.RunLearnRisk();
    ASSERT_TRUE(learnrisk.ok());
    EXPECT_EQ(learnrisk->auroc,
              ComputeRoc(scores, TestMislabelFlags(e, probs)).auroc);
  }
}

TEST(ExperimentTest, PrepareProducesConsistentState) {
  auto experiment = Experiment::Prepare(FastConfig("DS"));
  ASSERT_TRUE(experiment.ok());
  Experiment& e = **experiment;
  EXPECT_EQ(e.features().rows(), e.workload().size());
  EXPECT_EQ(e.classifier_probs().size(), e.workload().size());
  EXPECT_GT(e.rules().size(), 10u);
  EXPECT_GT(e.TestRuleCoverage(), 0.8);
  // Classifier is imperfect but useful.
  const auto cm = e.TestConfusion();
  EXPECT_GT(cm.F1(), 0.5);
  EXPECT_GT(e.NumTestMislabeled(), 0u);
}

TEST(ExperimentTest, LearnRiskBeatsBaselineHeadlineClaim) {
  auto experiment = Experiment::Prepare(FastConfig("DS"));
  ASSERT_TRUE(experiment.ok());
  Experiment& e = **experiment;
  const MethodResult baseline = e.RunBaseline();
  auto learnrisk = e.RunLearnRisk();
  ASSERT_TRUE(learnrisk.ok());
  EXPECT_GT(learnrisk->auroc, baseline.auroc);
  EXPECT_GT(learnrisk->auroc, 0.8);
}

TEST(ExperimentTest, AllMethodsProduceValidAuroc) {
  auto experiment = Experiment::Prepare(FastConfig("AG"));
  ASSERT_TRUE(experiment.ok());
  Experiment& e = **experiment;
  std::vector<MethodResult> results;
  results.push_back(e.RunBaseline());
  auto uncertainty = e.RunUncertainty();
  ASSERT_TRUE(uncertainty.ok());
  results.push_back(*uncertainty);
  auto trust = e.RunTrustScore();
  ASSERT_TRUE(trust.ok());
  results.push_back(*trust);
  auto static_risk = e.RunStaticRisk();
  ASSERT_TRUE(static_risk.ok());
  results.push_back(*static_risk);
  auto learnrisk = e.RunLearnRisk();
  ASSERT_TRUE(learnrisk.ok());
  results.push_back(*learnrisk);
  auto holoclean = e.RunHoloClean();
  ASSERT_TRUE(holoclean.ok());
  results.push_back(*holoclean);
  for (const MethodResult& r : results) {
    EXPECT_GE(r.auroc, 0.0) << r.name;
    EXPECT_LE(r.auroc, 1.0) << r.name;
    EXPECT_GE(r.curve.points.size(), 2u) << r.name;
  }
}

TEST(ExperimentTest, RunLearnRiskOnSubsetWorks) {
  auto experiment = Experiment::Prepare(FastConfig("DS"));
  ASSERT_TRUE(experiment.ok());
  Experiment& e = **experiment;
  std::vector<size_t> half(e.split().valid.begin(),
                           e.split().valid.begin() +
                               static_cast<long>(e.split().valid.size() / 2));
  auto result = e.RunLearnRiskOn(half, e.config().risk_model,
                                 e.config().risk_trainer, "LearnRisk-half");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->name, "LearnRisk-half");
  EXPECT_GT(result->auroc, 0.5);
}

TEST(ExperimentTest, GatherRowsAndColumns) {
  FeatureMatrix m(3, 2);
  m.column_names = {"a", "b"};
  m.set(0, 0, 1.0);
  m.set(1, 0, 2.0);
  m.set(2, 1, 3.0);
  FeatureMatrix rows = GatherRows(m, {2, 0});
  EXPECT_EQ(rows.rows(), 2u);
  EXPECT_EQ(rows.at(0, 1), 3.0);
  EXPECT_EQ(rows.at(1, 0), 1.0);
  FeatureMatrix cols = GatherColumns(m, {1});
  EXPECT_EQ(cols.cols(), 1u);
  EXPECT_EQ(cols.at(2, 0), 3.0);
  EXPECT_EQ(cols.column_names, std::vector<std::string>{"b"});
}

TEST(AlignWorkloadTest, MapsTitleToNameAndReorders) {
  GeneratorOptions opts;
  opts.scale = 0.02;
  auto ab = GenerateDataset("AB", opts);   // name, description, price
  auto ag = GenerateDataset("AG", opts);   // title, manufacturer, description, price
  ASSERT_TRUE(ab.ok());
  ASSERT_TRUE(ag.ok());
  auto aligned = AlignWorkload(*ag, ab->left().schema());
  ASSERT_TRUE(aligned.ok());
  EXPECT_TRUE(aligned->left().schema().Equals(ab->left().schema()));
  EXPECT_EQ(aligned->size(), ag->size());
  // Ground truth preserved.
  EXPECT_EQ(aligned->num_matches(), ag->num_matches());
  // The aligned "name" column carries the AG title values.
  const size_t ag_title = *ag->left().schema().IndexOf("title");
  const size_t al_name = *aligned->left().schema().IndexOf("name");
  EXPECT_EQ(aligned->left().record(0).value(al_name),
            ag->left().record(0).value(ag_title));
}

TEST(AlignWorkloadTest, IncompatibleSchemaRejected) {
  GeneratorOptions opts;
  opts.scale = 0.02;
  auto ab = GenerateDataset("AB", opts);
  Schema impossible({{"name", AttributeType::kText},
                     {"authors", AttributeType::kEntitySet}});
  EXPECT_FALSE(AlignWorkload(*ab, impossible).ok());
}

TEST(ExperimentTest, OodPreparationRuns) {
  ExperimentConfig config = FastConfig("AB");
  auto experiment = Experiment::PrepareOod(config, "AG");
  ASSERT_TRUE(experiment.ok());
  Experiment& e = **experiment;
  EXPECT_TRUE(e.split().train.empty());  // target train unused in OOD
  EXPECT_GT(e.split().test.size(), 0u);
  auto learnrisk = e.RunLearnRisk();
  ASSERT_TRUE(learnrisk.ok());
  EXPECT_GT(learnrisk->auroc, 0.5);
}

TEST(ExperimentTest, DeterministicAcrossRuns) {
  auto a = Experiment::Prepare(FastConfig("DS"));
  auto b = Experiment::Prepare(FastConfig("DS"));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ((*a)->RunBaseline().auroc, (*b)->RunBaseline().auroc);
  auto la = (*a)->RunLearnRisk();
  auto lb = (*b)->RunLearnRisk();
  ASSERT_TRUE(la.ok());
  ASSERT_TRUE(lb.ok());
  EXPECT_DOUBLE_EQ(la->auroc, lb->auroc);
}

}  // namespace
}  // namespace learnrisk
