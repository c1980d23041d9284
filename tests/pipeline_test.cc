// Copyright 2026 The LearnRisk Authors
// Integration tests for the public LearnRiskPipeline facade.

#include "learnrisk/learnrisk.h"

#include <gtest/gtest.h>

namespace learnrisk {
namespace {

struct Fixture {
  Workload workload;
  WorkloadSplit split;
};

Fixture MakeFixture() {
  GeneratorOptions gen;
  gen.scale = 0.05;
  gen.seed = 7;
  Fixture f{GenerateDataset("DS", gen).MoveValueOrDie(), {}};
  Rng rng(7);
  f.split = StratifiedSplit(f.workload, 3, 2, 5, &rng).MoveValueOrDie();
  return f;
}

PipelineOptions FastOptions() {
  PipelineOptions opts;
  opts.classifier.epochs = 25;
  opts.risk_trainer.epochs = 150;
  return opts;
}

TEST(PipelineTest, UnfittedCallsFailCleanly) {
  LearnRiskPipeline pipeline;
  EXPECT_FALSE(pipeline.fitted());
  EXPECT_TRUE(pipeline.Score({0}).status().IsFailedPrecondition());
  EXPECT_TRUE(pipeline.Explain(0).status().IsFailedPrecondition());
}

TEST(PipelineTest, EmptyTrainRejected) {
  Fixture f = MakeFixture();
  LearnRiskPipeline pipeline(FastOptions());
  EXPECT_TRUE(
      pipeline.Fit(f.workload, {}, f.split.valid).IsInvalidArgument());
}

TEST(PipelineTest, FitScoreRankExplainRoundTrip) {
  Fixture f = MakeFixture();
  LearnRiskPipeline pipeline(FastOptions());
  ASSERT_TRUE(pipeline.Fit(f.workload, f.split.train, f.split.valid).ok());
  EXPECT_TRUE(pipeline.fitted());
  EXPECT_FALSE(pipeline.RuleDescriptions().empty());

  auto scores = pipeline.Score(f.split.test);
  ASSERT_TRUE(scores.ok());
  EXPECT_EQ(scores->size(), f.split.test.size());
  for (double s : *scores) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }

  auto ranking = pipeline.RankByRisk(f.split.test);
  ASSERT_TRUE(ranking.ok());
  for (size_t i = 1; i < ranking->size(); ++i) {
    EXPECT_GE((*ranking)[i - 1].risk, (*ranking)[i].risk);
  }

  auto explain = pipeline.Explain((*ranking)[0].pair_index, 4);
  ASSERT_TRUE(explain.ok());
  EXPECT_LE(explain->size(), 4u);
  EXPECT_FALSE(explain->empty());
}

TEST(PipelineTest, RankingSeparatesMislabeledPairs) {
  Fixture f = MakeFixture();
  LearnRiskPipeline pipeline(FastOptions());
  ASSERT_TRUE(pipeline.Fit(f.workload, f.split.train, f.split.valid).ok());
  auto ranking = pipeline.RankByRisk(f.split.test);
  ASSERT_TRUE(ranking.ok());
  const std::vector<uint8_t> truth = f.workload.Labels();
  std::vector<double> scores;
  std::vector<uint8_t> mislabeled;
  size_t n_mislabeled = 0;
  for (const RiskRankEntry& e : *ranking) {
    scores.push_back(e.risk);
    const uint8_t flag = e.machine_label != truth[e.pair_index] ? 1 : 0;
    mislabeled.push_back(flag);
    n_mislabeled += flag;
  }
  ASSERT_GT(n_mislabeled, 0u);
  EXPECT_GT(Auroc(scores, mislabeled), 0.8);
}

TEST(PipelineTest, OutOfRangeIndexRejected) {
  Fixture f = MakeFixture();
  LearnRiskPipeline pipeline(FastOptions());
  ASSERT_TRUE(pipeline.Fit(f.workload, f.split.train, f.split.valid).ok());
  EXPECT_TRUE(
      pipeline.Score({f.workload.size() + 1}).status().IsOutOfRange());
  EXPECT_TRUE(
      pipeline.Explain(f.workload.size() + 1).status().IsOutOfRange());
}

TEST(PipelineTest, OutOfRangeFitIndexRejected) {
  Fixture f = MakeFixture();
  LearnRiskPipeline pipeline(FastOptions());
  std::vector<size_t> train = f.split.train;
  train.push_back(f.workload.size());
  EXPECT_TRUE(pipeline.Fit(f.workload, train, f.split.valid).IsOutOfRange());
  std::vector<size_t> valid = f.split.valid;
  valid.push_back(f.workload.size() + 1);
  EXPECT_TRUE(pipeline.Fit(f.workload, f.split.train, valid).IsOutOfRange());
  EXPECT_FALSE(pipeline.fitted());
}

// A pair naming a record past the end of its table is rejected before the
// suite or ComputeFeatures read the tables.
TEST(PipelineTest, OutOfRangePairRecordRejected) {
  Fixture f = MakeFixture();
  std::vector<RecordPair> pairs = f.workload.pairs();
  pairs[0].left = f.workload.left().num_records() + 1000;
  const Workload bad_left("bad_left", f.workload.left_ptr(),
                          f.workload.right_ptr(), pairs);
  LearnRiskPipeline pipeline(FastOptions());
  EXPECT_TRUE(pipeline.Fit(bad_left, f.split.train, f.split.valid)
                  .IsOutOfRange());
  EXPECT_FALSE(pipeline.fitted());

  pairs = f.workload.pairs();
  pairs.back().right = f.workload.right().num_records();
  const Workload bad_right("bad_right", f.workload.left_ptr(),
                           f.workload.right_ptr(), pairs);
  EXPECT_TRUE(pipeline.Fit(bad_right, f.split.train, f.split.valid)
                  .IsOutOfRange());
  EXPECT_FALSE(pipeline.fitted());
}

TEST(PipelineTest, FitWithoutValidationUsesPriorModel) {
  Fixture f = MakeFixture();
  LearnRiskPipeline pipeline(FastOptions());
  ASSERT_TRUE(pipeline.Fit(f.workload, f.split.train, {}).ok());
  auto scores = pipeline.Score(f.split.test);
  ASSERT_TRUE(scores.ok());
  EXPECT_EQ(scores->size(), f.split.test.size());
}

}  // namespace
}  // namespace learnrisk
