// Copyright 2026 The LearnRisk Authors
// Unit tests for the data model: Schema, Record, Table, Workload and splits.

#include "data/table.h"

#include <gtest/gtest.h>

#include <memory>

#include "data/workload.h"

namespace learnrisk {
namespace {

Schema BibSchema() {
  return Schema({{"title", AttributeType::kText},
                 {"authors", AttributeType::kEntitySet},
                 {"year", AttributeType::kNumeric}});
}

TEST(SchemaTest, IndexOfFindsAttributes) {
  Schema schema = BibSchema();
  EXPECT_EQ(schema.num_attributes(), 3u);
  EXPECT_EQ(*schema.IndexOf("authors"), 1u);
  EXPECT_TRUE(schema.IndexOf("venue").status().IsNotFound());
}

TEST(SchemaTest, EqualsComparesNamesAndTypes) {
  EXPECT_TRUE(BibSchema().Equals(BibSchema()));
  Schema other({{"title", AttributeType::kText}});
  EXPECT_FALSE(BibSchema().Equals(other));
  Schema renamed({{"name", AttributeType::kText},
                  {"authors", AttributeType::kEntitySet},
                  {"year", AttributeType::kNumeric}});
  EXPECT_FALSE(BibSchema().Equals(renamed));
}

TEST(RecordTest, Missing) {
  Record r;
  r.values = {"title x", "", "1995"};
  EXPECT_FALSE(r.IsMissing(0));
  EXPECT_TRUE(r.IsMissing(1));
}

TEST(TableTest, AppendChecksWidth) {
  Table table(BibSchema());
  Record ok;
  ok.values = {"a", "b", "1"};
  EXPECT_TRUE(table.Append(ok, 1).ok());
  Record bad;
  bad.values = {"a"};
  EXPECT_TRUE(table.Append(bad, 2).IsInvalidArgument());
  EXPECT_EQ(table.num_records(), 1u);
  EXPECT_EQ(table.entity_id(0), 1);
}

std::shared_ptr<Table> MakeTable(int n, int dup_every) {
  auto table = std::make_shared<Table>(BibSchema());
  for (int i = 0; i < n; ++i) {
    Record r;
    r.values = {"title " + std::to_string(i), "a b", "1990"};
    // Entities repeat every dup_every records.
    (void)table->Append(r, i % dup_every);
  }
  return table;
}

TEST(WorkloadTest, BasicAccessors) {
  auto left = MakeTable(10, 10);
  auto right = MakeTable(10, 10);
  std::vector<RecordPair> pairs = {{0, 0, true}, {0, 1, false}, {1, 1, true}};
  Workload w("test", left, right, pairs);
  EXPECT_EQ(w.size(), 3u);
  EXPECT_EQ(w.num_matches(), 2u);
  EXPECT_EQ(w.Labels(), (std::vector<uint8_t>{1, 0, 1}));
  EXPECT_EQ(&w.LeftRecord(1), &left->record(0));
  EXPECT_EQ(&w.RightRecord(1), &right->record(1));
}

TEST(WorkloadTest, SubsetSharesTables) {
  auto t = MakeTable(5, 5);
  Workload w("x", t, t, {{0, 1, false}, {1, 2, false}, {2, 3, true}});
  Workload sub = w.Subset({2, 0});
  EXPECT_EQ(sub.size(), 2u);
  EXPECT_TRUE(sub.pair(0).is_equivalent);
  EXPECT_EQ(&sub.left(), &w.left());
}

Workload MakeLabeledWorkload(size_t n, size_t matches) {
  auto t = MakeTable(static_cast<int>(n) + 1, static_cast<int>(n) + 1);
  std::vector<RecordPair> pairs;
  for (size_t i = 0; i < n; ++i) {
    pairs.push_back({i, i + 1, i < matches});
  }
  return Workload("w", t, t, pairs);
}

TEST(SplitTest, RatiosRespected) {
  Workload w = MakeLabeledWorkload(1000, 100);
  Rng rng(3);
  auto split = StratifiedSplit(w, 3, 2, 5, &rng);
  ASSERT_TRUE(split.ok());
  EXPECT_NEAR(static_cast<double>(split->train.size()), 300.0, 2.0);
  EXPECT_NEAR(static_cast<double>(split->valid.size()), 200.0, 2.0);
  EXPECT_NEAR(static_cast<double>(split->test.size()), 500.0, 2.0);
  EXPECT_EQ(split->train.size() + split->valid.size() + split->test.size(),
            1000u);
}

TEST(SplitTest, StratificationPreservesMatchRate) {
  Workload w = MakeLabeledWorkload(1000, 100);
  Rng rng(3);
  auto split = StratifiedSplit(w, 3, 2, 5, &rng);
  ASSERT_TRUE(split.ok());
  auto match_rate = [&](const std::vector<size_t>& idx) {
    size_t m = 0;
    for (size_t i : idx) m += w.pair(i).is_equivalent ? 1 : 0;
    return static_cast<double>(m) / static_cast<double>(idx.size());
  };
  EXPECT_NEAR(match_rate(split->train), 0.1, 0.01);
  EXPECT_NEAR(match_rate(split->valid), 0.1, 0.01);
  EXPECT_NEAR(match_rate(split->test), 0.1, 0.01);
}

TEST(SplitTest, DisjointAndComplete) {
  Workload w = MakeLabeledWorkload(500, 50);
  Rng rng(3);
  auto split = StratifiedSplit(w, 1, 2, 7, &rng);
  ASSERT_TRUE(split.ok());
  std::vector<int> seen(500, 0);
  for (size_t i : split->train) seen[i]++;
  for (size_t i : split->valid) seen[i]++;
  for (size_t i : split->test) seen[i]++;
  for (int count : seen) EXPECT_EQ(count, 1);
}

TEST(SplitTest, InvalidRatiosRejected) {
  Workload w = MakeLabeledWorkload(10, 2);
  Rng rng(3);
  EXPECT_FALSE(StratifiedSplit(w, 0, 0, 0, &rng).ok());
  EXPECT_FALSE(StratifiedSplit(w, -1, 2, 5, &rng).ok());
}

TEST(SplitTest, ZeroTrainRatioAllowed) {
  Workload w = MakeLabeledWorkload(100, 10);
  Rng rng(3);
  auto split = StratifiedSplit(w, 0, 2, 8, &rng);
  ASSERT_TRUE(split.ok());
  EXPECT_TRUE(split->train.empty());
  EXPECT_GT(split->valid.size(), 0u);
}

TEST(SplitTest, DeterministicGivenSeed) {
  Workload w = MakeLabeledWorkload(200, 20);
  Rng rng1(5);
  Rng rng2(5);
  auto s1 = StratifiedSplit(w, 3, 2, 5, &rng1);
  auto s2 = StratifiedSplit(w, 3, 2, 5, &rng2);
  EXPECT_EQ(s1->train, s2->train);
  EXPECT_EQ(s1->test, s2->test);
}

}  // namespace
}  // namespace learnrisk
