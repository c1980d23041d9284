// Copyright 2026 The LearnRisk Authors
// BlockingIndex tests: batch-build and incremental-add parity with the
// offline TokenBlocking blocker on generated two-table and dedup workloads,
// online probe semantics, cross-shard candidate generation at S in 1..4,
// and error paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "data/blocking.h"
#include "data/generators.h"
#include "gateway/blocking_index.h"
#include "gateway/shard_merge.h"

namespace learnrisk {
namespace {

Workload SmallWorkload(const std::string& name) {
  GeneratorOptions options;
  options.scale = 0.02;
  options.seed = 17;
  Result<Workload> workload = GenerateDataset(name, options);
  EXPECT_TRUE(workload.ok()) << workload.status().ToString();
  return workload.MoveValueOrDie();
}

void ExpectSamePairs(const std::vector<RecordPair>& batch,
                     const std::vector<RecordPair>& incremental) {
  ASSERT_EQ(batch.size(), incremental.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].left, incremental[i].left) << "pair " << i;
    EXPECT_EQ(batch[i].right, incremental[i].right) << "pair " << i;
    EXPECT_EQ(batch[i].is_equivalent, incremental[i].is_equivalent)
        << "pair " << i;
  }
}

TEST(BlockingIndexTest, BuildMatchesTokenBlockingOnTwoTableWorkload) {
  const Workload workload = SmallWorkload("DS");
  BlockingConfig config;
  const auto batch = TokenBlocking(workload.left(), workload.right(), config);
  ASSERT_TRUE(batch.ok());
  ASSERT_FALSE(batch->empty());

  const auto index =
      BlockingIndex::Build(workload.left(), workload.right(), config);
  ASSERT_TRUE(index.ok());
  EXPECT_FALSE(index->dedup());
  ExpectSamePairs(*batch, index->AllCandidates());
}

TEST(BlockingIndexTest, BuildMatchesTokenBlockingOnDedupWorkload) {
  const Workload workload = SmallWorkload("SG");
  ASSERT_EQ(&workload.left(), &workload.right());  // single-table dedup
  BlockingConfig config;
  const auto batch = TokenBlocking(workload.left(), workload.left(), config);
  ASSERT_TRUE(batch.ok());
  ASSERT_FALSE(batch->empty());

  const auto index =
      BlockingIndex::Build(workload.left(), workload.left(), config);
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE(index->dedup());
  ExpectSamePairs(*batch, index->AllCandidates());
}

TEST(BlockingIndexTest, IncrementalAddsMatchBatchBlocking) {
  const Workload workload = SmallWorkload("DA");
  const Table& left = workload.left();
  const Table& right = workload.right();
  BlockingConfig config;

  // Interleave the two sides record by record — the candidate set only
  // depends on the final postings, so the result must still equal the batch
  // blocker over the completed tables.
  BlockingIndex index(config, /*dedup=*/false);
  const size_t rounds = std::max(left.num_records(), right.num_records());
  for (size_t i = 0; i < rounds; ++i) {
    if (i < left.num_records()) {
      ASSERT_TRUE(index
                      .AddRecord(BlockingSide::kLeft, left.record(i),
                                 left.entity_id(i))
                      .ok());
    }
    if (i < right.num_records()) {
      ASSERT_TRUE(index
                      .AddRecord(BlockingSide::kRight, right.record(i),
                                 right.entity_id(i))
                      .ok());
    }
  }
  EXPECT_EQ(index.num_records(BlockingSide::kLeft), left.num_records());
  EXPECT_EQ(index.num_records(BlockingSide::kRight), right.num_records());

  const auto batch = TokenBlocking(left, right, config);
  ASSERT_TRUE(batch.ok());
  ExpectSamePairs(*batch, index.AllCandidates());
}

// The batch-blocking partners a probe record would have if it were appended
// as the next record of the probe side: append it, run TokenBlocking over
// the extended tables, and collect the opposite-side indices of every pair
// involving the appended record. This is the exact contract
// BlockingIndex::Candidates implements online.
std::vector<size_t> BatchProbePartners(const Table& left, const Table& right,
                                       const Record& probe,
                                       BlockingSide target,
                                       const BlockingConfig& config) {
  const bool dedup = &left == &right;
  const Table& probe_table =
      dedup || target == BlockingSide::kRight ? left : right;
  Table extended(probe_table.schema());
  for (size_t i = 0; i < probe_table.num_records(); ++i) {
    EXPECT_TRUE(
        extended.Append(probe_table.record(i), probe_table.entity_id(i)).ok());
  }
  EXPECT_TRUE(extended.Append(probe, -1).ok());
  const size_t probe_id = extended.num_records() - 1;

  Result<std::vector<RecordPair>> pairs =
      dedup ? TokenBlocking(extended, extended, config)
            : (target == BlockingSide::kRight
                   ? TokenBlocking(extended, right, config)
                   : TokenBlocking(left, extended, config));
  EXPECT_TRUE(pairs.ok());
  std::vector<size_t> partners;
  for (const RecordPair& pair : *pairs) {
    // Dedup emits (i, j) with i < j, so the appended probe is always the
    // right element; two-table pairs carry the probe on its own side.
    if (dedup || target == BlockingSide::kLeft) {
      if (pair.right == probe_id) partners.push_back(pair.left);
    } else {
      if (pair.left == probe_id) partners.push_back(pair.right);
    }
  }
  std::sort(partners.begin(), partners.end());
  return partners;
}

TEST(BlockingIndexTest, ProbeCandidatesMatchBatchPairsExactly) {
  const Workload workload = SmallWorkload("DS");
  const Workload unseen = [] {
    GeneratorOptions options;
    options.scale = 0.02;
    options.seed = 99;  // different seed: records the index has never seen
    return GenerateDataset("DS", options).MoveValueOrDie();
  }();
  BlockingConfig config;
  const auto index =
      BlockingIndex::Build(workload.left(), workload.right(), config);
  ASSERT_TRUE(index.ok());

  // Candidates(probe, target) must equal the batch pairs the probe would
  // get if appended to the opposite side — for both target sides, for
  // records the index has already seen (appending a duplicate shifts the
  // df counts, and the online path must account for that too) and for
  // records it has never seen.
  size_t non_empty = 0;
  for (size_t i = 0; i < 25; ++i) {
    for (const BlockingSide target :
         {BlockingSide::kRight, BlockingSide::kLeft}) {
      const Table& opposite = target == BlockingSide::kRight
                                  ? workload.left()
                                  : workload.right();
      const Table& unseen_side = target == BlockingSide::kRight
                                     ? unseen.left()
                                     : unseen.right();
      for (const Record* probe :
           {&opposite.record(i % opposite.num_records()),
            &unseen_side.record(i % unseen_side.num_records())}) {
        const std::vector<size_t> online = index->Candidates(*probe, target);
        const std::vector<size_t> batch = BatchProbePartners(
            workload.left(), workload.right(), *probe, target, config);
        ASSERT_EQ(online, batch) << "probe " << i;
        non_empty += online.empty() ? 0 : 1;
      }
    }
  }
  EXPECT_GT(non_empty, 0u);  // the parity must be exercised by real blocks
}

TEST(BlockingIndexTest, ProbeCandidatesMatchBatchPairsOnDedupWorkload) {
  const Workload workload = SmallWorkload("SG");
  ASSERT_EQ(&workload.left(), &workload.right());
  BlockingConfig config;
  const auto index =
      BlockingIndex::Build(workload.left(), workload.left(), config);
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(index->dedup());

  size_t non_empty = 0;
  for (size_t i = 0; i < 25; ++i) {
    const Record& probe = workload.left().record(
        (i * 7) % workload.left().num_records());
    // Dedup folds both sides; any target must give the same answer.
    const std::vector<size_t> online =
        index->Candidates(probe, BlockingSide::kLeft);
    EXPECT_EQ(online, index->Candidates(probe, BlockingSide::kRight));
    const std::vector<size_t> batch =
        BatchProbePartners(workload.left(), workload.left(), probe,
                           BlockingSide::kLeft, config);
    ASSERT_EQ(online, batch) << "probe " << i;
    non_empty += online.empty() ? 0 : 1;
  }
  EXPECT_GT(non_empty, 0u);
}

TEST(BlockingIndexTest, ProbeParityHoldsAcrossIncrementalSegments) {
  // The same probe-parity contract must hold when the postings live in many
  // merged tail segments instead of one bulk-built base segment.
  const Workload workload = SmallWorkload("DA");
  BlockingConfig config;
  BlockingIndex index(config, /*dedup=*/false);
  const Table& left = workload.left();
  const Table& right = workload.right();
  const size_t rounds = std::max(left.num_records(), right.num_records());
  for (size_t i = 0; i < rounds; ++i) {
    if (i < left.num_records()) {
      ASSERT_TRUE(index
                      .AddRecord(BlockingSide::kLeft, left.record(i),
                                 left.entity_id(i))
                      .ok());
    }
    if (i < right.num_records()) {
      ASSERT_TRUE(index
                      .AddRecord(BlockingSide::kRight, right.record(i),
                                 right.entity_id(i))
                      .ok());
    }
  }
  // Binary-counter merging keeps the per-side segment count logarithmic.
  EXPECT_GE(index.segment_count(BlockingSide::kLeft), 1u);
  EXPECT_LE(index.segment_count(BlockingSide::kLeft), 20u);

  size_t non_empty = 0;
  for (size_t i = 0; i < 15; ++i) {
    const Record& probe = right.record((i * 11) % right.num_records());
    const std::vector<size_t> online =
        index.Candidates(probe, BlockingSide::kRight);
    const std::vector<size_t> batch =
        BatchProbePartners(left, right, probe, BlockingSide::kRight, config);
    ASSERT_EQ(online, batch) << "probe " << i;
    non_empty += online.empty() ? 0 : 1;
  }
  EXPECT_GT(non_empty, 0u);
}

// S per-shard indexes grown the way the gateway grows a sharded namespace:
// the first records split round-robin (global id g at local g / S of shard
// g % S), then each AddRecord routed to the least-loaded shard, lowest index
// on ties. The test keeps the global tables itself, so every candidate set
// can be checked against TokenBlocking over exactly those records.
class ShardedIndexes {
 public:
  ShardedIndexes(const Table& left, const Table& right, size_t base,
                 size_t num_shards, const BlockingConfig& config)
      : dedup_(&left == &right),
        left_(left.schema()),
        right_(right.schema()),
        left_counts_(num_shards, 0),
        right_counts_(num_shards, 0) {
    for (size_t k = 0; k < num_shards; ++k) {
      Table shard_left(left.schema());
      Table shard_right(right.schema());
      for (size_t g = k; g < base; g += num_shards) {
        EXPECT_TRUE(shard_left.Append(left.record(g), left.entity_id(g)).ok());
        if (!dedup_) {
          EXPECT_TRUE(
              shard_right.Append(right.record(g), right.entity_id(g)).ok());
        }
      }
      auto built = BlockingIndex::Build(
          shard_left, dedup_ ? shard_left : shard_right, config);
      EXPECT_TRUE(built.ok());
      indexes_.push_back(built.MoveValueOrDie());
      left_counts_[k] = shard_left.num_records();
      right_counts_[k] = shard_right.num_records();
    }
    for (size_t g = 0; g < base; ++g) {
      EXPECT_TRUE(left_.Append(left.record(g), left.entity_id(g)).ok());
      if (!dedup_) {
        EXPECT_TRUE(right_.Append(right.record(g), right.entity_id(g)).ok());
      }
    }
  }

  void Add(BlockingSide side, const Record& record, int64_t entity_id) {
    const bool left_side = dedup_ || side == BlockingSide::kLeft;
    std::vector<size_t>& counts = left_side ? left_counts_ : right_counts_;
    Table& global = left_side ? left_ : right_;
    const size_t k = static_cast<size_t>(
        std::min_element(counts.begin(), counts.end()) - counts.begin());
    ASSERT_TRUE(indexes_[k].AddRecord(side, record, entity_id).ok());
    // Least-loaded routing keeps the global ids contiguous.
    ASSERT_EQ(GlobalId(counts[k]++, k, counts.size()), global.num_records());
    ASSERT_TRUE(global.Append(record, entity_id).ok());
  }

  std::vector<const BlockingIndex*> shards() const {
    std::vector<const BlockingIndex*> out;
    for (const BlockingIndex& index : indexes_) out.push_back(&index);
    return out;
  }
  const Table& left() const { return left_; }
  const Table& right() const { return dedup_ ? left_ : right_; }
  size_t max_segments() const {
    size_t most = 0;
    for (const BlockingIndex& index : indexes_) {
      most = std::max({most, index.segment_count(BlockingSide::kLeft),
                       index.segment_count(BlockingSide::kRight)});
    }
    return most;
  }

 private:
  bool dedup_;
  Table left_;
  Table right_;
  std::vector<size_t> left_counts_;
  std::vector<size_t> right_counts_;
  std::vector<BlockingIndex> indexes_;
};

// MergedAllCandidates (pairs, order, equivalence flags) and MergedCandidates
// (a seen and an unseen probe per target side) against the batch blocker
// over the current global tables.
void ExpectShardedParity(const ShardedIndexes& sharded, const Table& unseen,
                         size_t step, const BlockingConfig& config,
                         size_t* non_empty) {
  const Table& left = sharded.left();
  const Table& right = sharded.right();
  const bool dedup = &left == &right;
  const auto batch = TokenBlocking(left, right, config);
  ASSERT_TRUE(batch.ok());
  ExpectSamePairs(*batch, MergedAllCandidates(sharded.shards()));
  for (const BlockingSide target :
       {BlockingSide::kRight, BlockingSide::kLeft}) {
    const Table& opposite =
        dedup || target == BlockingSide::kRight ? left : right;
    for (const Record* probe :
         {&opposite.record((step * 7) % opposite.num_records()),
          &unseen.record((step * 13) % unseen.num_records())}) {
      const std::vector<size_t> merged =
          MergedCandidates(sharded.shards(), *probe, target);
      ASSERT_EQ(merged,
                BatchProbePartners(left, right, *probe, target, config))
          << "step " << step;
      *non_empty += merged.empty() ? 0 : 1;
    }
  }
}

// The shared cross-shard algorithm against the independent batch reference
// at every S: DS two-table and a DS dedup table (both DS sides interleaved
// into one table, so it holds real duplicates), split round-robin and then
// grown record by record into multi-segment shards.
TEST(BlockingIndexTest, MergedCandidatesMatchTokenBlockingAtAnyShardCount) {
  const Workload workload = SmallWorkload("DS");
  const Workload unseen = [] {
    GeneratorOptions options;
    options.scale = 0.02;
    options.seed = 99;
    return GenerateDataset("DS", options).MoveValueOrDie();
  }();
  Table dedup_table(workload.left().schema());
  for (size_t i = 0; i < std::max(workload.left().num_records(),
                                   workload.right().num_records());
       ++i) {
    for (const Table* side : {&workload.left(), &workload.right()}) {
      if (i >= side->num_records()) continue;
      ASSERT_TRUE(dedup_table.Append(side->record(i), side->entity_id(i)).ok());
    }
  }
  BlockingConfig config;
  constexpr size_t kChecks = 4;
  for (size_t num_shards = 1; num_shards <= 4; ++num_shards) {
    for (const bool dedup : {false, true}) {
      const Table& left = dedup ? dedup_table : workload.left();
      const Table& right = dedup ? dedup_table : workload.right();
      const size_t total = std::min(left.num_records(), right.num_records());
      const size_t base = total / 2;
      SCOPED_TRACE("S=" + std::to_string(num_shards) +
                   (dedup ? " dedup" : " two-table"));
      ShardedIndexes sharded(left, right, base, num_shards, config);
      size_t non_empty = 0;
      ExpectShardedParity(sharded, unseen.left(), 0, config, &non_empty);
      const size_t every = std::max<size_t>((total - base) / kChecks, 1);
      for (size_t g = base; g < total; ++g) {
        sharded.Add(BlockingSide::kLeft, left.record(g), left.entity_id(g));
        if (!dedup) {
          sharded.Add(BlockingSide::kRight, right.record(g),
                      right.entity_id(g));
        }
        if ((g - base + 1) % every == 0 || g + 1 == total) {
          ExpectShardedParity(sharded, unseen.left(), g, config, &non_empty);
        }
      }
      EXPECT_GT(sharded.max_segments(), 1u);
      EXPECT_GT(non_empty, 0u);
    }
  }
}

TEST(BlockingIndexTest, UnknownEntitiesNeverCountAsEquivalent) {
  // Records added without ground truth (entity id -1) must not be flagged
  // equivalent just because -1 == -1 — in either blocker.
  Schema schema({{"title", AttributeType::kText}});
  Table left(schema);
  Table right(schema);
  ASSERT_TRUE(left.Append(Record{{"shared blocking token"}}, -1).ok());
  ASSERT_TRUE(right.Append(Record{{"shared blocking token"}}, -1).ok());

  BlockingConfig config;
  const auto batch = TokenBlocking(left, right, config);
  ASSERT_TRUE(batch.ok());
  const auto index = BlockingIndex::Build(left, right, config);
  ASSERT_TRUE(index.ok());
  const std::vector<RecordPair> incremental = index->AllCandidates();
  ASSERT_EQ(batch->size(), 1u);
  ExpectSamePairs(*batch, incremental);
  EXPECT_FALSE(incremental[0].is_equivalent);
}

TEST(BlockingIndexTest, ErrorPaths) {
  const Workload workload = SmallWorkload("DS");
  BlockingConfig bad;
  bad.key_attribute = workload.left().schema().num_attributes();
  EXPECT_TRUE(BlockingIndex::Build(workload.left(), workload.right(), bad)
                  .status()
                  .IsInvalidArgument());

  BlockingConfig config;
  config.key_attribute = 2;
  BlockingIndex index(config, /*dedup=*/false);
  Record narrow;
  narrow.values = {"only", "two"};
  EXPECT_TRUE(index.AddRecord(BlockingSide::kLeft, narrow, 1)
                  .IsInvalidArgument());
  EXPECT_TRUE(index.Candidates(narrow, BlockingSide::kRight).empty());
}

// A df cap that is not a fraction in [0, 1] is refused by both blockers,
// not cast to an undefined (or silently absent) per-token cap.
TEST(BlockingIndexTest, RejectsDfCapOutsideTheUnitInterval) {
  const Workload workload = SmallWorkload("DS");
  for (double df : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                    std::numeric_limits<double>::infinity(), 1.5}) {
    BlockingConfig config;
    config.max_token_df = df;
    EXPECT_TRUE(TokenBlocking(workload.left(), workload.right(), config)
                    .status()
                    .IsInvalidArgument())
        << df;
    EXPECT_TRUE(BlockingIndex::Build(workload.left(), workload.right(), config)
                    .status()
                    .IsInvalidArgument())
        << df;
  }
  for (double df : {0.0, 1.0}) {
    BlockingConfig config;
    config.max_token_df = df;
    EXPECT_TRUE(
        TokenBlocking(workload.left(), workload.right(), config).ok());
    EXPECT_TRUE(
        BlockingIndex::Build(workload.left(), workload.right(), config).ok());
  }
  BlockingConfig bad_key;
  bad_key.key_attribute = workload.left().schema().num_attributes();
  EXPECT_TRUE(TokenBlocking(workload.left(), workload.right(), bad_key)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace learnrisk
