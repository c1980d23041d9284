// Copyright 2026 The LearnRisk Authors

#include "gateway/shard_merge.h"

namespace learnrisk {

std::vector<RecordPair> MergedAllCandidates(
    const std::vector<const BlockingIndex*>& shards, double* merge_ms) {
  return BlockingIndex::AllCandidatesOver(shards, merge_ms);
}

std::vector<size_t> MergedCandidates(
    const std::vector<const BlockingIndex*>& shards, const Record& probe,
    BlockingSide target, double* merge_ms) {
  return BlockingIndex::CandidatesOver(shards, probe, target, merge_ms);
}

}  // namespace learnrisk
