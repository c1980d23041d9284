// Copyright 2026 The LearnRisk Authors

#include "gateway/blocking_index.h"

#include <algorithm>
#include <set>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "common/timer.h"
#include "gateway/shard_merge.h"

namespace learnrisk {

Result<BlockingIndex> BlockingIndex::Build(const Table& left,
                                           const Table& right,
                                           const BlockingConfig& config) {
  LEARNRISK_RETURN_NOT_OK(CheckBlockingConfig(config, left.schema()));
  LEARNRISK_RETURN_NOT_OK(CheckBlockingConfig(config, right.schema()));
  BlockingIndex index(config, &left == &right);
  auto bulk_load = [&config](Side* side, const Table& table) {
    auto segment = std::make_shared<Segment>();
    segment->base = 0;
    segment->entities.reserve(table.num_records());
    for (size_t i = 0; i < table.num_records(); ++i) {
      for (std::string& tok :
           BlockingKeyTokens(table.record(i), config.key_attribute,
                             config.min_token_length)) {
        segment->postings[std::move(tok)].push_back(i);
      }
      segment->entities.push_back(table.entity_id(i));
    }
    side->num_records = table.num_records();
    if (table.num_records() > 0) side->segments.push_back(std::move(segment));
  };
  bulk_load(&index.left_, left);
  if (!index.dedup_) bulk_load(&index.right_, right);
  return index;
}

Status BlockingIndex::AddRecord(BlockingSide side, const Record& record,
                                int64_t entity_id) {
  if (config_.key_attribute >= record.values.size()) {
    return Status::InvalidArgument("blocking key attribute out of range");
  }
  Side& s = side_of(side);
  const size_t index = s.num_records;
  auto tail = std::make_shared<Segment>();
  tail->base = index;
  for (std::string& tok :
       BlockingKeyTokens(record, config_.key_attribute,
                         config_.min_token_length)) {
    tail->postings[std::move(tok)].push_back(index);
  }
  tail->entities.push_back(entity_id);
  s.segments.push_back(std::move(tail));
  s.num_records = index + 1;

  // Binary-counter compaction: merge while the tail has grown at least as
  // large as its predecessor. Sizes stay strictly decreasing, so a side
  // holds O(log n) segments and each record is merged O(log n) times.
  // Merges build fresh segments — shared (published) segments are immutable.
  while (s.segments.size() >= 2) {
    const Segment& a = *s.segments[s.segments.size() - 2];
    const Segment& b = *s.segments.back();
    if (b.num_records() < a.num_records()) break;
    auto merged = std::make_shared<Segment>();
    merged->base = a.base;
    merged->postings = a.postings;
    for (const auto& [tok, ids] : b.postings) {
      // b's ids all exceed a's (higher base), so appending keeps each
      // posting list ascending.
      std::vector<size_t>& list = merged->postings[tok];
      list.insert(list.end(), ids.begin(), ids.end());
    }
    merged->entities = a.entities;
    merged->entities.insert(merged->entities.end(), b.entities.begin(),
                            b.entities.end());
    s.segments.pop_back();
    s.segments.pop_back();
    s.segments.push_back(std::move(merged));
  }
  return Status::OK();
}

size_t BlockingIndex::Side::Gather(size_t shard, const std::string& token,
                                   std::vector<ShardList>* out) const {
  size_t count = 0;
  for (const auto& segment : segments) {
    auto it = segment->postings.find(token);
    if (it == segment->postings.end()) continue;
    count += it->second.size();
    if (out != nullptr) out->push_back({&it->second, shard});
  }
  return count;
}

int64_t BlockingIndex::EntityOf(const Side& side, size_t id) {
  // Last segment whose base is <= id; segments are base-ordered.
  auto it = std::upper_bound(
      side.segments.begin(), side.segments.end(), id,
      [](size_t v, const std::shared_ptr<const Segment>& segment) {
        return v < segment->base;
      });
  const Segment& segment = **(it - 1);
  return segment.entities[id - segment.base];
}

size_t BlockingIndex::DfCapAt(size_t records) const {
  const auto cap = static_cast<size_t>(config_.max_token_df *
                                       static_cast<double>(records));
  return std::max<size_t>(cap, 1);
}

std::vector<size_t> BlockingIndex::Candidates(const Record& probe,
                                              BlockingSide target) const {
  return MergedCandidates({this}, probe, target);
}

std::vector<RecordPair> BlockingIndex::AllCandidates() const {
  return MergedAllCandidates({this});
}

std::vector<size_t> MergedCandidates(
    const std::vector<const BlockingIndex*>& shards, const Record& probe,
    BlockingSide target, double* merge_ms) {
  using ShardList = BlockingIndex::ShardList;
  if (merge_ms != nullptr) *merge_ms = 0.0;
  std::vector<size_t> out;
  const BlockingIndex& first = *shards[0];
  const BlockingConfig& config = first.config_;
  if (config.key_attribute >= probe.values.size()) return out;
  const bool dedup = first.dedup_;
  const size_t num_shards = shards.size();
  // The probe is scored as if it were the next record appended to the
  // opposite (probe) side — dedup folds both sides onto the single table —
  // so every df / block-size cap below is exactly what TokenBlocking would
  // evaluate over the hypothetical (probe-appended) global tables.
  const BlockingSide probe_side = dedup ? target : OppositeSide(target);
  size_t probe_records = 0;
  size_t target_records = 0;
  for (const BlockingIndex* shard : shards) {
    probe_records += shard->side_of(probe_side).num_records;
    target_records += shard->side_of(target).num_records;
  }
  const size_t probe_df_cap = first.DfCapAt(probe_records + 1);
  const size_t target_df_cap =
      dedup ? probe_df_cap : first.DfCapAt(target_records);

  std::set<size_t> found;
  std::vector<ShardList> lists;
  for (const std::string& tok :
       BlockingKeyTokens(probe, config.key_attribute,
                         config.min_token_length)) {
    // One pass over every shard's target segments: count and remember the
    // matching posting lists, so passing the caps doesn't re-find them.
    lists.clear();
    size_t target_count = 0;
    for (size_t k = 0; k < num_shards; ++k) {
      target_count += shards[k]->side_of(target).Gather(k, tok, &lists);
    }
    if (target_count == 0) continue;
    // Block sizes with the probe appended: the probe joins its own side's
    // posting list (dedup: the single shared list).
    size_t probe_count = target_count + 1;
    if (!dedup) {
      probe_count = 1;
      for (size_t k = 0; k < num_shards; ++k) {
        probe_count += shards[k]->side_of(probe_side).Gather(k, tok, nullptr);
      }
    }
    const size_t target_block = dedup ? target_count + 1 : target_count;
    if (target_block > target_df_cap || target_block > config.max_block_size) {
      continue;  // token too common on the target side
    }
    if (probe_count > probe_df_cap || probe_count > config.max_block_size) {
      continue;  // token too common on the probe's side
    }
    for (const ShardList& list : lists) {
      // Each list ascends, so the end hint makes appends past the current
      // maximum O(1), as a range insert would.
      for (size_t local : *list.ids) {
        found.insert(found.end(), local * num_shards + list.shard);
      }
    }
  }

  // Final phase: the deterministic ascending global ordering.
  Timer merge_timer;
  out.assign(found.begin(), found.end());
  if (merge_ms != nullptr) *merge_ms = merge_timer.ElapsedMillis();
  return out;
}

std::vector<RecordPair> MergedAllCandidates(
    const std::vector<const BlockingIndex*>& shards, double* merge_ms) {
  using ShardList = BlockingIndex::ShardList;
  if (merge_ms != nullptr) *merge_ms = 0.0;
  const BlockingIndex& first = *shards[0];
  const BlockingConfig& config = first.config_;
  const bool dedup = first.dedup_;
  const size_t num_shards = shards.size();
  size_t left_records = 0;
  size_t right_records = 0;
  for (const BlockingIndex* shard : shards) {
    left_records += shard->left_.num_records;
    right_records += shard->side_of(BlockingSide::kRight).num_records;
  }
  const size_t left_df_cap = first.DfCapAt(left_records);
  const size_t right_df_cap = first.DfCapAt(right_records);

  // Mirrors TokenBlocking's batch loop over the live postings: same caps
  // (evaluated at the current global record counts), same dedup semantics,
  // same (left, right)-ordered deterministic output. A token is processed
  // where this call first meets it in any shard's left segments, with its
  // full per-side lists gathered across every shard's segments. `handled`
  // skips it at every later segment that holds it: a second pass would
  // only repeat its emits, which the final phase drops, at the cost of
  // redoing the token's gathers and pair loops. Its views point into
  // postings keys, which the caller's shards keep alive for the call.
  // Raw (li, ri) emits, duplicates included (a pair sharing several tokens
  // is emitted once per token); the final phase sorts and dedups them.
  std::vector<RecordPair> pairs;
  std::vector<ShardList> left_lists;
  std::vector<ShardList> right_lists;
  std::unordered_set<std::string_view> handled;
  for (const BlockingIndex* shard : shards) {
    for (const auto& segment : shard->left_.segments) {
      for (const auto& [token, seg_ids] : segment->postings) {
        (void)seg_ids;
        if (!handled.insert(token).second) continue;
        left_lists.clear();
        size_t left_count = 0;
        for (size_t j = 0; j < num_shards; ++j) {
          left_count += shards[j]->left_.Gather(j, token, &left_lists);
        }
        size_t right_count = left_count;
        if (!dedup) {
          right_lists.clear();
          right_count = 0;
          for (size_t j = 0; j < num_shards; ++j) {
            right_count += shards[j]->right_.Gather(j, token, &right_lists);
          }
        }
        const std::vector<ShardList>& rlists = dedup ? left_lists : right_lists;
        if (right_count == 0) continue;
        if (left_count > left_df_cap || right_count > right_df_cap) {
          continue;  // token too common to be discriminating
        }
        if (left_count > config.max_block_size ||
            right_count > config.max_block_size) {
          continue;  // block purging
        }
        for (const ShardList& l : left_lists) {
          for (size_t left_local : *l.ids) {
            const size_t li = left_local * num_shards + l.shard;
            for (const ShardList& r : rlists) {
              for (size_t right_local : *r.ids) {
                const size_t ri = right_local * num_shards + r.shard;
                if (dedup && li >= ri) continue;
                pairs.push_back(RecordPair{li, ri, false});
              }
            }
          }
        }
      }
    }
  }

  // Final phase: the deterministic global ordering (sort + unique by
  // (left, right)) plus equivalence tagging against the owning shards.
  Timer merge_timer;
  std::sort(pairs.begin(), pairs.end(),
            [](const RecordPair& a, const RecordPair& b) {
              return a.left != b.left ? a.left < b.left : a.right < b.right;
            });
  pairs.erase(std::unique(pairs.begin(), pairs.end(),
                          [](const RecordPair& a, const RecordPair& b) {
                            return a.left == b.left && a.right == b.right;
                          }),
              pairs.end());
  for (RecordPair& pair : pairs) {
    const size_t li = pair.left;
    const size_t ri = pair.right;
    // Unknown entities (-1) never count as equivalent.
    const int64_t left_entity =
        BlockingIndex::EntityOf(shards[li % num_shards]->left_,
                                li / num_shards);
    pair.is_equivalent =
        left_entity >= 0 &&
        left_entity ==
            BlockingIndex::EntityOf(
                shards[ri % num_shards]->side_of(BlockingSide::kRight),
                ri / num_shards);
  }
  if (merge_ms != nullptr) *merge_ms = merge_timer.ElapsedMillis();
  return pairs;
}

}  // namespace learnrisk
