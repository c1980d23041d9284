// Copyright 2026 The LearnRisk Authors
// Cross-shard candidate generation for sharded gateway namespaces.
//
// A sharded namespace hashes records across S independent shards (shard of a
// global id = id % S, local id = id / S; a record at local index l of shard
// k has global id l * S + k). Each shard owns its own SideStore segments and
// BlockingIndex over *local* ids. MergedAllCandidates/MergedCandidates are
// the one candidate-generation algorithm over a shard list, defined in
// blocking_index.cc as friends of BlockingIndex: postings are unioned
// across shards, the document-frequency and block-size caps are applied at
// the *global* counts and local ids are translated back to global ids; a
// block_all's raw pairs are sorted and deduplicated into the global order
// once, and a probe's ids ascend through one ordered set. A lone
// BlockingIndex is the one-shard list (AllCandidates and Candidates call
// these with {this}), so the output equals batch TokenBlocking over the
// global tables at any S and any segment layout (enforced by
// tests/blocking_index_test.cc, and end to end by
// tests/gateway_shard_test.cc).
//
// ShardedSideView is the featurization counterpart: a zero-copy view
// presenting S per-shard SideStores as one global-id-addressed store, so
// FeaturePipeline::RunPreparedTiles can evaluate merged candidate pairs
// without materializing anything.

#ifndef LEARNRISK_GATEWAY_SHARD_MERGE_H_
#define LEARNRISK_GATEWAY_SHARD_MERGE_H_

#include <cstdint>
#include <vector>

#include "data/table.h"
#include "data/workload.h"
#include "gateway/blocking_index.h"
#include "gateway/namespace_segments.h"

namespace learnrisk {

/// \brief Global record id of local index `local` on shard `shard`.
inline size_t GlobalId(size_t local, size_t shard, size_t num_shards) {
  return local * num_shards + shard;
}

/// \brief A read-only view over one namespace side's per-shard SideStores,
/// addressed by global record ids. The stores (and the snapshots owning
/// them) must outlive the view — the gateway pins its per-request shard
/// snapshots for exactly this reason.
class ShardedSideView {
 public:
  ShardedSideView() = default;
  explicit ShardedSideView(std::vector<const SideStore*> stores)
      : stores_(std::move(stores)) {
    for (const SideStore* store : stores_) size_ += store->size();
  }

  /// \brief Total records across shards. Note that global ids are only
  /// guaranteed contiguous in [0, size()) when the shards are balanced
  /// (|shard sizes| differ by at most 1); bounds checks go through
  /// InRange, which is exact per shard.
  size_t size() const { return size_; }

  /// \brief True iff `global_id` resolves to an existing record of its
  /// shard (exact even when shard sizes are momentarily unbalanced).
  bool InRange(size_t global_id) const {
    return global_id / stores_.size() <
           stores_[global_id % stores_.size()]->size();
  }

  const PreparedRecord& prepared(size_t global_id) const {
    return stores_[global_id % stores_.size()]->prepared(global_id /
                                                         stores_.size());
  }
  const Record& record(size_t global_id) const {
    return stores_[global_id % stores_.size()]->record(global_id /
                                                       stores_.size());
  }
  int64_t entity_id(size_t global_id) const {
    return stores_[global_id % stores_.size()]->entity_id(global_id /
                                                          stores_.size());
  }

 private:
  std::vector<const SideStore*> stores_;
  size_t size_ = 0;
};

/// \brief Every candidate pair implied by the union of the per-shard
/// postings: the same pairs, deterministic ordering and equivalence flags
/// as BlockingIndex::AllCandidates over one index holding the same records
/// under the same global ids (a one-element list is exactly that call).
/// All shards must share one BlockingConfig and dedup flag (they come from
/// one namespace registration). `merge_ms`, when non-null, receives the wall
/// time of the final merge phase (the sort + dedup that fixes the global
/// order, then equivalence tagging) —
/// the gateway's `shard_merge` stage span.
std::vector<RecordPair> MergedAllCandidates(
    const std::vector<const BlockingIndex*>& shards,
    double* merge_ms = nullptr);

/// \brief Blocking candidates of a raw probe against the target side of a
/// sharded namespace, ascending by global id — the same ids as
/// BlockingIndex::Candidates on one index holding the same records.
/// `merge_ms` as in MergedAllCandidates.
std::vector<size_t> MergedCandidates(
    const std::vector<const BlockingIndex*>& shards, const Record& probe,
    BlockingSide target, double* merge_ms = nullptr);

}  // namespace learnrisk

#endif  // LEARNRISK_GATEWAY_SHARD_MERGE_H_
