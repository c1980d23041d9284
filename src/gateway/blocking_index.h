// Copyright 2026 The LearnRisk Authors
// Incremental, queryable token blocking — the candidate-generation layer of
// the request gateway. Holds per-side token postings in append-only immutable
// segments so records can be added online one at a time and probed for
// blocking candidates without rebuilding anything; materializing every
// candidate pair from the postings reproduces the offline TokenBlocking
// batch blocker exactly (same tokens via BlockingKeyTokens, same
// document-frequency and block-purging caps, same deterministic pair order),
// and probing a record reproduces exactly the batch pairs that record would
// participate in if it were appended.

#ifndef LEARNRISK_GATEWAY_BLOCKING_INDEX_H_
#define LEARNRISK_GATEWAY_BLOCKING_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "data/blocking.h"
#include "data/table.h"
#include "data/workload.h"

namespace learnrisk {

/// \brief Which side of a two-table workload a record belongs to. Dedup
/// (single-table) indexes fold both sides onto kLeft.
enum class BlockingSide { kLeft, kRight };

/// \brief The opposite side (kLeft <-> kRight).
inline BlockingSide OppositeSide(BlockingSide side) {
  return side == BlockingSide::kLeft ? BlockingSide::kRight
                                     : BlockingSide::kLeft;
}

/// \brief An in-memory inverted index over blocking tokens, maintained
/// incrementally as a list of append-only immutable posting segments.
///
/// The index is the online counterpart of TokenBlocking: AddRecord appends a
/// record's postings, Candidates probes a raw (possibly unseen) record for
/// blocking partners, and AllCandidates materializes the full candidate set.
/// The df / block-size caps are evaluated lazily against the *current*
/// posting sizes, so AllCandidates after N AddRecord calls is identical to
/// batch-blocking the same N records.
///
/// Storage is segment-structured for snapshot concurrency (see
/// docs/CONCURRENCY.md): each side is a vector of shared, immutable
/// `Segment`s (token -> ascending global record ids, plus the covered
/// records' entity ids). AddRecord appends a single-record tail segment and
/// then merges tail segments binary-counter style (merge while the tail is
/// at least as large as its predecessor), which keeps the per-side segment
/// count logarithmic and the amortized append cost O(tokens * log n). A
/// merge always builds a *new* segment — published segments are never
/// mutated — so copying a BlockingIndex is cheap (shared_ptr vector copies)
/// and a copy taken by an RCU writer never invalidates concurrent readers
/// of the original. The BlockingIndex object itself is not internally
/// synchronized: one writer mutates its own copy while readers use theirs.
class BlockingIndex {
 public:
  BlockingIndex() = default;

  /// \brief An empty index. `dedup` selects single-table semantics: both
  /// sides share one posting list and AllCandidates emits (i, j) with i < j.
  BlockingIndex(BlockingConfig config, bool dedup)
      : config_(config), dedup_(dedup) {}

  /// \brief Index over all records of two tables (pass the same table object
  /// twice for dedup), built as one base segment per side. AllCandidates()
  /// of the result equals TokenBlocking(left, right, config) exactly.
  static Result<BlockingIndex> Build(const Table& left, const Table& right,
                                     const BlockingConfig& config);

  const BlockingConfig& config() const { return config_; }
  bool dedup() const { return dedup_; }

  /// \brief Records indexed on one side (dedup: both sides report the single
  /// table's count).
  size_t num_records(BlockingSide side) const {
    return side_of(side).num_records;
  }

  /// \brief Posting segments currently backing one side (observability; 1
  /// after Build, grows and shrinks with AddRecord's tail merges).
  size_t segment_count(BlockingSide side) const {
    return side_of(side).segments.size();
  }

  /// \brief Appends one record's postings as a new tail segment (merging
  /// tails as needed). `entity_id` is the generator ground truth used to
  /// flag AllCandidates pairs as equivalent; pass -1 when unknown
  /// (production traffic), which marks every pair non-match. In dedup mode
  /// the side is ignored (single table). Fails if the key attribute is out
  /// of range for the record.
  Status AddRecord(BlockingSide side, const Record& record,
                   int64_t entity_id = -1);

  /// \brief Blocking candidates of a raw probe record on the target side,
  /// ascending — *exactly* the partners the probe would get from batch
  /// TokenBlocking if it were appended as the next record of the opposite
  /// (probe) side: per-token document-frequency caps are evaluated on both
  /// sides, with the probe side's counts and cap taken at its hypothetical
  /// new size (current records + the probe itself). Dedup indexes probe the
  /// single table regardless of `target`. Parity with the batch blocker is
  /// enforced by tests/blocking_index_test.cc.
  std::vector<size_t> Candidates(const Record& probe,
                                 BlockingSide target) const;

  /// \brief Every candidate pair implied by the current postings, with the
  /// same caps, dedup semantics, and deterministic ordering as
  /// TokenBlocking over the same records.
  std::vector<RecordPair> AllCandidates() const;

 private:
  // --- Cross-shard candidate generation (gateway/shard_merge.h) -----------
  // Sharded namespaces keep one BlockingIndex per shard over *local* record
  // ids; shard k's local id l is global id l * S + k. MergedAllCandidates
  // and MergedCandidates are the one candidate-generation algorithm
  // (blocking_index.cc): they union postings across a shard list, apply the
  // df / block-size caps at the *global* counts and emit global ids. A lone
  // index is the one-shard list, so AllCandidates()/Candidates() call them
  // with {this}.
  friend std::vector<RecordPair> MergedAllCandidates(
      const std::vector<const BlockingIndex*>& shards, double* merge_ms);
  friend std::vector<size_t> MergedCandidates(
      const std::vector<const BlockingIndex*>& shards, const Record& probe,
      BlockingSide target, double* merge_ms);

  using Postings = std::unordered_map<std::string, std::vector<size_t>>;

  /// \brief One immutable run of indexed records: their token postings
  /// (global record ids, ascending) and entity ids, covering global indices
  /// [base, base + entities.size()). A segment holds nothing about other
  /// segments, so an append or a merge touches only the segments it builds.
  struct Segment {
    size_t base = 0;
    Postings postings;
    std::vector<int64_t> entities;
    size_t num_records() const { return entities.size(); }
  };

  /// \brief One shard's posting list of a token: local ids, ascending.
  struct ShardList {
    const std::vector<size_t>* ids;
    size_t shard;
  };

  /// \brief One side's segment list. Segments are immutable and shared
  /// across index copies; only the vector itself is per-copy.
  struct Side {
    std::vector<std::shared_ptr<const Segment>> segments;
    size_t num_records = 0;

    /// \brief Appends (when `out` is non-null) this side's posting lists of
    /// `token`, tagged with `shard`; returns the number of ids they hold.
    size_t Gather(size_t shard, const std::string& token,
                  std::vector<ShardList>* out) const;
  };

  const Side& side_of(BlockingSide side) const {
    return !dedup_ && side == BlockingSide::kRight ? right_ : left_;
  }
  Side& side_of(BlockingSide side) {
    return !dedup_ && side == BlockingSide::kRight ? right_ : left_;
  }

  /// \brief Entity id of one global record index (binary search over the
  /// side's base-ordered segments).
  static int64_t EntityOf(const Side& side, size_t id);

  /// \brief df cap at a record count (TokenBlocking's
  /// max(max_token_df * records, 1)).
  size_t DfCapAt(size_t records) const;

  BlockingConfig config_;
  bool dedup_ = false;
  Side left_;
  Side right_;
};

}  // namespace learnrisk

#endif  // LEARNRISK_GATEWAY_BLOCKING_INDEX_H_
