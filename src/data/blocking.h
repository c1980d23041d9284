// Copyright 2026 The LearnRisk Authors
// Token-based blocking. Candidate pairs share at least one sufficiently
// discriminating token of a key attribute; this is the standard technique the
// paper applies to all datasets before risk analysis ("On all the datasets,
// we use the blocking technique to filter the pairs deemed unlikely to
// match", Sec. 7.1).

#ifndef LEARNRISK_DATA_BLOCKING_H_
#define LEARNRISK_DATA_BLOCKING_H_

#include <vector>

#include "common/status.h"
#include "data/table.h"
#include "data/workload.h"

namespace learnrisk {

/// \brief Parameters of the token blocker.
struct BlockingConfig {
  /// Attribute whose tokens key the blocks (typically title/name).
  size_t key_attribute = 0;
  /// Tokens shorter than this are ignored (stop-word-ish).
  size_t min_token_length = 3;
  /// Tokens occurring in more than this fraction of records on either side
  /// are too common to block on.
  double max_token_df = 0.05;
  /// Hard cap on the number of records a single block may hold per side;
  /// oversized blocks are skipped (classic block purging).
  size_t max_block_size = 200;
};

/// \brief Fails unless `config` fits `schema`: the key attribute is one of
/// its attributes and max_token_df is a fraction in [0, 1] (NaN, negative
/// and infinite caps would make the df cap undefined). TokenBlocking,
/// BlockingIndex::Build and gateway registration all check through it.
Status CheckBlockingConfig(const BlockingConfig& config, const Schema& schema);

/// \brief The deduplicated blocking tokens of one record's key attribute
/// (tokens shorter than `min_token_length` dropped, first occurrence kept).
/// Shared by the batch blocker and the gateway's incremental BlockingIndex so
/// the two stay token-for-token identical.
std::vector<std::string> BlockingKeyTokens(const Record& record,
                                           size_t key_attribute,
                                           size_t min_token_length);

/// \brief Builds candidate pairs between two tables (pass the same table
/// twice for deduplication; self-pairs and (j,i) duplicates are excluded).
///
/// Ground-truth equivalence comes from the tables' entity ids (negative ids
/// mean unknown and never match). The result is deduplicated and ordered
/// deterministically.
Result<std::vector<RecordPair>> TokenBlocking(const Table& left,
                                              const Table& right,
                                              const BlockingConfig& config);

/// \brief Fraction of true matches (same entity id across the two tables)
/// surviving blocking; the standard pair-completeness / recall measure used
/// to sanity-check a blocker.
double BlockingRecall(const Table& left, const Table& right,
                      const std::vector<RecordPair>& candidates);

}  // namespace learnrisk

#endif  // LEARNRISK_DATA_BLOCKING_H_
