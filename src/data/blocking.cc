// Copyright 2026 The LearnRisk Authors

#include "data/blocking.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/string_util.h"

namespace learnrisk {
namespace {

// token -> sorted record indices containing it.
using TokenIndex = std::unordered_map<std::string, std::vector<size_t>>;

TokenIndex BuildIndex(const Table& table, size_t attr, size_t min_len) {
  TokenIndex index;
  for (size_t i = 0; i < table.num_records(); ++i) {
    for (const std::string& tok :
         BlockingKeyTokens(table.record(i), attr, min_len)) {
      index[tok].push_back(i);
    }
  }
  return index;
}

}  // namespace

Status CheckBlockingConfig(const BlockingConfig& config,
                           const Schema& schema) {
  if (config.key_attribute >= schema.num_attributes()) {
    return Status::InvalidArgument("blocking key attribute out of range");
  }
  if (!(config.max_token_df >= 0.0 && config.max_token_df <= 1.0)) {
    return Status::InvalidArgument(
        "blocking max_token_df must be a fraction in [0, 1]");
  }
  return Status::OK();
}

std::vector<std::string> BlockingKeyTokens(const Record& record,
                                           size_t key_attribute,
                                           size_t min_token_length) {
  std::vector<std::string> tokens;
  std::unordered_set<std::string> seen;
  for (std::string& tok : Tokenize(record.value(key_attribute))) {
    if (tok.size() < min_token_length) continue;
    if (seen.insert(tok).second) tokens.push_back(std::move(tok));
  }
  return tokens;
}

Result<std::vector<RecordPair>> TokenBlocking(const Table& left,
                                              const Table& right,
                                              const BlockingConfig& config) {
  LEARNRISK_RETURN_NOT_OK(CheckBlockingConfig(config, left.schema()));
  LEARNRISK_RETURN_NOT_OK(CheckBlockingConfig(config, right.schema()));
  const bool dedup = &left == &right;
  TokenIndex left_index = BuildIndex(left, config.key_attribute,
                                     config.min_token_length);
  TokenIndex right_index =
      dedup ? left_index
            : BuildIndex(right, config.key_attribute, config.min_token_length);

  const auto left_df_cap = static_cast<size_t>(
      config.max_token_df * static_cast<double>(left.num_records()));
  const auto right_df_cap = static_cast<size_t>(
      config.max_token_df * static_cast<double>(right.num_records()));

  std::set<std::pair<size_t, size_t>> pair_set;
  for (const auto& [token, left_ids] : left_index) {
    auto it = right_index.find(token);
    if (it == right_index.end()) continue;
    const std::vector<size_t>& right_ids = it->second;
    if (left_ids.size() > std::max<size_t>(left_df_cap, 1) ||
        right_ids.size() > std::max<size_t>(right_df_cap, 1)) {
      continue;  // token too common to be discriminating
    }
    if (left_ids.size() > config.max_block_size ||
        right_ids.size() > config.max_block_size) {
      continue;  // block purging
    }
    for (size_t li : left_ids) {
      for (size_t ri : right_ids) {
        if (dedup) {
          if (li >= ri) continue;
          pair_set.emplace(li, ri);
        } else {
          pair_set.emplace(li, ri);
        }
      }
    }
  }

  std::vector<RecordPair> pairs;
  pairs.reserve(pair_set.size());
  for (const auto& [li, ri] : pair_set) {
    // Negative entity ids mean "unknown" (e.g. records added online without
    // ground truth) and never count as equivalent; the gateway's
    // BlockingIndex applies the same rule, keeping the two paths identical.
    const bool equivalent = left.entity_id(li) >= 0 &&
                            left.entity_id(li) == right.entity_id(ri);
    pairs.push_back(RecordPair{li, ri, equivalent});
  }
  return pairs;
}

double BlockingRecall(const Table& left, const Table& right,
                      const std::vector<RecordPair>& candidates) {
  // Count ground-truth matches: entity ids present in both tables.
  std::unordered_map<int64_t, size_t> left_count;
  for (size_t i = 0; i < left.num_records(); ++i) {
    left_count[left.entity_id(i)]++;
  }
  const bool dedup = &left == &right;
  size_t total_matches = 0;
  if (dedup) {
    for (const auto& [id, c] : left_count) {
      (void)id;
      total_matches += c * (c - 1) / 2;
    }
  } else {
    std::unordered_map<int64_t, size_t> right_count;
    for (size_t i = 0; i < right.num_records(); ++i) {
      right_count[right.entity_id(i)]++;
    }
    for (const auto& [id, c] : left_count) {
      auto it = right_count.find(id);
      if (it != right_count.end()) total_matches += c * it->second;
    }
  }
  if (total_matches == 0) return 1.0;
  size_t found = 0;
  for (const RecordPair& p : candidates) found += p.is_equivalent ? 1 : 0;
  return static_cast<double>(found) / static_cast<double>(total_matches);
}

}  // namespace learnrisk
