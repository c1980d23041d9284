// Copyright 2026 The LearnRisk Authors
// ER workloads: candidate record pairs with ground truth, plus the
// stratified splitting utilities behind the paper's ratio experiments
// (train : validation : test, e.g. 3:2:5, Sec. 7.1).

#ifndef LEARNRISK_DATA_WORKLOAD_H_
#define LEARNRISK_DATA_WORKLOAD_H_

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "data/table.h"

namespace learnrisk {

/// \brief A candidate pair: indices into the left and right tables plus the
/// ground-truth equivalence flag.
struct RecordPair {
  size_t left;
  size_t right;
  bool is_equivalent;
};

/// \brief An ER workload: two tables (identical for dedup workloads) and the
/// candidate pairs connecting them.
class Workload {
 public:
  Workload() = default;
  Workload(std::string name, std::shared_ptr<const Table> left,
           std::shared_ptr<const Table> right, std::vector<RecordPair> pairs)
      : name_(std::move(name)),
        left_(std::move(left)),
        right_(std::move(right)),
        pairs_(std::move(pairs)) {}

  const std::string& name() const { return name_; }
  const Table& left() const { return *left_; }
  const Table& right() const { return *right_; }
  std::shared_ptr<const Table> left_ptr() const { return left_; }
  std::shared_ptr<const Table> right_ptr() const { return right_; }

  size_t size() const { return pairs_.size(); }
  const RecordPair& pair(size_t i) const { return pairs_[i]; }
  const std::vector<RecordPair>& pairs() const { return pairs_; }

  const Record& LeftRecord(size_t i) const { return left_->record(pairs_[i].left); }
  const Record& RightRecord(size_t i) const { return right_->record(pairs_[i].right); }

  /// \brief Number of ground-truth equivalent pairs.
  size_t num_matches() const;

  /// \brief Ground-truth labels as a vector<bool>-free byte vector
  /// (1 = equivalent).
  std::vector<uint8_t> Labels() const;

  /// \brief New workload holding the selected pair indices (tables shared).
  Workload Subset(const std::vector<size_t>& indices,
                  const std::string& suffix = "subset") const;

 private:
  std::string name_;
  std::shared_ptr<const Table> left_;
  std::shared_ptr<const Table> right_;
  std::vector<RecordPair> pairs_;
};

/// \brief Index sets of a three-way split.
struct WorkloadSplit {
  std::vector<size_t> train;
  std::vector<size_t> valid;
  std::vector<size_t> test;
};

/// \brief Stratified three-way split by ground-truth class.
///
/// Ratios need not sum to 1; they are normalized. Stratification keeps the
/// match rate of each part close to the workload's overall match rate, as the
/// per-ratio experiments in Sec. 7.2 assume.
Result<WorkloadSplit> StratifiedSplit(const Workload& workload,
                                      double train_ratio, double valid_ratio,
                                      double test_ratio, Rng* rng);

}  // namespace learnrisk

#endif  // LEARNRISK_DATA_WORKLOAD_H_
