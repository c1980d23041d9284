// Copyright 2026 The LearnRisk Authors

#include "data/workload.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace learnrisk {

size_t Workload::num_matches() const {
  size_t n = 0;
  for (const RecordPair& p : pairs_) n += p.is_equivalent ? 1 : 0;
  return n;
}

std::vector<uint8_t> Workload::Labels() const {
  std::vector<uint8_t> labels(pairs_.size());
  for (size_t i = 0; i < pairs_.size(); ++i) {
    labels[i] = pairs_[i].is_equivalent ? 1 : 0;
  }
  return labels;
}

Workload Workload::Subset(const std::vector<size_t>& indices,
                          const std::string& suffix) const {
  std::vector<RecordPair> selected;
  selected.reserve(indices.size());
  for (size_t idx : indices) selected.push_back(pairs_[idx]);
  return Workload(name_ + "/" + suffix, left_, right_, std::move(selected));
}

Result<WorkloadSplit> StratifiedSplit(const Workload& workload,
                                      double train_ratio, double valid_ratio,
                                      double test_ratio, Rng* rng) {
  const double total = train_ratio + valid_ratio + test_ratio;
  if (total <= 0.0 || train_ratio < 0.0 || valid_ratio < 0.0 ||
      test_ratio < 0.0) {
    return Status::InvalidArgument(
        StrFormat("invalid split ratios %.3f:%.3f:%.3f", train_ratio,
                  valid_ratio, test_ratio));
  }
  std::vector<size_t> matches;
  std::vector<size_t> unmatches;
  for (size_t i = 0; i < workload.size(); ++i) {
    (workload.pair(i).is_equivalent ? matches : unmatches).push_back(i);
  }
  rng->Shuffle(&matches);
  rng->Shuffle(&unmatches);

  WorkloadSplit split;
  auto distribute = [&](const std::vector<size_t>& stratum) {
    const size_t n = stratum.size();
    const size_t n_train =
        static_cast<size_t>(std::llround(train_ratio / total * static_cast<double>(n)));
    const size_t n_valid =
        static_cast<size_t>(std::llround(valid_ratio / total * static_cast<double>(n)));
    for (size_t i = 0; i < n; ++i) {
      if (i < n_train) {
        split.train.push_back(stratum[i]);
      } else if (i < n_train + n_valid) {
        split.valid.push_back(stratum[i]);
      } else {
        split.test.push_back(stratum[i]);
      }
    }
  };
  distribute(matches);
  distribute(unmatches);
  rng->Shuffle(&split.train);
  rng->Shuffle(&split.valid);
  rng->Shuffle(&split.test);
  return split;
}

}  // namespace learnrisk
