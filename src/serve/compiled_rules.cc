// Copyright 2026 The LearnRisk Authors

#include "serve/compiled_rules.h"

#include <algorithm>
#include <atomic>

#include "common/parallel.h"

namespace learnrisk {
namespace {

constexpr size_t kWordBits = 64;

inline int CountTrailingZeros(uint64_t x) {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_ctzll(x);
#else
  int n = 0;
  while ((x & 1) == 0) {
    x >>= 1;
    ++n;
  }
  return n;
#endif
}

inline int PopCount(uint64_t x) {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_popcountll(x);
#else
  int n = 0;
  while (x != 0) {
    x &= x - 1;
    ++n;
  }
  return n;
#endif
}

inline void SetBit(std::vector<uint64_t>& bits, size_t offset, size_t i) {
  bits[offset + i / kWordBits] |= uint64_t{1} << (i % kWordBits);
}

}  // namespace

CompiledRuleSet::CompiledRuleSet(const std::vector<Rule>& rules) {
  num_rules_ = rules.size();
  words_ = (num_rules_ + kWordBits - 1) / kWordBits;
  live_mask_.assign(words_, 0);
  for (size_t j = 0; j < num_rules_; ++j) SetBit(live_mask_, 0, j);

  // Canonical predicate copies keep the plan minimal: at most one threshold
  // per (rule, metric, direction) regardless of how the tree path was built.
  // Predicates are grouped by sorting on metric, so the plan's memory follows
  // the predicate count, not the largest metric id.
  struct PredRef {
    size_t metric;
    double threshold;
    bool greater;
    uint32_t rule;
  };
  std::vector<PredRef> refs;
  for (size_t j = 0; j < num_rules_; ++j) {
    Rule canonical = rules[j];
    CanonicalizeRule(&canonical);
    for (const Predicate& p : canonical.predicates) {
      refs.push_back(
          {p.metric, p.threshold, p.greater, static_cast<uint32_t>(j)});
    }
  }
  std::stable_sort(refs.begin(), refs.end(),
                   [](const PredRef& a, const PredRef& b) {
                     return a.metric < b.metric;
                   });

  for (auto first = refs.begin(), last = first; first != refs.end();
       first = last) {
    const size_t m = first->metric;
    last = std::find_if(first, refs.end(),
                        [m](const PredRef& p) { return p.metric != m; });
    MetricPlan plan;
    plan.metric = m;
    for (auto p = first; p != last; ++p) {
      plan.thresholds.push_back(p->threshold);
    }
    std::sort(plan.thresholds.begin(), plan.thresholds.end());
    plan.thresholds.erase(
        std::unique(plan.thresholds.begin(), plan.thresholds.end()),
        plan.thresholds.end());

    // Rank r = number of thresholds strictly below the value, so threshold
    // index k is below the value iff k < r. A '>' predicate at index k is
    // violated iff k >= r; a '<=' predicate iff k < r.
    const size_t ranks = plan.thresholds.size() + 1;
    plan.fail.assign(ranks * words_, 0);
    plan.nan_fail.assign(words_, 0);
    for (auto p = first; p != last; ++p) {
      const size_t k = static_cast<size_t>(
          std::lower_bound(plan.thresholds.begin(), plan.thresholds.end(),
                           p->threshold) -
          plan.thresholds.begin());
      if (p->greater) {
        for (size_t r = 0; r <= k; ++r) SetBit(plan.fail, r * words_, p->rule);
      } else {
        for (size_t r = k + 1; r < ranks; ++r) {
          SetBit(plan.fail, r * words_, p->rule);
        }
      }
      SetBit(plan.nan_fail, 0, p->rule);
    }
    plans_.push_back(std::move(plan));
    min_columns_ = m + 1;  // metrics iterate in ascending order
  }
}

void CompiledRuleSet::FailedBits(const double* metric_row,
                                 uint64_t* scratch) const {
  std::fill(scratch, scratch + words_, 0);
  for (const MetricPlan& plan : plans_) {
    const double v = metric_row[plan.metric];
    const uint64_t* fail;
    if (v == v) {
      const size_t rank = static_cast<size_t>(
          std::lower_bound(plan.thresholds.begin(), plan.thresholds.end(), v) -
          plan.thresholds.begin());
      fail = plan.fail.data() + rank * words_;
    } else {
      fail = plan.nan_fail.data();
    }
    for (size_t w = 0; w < words_; ++w) scratch[w] |= fail[w];
  }
}

size_t CompiledRuleSet::ExtractActive(const uint64_t* failed,
                                      uint32_t* out) const {
  size_t count = 0;
  for (size_t w = 0; w < words_; ++w) {
    uint64_t bits = ~failed[w] & live_mask_[w];
    while (bits != 0) {
      out[count++] =
          static_cast<uint32_t>(w * kWordBits) +
          static_cast<uint32_t>(CountTrailingZeros(bits));
      bits &= bits - 1;
    }
  }
  return count;
}

size_t CompiledRuleSet::ActiveRulesInto(const double* metric_row,
                                        uint64_t* scratch,
                                        uint32_t* out) const {
  FailedBits(metric_row, scratch);
  return ExtractActive(scratch, out);
}

size_t CompiledRuleSet::ActiveCount(const double* metric_row,
                                    uint64_t* scratch) const {
  FailedBits(metric_row, scratch);
  size_t count = 0;
  for (size_t w = 0; w < words_; ++w) {
    count += static_cast<size_t>(PopCount(~scratch[w] & live_mask_[w]));
  }
  return count;
}

std::vector<uint32_t> CompiledRuleSet::ActiveRules(
    const double* metric_row) const {
  std::vector<uint64_t> scratch(words_);
  std::vector<uint32_t> out(num_rules_);
  out.resize(ActiveRulesInto(metric_row, scratch.data(), out.data()));
  return out;
}

CsrActivation CompiledRuleSet::EvaluateCsr(
    const FeatureMatrix& features) const {
  const size_t n = features.rows();
  CsrActivation csr;
  csr.offset.resize(n + 1);
  csr.offset[0] = 0;
  if (n == 0) return csr;

  // Two-pass count/prefix/fill layout: pass 1 evaluates each row's
  // failed-rule bitset once, keeps it (words_ words per row — the same
  // order of memory as the CSR output), and popcounts the active set into
  // offset[i + 1]; the serial prefix sum turns counts into final offsets;
  // pass 2 extracts the stored bits straight into each row's final slice.
  // No per-chunk buffers, no stitching copy, no re-evaluation.
  std::vector<uint64_t> failed(n * words_);
  ParallelForRange(n, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      csr.offset[i + 1] =
          ActiveCount(features.row(i), failed.data() + i * words_);
    }
  });
  for (size_t i = 0; i < n; ++i) csr.offset[i + 1] += csr.offset[i];

  csr.rule.resize(csr.offset[n]);
  ParallelForRange(n, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      ExtractActive(failed.data() + i * words_,
                    csr.rule.data() + csr.offset[i]);
    }
  });
  return csr;
}

void CompiledRuleSet::EvaluateInto(
    const FeatureMatrix& features,
    std::vector<std::vector<uint32_t>>* active) const {
  ParallelForRange(features.rows(), [&](size_t begin, size_t end) {
    std::vector<uint64_t> scratch(words_);
    std::vector<uint32_t> row(num_rules_);
    for (size_t i = begin; i < end; ++i) {
      const size_t count =
          ActiveRulesInto(features.row(i), scratch.data(), row.data());
      (*active)[i].assign(row.data(), row.data() + count);
    }
  });
}

bool CompiledRuleSet::AnyActive(const double* metric_row,
                                uint64_t* scratch) const {
  FailedBits(metric_row, scratch);
  for (size_t w = 0; w < words_; ++w) {
    if ((~scratch[w] & live_mask_[w]) != 0) return true;
  }
  return false;
}

double CompiledRuleSet::Coverage(const FeatureMatrix& features) const {
  const size_t n = features.rows();
  if (n == 0) return 0.0;
  std::atomic<size_t> covered{0};
  ParallelForRange(n, [&](size_t begin, size_t end) {
    std::vector<uint64_t> scratch(words_);
    size_t local = 0;
    for (size_t i = begin; i < end; ++i) {
      if (AnyActive(features.row(i), scratch.data())) ++local;
    }
    covered.fetch_add(local, std::memory_order_relaxed);
  });
  return static_cast<double>(covered.load()) / static_cast<double>(n);
}

}  // namespace learnrisk
