// Copyright 2026 The LearnRisk Authors
// Compiled (columnar) evaluation plan for one-sided rule sets — the first
// layer of the online-serving subsystem. Lowers a rule set's threshold
// predicates into per-metric sorted threshold tables: a metric value's rank
// (found by binary search) selects a precomputed "failed rules" bitset, so a
// pair's active-rule set is the complement of a handful of bitset ORs instead
// of the naive rules x predicates scan with per-pair vector growth. Activation
// is bit-identical to Rule::Matches over the same rules.

#ifndef LEARNRISK_SERVE_COMPILED_RULES_H_
#define LEARNRISK_SERVE_COMPILED_RULES_H_

#include <cstdint>
#include <vector>

#include "metrics/metric_suite.h"
#include "rules/rule.h"

namespace learnrisk {

/// \brief CSR layout of per-pair active rules: row i's rules are
/// rule[offset[i], offset[i+1]), ascending within a row. The allocation-free
/// counterpart of RiskActivation::active.
struct CsrActivation {
  std::vector<size_t> offset;  ///< [rows + 1]
  std::vector<uint32_t> rule;  ///< [nnz]

  size_t rows() const { return offset.empty() ? 0 : offset.size() - 1; }
  size_t row_size(size_t i) const { return offset[i + 1] - offset[i]; }
  const uint32_t* row(size_t i) const { return rule.data() + offset[i]; }
};

/// \brief An immutable columnar predicate plan compiled from a rule set.
///
/// Build canonicalizes a copy of each rule (predicates merged per
/// metric/direction, see CanonicalizeRule) so the plan holds at most two
/// thresholds per (rule, metric). For each metric column touched by any
/// predicate the plan stores the sorted unique thresholds plus, for every
/// rank a value can take among them, the bitset of rules that fail at that
/// rank. Evaluating a pair is then: per metric, one binary search and one
/// bitset OR; active rules are the bits never set. Rule indices are preserved,
/// so the result equals a per-rule Rule::Matches scan.
class CompiledRuleSet {
 public:
  explicit CompiledRuleSet(const std::vector<Rule>& rules);

  size_t num_rules() const { return num_rules_; }
  /// \brief Words per rule bitset (for sizing external scratch).
  size_t num_words() const { return words_; }
  /// \brief Minimum feature-matrix width the plan reads (highest referenced
  /// metric column + 1); rows narrower than this cannot be evaluated.
  size_t min_feature_columns() const { return min_columns_; }

  /// \brief Writes the active rule indices (ascending) for one metric row
  /// into `out` (capacity >= num_rules()) and returns the count. `scratch`
  /// must hold num_words() elements; both buffers are fully overwritten, so
  /// they can be reused across calls without clearing.
  size_t ActiveRulesInto(const double* metric_row, uint64_t* scratch,
                         uint32_t* out) const;

  /// \brief Number of active rules for one metric row without extracting
  /// them (one popcount per bitset word). `scratch` as in ActiveRulesInto;
  /// on return it holds the row's failed-rule bits, which ExtractActive-
  /// style consumers (EvaluateCsr's fill pass) can decode later.
  size_t ActiveCount(const double* metric_row, uint64_t* scratch) const;

  /// \brief Allocating convenience wrapper around ActiveRulesInto.
  std::vector<uint32_t> ActiveRules(const double* metric_row) const;

  /// \brief Evaluates every row of the feature matrix into a CSR activation
  /// with a two-pass count/prefix/fill layout: a chunk-parallel pass
  /// evaluates and keeps each row's failed-rule bitset and popcounts its
  /// active set, a serial prefix sum fixes the offsets, and a second
  /// chunk-parallel pass extracts the stored bits into each row's final
  /// slice in place (no per-chunk buffers, no stitching copy, each row's
  /// plan evaluated exactly once).
  CsrActivation EvaluateCsr(const FeatureMatrix& features) const;

  /// \brief Fills active->at(i) with row i's active rules, chunk-parallel,
  /// with exactly one exact-size allocation per row (no push_back growth).
  /// `active` must already have features.rows() entries.
  void EvaluateInto(const FeatureMatrix& features,
                    std::vector<std::vector<uint32_t>>* active) const;

  /// \brief Fraction of rows with at least one active rule (chunk-parallel;
  /// equals RiskFeatureSet::Coverage on the same rules).
  double Coverage(const FeatureMatrix& features) const;

 private:
  struct MetricPlan {
    size_t metric = 0;                ///< feature-matrix column
    std::vector<double> thresholds;   ///< sorted unique
    /// (thresholds.size() + 1) bitsets of words_ words each: fail[r] is the
    /// set of rules with a predicate on this metric that is violated when the
    /// value's rank (count of thresholds < value) is r.
    std::vector<uint64_t> fail;
    /// Rules with any predicate on this metric; a NaN value fails them all
    /// (both `v > t` and `v <= t` are false for NaN), matching
    /// Predicate::Matches.
    std::vector<uint64_t> nan_fail;
  };

  /// \brief ORs the failed-rule bitsets of every metric plan into scratch.
  void FailedBits(const double* metric_row, uint64_t* scratch) const;
  /// \brief Writes the ascending indices of the bits NOT set in `failed`
  /// (among live rules) into `out`; returns the count.
  size_t ExtractActive(const uint64_t* failed, uint32_t* out) const;
  /// \brief True iff any rule survives FailedBits (coverage fast path).
  bool AnyActive(const double* metric_row, uint64_t* scratch) const;

  size_t num_rules_ = 0;
  size_t words_ = 0;
  size_t min_columns_ = 0;
  std::vector<MetricPlan> plans_;
  std::vector<uint64_t> live_mask_;  ///< bits [0, num_rules_) set
};

}  // namespace learnrisk

#endif  // LEARNRISK_SERVE_COMPILED_RULES_H_
