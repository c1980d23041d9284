// Copyright 2026 The LearnRisk Authors
// Interpretable one-sided rules: the representation of risk features
// (paper Sec. 5). A rule is a conjunction of threshold predicates over basic
// metrics plus a class; "one-sided" means satisfying the condition implies
// the class with high probability, while violating it implies nothing.

#ifndef LEARNRISK_RULES_RULE_H_
#define LEARNRISK_RULES_RULE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "metrics/metric_suite.h"

namespace learnrisk {

/// \brief The class a rule asserts for pairs matching its condition.
enum class RuleClass { kMatching, kUnmatching };

/// \brief "matching" / "unmatching".
const char* RuleClassToString(RuleClass c);

/// \brief One threshold comparison over a metric column.
struct Predicate {
  size_t metric = 0;        ///< column in the metric feature matrix
  std::string metric_name;  ///< e.g. "title.lcs" — used in rule text
  bool greater = false;     ///< true: value > threshold; false: value <= threshold
  double threshold = 0.0;

  /// \brief True iff this predicate holds on the feature row.
  bool Matches(const double* features) const {
    const double v = features[metric];
    return greater ? v > threshold : v <= threshold;
  }

  /// \brief "title.lcs <= 0.711".
  std::string ToString() const;
};

/// \brief A conjunction of predicates implying a class (one leaf of a
/// one-sided decision tree, Fig. 6).
struct Rule {
  std::vector<Predicate> predicates;
  RuleClass label = RuleClass::kUnmatching;
  /// Unweighted Gini impurity of the covered training pairs.
  double impurity = 0.0;
  /// Number of training pairs covered.
  size_t support = 0;
  /// Fraction of ground-truth matches among covered training pairs; the risk
  /// model uses this as the feature's expectation prior (Sec. 6.2.1).
  double match_rate = 0.0;

  /// \brief True iff every predicate holds (pairs "having" this risk
  /// feature).
  bool Matches(const double* features) const {
    for (const Predicate& p : predicates) {
      if (!p.Matches(features)) return false;
    }
    return true;
  }

  /// \brief "year.numeric_unequal > 0.500 -> unmatching [support=812,
  /// impurity=0.02]".
  std::string ToString() const;

  /// \brief Canonical key of the condition (metric ids, directions,
  /// thresholds rounded to 1e-6) for redundancy removal. The key is computed
  /// over the canonical predicate form, so it is independent of predicate
  /// order and of redundant thresholds on the same metric/direction.
  std::string ConditionKey() const;
};

/// \brief Rewrites the rule's condition into canonical form: predicates
/// sorted by (metric, direction, threshold) with redundant thresholds on the
/// same metric/direction merged — the tightest wins (max threshold for '>',
/// min for '<='). Semantics are unchanged; tree paths that test the same
/// metric repeatedly collapse to one predicate per direction.
void CanonicalizeRule(Rule* rule);

/// \brief Canonicalizes every rule in place and drops rules with duplicate
/// conditions, keeping the highest-support instance of each condition. Order
/// of first appearance is preserved. Canonicalization makes the key
/// order-independent, so permuted or threshold-redundant variants of the
/// same condition deduplicate too.
std::vector<Rule> DeduplicateRules(std::vector<Rule> rules);

}  // namespace learnrisk

#endif  // LEARNRISK_RULES_RULE_H_
