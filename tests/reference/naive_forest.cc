// Copyright 2026 The LearnRisk Authors

#include "reference/naive_forest.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

namespace learnrisk {
namespace reference {

std::vector<double> OneSidedForestNaive::CandidateThresholds(
    const FeatureMatrix& features, size_t metric, size_t num_thresholds) {
  std::vector<double> values;
  values.reserve(features.rows());
  for (size_t i = 0; i < features.rows(); ++i) {
    values.push_back(features.at(i, metric));
  }
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  if (values.size() < 2) return {};
  std::vector<double> thresholds;
  if (values.size() <= num_thresholds + 1) {
    // Midpoints between every adjacent pair of distinct values.
    for (size_t i = 0; i + 1 < values.size(); ++i) {
      thresholds.push_back(0.5 * (values[i] + values[i + 1]));
    }
  } else {
    // Quantile grid midpoints.
    for (size_t q = 1; q <= num_thresholds; ++q) {
      const size_t idx =
          q * (values.size() - 1) / (num_thresholds + 1);
      if (idx + 1 < values.size()) {
        thresholds.push_back(0.5 * (values[idx] + values[idx + 1]));
      }
    }
    std::sort(thresholds.begin(), thresholds.end());
    thresholds.erase(std::unique(thresholds.begin(), thresholds.end()),
                     thresholds.end());
  }
  return thresholds;
}

namespace {

struct NodeCounts {
  size_t matches = 0;
  size_t unmatches = 0;
  size_t size() const { return matches + unmatches; }
  double match_rate() const {
    return size() == 0 ? 0.0
                       : static_cast<double>(matches) /
                             static_cast<double>(size());
  }
  double Impurity() const {
    return WeightedGini(static_cast<double>(matches),
                        static_cast<double>(unmatches), 1.0);
  }
};

struct CandidateSplit {
  size_t metric = 0;
  double threshold = 0.0;
  double score = std::numeric_limits<double>::infinity();
};

struct NodeTask {
  std::vector<size_t> rows;
  std::vector<Predicate> path;
  size_t depth = 0;
};

class ForestBuilder {
 public:
  ForestBuilder(const FeatureMatrix& features,
                const std::vector<uint8_t>& labels,
                const OneSidedForestOptions& options)
      : features_(features), labels_(labels), options_(options) {
    thresholds_.resize(features_.cols());
    for (size_t m = 0; m < features_.cols(); ++m) {
      thresholds_[m] = OneSidedForestNaive::CandidateThresholds(
          features_, m, options_.num_thresholds);
    }
  }

  std::vector<Rule> Build() {
    NodeTask root;
    root.rows.resize(features_.rows());
    for (size_t i = 0; i < features_.rows(); ++i) root.rows[i] = i;
    Expand(std::move(root));
    return DeduplicateRules(std::move(rules_));
  }

 private:
  NodeCounts Count(const std::vector<size_t>& rows) const {
    NodeCounts counts;
    for (size_t r : rows) {
      if (labels_[r]) {
        ++counts.matches;
      } else {
        ++counts.unmatches;
      }
    }
    return counts;
  }

  void EmitRule(const std::vector<Predicate>& path, const NodeCounts& counts) {
    Rule rule;
    rule.predicates = path;
    rule.support = counts.size();
    rule.match_rate = counts.match_rate();
    rule.impurity = counts.Impurity();
    rule.label = rule.match_rate > 0.5 ? RuleClass::kMatching
                                       : RuleClass::kUnmatching;
    rules_.push_back(std::move(rule));
  }

  // Finds the best threshold for (metric, match_weight) on the node's rows.
  CandidateSplit BestSplit(const std::vector<size_t>& rows, size_t metric,
                           double match_weight) const {
    CandidateSplit best;
    best.metric = metric;
    const std::vector<double>& thresholds = thresholds_[metric];
    if (thresholds.empty()) return best;
    // Bucket counts: bin[k] = rows with thresholds[k-1] < value <=
    // thresholds[k]; bin[T] = above all thresholds.
    const size_t T = thresholds.size();
    std::vector<size_t> bin_match(T + 1, 0);
    std::vector<size_t> bin_unmatch(T + 1, 0);
    for (size_t r : rows) {
      const double v = features_.at(r, metric);
      const size_t k = static_cast<size_t>(
          std::lower_bound(thresholds.begin(), thresholds.end(), v) -
          thresholds.begin());
      if (labels_[r]) {
        ++bin_match[k];
      } else {
        ++bin_unmatch[k];
      }
    }
    double lm = 0.0;
    double lu = 0.0;
    const NodeCounts total = Count(rows);
    for (size_t k = 0; k < T; ++k) {
      lm += static_cast<double>(bin_match[k]);
      lu += static_cast<double>(bin_unmatch[k]);
      const double rm = static_cast<double>(total.matches) - lm;
      const double ru = static_cast<double>(total.unmatches) - lu;
      const double left_size = lm + lu;
      const double right_size = rm + ru;
      if (left_size < 1.0 || right_size < 1.0) continue;
      const double score = std::min(
          OneSidedGiniSide(left_size, WeightedGini(lm, lu, match_weight),
                           options_.lambda),
          OneSidedGiniSide(right_size, WeightedGini(rm, ru, match_weight),
                           options_.lambda));
      if (score < best.score) {
        best.threshold = thresholds[k];
        best.score = score;
      }
    }
    return best;
  }

  void Expand(NodeTask node) {
    if (expansions_ >= options_.max_expansions) return;
    ++expansions_;

    const NodeCounts counts = Count(node.rows);
    if (counts.size() < 2 * options_.min_leaf_size) return;
    if (node.depth >= options_.max_depth) return;
    // Note: no purity early-out here. With ER's class imbalance the *root*
    // routinely satisfies the unweighted purity threshold already (e.g. 1.7%
    // matches on AB), yet splitting it is exactly how matching rules are
    // found; Algorithm 1 terminates via the tau_min/tau_max conditions below.

    // Score every (metric, class-weight) partition of this node.
    std::vector<CandidateSplit> candidates;
    for (size_t m = 0; m < features_.cols(); ++m) {
      for (double w : {1.0, options_.match_class_weight}) {
        CandidateSplit c = BestSplit(node.rows, m, w);
        if (std::isfinite(c.score)) candidates.push_back(c);
      }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const CandidateSplit& a, const CandidateSplit& b) {
                return a.score < b.score;
              });
    // The two weightings often choose the same physical split; drop repeats.
    std::vector<CandidateSplit> chosen;
    for (const CandidateSplit& c : candidates) {
      bool duplicate = false;
      for (const CandidateSplit& k : chosen) {
        if (k.metric == c.metric && k.threshold == c.threshold) {
          duplicate = true;
          break;
        }
      }
      if (!duplicate) chosen.push_back(c);
      if (chosen.size() >= options_.beam_width) break;
    }

    for (const CandidateSplit& split : chosen) {
      std::vector<size_t> left_rows;
      std::vector<size_t> right_rows;
      for (size_t r : node.rows) {
        if (features_.at(r, split.metric) <= split.threshold) {
          left_rows.push_back(r);
        } else {
          right_rows.push_back(r);
        }
      }
      const NodeCounts left = Count(left_rows);
      const NodeCounts right = Count(right_rows);
      const double tau_l = left.Impurity();
      const double tau_r = right.Impurity();

      Predicate left_pred{split.metric,
                          features_.column_names.empty()
                              ? "m" + std::to_string(split.metric)
                              : features_.column_names[split.metric],
                          /*greater=*/false, split.threshold};
      Predicate right_pred = left_pred;
      right_pred.greater = true;

      auto path_with = [&](const Predicate& p) {
        std::vector<Predicate> path = node.path;
        path.push_back(p);
        return path;
      };

      // Emit every sufficiently pure, sufficiently large side as a rule.
      if (tau_l <= options_.impurity_threshold &&
          left.size() >= options_.min_leaf_size) {
        EmitRule(path_with(left_pred), left);
      }
      if (tau_r <= options_.impurity_threshold &&
          right.size() >= options_.min_leaf_size) {
        EmitRule(path_with(right_pred), right);
      }

      // Algorithm 1 recursion: stop when neither side is pure (tau_min >=
      // tau) or both are (tau_max < tau); otherwise descend into the impurer
      // side.
      const double tau_min = std::min(tau_l, tau_r);
      const double tau_max = std::max(tau_l, tau_r);
      if (tau_min >= options_.impurity_threshold ||
          tau_max < options_.impurity_threshold) {
        continue;
      }
      NodeTask child;
      child.depth = node.depth + 1;
      if (tau_l > tau_r) {
        child.rows = std::move(left_rows);
        child.path = path_with(left_pred);
      } else {
        child.rows = std::move(right_rows);
        child.path = path_with(right_pred);
      }
      Expand(std::move(child));
    }
  }

  const FeatureMatrix& features_;
  const std::vector<uint8_t>& labels_;
  const OneSidedForestOptions& options_;
  std::vector<std::vector<double>> thresholds_;
  std::vector<Rule> rules_;
  size_t expansions_ = 0;
};

}  // namespace

Result<std::vector<Rule>> OneSidedForestNaive::Generate(
    const FeatureMatrix& features, const std::vector<uint8_t>& labels,
    const OneSidedForestOptions& options) {
  if (features.rows() != labels.size()) {
    return Status::InvalidArgument("feature rows != label count");
  }
  if (features.rows() == 0) {
    return Status::InvalidArgument("empty training set");
  }
  if (options.lambda < 0.0 || options.lambda > 1.0) {
    return Status::InvalidArgument("lambda must be in [0, 1]");
  }
  ForestBuilder builder(features, labels, options);
  return builder.Build();
}

}  // namespace reference
}  // namespace learnrisk
