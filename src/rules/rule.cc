// Copyright 2026 The LearnRisk Authors

#include "rules/rule.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/string_util.h"

namespace learnrisk {
namespace {

// Sorted by (metric, direction, threshold) with one predicate left per
// (metric, direction): the tightest threshold subsumes the rest because
// v > t for all t in a set iff v > max(t), and v <= t for all t iff
// v <= min(t).
std::vector<Predicate> CanonicalPredicates(std::vector<Predicate> preds) {
  std::sort(preds.begin(), preds.end(),
            [](const Predicate& a, const Predicate& b) {
              if (a.metric != b.metric) return a.metric < b.metric;
              if (a.greater != b.greater) return a.greater < b.greater;
              return a.threshold < b.threshold;
            });
  std::vector<Predicate> out;
  for (Predicate& p : preds) {
    if (!out.empty() && out.back().metric == p.metric &&
        out.back().greater == p.greater) {
      Predicate& kept = out.back();
      kept.threshold = p.greater ? std::max(kept.threshold, p.threshold)
                                 : std::min(kept.threshold, p.threshold);
      continue;
    }
    out.push_back(std::move(p));
  }
  return out;
}

// Key text for predicates already in canonical form.
std::string KeyOfCanonical(const std::vector<Predicate>& preds) {
  std::string key;
  for (const Predicate& p : preds) {
    key += StrFormat("%zu%c%.6f;", p.metric, p.greater ? '>' : '<',
                     p.threshold);
  }
  return key;
}

}  // namespace

const char* RuleClassToString(RuleClass c) {
  return c == RuleClass::kMatching ? "matching" : "unmatching";
}

std::string Predicate::ToString() const {
  return StrFormat("%s %s %.3f", metric_name.c_str(), greater ? ">" : "<=",
                   threshold);
}

std::string Rule::ToString() const {
  std::string out;
  for (size_t i = 0; i < predicates.size(); ++i) {
    if (i > 0) out += " AND ";
    out += predicates[i].ToString();
  }
  out += " -> ";
  out += RuleClassToString(label);
  out += StrFormat(" [support=%zu, impurity=%.3f, match_rate=%.3f]", support,
                   impurity, match_rate);
  return out;
}

std::string Rule::ConditionKey() const {
  return KeyOfCanonical(CanonicalPredicates(predicates));
}

void CanonicalizeRule(Rule* rule) {
  rule->predicates = CanonicalPredicates(std::move(rule->predicates));
}

std::vector<Rule> DeduplicateRules(std::vector<Rule> rules) {
  std::unordered_map<std::string, size_t> best;  // key -> index in output
  std::vector<Rule> out;
  for (Rule& rule : rules) {
    CanonicalizeRule(&rule);
    // Already canonical, so the key can skip ConditionKey's re-sort.
    const std::string key = KeyOfCanonical(rule.predicates);
    auto it = best.find(key);
    if (it == best.end()) {
      best.emplace(key, out.size());
      out.push_back(std::move(rule));
    } else if (rule.support > out[it->second].support) {
      out[it->second] = std::move(rule);
    }
  }
  return out;
}

}  // namespace learnrisk
