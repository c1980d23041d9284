// Copyright 2026 The LearnRisk Authors

#include "reference/raw_metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/string_util.h"

namespace learnrisk {
namespace reference {
namespace {

std::unordered_set<std::string> TokenSet(std::string_view s) {
  std::unordered_set<std::string> set;
  for (std::string& t : Tokenize(s)) set.insert(std::move(t));
  return set;
}

size_t IntersectionSize(const std::unordered_set<std::string>& a,
                        const std::unordered_set<std::string>& b) {
  const auto& small = a.size() <= b.size() ? a : b;
  const auto& large = a.size() <= b.size() ? b : a;
  size_t n = 0;
  for (const std::string& t : small) n += large.count(t);
  return n;
}

std::string Normalize(std::string_view s) { return ToLower(Trim(s)); }

bool EitherMissing(std::string_view a, std::string_view b) {
  return Trim(a).empty() || Trim(b).empty();
}

std::vector<std::string> SplitEntities(std::string_view s) {
  std::vector<std::string> out;
  for (const std::string& part : Split(s, ',')) {
    std::string t = Normalize(part);
    if (!t.empty()) out.push_back(std::move(t));
  }
  return out;
}

}  // namespace

size_t EditDistance(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);
  const size_t n = a.size();
  const size_t m = b.size();
  std::vector<size_t> prev(n + 1);
  std::vector<size_t> cur(n + 1);
  for (size_t i = 0; i <= n; ++i) prev[i] = i;
  for (size_t j = 1; j <= m; ++j) {
    cur[0] = j;
    for (size_t i = 1; i <= n; ++i) {
      const size_t sub = prev[i - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[i] = std::min({prev[i] + 1, cur[i - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[n];
}

double NormalizedEditSimilarity(std::string_view a, std::string_view b) {
  const size_t max_len = std::max(a.size(), b.size());
  if (max_len == 0) return 1.0;
  return 1.0 - static_cast<double>(EditDistance(a, b)) /
                   static_cast<double>(max_len);
}

double JaroSimilarity(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  const size_t window =
      a.size() > 1 || b.size() > 1
          ? std::max(a.size(), b.size()) / 2 - 1
          : 0;
  std::vector<bool> a_matched(a.size(), false);
  std::vector<bool> b_matched(b.size(), false);
  size_t matches = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    const size_t lo = i > window ? i - window : 0;
    const size_t hi = std::min(b.size(), i + window + 1);
    for (size_t j = lo; j < hi; ++j) {
      if (b_matched[j] || a[i] != b[j]) continue;
      a_matched[i] = b_matched[j] = true;
      ++matches;
      break;
    }
  }
  if (matches == 0) return 0.0;
  size_t transpositions = 0;
  size_t j = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!a_matched[i]) continue;
    while (!b_matched[j]) ++j;
    if (a[i] != b[j]) ++transpositions;
    ++j;
  }
  const double m = static_cast<double>(matches);
  return (m / static_cast<double>(a.size()) +
          m / static_cast<double>(b.size()) +
          (m - static_cast<double>(transpositions) / 2.0) / m) /
         3.0;
}

double JaroWinklerSimilarity(std::string_view a, std::string_view b) {
  const double jaro = JaroSimilarity(a, b);
  size_t prefix = 0;
  const size_t limit = std::min({a.size(), b.size(), static_cast<size_t>(4)});
  while (prefix < limit && a[prefix] == b[prefix]) ++prefix;
  return jaro + static_cast<double>(prefix) * 0.1 * (1.0 - jaro);
}

double TokenJaccard(std::string_view a, std::string_view b) {
  const auto sa = TokenSet(a);
  const auto sb = TokenSet(b);
  if (sa.empty() && sb.empty()) return 1.0;
  const size_t inter = IntersectionSize(sa, sb);
  const size_t uni = sa.size() + sb.size() - inter;
  return uni == 0 ? 1.0 : static_cast<double>(inter) / static_cast<double>(uni);
}

double NgramJaccard(std::string_view a, std::string_view b, size_t n) {
  std::unordered_set<std::string> sa;
  std::unordered_set<std::string> sb;
  for (std::string& g : CharNgrams(ToLower(a), n)) sa.insert(std::move(g));
  for (std::string& g : CharNgrams(ToLower(b), n)) sb.insert(std::move(g));
  if (sa.empty() && sb.empty()) return 1.0;
  const size_t inter = IntersectionSize(sa, sb);
  const size_t uni = sa.size() + sb.size() - inter;
  return uni == 0 ? 1.0 : static_cast<double>(inter) / static_cast<double>(uni);
}

double LcsRatio(std::string_view a, std::string_view b) {
  const size_t max_len = std::max(a.size(), b.size());
  if (max_len == 0) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  if (a.size() > b.size()) std::swap(a, b);
  std::vector<size_t> prev(a.size() + 1, 0);
  std::vector<size_t> cur(a.size() + 1, 0);
  for (size_t j = 1; j <= b.size(); ++j) {
    for (size_t i = 1; i <= a.size(); ++i) {
      cur[i] = a[i - 1] == b[j - 1] ? prev[i - 1] + 1
                                    : std::max(prev[i], cur[i - 1]);
    }
    std::swap(prev, cur);
  }
  return static_cast<double>(prev[a.size()]) / static_cast<double>(max_len);
}

double Containment(std::string_view a, std::string_view b) {
  const auto sa = TokenSet(a);
  const auto sb = TokenSet(b);
  if (sa.empty()) return 1.0;
  const size_t inter = IntersectionSize(sa, sb);
  return static_cast<double>(inter) / static_cast<double>(sa.size());
}

double MongeElkan(std::string_view a, std::string_view b) {
  const std::vector<std::string> ta = Tokenize(a);
  const std::vector<std::string> tb = Tokenize(b);
  if (ta.empty() && tb.empty()) return 1.0;
  if (ta.empty() || tb.empty()) return 0.0;
  auto directed = [](const std::vector<std::string>& xs,
                     const std::vector<std::string>& ys) {
    double total = 0.0;
    for (const std::string& x : xs) {
      double best = 0.0;
      for (const std::string& y : ys) {
        best = std::max(best, JaroWinklerSimilarity(x, y));
      }
      total += best;
    }
    return total / static_cast<double>(xs.size());
  };
  return 0.5 * (directed(ta, tb) + directed(tb, ta));
}

double CosineTfIdf(std::string_view a, std::string_view b,
                   const IdfTable& idf) {
  std::unordered_map<std::string, double> wa;
  std::unordered_map<std::string, double> wb;
  for (const std::string& t : Tokenize(a)) wa[t] += 1.0;
  for (const std::string& t : Tokenize(b)) wb[t] += 1.0;
  if (wa.empty() && wb.empty()) return 1.0;
  if (wa.empty() || wb.empty()) return 0.0;
  double dot = 0.0;
  double na = 0.0;
  double nb = 0.0;
  for (auto& [t, tf] : wa) {
    tf *= idf.Idf(t);
    na += tf * tf;
  }
  for (auto& [t, tf] : wb) {
    tf *= idf.Idf(t);
    nb += tf * tf;
  }
  for (const auto& [t, w] : wa) {
    auto it = wb.find(t);
    if (it != wb.end()) dot += w * it->second;
  }
  if (na == 0.0 || nb == 0.0) return 0.0;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

double NumericSimilarity(std::string_view a, std::string_view b) {
  char* end = nullptr;
  const std::string sa(a);
  const std::string sb(b);
  const double x = std::strtod(sa.c_str(), &end);
  if (end == sa.c_str()) return kMissingMetric;
  const double y = std::strtod(sb.c_str(), &end);
  if (end == sb.c_str()) return kMissingMetric;
  const double denom = std::max({std::fabs(x), std::fabs(y), 1.0});
  return std::max(0.0, 1.0 - std::fabs(x - y) / denom);
}

double ExactMatch(std::string_view a, std::string_view b) {
  return ToLower(Trim(a)) == ToLower(Trim(b)) ? 1.0 : 0.0;
}

double NonSubstring(std::string_view a, std::string_view b) {
  if (EitherMissing(a, b)) return kMissingMetric;
  const std::string na = Normalize(a);
  const std::string nb = Normalize(b);
  return Contains(na, nb) || Contains(nb, na) ? 0.0 : 1.0;
}

double NonPrefix(std::string_view a, std::string_view b) {
  if (EitherMissing(a, b)) return kMissingMetric;
  const std::string na = Normalize(a);
  const std::string nb = Normalize(b);
  return StartsWith(na, nb) || StartsWith(nb, na) ? 0.0 : 1.0;
}

double NonSuffix(std::string_view a, std::string_view b) {
  if (EitherMissing(a, b)) return kMissingMetric;
  const std::string na = Normalize(a);
  const std::string nb = Normalize(b);
  return EndsWith(na, nb) || EndsWith(nb, na) ? 0.0 : 1.0;
}

double AbbrNonSubstring(std::string_view a, std::string_view b) {
  if (EitherMissing(a, b)) return kMissingMetric;
  const std::string na = Normalize(a);
  const std::string nb = Normalize(b);
  const std::string aa = FirstLetterAbbreviation(na);
  const std::string ab = FirstLetterAbbreviation(nb);
  const bool related = Contains(nb, aa) || Contains(na, ab) ||
                       Contains(ab, aa) || Contains(aa, ab);
  return related ? 0.0 : 1.0;
}

double DiffCardinality(std::string_view a, std::string_view b) {
  if (EitherMissing(a, b)) return kMissingMetric;
  return SplitEntities(a).size() != SplitEntities(b).size() ? 1.0 : 0.0;
}

bool EntityNamesEquivalent(std::string_view a, std::string_view b) {
  const std::vector<std::string> ta = Tokenize(a);
  const std::vector<std::string> tb = Tokenize(b);
  if (ta.empty() || tb.empty()) return ta.empty() && tb.empty();
  // Last tokens (surnames) must agree up to a small typo.
  const std::string& la = ta.back();
  const std::string& lb = tb.back();
  if (NormalizedEditSimilarity(la, lb) < 0.8) return false;
  // Leading tokens must be pairwise compatible: equal, or one is the other's
  // initial ("michael" ~ "m").
  const size_t heads = std::min(ta.size(), tb.size()) - 1;
  for (size_t i = 0; i < heads; ++i) {
    const std::string& x = ta[i];
    const std::string& y = tb[i];
    if (x == y) continue;
    if (x.size() == 1 && y.size() >= 1 && x[0] == y[0]) continue;
    if (y.size() == 1 && x.size() >= 1 && x[0] == y[0]) continue;
    return false;
  }
  return true;
}

double DistinctEntityCount(std::string_view a, std::string_view b) {
  if (EitherMissing(a, b)) return kMissingMetric;
  const std::vector<std::string> ea = SplitEntities(a);
  const std::vector<std::string> eb = SplitEntities(b);
  std::vector<bool> b_used(eb.size(), false);
  size_t matched_a = 0;
  for (const std::string& x : ea) {
    for (size_t j = 0; j < eb.size(); ++j) {
      if (b_used[j]) continue;
      if (EntityNamesEquivalent(x, eb[j])) {
        b_used[j] = true;
        ++matched_a;
        break;
      }
    }
  }
  const size_t unmatched_a = ea.size() - matched_a;
  size_t unmatched_b = 0;
  for (bool used : b_used) unmatched_b += used ? 0 : 1;
  return static_cast<double>(unmatched_a + unmatched_b);
}

double DistinctEntity(std::string_view a, std::string_view b) {
  const double count = DistinctEntityCount(a, b);
  if (count == kMissingMetric) return kMissingMetric;
  const double total = static_cast<double>(SplitEntities(a).size() +
                                           SplitEntities(b).size());
  return total == 0.0 ? 0.0 : count / total;
}

double DiffKeyTokenCount(std::string_view a, std::string_view b,
                         const IdfTable& idf, double min_idf) {
  if (EitherMissing(a, b)) return kMissingMetric;
  std::unordered_set<std::string> ta;
  std::unordered_set<std::string> tb;
  for (std::string& t : Tokenize(a)) ta.insert(std::move(t));
  for (std::string& t : Tokenize(b)) tb.insert(std::move(t));
  size_t count = 0;
  for (const std::string& t : ta) {
    if (tb.count(t) == 0 && idf.IsKeyToken(t, min_idf)) ++count;
  }
  for (const std::string& t : tb) {
    if (ta.count(t) == 0 && idf.IsKeyToken(t, min_idf)) ++count;
  }
  return static_cast<double>(count);
}

double DiffKeyToken(std::string_view a, std::string_view b,
                    const IdfTable& idf, double min_idf) {
  const double count = DiffKeyTokenCount(a, b, idf, min_idf);
  if (count == kMissingMetric) return kMissingMetric;
  return count / (count + 1.0);
}

double NumericUnequal(std::string_view a, std::string_view b) {
  const std::string sa(Trim(a));
  const std::string sb(Trim(b));
  char* end = nullptr;
  const double x = std::strtod(sa.c_str(), &end);
  if (end == sa.c_str() || sa.empty()) return kMissingMetric;
  const double y = std::strtod(sb.c_str(), &end);
  if (end == sb.c_str() || sb.empty()) return kMissingMetric;
  return x == y ? 0.0 : 1.0;
}

double EvaluateRaw(const MetricSuite& suite, const Record& left,
                   const Record& right, size_t m) {
  const MetricSpec& spec = suite.specs()[m];
  const std::string& a = left.value(spec.attribute);
  const std::string& b = right.value(spec.attribute);
  const IdfTable* idf = suite.idf(spec.attribute);
  // String metrics on missing values are undefined; numeric metrics handle
  // parse failure themselves.
  const bool missing = Trim(a).empty() || Trim(b).empty();
  switch (spec.kind) {
    case MetricKind::kEditSim:
      return missing ? kMissingMetric : NormalizedEditSimilarity(a, b);
    case MetricKind::kJaroWinkler:
      return missing ? kMissingMetric : JaroWinklerSimilarity(a, b);
    case MetricKind::kTokenJaccard:
      return missing ? kMissingMetric : TokenJaccard(a, b);
    case MetricKind::kNgramJaccard:
      return missing ? kMissingMetric : NgramJaccard(a, b);
    case MetricKind::kLcs:
      return missing ? kMissingMetric : LcsRatio(a, b);
    case MetricKind::kCosineTfIdf:
      if (missing) return kMissingMetric;
      return idf != nullptr ? CosineTfIdf(a, b, *idf) : kMissingMetric;
    case MetricKind::kMongeElkan:
      return missing ? kMissingMetric : MongeElkan(a, b);
    case MetricKind::kContainment:
      return missing ? kMissingMetric : Containment(a, b);
    case MetricKind::kNumericSim:
      return NumericSimilarity(a, b);
    case MetricKind::kExact:
      return missing ? kMissingMetric : ExactMatch(a, b);
    case MetricKind::kNonSubstring:
      return NonSubstring(a, b);
    case MetricKind::kNonPrefix:
      return NonPrefix(a, b);
    case MetricKind::kNonSuffix:
      return NonSuffix(a, b);
    case MetricKind::kAbbrNonSubstring:
      return AbbrNonSubstring(a, b);
    case MetricKind::kDiffCardinality:
      return DiffCardinality(a, b);
    case MetricKind::kDistinctEntity:
      return DistinctEntity(a, b);
    case MetricKind::kDiffKeyToken:
      if (idf == nullptr) return kMissingMetric;
      return DiffKeyToken(a, b, *idf, suite.min_key_idf(spec.attribute));
    case MetricKind::kNumericUnequal:
      return NumericUnequal(a, b);
    case MetricKind::kNotEqual:
      return missing ? kMissingMetric : 1.0 - ExactMatch(a, b);
  }
  return kMissingMetric;
}

std::vector<double> EvaluateRawPair(const MetricSuite& suite,
                                    const Record& left, const Record& right) {
  std::vector<double> out(suite.num_metrics());
  EvaluateRawPairInto(suite, left, right, out.data());
  return out;
}

void EvaluateRawPairInto(const MetricSuite& suite, const Record& left,
                         const Record& right, double* out) {
  for (size_t m = 0; m < suite.num_metrics(); ++m) {
    out[m] = EvaluateRaw(suite, left, right, m);
  }
}

}  // namespace reference
}  // namespace learnrisk
