// Copyright 2026 The LearnRisk Authors
// Reference metric kernels over raw attribute strings (paper Sec. 5.1,
// Fig. 5). Every call re-derives its record-level artifacts (tokens,
// normalized strings, tf-idf weights) from the raw strings. MetricSuite's
// prepared kernels (metrics/metric_suite.h, metrics/string_kernels.h) must
// match these bit-for-bit (tests/prepared_parity_test.cc).
//
// Similarity metrics return a score in [0, 1] (1 = identical); difference
// metrics directly capture evidence of *inequivalence*, in [0, 1] or as small
// counts. kMissingMetric marks a missing input.

#ifndef LEARNRISK_REFERENCE_RAW_METRICS_H_
#define LEARNRISK_REFERENCE_RAW_METRICS_H_

#include <string_view>
#include <vector>

#include "data/table.h"
#include "metrics/metric_suite.h"

namespace learnrisk {
namespace reference {

// --- Similarity metrics -----------------------------------------------------

/// \brief Levenshtein distance (unit costs).
size_t EditDistance(std::string_view a, std::string_view b);

/// \brief 1 - EditDistance / max(|a|, |b|); 1.0 for two empty strings.
double NormalizedEditSimilarity(std::string_view a, std::string_view b);

/// \brief Jaro similarity.
double JaroSimilarity(std::string_view a, std::string_view b);

/// \brief Jaro-Winkler similarity (prefix scale 0.1, max prefix 4).
double JaroWinklerSimilarity(std::string_view a, std::string_view b);

/// \brief Jaccard index of the token sets (canonical tokenization).
double TokenJaccard(std::string_view a, std::string_view b);

/// \brief Jaccard index of character n-gram multisets (default trigrams).
double NgramJaccard(std::string_view a, std::string_view b, size_t n = 3);

/// \brief Longest-common-subsequence length / max length (the LCS metric of
/// the paper's Fig. 6 example rules).
double LcsRatio(std::string_view a, std::string_view b);

/// \brief |A ∩ B| / |A| over token sets (asymmetric containment of a in b).
double Containment(std::string_view a, std::string_view b);

/// \brief Monge-Elkan: mean over tokens of `a` of the best Jaro-Winkler match
/// in `b`, symmetrized by averaging both directions.
double MongeElkan(std::string_view a, std::string_view b);

/// \brief TF-IDF cosine similarity of two values under an IdfTable.
double CosineTfIdf(std::string_view a, std::string_view b,
                   const IdfTable& idf);

/// \brief Similarity of two numeric strings: 1 - |x-y| / max(|x|, |y|, 1);
/// kMissingMetric if either fails to parse.
double NumericSimilarity(std::string_view a, std::string_view b);

/// \brief 1.0 if the trimmed lower-cased values are equal, else 0.0.
double ExactMatch(std::string_view a, std::string_view b);

// --- Entity-name difference metrics (Fig. 5 left branch) -------------------

/// \brief 1 if neither normalized value is a substring of the other.
double NonSubstring(std::string_view a, std::string_view b);

/// \brief 1 if neither normalized value is a prefix of the other.
double NonPrefix(std::string_view a, std::string_view b);

/// \brief 1 if neither normalized value is a suffix of the other.
double NonSuffix(std::string_view a, std::string_view b);

/// \brief 1 if the first-letter abbreviation of neither value is a substring
/// of the other value (nor of its abbreviation). Catches "vldb" vs "very
/// large data bases".
double AbbrNonSubstring(std::string_view a, std::string_view b);

// --- Entity-set difference metrics (Fig. 5 middle branch) ------------------

/// \brief 1 if the two comma-separated sets have different cardinality
/// (paper: different author counts signal different papers).
double DiffCardinality(std::string_view a, std::string_view b);

/// \brief Number of entities present in exactly one of the two sets, using
/// abbreviation-aware entity equivalence; normalized by the total entity
/// count so the result stays in [0, 1]. The raw count drives Example 1 of the
/// paper ("R Schneider" missing from one author list).
double DistinctEntity(std::string_view a, std::string_view b);

/// \brief Raw count version of DistinctEntity (unnormalized).
double DistinctEntityCount(std::string_view a, std::string_view b);

/// \brief True iff two entity names refer to the same entity allowing
/// first-name abbreviation ("m franklin" ~ "michael franklin") and small
/// typos in the last token.
bool EntityNamesEquivalent(std::string_view a, std::string_view b);

// --- Text difference metrics (Fig. 5 right branch) -------------------------

/// \brief Number of *key* (high-IDF, discriminating) tokens contained in
/// exactly one of the two values, normalized into [0, 1] as n / (n + 1).
/// Catches a model code or protocol name present on only one side.
double DiffKeyToken(std::string_view a, std::string_view b,
                    const IdfTable& idf, double min_idf);

/// \brief Raw count version of DiffKeyToken.
double DiffKeyTokenCount(std::string_view a, std::string_view b,
                         const IdfTable& idf, double min_idf);

// --- Numeric difference -----------------------------------------------------

/// \brief 1 if both parse and differ; 0 if both parse and are equal;
/// kMissingMetric otherwise. Implements rules like Eq. 1 (different years).
double NumericUnequal(std::string_view a, std::string_view b);

// --- Suite-level evaluation -------------------------------------------------

/// \brief Value of `suite`'s metric `m` on a record pair, dispatched on the
/// metric's kind and read through the suite's fitted IDF tables.
/// MetricSuite::EvaluatePrepared must equal it bit-for-bit.
double EvaluateRaw(const MetricSuite& suite, const Record& left,
                   const Record& right, size_t m);

/// \brief Full metric vector for a record pair.
std::vector<double> EvaluateRawPair(const MetricSuite& suite,
                                    const Record& left, const Record& right);

/// \brief Writes the full metric vector into `out` (capacity >=
/// suite.num_metrics()).
void EvaluateRawPairInto(const MetricSuite& suite, const Record& left,
                         const Record& right, double* out);

}  // namespace reference
}  // namespace learnrisk

#endif  // LEARNRISK_REFERENCE_RAW_METRICS_H_
