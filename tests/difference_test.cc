// Copyright 2026 The LearnRisk Authors
// Unit tests for the reference difference metrics (Sec. 5.1, Fig. 5),
// including the Example 1 scenario from the paper.

#include "reference/raw_metrics.h"

#include <gtest/gtest.h>

namespace learnrisk {
namespace reference {
namespace {

TEST(NonSubstringTest, SubstringScoresZero) {
  EXPECT_DOUBLE_EQ(NonSubstring("sigmod", "sigmod record"), 0.0);
  EXPECT_DOUBLE_EQ(NonSubstring("sigmod record", "sigmod"), 0.0);
}

TEST(NonSubstringTest, UnrelatedScoresOne) {
  EXPECT_DOUBLE_EQ(NonSubstring("sigmod", "vldb"), 1.0);
}

TEST(NonSubstringTest, CaseInsensitive) {
  EXPECT_DOUBLE_EQ(NonSubstring("SIGMOD", "sigmod record"), 0.0);
}

TEST(NonSubstringTest, MissingIsSentinel) {
  EXPECT_DOUBLE_EQ(NonSubstring("", "x"), kMissingMetric);
  EXPECT_DOUBLE_EQ(NonSubstring("x", "  "), kMissingMetric);
}

TEST(NonPrefixTest, PrefixVsInfix) {
  EXPECT_DOUBLE_EQ(NonPrefix("sigmod", "sigmod record"), 0.0);
  // "record" occurs inside but is not a prefix.
  EXPECT_DOUBLE_EQ(NonPrefix("record", "sigmod record"), 1.0);
}

TEST(NonSuffixTest, SuffixVsInfix) {
  EXPECT_DOUBLE_EQ(NonSuffix("record", "sigmod record"), 0.0);
  EXPECT_DOUBLE_EQ(NonSuffix("sigmod", "sigmod record"), 1.0);
}

TEST(AbbrNonSubstringTest, AbbreviationRecognized) {
  // "vldb" is the first-letter abbreviation of "very large data bases".
  EXPECT_DOUBLE_EQ(AbbrNonSubstring("very large data bases", "vldb"), 0.0);
  EXPECT_DOUBLE_EQ(AbbrNonSubstring("vldb", "very large data bases"), 0.0);
  EXPECT_DOUBLE_EQ(AbbrNonSubstring("sigmod conference", "vldb"), 1.0);
}

TEST(DiffCardinalityTest, CountsEntities) {
  EXPECT_DOUBLE_EQ(DiffCardinality("a x, b y", "c z, d w"), 0.0);
  EXPECT_DOUBLE_EQ(DiffCardinality("a x, b y, c z", "a x, b y"), 1.0);
  EXPECT_DOUBLE_EQ(DiffCardinality("", "a"), kMissingMetric);
}

TEST(EntityEquivalenceTest, ExactAndInitials) {
  EXPECT_TRUE(EntityNamesEquivalent("michael franklin", "michael franklin"));
  EXPECT_TRUE(EntityNamesEquivalent("m franklin", "michael franklin"));
  EXPECT_TRUE(EntityNamesEquivalent("michael franklin", "m. franklin"));
  EXPECT_FALSE(EntityNamesEquivalent("michael franklin", "nancy franklin"));
  EXPECT_FALSE(EntityNamesEquivalent("michael franklin", "michael stone"));
}

TEST(EntityEquivalenceTest, SurnameTypoTolerated) {
  EXPECT_TRUE(EntityNamesEquivalent("h kriegel", "h kriegl"));
}

TEST(DistinctEntityTest, PaperExampleOne) {
  // Example 1: s1 has R Schneider, s2 does not -> distinct-entity count 1,
  // while entity Jaccard would be 0.75 (a misleading "match" signal).
  const char* s1 = "T Brinkhoff, H Kriegel, R Schneider, B Seeger";
  const char* s2 = "T Brinkhoff, H Kriegel, B Seeger";
  EXPECT_DOUBLE_EQ(DistinctEntityCount(s1, s2), 1.0);
}

TEST(DistinctEntityTest, InitialsDoNotCountAsDistinct) {
  EXPECT_DOUBLE_EQ(
      DistinctEntityCount("michael franklin, nancy li", "m franklin, n li"),
      0.0);
}

TEST(DistinctEntityTest, DisjointSetsAllDistinct) {
  EXPECT_DOUBLE_EQ(DistinctEntityCount("a x, b y", "c z"), 3.0);
}

TEST(DistinctEntityTest, NormalizedVariantInUnitRange) {
  EXPECT_DOUBLE_EQ(DistinctEntity("a x, b y", "c z"), 1.0);
  EXPECT_DOUBLE_EQ(DistinctEntity("a x", "a x"), 0.0);
  const double partial =
      DistinctEntity("a x, b y", "a x, c z");  // 2 distinct of 4 total
  EXPECT_DOUBLE_EQ(partial, 0.5);
}

TEST(DiffKeyTokenTest, RareTokenOnOneSideCounts) {
  std::vector<std::string_view> corpus(200, "common words everywhere");
  corpus.push_back("common xr5500 everywhere");
  IdfTable idf = IdfTable::Build(corpus);
  const double min_idf = idf.Idf("xr5500") - 0.01;
  EXPECT_DOUBLE_EQ(
      DiffKeyTokenCount("common xr5500", "common words", idf, min_idf), 1.0);
  // Shared rare token does not count.
  EXPECT_DOUBLE_EQ(
      DiffKeyTokenCount("common xr5500", "xr5500 words", idf, min_idf), 0.0);
}

TEST(DiffKeyTokenTest, CommonTokensIgnored) {
  std::vector<std::string_view> corpus(200, "common words everywhere");
  IdfTable idf = IdfTable::Build(corpus);
  const double min_idf = idf.Idf("common") + 1.0;
  EXPECT_DOUBLE_EQ(DiffKeyToken("common words", "common everywhere", idf,
                                min_idf),
                   0.0);
}

TEST(DiffKeyTokenTest, NormalizedFormBounded) {
  std::vector<std::string_view> corpus(200, "aa bb cc");
  IdfTable idf = IdfTable::Build(corpus);
  const double v = DiffKeyToken("q1 q2 q3", "r1 r2 r3", idf, 1.0);
  EXPECT_GT(v, 0.8);
  EXPECT_LT(v, 1.0);
}

TEST(NumericUnequalTest, ImplementsEquationOne) {
  // Eq. 1: different years -> inequivalent evidence.
  EXPECT_DOUBLE_EQ(NumericUnequal("1994", "1995"), 1.0);
  EXPECT_DOUBLE_EQ(NumericUnequal("1994", "1994"), 0.0);
  EXPECT_DOUBLE_EQ(NumericUnequal("", "1994"), kMissingMetric);
  EXPECT_DOUBLE_EQ(NumericUnequal("n/a", "1994"), kMissingMetric);
}

TEST(DifferenceMetricsTest, SymmetryHolds) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"sigmod", "sigmod record"},
      {"a x, b y", "c z"},
      {"very large data bases", "vldb"},
      {"1994", "1995"}};
  for (const auto& [a, b] : cases) {
    EXPECT_DOUBLE_EQ(NonSubstring(a, b), NonSubstring(b, a));
    EXPECT_DOUBLE_EQ(NonPrefix(a, b), NonPrefix(b, a));
    EXPECT_DOUBLE_EQ(NonSuffix(a, b), NonSuffix(b, a));
    EXPECT_DOUBLE_EQ(DiffCardinality(a, b), DiffCardinality(b, a));
    EXPECT_DOUBLE_EQ(DistinctEntityCount(a, b), DistinctEntityCount(b, a));
    EXPECT_DOUBLE_EQ(NumericUnequal(a, b), NumericUnequal(b, a));
  }
}

}  // namespace
}  // namespace reference
}  // namespace learnrisk
