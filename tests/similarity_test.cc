// Copyright 2026 The LearnRisk Authors
// Unit and property tests for the reference similarity metrics (Sec. 5.1).

#include "reference/raw_metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

namespace learnrisk {
namespace reference {
namespace {

TEST(EditDistanceTest, KnownValues) {
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("flaw", "lawn"), 2u);
  EXPECT_EQ(EditDistance("", "abc"), 3u);
  EXPECT_EQ(EditDistance("abc", "abc"), 0u);
}

TEST(EditSimTest, IdenticalIsOne) {
  EXPECT_DOUBLE_EQ(NormalizedEditSimilarity("sigmod", "sigmod"), 1.0);
  EXPECT_DOUBLE_EQ(NormalizedEditSimilarity("", ""), 1.0);
}

TEST(EditSimTest, DisjointIsZero) {
  EXPECT_DOUBLE_EQ(NormalizedEditSimilarity("abc", "xyz"), 0.0);
}

TEST(JaroTest, KnownValues) {
  EXPECT_NEAR(JaroSimilarity("martha", "marhta"), 0.944444, 1e-5);
  EXPECT_NEAR(JaroSimilarity("dixon", "dicksonx"), 0.766667, 1e-5);
  EXPECT_DOUBLE_EQ(JaroSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("a", ""), 0.0);
}

TEST(JaroWinklerTest, KnownValues) {
  EXPECT_NEAR(JaroWinklerSimilarity("martha", "marhta"), 0.961111, 1e-5);
  EXPECT_NEAR(JaroWinklerSimilarity("dwayne", "duane"), 0.84, 1e-2);
}

TEST(JaroWinklerTest, PrefixBoostsScore) {
  EXPECT_GT(JaroWinklerSimilarity("prefix", "prefax"),
            JaroSimilarity("prefix", "prefax"));
}

TEST(TokenJaccardTest, KnownValues) {
  EXPECT_DOUBLE_EQ(TokenJaccard("a b c", "a b c"), 1.0);
  EXPECT_DOUBLE_EQ(TokenJaccard("a b", "b c"), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(TokenJaccard("a", "b"), 0.0);
  EXPECT_DOUBLE_EQ(TokenJaccard("", ""), 1.0);
}

TEST(TokenJaccardTest, CaseAndPunctuationInsensitive) {
  EXPECT_DOUBLE_EQ(TokenJaccard("Data, Bases!", "data bases"), 1.0);
}

TEST(NgramJaccardTest, IdenticalAndDisjoint) {
  EXPECT_DOUBLE_EQ(NgramJaccard("abcdef", "abcdef"), 1.0);
  EXPECT_DOUBLE_EQ(NgramJaccard("aaaa", "bbbb"), 0.0);
}

TEST(NgramJaccardTest, SharedSubstringScoresPositive) {
  const double s = NgramJaccard("database systems", "database engines");
  EXPECT_GT(s, 0.2);
  EXPECT_LT(s, 1.0);
}

TEST(LcsTest, KnownValues) {
  // LCS("abcbdab", "bdcaba") = 4 ("bcba"); max len 7.
  EXPECT_NEAR(LcsRatio("abcbdab", "bdcaba"), 4.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(LcsRatio("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(LcsRatio("", ""), 1.0);
  EXPECT_DOUBLE_EQ(LcsRatio("abc", ""), 0.0);
}

TEST(ContainmentTest, Asymmetric) {
  EXPECT_DOUBLE_EQ(Containment("a b", "a b c d"), 1.0);
  EXPECT_DOUBLE_EQ(Containment("a b c d", "a b"), 0.5);
}

TEST(MongeElkanTest, TokenReorderingTolerated) {
  const double s = MongeElkan("michael j franklin", "franklin michael j");
  EXPECT_GT(s, 0.99);
}

TEST(MongeElkanTest, TypoToleratedBetterThanJaccard) {
  const double me = MongeElkan("databse systems", "database systems");
  const double jac = TokenJaccard("databse systems", "database systems");
  EXPECT_GT(me, jac);
}

TEST(IdfTableTest, RareTokensGetHigherIdf) {
  std::vector<std::string_view> corpus = {"a common word", "a common thing",
                                          "a common rare"};
  IdfTable idf = IdfTable::Build(corpus);
  EXPECT_GT(idf.Idf("rare"), idf.Idf("common"));
  EXPECT_GT(idf.Idf("unseen"), idf.Idf("rare"));
}

TEST(IdfTableTest, KeyTokenThreshold) {
  std::vector<std::string_view> corpus(100, "filler words here");
  corpus.push_back("filler xk42 here");
  IdfTable idf = IdfTable::Build(corpus);
  const double rare_idf = idf.Idf("xk42");
  EXPECT_TRUE(idf.IsKeyToken("xk42", rare_idf - 0.01));
  EXPECT_FALSE(idf.IsKeyToken("filler", rare_idf - 0.01));
}

TEST(CosineTfIdfTest, IdenticalAndDisjoint) {
  std::vector<std::string_view> corpus = {"a b c", "c d e", "e f g"};
  IdfTable idf = IdfTable::Build(corpus);
  EXPECT_NEAR(CosineTfIdf("a b c", "a b c", idf), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(CosineTfIdf("a b", "f g", idf), 0.0);
}

TEST(CosineTfIdfTest, RareSharedTokenDominates) {
  std::vector<std::string_view> corpus(50, "the of and");
  corpus.push_back("zyzzyx");
  IdfTable idf = IdfTable::Build(corpus);
  const double rare = CosineTfIdf("the zyzzyx", "of zyzzyx", idf);
  const double common = CosineTfIdf("the of", "the and", idf);
  EXPECT_GT(rare, common);
}

TEST(NumericSimTest, Basics) {
  EXPECT_DOUBLE_EQ(NumericSimilarity("10", "10"), 1.0);
  EXPECT_NEAR(NumericSimilarity("10", "9"), 0.9, 1e-12);
  EXPECT_DOUBLE_EQ(NumericSimilarity("abc", "10"), kMissingMetric);
  EXPECT_DOUBLE_EQ(NumericSimilarity("", "10"), kMissingMetric);
}

TEST(NumericSimTest, SmallValuesUseUnitFloor) {
  // denominator floor of 1 keeps tiny values from exploding the metric.
  EXPECT_NEAR(NumericSimilarity("0.1", "0.2"), 0.9, 1e-12);
}

TEST(ExactMatchTest, NormalizesCaseAndSpace) {
  EXPECT_DOUBLE_EQ(ExactMatch(" SIGMOD ", "sigmod"), 1.0);
  EXPECT_DOUBLE_EQ(ExactMatch("a", "b"), 0.0);
}

// Property sweep: similarity metrics are symmetric, bounded in [0, 1], and
// score identical strings at 1.
using MetricFn = double (*)(std::string_view, std::string_view);

class SimilarityProperties
    : public ::testing::TestWithParam<std::tuple<const char*, MetricFn>> {};

TEST_P(SimilarityProperties, SymmetricBoundedReflexive) {
  MetricFn fn = std::get<1>(GetParam());
  const std::vector<std::string> samples = {
      "data integration",     "dta integration",
      "entity resolution",    "a",
      "sigmod 2020 portland", "x y z w",
      "record linkage theory"};
  for (const std::string& a : samples) {
    EXPECT_DOUBLE_EQ(fn(a, a), 1.0) << a;
    for (const std::string& b : samples) {
      const double ab = fn(a, b);
      EXPECT_DOUBLE_EQ(ab, fn(b, a)) << a << " vs " << b;
      EXPECT_GE(ab, 0.0);
      EXPECT_LE(ab, 1.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMetrics, SimilarityProperties,
    ::testing::Values(
        std::make_tuple("edit", &NormalizedEditSimilarity),
        std::make_tuple("jaro", &JaroSimilarity),
        std::make_tuple("jaro_winkler", &JaroWinklerSimilarity),
        std::make_tuple("jaccard", &TokenJaccard),
        std::make_tuple("lcs", &LcsRatio),
        std::make_tuple("monge_elkan", &MongeElkan)),
    [](const ::testing::TestParamInfo<SimilarityProperties::ParamType>& info) {
      return std::get<0>(info.param);
    });

}  // namespace
}  // namespace reference
}  // namespace learnrisk
