// Copyright 2026 The LearnRisk Authors
// Determinism and distribution sanity tests for the Rng wrapper.

#include "common/random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <set>
#include <string>
#include <vector>

namespace learnrisk {
namespace {

TEST(RngTest, SameSeedSameStream) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 20; ++i) {
    if (a.Uniform() != b.Uniform()) ++differing;
  }
  EXPECT_GT(differing, 15);
}

TEST(RngTest, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformIntInclusive) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(1, 3));
  EXPECT_EQ(seen, (std::set<int64_t>{1, 2, 3}));
}

TEST(RngTest, IndexWithinBounds) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) EXPECT_LT(rng.Index(5), 5u);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRateApproximatelyHolds) {
  Rng rng(7);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, NormalMoments) {
  Rng rng(7);
  double sum = 0.0;
  double sq = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.Normal(2.0, 3.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / kN;
  const double var = sq / kN - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.5);
}

TEST(RngTest, SampleIndicesDistinctAndBounded) {
  Rng rng(7);
  const auto idx = rng.SampleIndices(100, 30);
  EXPECT_EQ(idx.size(), 30u);
  std::set<size_t> unique(idx.begin(), idx.end());
  EXPECT_EQ(unique.size(), 30u);
  for (size_t i : idx) EXPECT_LT(i, 100u);
}

TEST(RngTest, SampleIndicesKGreaterThanNReturnsAll) {
  Rng rng(7);
  EXPECT_EQ(rng.SampleIndices(5, 50).size(), 5u);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(7);
  std::vector<int> v = {1, 2, 3, 4, 5};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, SkewedIntBiasesLow) {
  Rng rng(7);
  double total = 0.0;
  for (int i = 0; i < 5000; ++i) {
    const int64_t v = rng.SkewedInt(1, 10, 2.0);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 10);
    total += static_cast<double>(v);
  }
  EXPECT_LT(total / 5000.0, 5.0);  // uniform mean would be 5.5
}

TEST(RngTest, ForkProducesIndependentStreams) {
  Rng parent(9);
  Rng child1(parent.Fork());
  Rng child2(parent.Fork());
  int same = 0;
  for (int i = 0; i < 20; ++i) {
    if (child1.Uniform() == child2.Uniform()) ++same;
  }
  EXPECT_LT(same, 3);
}

// The engine's words equal std::mt19937_64's for the same seed, across
// thousands of 312-word refills.
TEST(MersenneTwister64Test, MatchesStdMt19937_64) {
  for (uint64_t seed : {uint64_t{0}, uint64_t{1}, uint64_t{42}, uint64_t{5489},
                        std::numeric_limits<uint64_t>::max()}) {
    MersenneTwister64 engine(seed);
    std::mt19937_64 standard(seed);
    size_t mismatches = 0;
    for (size_t i = 0; i < 2000000; ++i) {
      if (engine() != standard()) ++mismatches;
    }
    EXPECT_EQ(mismatches, 0u) << "seed " << seed;
  }
  MersenneTwister64 default_engine;
  std::mt19937_64 default_standard;
  EXPECT_EQ(default_engine(), default_standard());
  EXPECT_EQ(MersenneTwister64::min(), std::mt19937_64::min());
  EXPECT_EQ(MersenneTwister64::max(), std::mt19937_64::max());
}

// Rng's helpers on std::mt19937_64, as Rng was written before it got its
// own engine: Rng must draw the same sequences.
class StdEngineRng {
 public:
  explicit StdEngineRng(uint64_t seed) : engine_(seed) {}
  double Uniform() { return unit_(engine_); }
  size_t Index(size_t n) {
    std::uniform_int_distribution<int64_t> dist(0, static_cast<int64_t>(n) - 1);
    return static_cast<size_t>(dist(engine_));
  }
  double Normal() { return normal_(engine_); }
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    std::shuffle(items->begin(), items->end(), engine_);
  }
  std::vector<size_t> SampleIndices(size_t n, size_t k) {
    std::vector<size_t> idx(n);
    for (size_t i = 0; i < n; ++i) idx[i] = i;
    if (k >= n) return idx;
    for (size_t i = 0; i < k; ++i) {
      size_t j = i + Index(n - i);
      std::swap(idx[i], idx[j]);
    }
    idx.resize(k);
    return idx;
  }
  uint64_t Fork() { return engine_(); }

 private:
  std::mt19937_64 engine_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
  std::normal_distribution<double> normal_{0.0, 1.0};
};

TEST(RngTest, HelpersMatchStdEngine) {
  for (uint64_t seed : {uint64_t{1}, uint64_t{42}, uint64_t{20260419}}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    StdEngineRng ref(seed);
    // Interleave the helpers so each starts mid-stream and the normal
    // distribution's cached second value carries across calls.
    for (int round = 0; round < 200; ++round) {
      for (int i = 0; i < 50; ++i) ASSERT_EQ(rng.Uniform(), ref.Uniform());
      for (int i = 0; i < 51; ++i) ASSERT_EQ(rng.Normal(), ref.Normal());
      for (size_t n : {1, 2, 7, 1000, 1 << 20}) {
        ASSERT_EQ(rng.Index(n), ref.Index(n));
      }
      std::vector<int> a(97);
      for (int i = 0; i < 97; ++i) a[i] = i;
      std::vector<int> b = a;
      rng.Shuffle(&a);
      ref.Shuffle(&b);
      ASSERT_EQ(a, b);
      ASSERT_EQ(rng.SampleIndices(500, 37), ref.SampleIndices(500, 37));
      ASSERT_EQ(rng.Fork(), ref.Fork());
    }
  }
}

}  // namespace
}  // namespace learnrisk
