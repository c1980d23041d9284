// Copyright 2026 The LearnRisk Authors
// Deterministic random number generation. Every stochastic component in the
// library takes an explicit Rng (or seed) so that experiments are reproducible
// run-to-run (DESIGN.md §6.9).

#ifndef LEARNRISK_COMMON_RANDOM_H_
#define LEARNRISK_COMMON_RANDOM_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

namespace learnrisk {

/// \brief MT19937-64 with std::mt19937_64's seeding and output stream: the
/// same words for the same seed. The twist selects the xor with the matrix
/// constant through a mask; libstdc++'s twist compiles it to a
/// data-dependent branch, which costs most of that engine's time per word.
class MersenneTwister64 {
 public:
  using result_type = uint64_t;
  static constexpr result_type default_seed = 5489u;

  explicit MersenneTwister64(result_type seed = default_seed) {
    state_[0] = seed;
    for (size_t i = 1; i < kN; ++i) {
      state_[i] = kInitMultiplier * (state_[i - 1] ^ (state_[i - 1] >> 62)) + i;
    }
    index_ = kN;
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (index_ >= kN) Twist();
    uint64_t z = state_[index_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    z ^= z >> 43;
    return z;
  }

 private:
  static constexpr size_t kN = 312;
  static constexpr size_t kM = 156;
  static constexpr uint64_t kMatrixA = 0xB5026F5AA96619E9ULL;
  static constexpr uint64_t kUpperMask = 0xFFFFFFFF80000000ULL;
  static constexpr uint64_t kLowerMask = 0x000000007FFFFFFFULL;
  static constexpr uint64_t kInitMultiplier = 6364136223846793005ULL;

  // One twisted word: the upper bit of `upper`, the lower 31 bits of
  // `lower`, shifted and xored into the word kM ahead, with kMatrixA applied
  // when the combined word is odd.
  static uint64_t Next(uint64_t upper, uint64_t lower, uint64_t ahead) {
    const uint64_t y = (upper & kUpperMask) | (lower & kLowerMask);
    return ahead ^ (y >> 1) ^ (kMatrixA & (uint64_t{0} - (y & 1)));
  }

  void Twist() {
    size_t i = 0;
    for (; i < kN - kM; ++i) {
      state_[i] = Next(state_[i], state_[i + 1], state_[i + kM]);
    }
    for (; i < kN - 1; ++i) {
      state_[i] = Next(state_[i], state_[i + 1], state_[i + kM - kN]);
    }
    state_[kN - 1] = Next(state_[kN - 1], state_[0], state_[kM - 1]);
    index_ = 0;
  }

  uint64_t state_[kN];
  size_t index_;
};

/// \brief Seedable RNG wrapper with the sampling helpers the library needs.
class Rng {
 public:
  /// Constructs an RNG with the given seed; identical seeds yield identical
  /// streams.
  explicit Rng(uint64_t seed = 42) : engine_(seed) {}

  /// \brief Uniform double in [0, 1).
  double Uniform() { return unit_(engine_); }

  /// \brief Uniform double in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

  /// \brief Uniform integer in [lo, hi] (inclusive).
  int64_t UniformInt(int64_t lo, int64_t hi) {
    std::uniform_int_distribution<int64_t> dist(lo, hi);
    return dist(engine_);
  }

  /// \brief Uniform index in [0, n); n must be positive.
  size_t Index(size_t n) { return static_cast<size_t>(UniformInt(0, static_cast<int64_t>(n) - 1)); }

  /// \brief Standard normal sample.
  double Normal() { return normal_(engine_); }

  /// \brief Normal sample with the given mean and standard deviation.
  double Normal(double mu, double sigma) { return mu + sigma * Normal(); }

  /// \brief True with probability p.
  bool Bernoulli(double p) { return Uniform() < p; }

  /// \brief Geometric-ish integer in [lo, hi] biased toward lo.
  int64_t SkewedInt(int64_t lo, int64_t hi, double skew = 2.0) {
    double u = std::pow(Uniform(), skew);
    return lo + static_cast<int64_t>(u * static_cast<double>(hi - lo + 1) * 0.999999);
  }

  /// \brief In-place Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    std::shuffle(items->begin(), items->end(), engine_);
  }

  /// \brief Samples k distinct indices from [0, n) (k > n returns all n).
  std::vector<size_t> SampleIndices(size_t n, size_t k) {
    std::vector<size_t> idx(n);
    for (size_t i = 0; i < n; ++i) idx[i] = i;
    if (k >= n) return idx;
    // Partial Fisher-Yates: only the first k positions need to be randomized.
    for (size_t i = 0; i < k; ++i) {
      size_t j = i + Index(n - i);
      std::swap(idx[i], idx[j]);
    }
    idx.resize(k);
    return idx;
  }

  /// \brief Picks one element uniformly from a non-empty vector.
  template <typename T>
  const T& Choice(const std::vector<T>& items) {
    return items[Index(items.size())];
  }

  /// \brief Returns a child seed; lets one master seed fan out to independent
  /// component streams.
  uint64_t Fork() { return engine_(); }

  /// \brief Underlying engine, for std::distributions not wrapped here.
  MersenneTwister64& engine() { return engine_; }

 private:
  MersenneTwister64 engine_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
  std::normal_distribution<double> normal_{0.0, 1.0};
};

}  // namespace learnrisk

#endif  // LEARNRISK_COMMON_RANDOM_H_
