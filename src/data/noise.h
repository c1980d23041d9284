// Copyright 2026 The LearnRisk Authors
// Dirtiness channels for the synthetic dataset generators. Each channel
// reproduces a noise mode observed in the paper's real datasets: typos,
// token drops, first-name abbreviation, venue abbreviation, missing values,
// numeric perturbation (DESIGN.md §4).

#ifndef LEARNRISK_DATA_NOISE_H_
#define LEARNRISK_DATA_NOISE_H_

#include <string>
#include <vector>

#include "common/random.h"

namespace learnrisk {

/// \brief Deterministic pseudo-word vocabulary builder.
///
/// Words are composed from syllables so generated titles/descriptions look
/// word-like without shipping external corpora. The same (seed, n) always
/// yields the same vocabulary.
class WordFactory {
 public:
  explicit WordFactory(uint64_t seed) : rng_(seed) {}

  /// \brief One pseudo-word of 1-4 syllables.
  std::string MakeWord();

  /// \brief A vocabulary of n distinct pseudo-words.
  std::vector<std::string> MakeVocabulary(size_t n);

  /// \brief A rare, highly discriminating token such as a model/protocol code
  /// ("xr5500", "tk92x"); these drive the diff-key-token metric.
  std::string MakeCode();

 private:
  Rng rng_;
};

/// \brief Applies one random character edit (swap / delete / insert /
/// replace) somewhere in the string. No-op for empty strings.
std::string InjectTypo(const std::string& s, Rng* rng);

/// \brief Applies InjectTypo `count` times.
std::string InjectTypos(const std::string& s, int count, Rng* rng);

/// \brief Randomly deletes each token with probability `rate`; always keeps
/// at least one token.
std::string DropTokens(const std::string& s, double rate, Rng* rng);

/// \brief "michael franklin" -> "m franklin" (or "m. franklin" with dots).
std::string AbbreviateFirstName(const std::string& full_name, bool dots,
                                Rng* rng);

/// \brief Standard set of person names for author/artist generation.
struct PersonNamePool {
  static const std::vector<std::string>& FirstNames();
  static const std::vector<std::string>& LastNames();
};

/// \brief Draws a "First Last" person name.
std::string MakePersonName(Rng* rng);

}  // namespace learnrisk

#endif  // LEARNRISK_DATA_NOISE_H_
