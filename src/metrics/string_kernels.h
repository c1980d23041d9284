// Copyright 2026 The LearnRisk Authors
// Allocation-free exact string kernels for the prepared featurization path.
//
// Each kernel computes *exactly* the same value as its reference counterpart
// in tests/reference/raw_metrics.h (same integers, hence bit-identical
// derived doubles) but reuses caller-owned scratch buffers instead of
// allocating per call, and uses asymptotically faster exact algorithms where
// they exist:
//
//  - EditDistanceFast: common prefix/suffix stripping (distance-preserving),
//    then Myers' bit-parallel algorithm in Hyyrö's formulation, over
//    ceil(m / 64) words per text character for a pattern of m chars; the
//    horizontal deltas and the addition's carry cross from word to word.
//  - LcsLengthFast: prefix/suffix stripping (each stripped char is part of
//    some LCS), then the Allison-Dix bit-parallel LLCS recurrence over
//    ceil(m / 64) words, with the carry of V + U crossing words.
//  - JaroWinklerSimilarityFast: the reference's greedy Jaro matching. When
//    both strings are <= 64 chars it runs on one flag word per side (lowest
//    open position of b in a[i]'s window, transpositions by walking the flag
//    words); longer inputs run the reference loop verbatim on reusable byte
//    flags.
//  - JaroWinklerPacked: the same greedy Jaro matching over two tokens of at
//    most 16 bytes packed once per record (PackToken). One SSE2 byte compare
//    per left character yields its match mask over the right token, the
//    window mask slides by one shift per character, the lowest open
//    position is claimed without a branch, and the Winkler prefix comes
//    from the XOR of the first 4 bytes. Without SSE2 the match mask is a
//    16-byte scalar loop; the Monge-Elkan kernel then calls
//    JaroWinklerSimilarityFast instead (kHavePackedJaroWinkler).
//
// The only selection is by input length, and every path returns the same
// integers. Exactness is enforced by tests/prepared_parity_test.cc, which
// compares every kernel against the reference implementation on randomized
// inputs, on every length pair straddling the 64/128/192-char word
// boundaries, and (for the packed kernel) on every pair of 1-5 char strings
// over a 3-letter alphabet.

#ifndef LEARNRISK_METRICS_STRING_KERNELS_H_
#define LEARNRISK_METRICS_STRING_KERNELS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace learnrisk {

/// \brief The longest token JaroWinklerPacked accepts.
inline constexpr size_t kPackedTokenBytes = 16;

/// \brief A token packed for the Monge-Elkan kernel: its character-presence
/// mask (bit c & 63 per byte; disjoint masks prove no shared character) and
/// its first kPackedTokenBytes bytes, zero-padded. Two tokens of equal
/// length <= kPackedTokenBytes are equal iff their `bytes` are.
struct PackedToken {
  uint64_t mask = 0;
  char bytes[kPackedTokenBytes] = {};
};

/// \brief One Monge-Elkan metric column's cache of Jaro-Winkler columns for
/// the left value whose run of consecutive pairs it is serving. Blocking
/// emits a left record's candidates as one run of pairs, and the right
/// tokens of a run repeat, so the column JW(a_i, t) over the left tokens a_i
/// is computed once per distinct right token t of the run. Keyed by content
/// only: the left value's tokens (packed bytes, lengths and every byte past
/// the packed 16) and the right token's packed bytes plus its length; right
/// tokens longer than kPackedTokenBytes are never cached. Nothing is
/// allocated before a run arms the cache. The logic lives with the
/// Monge-Elkan kernel in metric_suite.cc; the fields are plain state.
struct MongeElkanColumnCache {
  /// A left token as the column loop reads it: packed form and length.
  struct LeftToken {
    PackedToken packed;
    uint32_t len = 0;
  };
  /// A cached right token's packed bytes; its length is in its slot's tag.
  struct RightKey {
    uint64_t lo = 0;
    uint64_t hi = 0;
  };
  /// An open-addressing slot: `tag` is the generation that wrote it times 32
  /// plus the right token's length, and `entry` indexes `keys` (and, times
  /// left.size() + 1, `columns`). Live iff its generation is the cache's.
  struct Slot {
    uint32_t tag = 0;
    uint32_t entry = 0;
  };

  uint64_t last_left = 0;  ///< fingerprint of the previous pair's left value
  size_t repeats = 0;      ///< consecutive pairs with that fingerprint
  std::vector<LeftToken> left;  ///< the cached left value's tokens
  std::string left_tails;       ///< its tokens' bytes past the packed 16
  std::vector<Slot> slots;      ///< power-of-two table, at most half full
  uint32_t generation = 0;      ///< bumped per left value: empties `slots`
  std::vector<RightKey> keys;   ///< the cached right tokens
  /// Per cached right token: JW against each left token, then their max.
  std::vector<double> columns;
  size_t hits = 0;    ///< columns served from the cache
  size_t misses = 0;  ///< columns computed and stored
};

/// \brief How many Monge-Elkan columns of a suite get a column cache (DS
/// has two, SG three); later ones run uncached.
inline constexpr size_t kMongeElkanCachedColumns = 4;

/// \brief Per-thread scratch for the prepared metric kernels. One instance
/// per worker thread; the kernels resize the buffers as needed and leave
/// `block_masks` zeroed between calls, so a scratch can be reused across any
/// sequence of kernel invocations. It also holds one Monge-Elkan column
/// cache per Monge-Elkan metric column, keyed by content, so reusing a
/// scratch across records, requests or suites never serves a stale value.
struct MetricScratch {
  std::vector<uint8_t> a_flags;   ///< Jaro match flags, left side (> 64 chars)
  std::vector<uint8_t> b_flags;   ///< Jaro match flags, right side
  std::vector<uint8_t> used;      ///< entity-matching "already paired" flags
  std::vector<double> row_best;   ///< Monge-Elkan per-left-token maxima
  std::vector<double> col_best;   ///< Monge-Elkan per-right-token maxima
  /// tf-idf cosine's per-token products, indexed by the left value's
  /// weight-map rank.
  std::vector<double> tfidf_products;
  /// Per-character match bitmasks for the bit-parallel kernels: W words per
  /// character for a W-word pattern, character c's row at [c * W]. Grown to
  /// 256 * W on demand; kernels zero only the words they set, so the table
  /// stays clean without a 256 * W memset per call.
  std::vector<uint64_t> block_masks;
  std::vector<uint64_t> vp;  ///< bit-parallel column state, one per word
  std::vector<uint64_t> vn;  ///< Myers' negative vertical deltas
  /// Indexed by the column's rank among its suite's Monge-Elkan columns.
  std::array<MongeElkanColumnCache, kMongeElkanCachedColumns> monge_elkan;
};

/// \brief Levenshtein distance; same integer as reference::EditDistance().
size_t EditDistanceFast(std::string_view a, std::string_view b,
                        MetricScratch* scratch);

/// \brief Bit-identical to reference::NormalizedEditSimilarity().
double NormalizedEditSimilarityFast(std::string_view a, std::string_view b,
                                    MetricScratch* scratch);

/// \brief Longest-common-subsequence length; same integer as the
/// reference::LcsRatio DP computes internally.
size_t LcsLengthFast(std::string_view a, std::string_view b,
                     MetricScratch* scratch);

/// \brief Bit-identical to reference::LcsRatio().
double LcsRatioFast(std::string_view a, std::string_view b,
                    MetricScratch* scratch);

/// \brief Bit-identical to reference::JaroWinklerSimilarity().
double JaroWinklerSimilarityFast(std::string_view a, std::string_view b,
                                 MetricScratch* scratch);

/// \brief Whether JaroWinklerPacked runs on SSE2 byte compares. Without it
/// the prepared Monge-Elkan kernel calls JaroWinklerSimilarityFast for every
/// token pair.
#ifdef __SSE2__
inline constexpr bool kHavePackedJaroWinkler = true;
#else
inline constexpr bool kHavePackedJaroWinkler = false;
#endif

/// \brief Packs `token` (any length; only the first kPackedTokenBytes bytes
/// are kept, the mask covers every byte).
PackedToken PackToken(std::string_view token);

/// \brief Bit-identical to reference::JaroWinklerSimilarity() on the tokens
/// `a` and `b` were packed from, whose lengths are `len_a` and `len_b`.
/// Requires len_a, len_b <= kPackedTokenBytes.
double JaroWinklerPacked(const PackedToken& a, size_t len_a,
                         const PackedToken& b, size_t len_b);

}  // namespace learnrisk

#endif  // LEARNRISK_METRICS_STRING_KERNELS_H_
