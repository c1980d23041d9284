// Copyright 2026 The LearnRisk Authors

#include "metrics/string_kernels.h"

#include <algorithm>
#include <cstring>

#ifdef __SSE2__
#include <emmintrin.h>
#endif

namespace learnrisk {
namespace {

size_t Byte(char c) { return static_cast<unsigned char>(c); }

/// Strips the common prefix and (non-overlapping) common suffix of two
/// string views in place; returns {prefix_len, suffix_len}. Both edit
/// distance and LCS decompose over this split: equal border characters never
/// change the distance and always extend some LCS.
std::pair<size_t, size_t> StripCommonEnds(std::string_view* a,
                                          std::string_view* b) {
  size_t prefix = 0;
  const size_t min_len = std::min(a->size(), b->size());
  while (prefix < min_len && (*a)[prefix] == (*b)[prefix]) ++prefix;
  a->remove_prefix(prefix);
  b->remove_prefix(prefix);
  size_t suffix = 0;
  const size_t min_rest = std::min(a->size(), b->size());
  while (suffix < min_rest &&
         (*a)[a->size() - 1 - suffix] == (*b)[b->size() - 1 - suffix]) {
    ++suffix;
  }
  a->remove_suffix(suffix);
  b->remove_suffix(suffix);
  return {prefix, suffix};
}

size_t WordsFor(size_t len) { return (len + 63) / 64; }

/// Builds the per-character match masks of pattern `a` over `words` 64-bit
/// words: position i sets bit i % 64 of word i / 64 in its character's row,
/// and rows start at [c * words]. Relies on block_masks being all-zero on
/// entry; the caller must ClearBlockMasks(a, words) afterwards to restore
/// that.
uint64_t* BuildBlockMasks(std::string_view a, size_t words,
                          MetricScratch* scratch) {
  if (scratch->block_masks.size() < 256 * words) {
    scratch->block_masks.resize(256 * words);  // new words are zero
  }
  uint64_t* masks = scratch->block_masks.data();
  for (size_t i = 0; i < a.size(); ++i) {
    masks[Byte(a[i]) * words + i / 64] |= uint64_t{1} << (i % 64);
  }
  return masks;
}

/// Zeroes exactly the mask words BuildBlockMasks(a, words) set.
void ClearBlockMasks(std::string_view a, size_t words,
                     MetricScratch* scratch) {
  uint64_t* masks = scratch->block_masks.data();
  for (size_t i = 0; i < a.size(); ++i) {
    masks[Byte(a[i]) * words + i / 64] = 0;
  }
}

/// The horizontal deltas leaving one word's rows, before the shift.
struct HorizontalDeltas {
  uint64_t hp;
  uint64_t hn;
};

/// One 64-row word of Myers' bit-parallel Levenshtein column update
/// (Hyyrö's formulation) for one text character: `eq` is the word's match
/// mask, `*pv` / `*mv` its positive / negative vertical deltas, and hp_in /
/// hn_in the horizontal deltas entering its bottom row from the row below
/// (the boundary row D[0][j] = j enters word 0 as hp_in = 1).
///
/// Word w + 1 continues word w's column: it takes word w's top HP / HN bits
/// as hp_in / hn_in, exactly as the shift feeds bit 0. The addition's carry
/// out of word w is set iff word w's top bit has VP and D0 set, i.e. iff
/// its top HN bit is, so OR-ing hn_in into bit 0 of X carries the addition
/// across words as well.
inline HorizontalDeltas MyersWordStep(uint64_t eq, uint64_t hp_in,
                                      uint64_t hn_in, uint64_t* pv,
                                      uint64_t* mv) {
  const uint64_t x = eq | hn_in;
  const uint64_t d0 = (((x & *pv) + *pv) ^ *pv) | x | *mv;
  const uint64_t hp = *mv | ~(d0 | *pv);
  const uint64_t hn = *pv & d0;
  const uint64_t hp_shifted = (hp << 1) | hp_in;
  const uint64_t hn_shifted = (hn << 1) | hn_in;
  *pv = hn_shifted | ~(d0 | hp_shifted);
  *mv = hp_shifted & d0;
  return {hp, hn};
}

/// Levenshtein distance by Myers' algorithm over ceil(|a| / 64) words per
/// text character. Exact: maintains the vertical delta encoding of the DP
/// column and tracks the score at the last row. Bits above |a| in the last
/// word compute garbage, but shifts and carries only move upward, so it
/// never reaches the last row. A one-word pattern keeps its column in
/// registers.
size_t MyersEditDistance(std::string_view a, std::string_view b,
                         MetricScratch* scratch) {
  const size_t words = WordsFor(a.size());
  const uint64_t* masks = BuildBlockMasks(a, words, scratch);
  const uint64_t last = uint64_t{1} << ((a.size() - 1) % 64);
  size_t score = a.size();
  auto track = [&](HorizontalDeltas top) {
    if (top.hp & last) ++score;
    if (top.hn & last) --score;
  };
  if (words == 1) {
    uint64_t pv = ~uint64_t{0};
    uint64_t mv = 0;
    for (char c : b) track(MyersWordStep(masks[Byte(c)], 1, 0, &pv, &mv));
  } else {
    std::vector<uint64_t>& vp = scratch->vp;
    std::vector<uint64_t>& vn = scratch->vn;
    vp.assign(words, ~uint64_t{0});
    vn.assign(words, 0);
    for (char c : b) {
      const uint64_t* eq = masks + Byte(c) * words;
      // The boundary row's +1 enters word 0 as if it were the top HP bit of
      // a word below it.
      HorizontalDeltas h{uint64_t{1} << 63, 0};
      for (size_t w = 0; w < words; ++w) {
        h = MyersWordStep(eq[w], h.hp >> 63, h.hn >> 63, &vp[w], &vn[w]);
      }
      track(h);
    }
  }
  ClearBlockMasks(a, words, scratch);
  return score;
}

/// One word of the Allison-Dix LLCS update: V' = (V + U) | (V - U) with
/// U = V & M, taking and returning the addition's carry between words.
inline uint64_t LcsWordStep(uint64_t v, uint64_t m, bool* carry) {
  const uint64_t u = v & m;
  uint64_t sum;
  const bool carry_vu = __builtin_add_overflow(v, u, &sum);
  const bool carry_in = __builtin_add_overflow(sum, uint64_t{*carry}, &sum);
  *carry = carry_vu || carry_in;
  // u's bits are a subset of v's, so v - u == v & ~u (no borrows).
  return sum | (v - u);
}

/// Allison-Dix bit-parallel LLCS over ceil(|a| / 64) words: V starts
/// all-ones; each text character clears one bit per LCS extension, with the
/// carry of V + U propagating from word to word. LLCS = zero bits of V.
/// Bits above |a| in the last word have no match bits, so they stay set and
/// never count. A one-word pattern keeps V in a register.
size_t BitParallelLcs(std::string_view a, std::string_view b,
                      MetricScratch* scratch) {
  const size_t words = WordsFor(a.size());
  const uint64_t* masks = BuildBlockMasks(a, words, scratch);
  size_t lcs = 0;
  if (words == 1) {
    uint64_t v = ~uint64_t{0};
    for (char c : b) {
      bool carry = false;
      v = LcsWordStep(v, masks[Byte(c)], &carry);
    }
    lcs = static_cast<size_t>(__builtin_popcountll(~v));
  } else {
    std::vector<uint64_t>& v = scratch->vp;
    v.assign(words, ~uint64_t{0});
    for (char c : b) {
      const uint64_t* m = masks + Byte(c) * words;
      bool carry = false;
      for (size_t w = 0; w < words; ++w) {
        v[w] = LcsWordStep(v[w], m[w], &carry);
      }
    }
    for (uint64_t vw : v) {
      lcs += static_cast<size_t>(__builtin_popcountll(~vw));
    }
  }
  ClearBlockMasks(a, words, scratch);
  return lcs;
}

/// The reference Jaro formula from the integer match and transposition
/// counts.
double JaroFromCounts(size_t matches, size_t transpositions, size_t len_a,
                      size_t len_b) {
  const double m = static_cast<double>(matches);
  return (m / static_cast<double>(len_a) + m / static_cast<double>(len_b) +
          (m - static_cast<double>(transpositions) / 2.0) / m) /
         3.0;
}

/// Jaro for |a|, |b| <= 64: the reference's greedy matching with one flag
/// word per side. a[i] takes the lowest unflagged position of b inside its
/// window holding the same character, which is exactly the first j the
/// reference's scan accepts; the k-th flagged positions of a and b then
/// pair up for the transposition count as in the reference's merge walk.
double BitParallelJaro(std::string_view a, std::string_view b, size_t window,
                       MetricScratch* scratch) {
  const uint64_t* masks = BuildBlockMasks(b, 1, scratch);
  uint64_t a_flags = 0;
  uint64_t b_flags = 0;
  size_t matches = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    // Window [lo, min(|b|, i + window + 1)); lo <= i < 64, and positions
    // at or beyond |b| carry no mask bits, so only the upper end needs a
    // shift guard.
    const size_t lo = i > window ? i - window : 0;
    const size_t hi = i + window + 1;
    const uint64_t below_hi =
        hi >= 64 ? ~uint64_t{0} : (uint64_t{1} << hi) - 1;
    const uint64_t open = masks[Byte(a[i])] & below_hi &
                          ~((uint64_t{1} << lo) - 1) & ~b_flags;
    if (open == 0) continue;
    b_flags |= open & (~open + 1);  // lowest set bit
    a_flags |= uint64_t{1} << i;
    ++matches;
  }
  ClearBlockMasks(b, 1, scratch);
  if (matches == 0) return 0.0;
  size_t transpositions = 0;
  while (a_flags != 0) {
    const int i = __builtin_ctzll(a_flags);
    const int j = __builtin_ctzll(b_flags);
    if (a[i] != b[j]) ++transpositions;
    a_flags &= a_flags - 1;
    b_flags &= b_flags - 1;
  }
  return JaroFromCounts(matches, transpositions, a.size(), b.size());
}

/// Jaro similarity; bit-identical to reference::JaroSimilarity().
double JaroSimilarityFast(std::string_view a, std::string_view b,
                          MetricScratch* scratch) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  const size_t window =
      a.size() > 1 || b.size() > 1 ? std::max(a.size(), b.size()) / 2 - 1 : 0;
  if (a.size() <= 64 && b.size() <= 64) {
    return BitParallelJaro(a, b, window, scratch);
  }
  scratch->a_flags.assign(a.size(), 0);
  scratch->b_flags.assign(b.size(), 0);
  size_t matches = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    const size_t lo = i > window ? i - window : 0;
    const size_t hi = std::min(b.size(), i + window + 1);
    for (size_t j = lo; j < hi; ++j) {
      if (scratch->b_flags[j] || a[i] != b[j]) continue;
      scratch->a_flags[i] = scratch->b_flags[j] = 1;
      ++matches;
      break;
    }
  }
  if (matches == 0) return 0.0;
  size_t transpositions = 0;
  size_t j = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!scratch->a_flags[i]) continue;
    while (!scratch->b_flags[j]) ++j;
    if (a[i] != b[j]) ++transpositions;
    ++j;
  }
  return JaroFromCounts(matches, transpositions, a.size(), b.size());
}

/// Bit j set iff b.bytes[j] == c, over all kPackedTokenBytes bytes
/// (padding included; callers mask to the token's length).
inline uint32_t ByteMatchMask(const PackedToken& b, char c) {
#ifdef __SSE2__
  const __m128i bytes =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(b.bytes));
  return static_cast<uint32_t>(
      _mm_movemask_epi8(_mm_cmpeq_epi8(bytes, _mm_set1_epi8(c))));
#else
  uint32_t mask = 0;
  for (size_t j = 0; j < kPackedTokenBytes; ++j) {
    mask |= static_cast<uint32_t>(b.bytes[j] == c) << j;
  }
  return mask;
#endif
}

/// The first 4 bytes of a packed token, byte k in bits [8k, 8k + 8).
inline uint64_t Head4(const PackedToken& t) {
  uint64_t head = 0;
  for (size_t k = 0; k < 4; ++k) head |= uint64_t{Byte(t.bytes[k])} << (8 * k);
  return head;
}

}  // namespace

size_t EditDistanceFast(std::string_view a, std::string_view b,
                        MetricScratch* scratch) {
  StripCommonEnds(&a, &b);
  if (a.size() > b.size()) std::swap(a, b);
  if (a.empty()) return b.size();
  return MyersEditDistance(a, b, scratch);
}

double NormalizedEditSimilarityFast(std::string_view a, std::string_view b,
                                    MetricScratch* scratch) {
  const size_t max_len = std::max(a.size(), b.size());
  if (max_len == 0) return 1.0;
  return 1.0 - static_cast<double>(EditDistanceFast(a, b, scratch)) /
                   static_cast<double>(max_len);
}

size_t LcsLengthFast(std::string_view a, std::string_view b,
                     MetricScratch* scratch) {
  const auto [prefix, suffix] = StripCommonEnds(&a, &b);
  const size_t border = prefix + suffix;
  if (a.size() > b.size()) std::swap(a, b);
  if (a.empty()) return border;
  return border + BitParallelLcs(a, b, scratch);
}

double LcsRatioFast(std::string_view a, std::string_view b,
                    MetricScratch* scratch) {
  const size_t max_len = std::max(a.size(), b.size());
  if (max_len == 0) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  return static_cast<double>(LcsLengthFast(a, b, scratch)) /
         static_cast<double>(max_len);
}

double JaroWinklerSimilarityFast(std::string_view a, std::string_view b,
                                 MetricScratch* scratch) {
  const double jaro = JaroSimilarityFast(a, b, scratch);
  size_t prefix = 0;
  const size_t limit = std::min({a.size(), b.size(), static_cast<size_t>(4)});
  while (prefix < limit && a[prefix] == b[prefix]) ++prefix;
  return jaro + static_cast<double>(prefix) * 0.1 * (1.0 - jaro);
}

PackedToken PackToken(std::string_view token) {
  PackedToken packed;
  for (char c : token) {
    packed.mask |= uint64_t{1} << (Byte(c) & 63);
  }
  std::memcpy(packed.bytes, token.data(),
              std::min(token.size(), kPackedTokenBytes));
  return packed;
}

double JaroWinklerPacked(const PackedToken& a, size_t len_a,
                         const PackedToken& b, size_t len_b) {
  if (len_a == 0 || len_b == 0) return len_a == len_b ? 1.0 : 0.0;
  const size_t longer = std::max(len_a, len_b);
  const size_t window = longer > 1 ? longer / 2 - 1 : 0;
  // `win` is a[i]'s window [i - window, i + window + 1) clipped at 0; the
  // clip at len_b lives in `open_b`, the positions of b not yet claimed.
  // Moving to i + 1 shifts the window up one and, while its lower end is
  // still clipped at 0, also keeps position 0 inside.
  uint32_t win = (uint32_t{2} << window) - 1;
  const uint32_t all_b = (uint32_t{1} << len_b) - 1;
  uint32_t open_b = all_b;
  uint32_t a_flags = 0;
  size_t matches = 0;
  for (size_t i = 0; i < len_a; ++i) {
    const uint32_t open = ByteMatchMask(b, a.bytes[i]) & win & open_b;
    const uint32_t claimed = open & (0u - open);  // lowest set bit, or 0
    open_b ^= claimed;
    const uint32_t matched = claimed != 0;
    a_flags |= matched << i;
    matches += matched;
    win = (win << 1) | static_cast<uint32_t>(i < window);
  }
  double jaro = 0.0;
  if (matches != 0) {
    // The k-th matched positions of a and b pair up, as in the reference's
    // merge walk.
    uint32_t b_flags = all_b & ~open_b;
    size_t transpositions = 0;
    while (a_flags != 0) {
      transpositions += a.bytes[__builtin_ctz(a_flags)] !=
                        b.bytes[__builtin_ctz(b_flags)];
      a_flags &= a_flags - 1;
      b_flags &= b_flags - 1;
    }
    jaro = JaroFromCounts(matches, transpositions, len_a, len_b);
  }
  // Equal leading bytes of the zero-padded first 4, capped at the shorter
  // length as the reference's prefix loop is.
  const uint64_t diff = (Head4(a) ^ Head4(b)) | (uint64_t{1} << 32);
  const size_t prefix =
      std::min({static_cast<size_t>(__builtin_ctzll(diff)) / 8, len_a, len_b});
  return jaro + static_cast<double>(prefix) * 0.1 * (1.0 - jaro);
}

}  // namespace learnrisk
