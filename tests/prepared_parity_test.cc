// Copyright 2026 The LearnRisk Authors
// Parity suite for the prepared featurization path: the record-level cache
// (PrepareRecord / PreparedTable) plus the scratch string kernels must be
// *bit-identical* to the raw reference path across every MetricKind,
// including empty / whitespace / punctuation-only / high-bit ("unicode-ish")
// / NaN-parsing numeric values and string lengths straddling the 64-char
// bit-parallel kernel boundary. Also covers the FeaturePipeline prepared
// entry points and the gateway's cache invalidation after AddRecord.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "classifier/logistic.h"
#include "common/random.h"
#include "common/string_util.h"
#include "data/generators.h"
#include "gateway/gateway.h"
#include "metrics/metric_suite.h"
#include "metrics/prepared_record.h"
#include "metrics/string_kernels.h"
#include "reference/raw_featurize.h"
#include "reference/raw_metrics.h"
#include "risk/risk_feature.h"
#include "test_models.h"

namespace learnrisk {
namespace {

using reference::EditDistance;
using reference::JaroWinklerSimilarity;
using reference::LcsRatio;

// Bitwise double equality (distinguishes -0.0/0.0, treats identical NaNs as
// equal) so "bit-identical" means exactly that.
::testing::AssertionResult BitEqual(double a, double b) {
  if (std::memcmp(&a, &b, sizeof(double)) == 0) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "doubles differ: " << a << " vs " << b;
}

std::string RandomAsciiString(Rng* rng, size_t max_len) {
  static const char kAlphabet[] = "abcdeABC 01.,-";
  const size_t len = rng->Index(max_len + 1);
  std::string out;
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    out += kAlphabet[rng->Index(sizeof(kAlphabet) - 1)];
  }
  return out;
}

// Attribute values drawn from edge cases and random fragments: empty,
// whitespace-only, punctuation-only, numbers (including "nan"/"inf", which
// strtod parses), high-bit bytes, shared prefixes/suffixes, and strings
// around the 64-char bit-parallel boundary.
std::string RandomValue(Rng* rng) {
  switch (rng->Index(14)) {
    case 0: return "";
    case 1: return "   ";
    case 2: return "--- ,,, !!";
    case 3: return "nan";
    case 4: return "inf";
    case 5: return "1998";
    case 6: return "19.98e2";
    case 7: return "caf\xc3\xa9 r\xc3\xa9sum\xc3\xa9";
    case 8: return "very large data bases";
    case 9: return "vldb";
    case 10: return std::string(rng->Index(70) + 1, 'a') + "tail";
    case 11: {
      std::string s = RandomAsciiString(rng, 80);
      return "shared prefix " + s;
    }
    case 12: {
      std::string s = RandomAsciiString(rng, 80);
      return s + " shared suffix";
    }
    default: return RandomAsciiString(rng, 90);
  }
}

Record RandomRecord(Rng* rng, size_t width) {
  Record record;
  record.values.reserve(width);
  for (size_t a = 0; a < width; ++a) {
    std::string v = RandomValue(rng);
    if (rng->Bernoulli(0.25)) {
      // Comma-separated entity lists exercise the entity-set metrics.
      v += ", m franklin, michael j franklin";
    }
    record.values.push_back(std::move(v));
  }
  return record;
}

using testutil::MakeModel;  // synthetic perturbed-parameter risk models

// A suite applying every MetricKind to every attribute (metrics do not care
// about the attribute's semantic type).
MetricSuite AllKindsSuite(size_t width) {
  std::vector<Attribute> attrs;
  for (size_t a = 0; a < width; ++a) {
    attrs.push_back({"attr" + std::to_string(a), AttributeType::kText});
  }
  const Schema schema(std::move(attrs));
  static const MetricKind kAllKinds[] = {
      MetricKind::kEditSim,          MetricKind::kJaroWinkler,
      MetricKind::kTokenJaccard,     MetricKind::kNgramJaccard,
      MetricKind::kLcs,              MetricKind::kCosineTfIdf,
      MetricKind::kMongeElkan,       MetricKind::kContainment,
      MetricKind::kNumericSim,       MetricKind::kExact,
      MetricKind::kNonSubstring,     MetricKind::kNonPrefix,
      MetricKind::kNonSuffix,        MetricKind::kAbbrNonSubstring,
      MetricKind::kDiffCardinality,  MetricKind::kDistinctEntity,
      MetricKind::kDiffKeyToken,     MetricKind::kNumericUnequal,
      MetricKind::kNotEqual,
  };
  std::vector<MetricSpec> specs;
  for (size_t a = 0; a < width; ++a) {
    for (MetricKind kind : kAllKinds) {
      specs.push_back(MetricSpec{
          a, kind,
          schema.attribute(a).name + "." + MetricKindToString(kind)});
    }
  }
  return MetricSuite::FromSpecs(schema, std::move(specs)).MoveValueOrDie();
}

// `len` letters drawn from the first `alphabet` lowercase letters.
std::string RandomLetters(Rng* rng, size_t len, size_t alphabet) {
  std::string out(len, 'a');
  for (char& c : out) c = static_cast<char>('a' + rng->Index(alphabet));
  return out;
}

// Calls check(a, b) on strings whose lengths straddle the 64-, 128- and
// 192-char word boundaries of the bit-parallel kernels (every pair of those
// lengths, so inter-word carries and the last-row bit of a partial last
// word are exercised), plus random lengths in 1..200, on 2- and 6-letter
// alphabets. Every other pair gets distinct first and last characters so
// common-end stripping leaves the lengths intact.
template <typename Check>
void ForWordBoundaryPairs(Rng* rng, Check check) {
  std::vector<size_t> lengths = {1,   2,   3,   31,  32,  33,  63,  64,  65,
                                 66,  127, 128, 129, 130, 191, 192, 193, 194};
  for (int r = 0; r < 6; ++r) lengths.push_back(rng->Index(200) + 1);
  int parity = 0;
  for (const size_t alphabet : {2u, 6u}) {
    for (const size_t la : lengths) {
      for (const size_t lb : lengths) {
        std::string a = RandomLetters(rng, la, alphabet);
        std::string b = RandomLetters(rng, lb, alphabet);
        if (++parity % 2 == 0) {
          a.front() = a.back() = 'x';
          b.front() = b.back() = 'y';
        }
        check(a, b);
      }
    }
  }
}

TEST(StringKernelsTest, EditDistanceMatchesReference) {
  Rng rng(11);
  MetricScratch scratch;
  for (int iter = 0; iter < 4000; ++iter) {
    const std::string a = RandomValue(&rng);
    const std::string b = rng.Bernoulli(0.2) ? a : RandomValue(&rng);
    ASSERT_EQ(EditDistanceFast(a, b, &scratch), EditDistance(a, b))
        << "a='" << a << "' b='" << b << "'";
  }
  // Lengths straddling the 64-char bit-parallel boundary.
  for (size_t la : {0u, 1u, 63u, 64u, 65u, 128u}) {
    for (size_t lb : {0u, 1u, 63u, 64u, 65u, 128u}) {
      std::string a;
      std::string b;
      for (size_t i = 0; i < la; ++i) a += static_cast<char>('a' + i % 3);
      for (size_t i = 0; i < lb; ++i) b += static_cast<char>('b' + i % 4);
      ASSERT_EQ(EditDistanceFast(a, b, &scratch), EditDistance(a, b))
          << la << "x" << lb;
    }
  }
  ForWordBoundaryPairs(&rng, [&](const std::string& a, const std::string& b) {
    ASSERT_EQ(EditDistanceFast(a, b, &scratch), EditDistance(a, b))
        << "a='" << a << "' b='" << b << "'";
  });
}

TEST(StringKernelsTest, LcsMatchesReference) {
  Rng rng(13);
  MetricScratch scratch;
  for (int iter = 0; iter < 4000; ++iter) {
    const std::string a = RandomValue(&rng);
    const std::string b = rng.Bernoulli(0.2) ? a : RandomValue(&rng);
    ASSERT_TRUE(BitEqual(LcsRatioFast(a, b, &scratch), LcsRatio(a, b)))
        << "a='" << a << "' b='" << b << "'";
  }
  for (size_t la : {1u, 63u, 64u, 65u, 128u}) {
    std::string a;
    std::string b;
    for (size_t i = 0; i < la; ++i) a += static_cast<char>('a' + i % 5);
    for (size_t i = 0; i < la + 7; ++i) b += static_cast<char>('a' + i % 4);
    ASSERT_TRUE(BitEqual(LcsRatioFast(a, b, &scratch), LcsRatio(a, b))) << la;
  }
  ForWordBoundaryPairs(&rng, [&](const std::string& a, const std::string& b) {
    ASSERT_TRUE(BitEqual(LcsRatioFast(a, b, &scratch), LcsRatio(a, b)))
        << "a='" << a << "' b='" << b << "'";
  });
  // A carry that crosses a whole word: the final 'c' matches in word 0 and
  // its carry runs through word 1, where no text character occurs, to move
  // word 2's LCS bit (set by the leading 'x'). Dense random strings almost
  // never leave a word untouched, so this case is built by hand.
  const std::string words3 = "c" + std::string(63, 'd') +
                             std::string(64, 'e') + std::string(64, 'x');
  const std::string text = "x" + std::string(200, 'z') + "c";
  ASSERT_TRUE(
      BitEqual(LcsRatioFast(words3, text, &scratch), LcsRatio(words3, text)));
}

TEST(StringKernelsTest, JaroWinklerMatchesReference) {
  Rng rng(17);
  MetricScratch scratch;
  for (int iter = 0; iter < 4000; ++iter) {
    const std::string a = RandomValue(&rng);
    const std::string b = rng.Bernoulli(0.2) ? a : RandomValue(&rng);
    ASSERT_TRUE(BitEqual(JaroWinklerSimilarityFast(a, b, &scratch),
                         JaroWinklerSimilarity(a, b)))
        << "a='" << a << "' b='" << b << "'";
  }
  // Both sides <= 64 chars run on flag words, longer inputs on the scalar
  // loop; the boundary pairs include one side <= 64 and the other > 64.
  ForWordBoundaryPairs(&rng, [&](const std::string& a, const std::string& b) {
    ASSERT_TRUE(BitEqual(JaroWinklerSimilarityFast(a, b, &scratch),
                         JaroWinklerSimilarity(a, b)))
        << "a='" << a << "' b='" << b << "'";
  });
}

// The prepared Monge-Elkan kernel fills the token-pair Jaro-Winkler matrix
// once and reuses it for both directions, which is only bit-identical
// because greedy-window Jaro-Winkler is exactly symmetric. Lock that
// assumption in (it also holds exhaustively over short alphabets).
TEST(StringKernelsTest, JaroWinklerIsBitwiseSymmetric) {
  Rng rng(19);
  MetricScratch scratch;
  for (int iter = 0; iter < 4000; ++iter) {
    const std::string a = RandomValue(&rng);
    const std::string b = RandomValue(&rng);
    ASSERT_TRUE(BitEqual(JaroWinklerSimilarityFast(a, b, &scratch),
                         JaroWinklerSimilarityFast(b, a, &scratch)))
        << "a='" << a << "' b='" << b << "'";
  }
}

// The packed kernel against the reference on tokens of up to 16 bytes:
// every pair of 1-5 char strings over {a,b,c} (all window sizes up to 1 and
// every greedy claim order), random tokens from narrow alphabets at every
// length pair in 1..16 (including NUL and high-bit bytes, which the
// zero-padding must not confuse with real characters), and bitwise symmetry,
// which the fused Monge-Elkan kernel relies on.
TEST(StringKernelsTest, JaroWinklerPackedMatchesReference) {
  std::vector<std::string> small;
  for (size_t len = 1; len <= 5; ++len) {
    size_t combos = 1;
    for (size_t k = 0; k < len; ++k) combos *= 3;
    for (size_t code = 0; code < combos; ++code) {
      std::string s(len, 'a');
      for (size_t k = 0, rest = code; k < len; ++k, rest /= 3) {
        s[k] = static_cast<char>('a' + rest % 3);
      }
      small.push_back(std::move(s));
    }
  }
  std::vector<PackedToken> packed_small;
  for (const std::string& s : small) packed_small.push_back(PackToken(s));
  for (size_t x = 0; x < small.size(); ++x) {
    for (size_t y = 0; y < small.size(); ++y) {
      ASSERT_TRUE(BitEqual(JaroWinklerPacked(packed_small[x], small[x].size(),
                                             packed_small[y], small[y].size()),
                           JaroWinklerSimilarity(small[x], small[y])))
          << "a='" << small[x] << "' b='" << small[y] << "'";
    }
  }

  Rng rng(23);
  const std::string alphabets[] = {"ab", "abc", "abcdef",
                                   std::string("a\0\xe9", 3)};
  for (const std::string& alphabet : alphabets) {
    for (size_t la = 1; la <= kPackedTokenBytes; ++la) {
      for (size_t lb = 1; lb <= kPackedTokenBytes; ++lb) {
        for (int rep = 0; rep < 8; ++rep) {
          std::string a(la, ' ');
          std::string b(lb, ' ');
          for (char& c : a) c = alphabet[rng.Index(alphabet.size())];
          for (char& c : b) c = alphabet[rng.Index(alphabet.size())];
          const PackedToken pa = PackToken(a);
          const PackedToken pb = PackToken(b);
          const double packed = JaroWinklerPacked(pa, la, pb, lb);
          ASSERT_TRUE(BitEqual(packed, JaroWinklerSimilarity(a, b)))
              << "a='" << a << "' b='" << b << "'";
          ASSERT_TRUE(BitEqual(packed, JaroWinklerPacked(pb, lb, pa, la)))
              << "a='" << a << "' b='" << b << "'";
        }
      }
    }
  }
}

// Scratch reuse across interleaved kernels must not leak state between
// calls (block_masks hygiene), including a multi-word call followed by
// short ones: the short calls read the mask rows at a different width.
TEST(StringKernelsTest, ScratchReuseIsClean) {
  MetricScratch scratch;
  const std::string a = "abcabcabc";
  const std::string b = "xbcabcaby";
  const size_t edit = EditDistanceFast(a, b, &scratch);
  const size_t lcs = LcsLengthFast(a, b, &scratch);
  const double jw = JaroWinklerSimilarityFast(a, b, &scratch);
  std::string long_a;
  std::string long_b;
  for (size_t i = 0; i < 150; ++i) {
    long_a += static_cast<char>('a' + i % 3);
    long_b += static_cast<char>('c' - i % 5);
  }
  for (int i = 0; i < 10; ++i) {
    EditDistanceFast("zzzz", "qqqq", &scratch);
    LcsLengthFast("qzqz", "zqzq", &scratch);
    ASSERT_EQ(EditDistanceFast(a, b, &scratch), edit);
    ASSERT_EQ(LcsLengthFast(a, b, &scratch), lcs);
    ASSERT_EQ(EditDistanceFast(long_a, long_b, &scratch),
              EditDistance(long_a, long_b));
    ASSERT_EQ(EditDistanceFast(a, b, &scratch), edit);
    ASSERT_TRUE(BitEqual(LcsRatioFast(long_a, long_b, &scratch),
                         LcsRatio(long_a, long_b)));
    ASSERT_EQ(LcsLengthFast(a, b, &scratch), lcs);
    ASSERT_TRUE(BitEqual(JaroWinklerSimilarityFast(a, b, &scratch), jw));
  }
}

// The prepared Monge-Elkan kernel skips token pairs whose length-difference
// upper bound (JW <= 0.8 + 0.2 * shorter/longer) cannot raise either running
// maximum. The skip must be exact: randomized values with duplicated tokens
// (so equal-token 1.0 maxima arm the bound skip) and token lengths
// straddling the 64-char bit-parallel boundary stay bit-identical to the raw
// reference, with one scratch reused throughout.
TEST(PreparedParityTest, MongeElkanBoundBitIdentical) {
  const Schema schema({{"text", AttributeType::kText}});
  const MetricSuite suite =
      MetricSuite::FromSpecs(
          schema, {MetricSpec{0, MetricKind::kMongeElkan, "text.monge_elkan"}})
          .MoveValueOrDie();

  Rng rng(31);
  auto random_token = [&](size_t len) {
    std::string t;
    t.reserve(len);
    // Narrow alphabet: character masks overlap, so pairs reach the bound
    // check and the kernel instead of the disjoint-mask shortcut.
    for (size_t i = 0; i < len; ++i) {
      t += static_cast<char>('a' + rng.Index(6));
    }
    return t;
  };
  auto random_value = [&] {
    static const size_t kLens[] = {1,  2,  3,  5,  8,  15, 16,
                                   17, 20, 63, 64, 65, 90};
    const size_t num_tokens = rng.Index(6) + 1;
    std::vector<std::string> tokens;
    for (size_t t = 0; t < num_tokens; ++t) {
      if (!tokens.empty() && rng.Bernoulli(0.3)) {
        tokens.push_back(tokens[rng.Index(tokens.size())]);  // duplicate
      } else {
        tokens.push_back(random_token(kLens[rng.Index(std::size(kLens))]));
      }
    }
    std::string v;
    for (const std::string& t : tokens) {
      if (!v.empty()) v += ' ';
      v += t;
    }
    return v;
  };

  MetricScratch scratch;  // reused throughout
  for (int iter = 0; iter < 300; ++iter) {
    Record left;
    left.values.push_back(random_value());
    Record right;
    right.values.push_back(rng.Bernoulli(0.2) ? left.values[0]
                                              : random_value());
    const double raw = reference::EvaluateRaw(suite, left, right, 0);
    const PreparedRecord pl = suite.PrepareRecord(left);
    const PreparedRecord pr = suite.PrepareRecord(right);
    ASSERT_TRUE(BitEqual(suite.EvaluatePrepared(pl, pr, 0, &scratch), raw))
        << "'" << left.values[0] << "' vs '" << right.values[0] << "'";
  }

  // Deterministic boundary sweep: a shared token arms both maxima at
  // exactly 1.0, so the long near-equal tokens hit the bound-skip decision
  // at every bit-parallel kernel boundary length and on both sides of the
  // 16-byte packed-token limit.
  for (const size_t la : {1u, 4u, 15u, 16u, 17u, 63u, 64u, 65u, 128u}) {
    for (const size_t lb : {1u, 4u, 15u, 16u, 17u, 63u, 64u, 65u, 128u}) {
      Record left;
      left.values.push_back("common " + std::string(la, 'a'));
      Record right;
      right.values.push_back("common " + std::string(lb, 'a') + "b");
      const double raw = reference::EvaluateRaw(suite, left, right, 0);
      const PreparedRecord pl = suite.PrepareRecord(left);
      const PreparedRecord pr = suite.PrepareRecord(right);
      ASSERT_TRUE(BitEqual(suite.EvaluatePrepared(pl, pr, 0, &scratch), raw))
          << la << "x" << lb;
    }
  }
}

// reference::MongeElkan over explicit token lists: the reference tokenizes
// its strings first, and these lists may hold tokens Tokenize never emits
// (such as "ab\0").
double ReferenceMongeElkan(const std::vector<std::string>& ta,
                           const std::vector<std::string>& tb) {
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

// A one-attribute prepared record holding exactly `tokens`, as PrepareRecord
// fills a Monge-Elkan attribute.
PreparedRecord TokensRecord(const std::vector<std::string>& tokens) {
  PreparedRecord record;
  PreparedValue& value = record.values.emplace_back();
  value.missing = false;
  value.tokens = tokens;
  for (const std::string& t : tokens) {
    value.packed_tokens.push_back(PackToken(t));
  }
  return record;
}

// The Monge-Elkan column cache (MongeElkanColumnCache in MetricScratch)
// serves a left value's run of consecutive pairs from stored Jaro-Winkler
// columns. Through one scratch, as a request chunk uses one, every value
// stays bit-identical to the raw reference: for one left value against 240
// right values drawn from a small token pool (hits dominate), with right
// tokens of 16 (cached), 17 and 64 bytes (never cached), and two Monge-Elkan
// columns interleaved pair by pair, each of which must hit its own cache;
// then for runs of left values that differ from the previous run's only
// after byte 16 of a long token, only in token order, or only in a token's
// length ("ab" vs "ab\0", hand-built since Tokenize never emits a NUL), with
// right tokens "ab" and "ab\0" in one run. Every left value has at least
// four tokens and every run at least five pairs, so each run arms its
// cache. Each run's left record is rebuilt in the same stack slot, so a
// cache keyed on addresses would serve the previous run's columns.
TEST(PreparedParityTest, MongeElkanColumnCacheBitIdentical) {
  const Schema schema(
      {{"title", AttributeType::kText}, {"authors", AttributeType::kText}});
  const MetricSuite suite =
      MetricSuite::FromSpecs(
          schema, {MetricSpec{0, MetricKind::kMongeElkan, "title.monge_elkan"},
                   MetricSpec{1, MetricKind::kMongeElkan,
                              "authors.monge_elkan"}})
          .MoveValueOrDie();
  MetricScratch scratch;  // reused throughout

  // Both columns of every (left, right) pair, in column order; returns the
  // title column's reference values so callers can compare runs.
  auto run = [&](const Record& left, const std::vector<Record>& rights) {
    const PreparedRecord prepared_left = suite.PrepareRecord(left);
    std::vector<double> title;
    for (const Record& right : rights) {
      const PreparedRecord prepared_right = suite.PrepareRecord(right);
      for (size_t m = 0; m < suite.num_metrics(); ++m) {
        const double raw = reference::EvaluateRaw(suite, left, right, m);
        EXPECT_TRUE(BitEqual(suite.EvaluatePrepared(prepared_left,
                                                    prepared_right, m,
                                                    &scratch),
                             raw))
            << suite.specs()[m].name << ": '" << left.values[m] << "' vs '"
            << right.values[m] << "'";
        if (m == 0) title.push_back(raw);
      }
    }
    return title;
  };

  const std::string t16 = "abcdefghijklmnop";
  const std::string t17 = "abcdefghijklmnopq";
  const std::string t64 = std::string(32, 'e') + std::string(32, 'a');
  const std::vector<std::string> title_pool = {
      "alpha", "alpah", "beta",  "betta", "gamma", "delta",
      "delt",  "eps",   "lmnop", t16,     t17,     t64};
  const std::vector<std::string> author_pool = {"one", "two",  "three",
                                                "for", "fore", "onee"};
  Rng rng(37);
  auto draw = [&](const std::vector<std::string>& pool) {
    std::string value;
    const size_t n = rng.Index(5) + 2;
    for (size_t t = 0; t < n; ++t) {
      value += (t == 0 ? "" : " ") + pool[rng.Index(pool.size())];
    }
    return value;
  };
  std::vector<Record> rights(240);
  for (Record& right : rights) {
    right.values = {draw(title_pool), draw(author_pool)};
  }
  Record left;
  left.values = {"alpha beta gamma delta epsilon " + t16 + "qrs",
                 "one two three four"};
  run(left, rights);
  for (size_t column = 0; column < 2; ++column) {
    EXPECT_GT(scratch.monge_elkan[column].hits,
              scratch.monge_elkan[column].misses)
        << suite.specs()[column].name;
  }

  // Runs of left values that differ from the one before only after byte 16
  // of the 19-byte token (the same characters, so the same mask), then only
  // in token order. The right tokens near the tail make the first two runs'
  // values differ.
  const std::vector<std::string> tail_pool = {"ijklmnopqrs", "klmnopsrq",
                                              "mnopqr", "pqrs", "srq",
                                              "alpha", "beta"};
  std::vector<Record> tail_rights(10);
  for (Record& right : tail_rights) {
    right.values = {draw(tail_pool), draw(author_pool)};
  }
  Record tail_b = left;
  tail_b.values[0] = "alpha beta gamma delta epsilon " + t16 + "srq";
  Record order_c = tail_b;
  order_c.values[0] = "beta alpha gamma delta epsilon " + t16 + "srq";
  const std::vector<double> a_values = run(left, tail_rights);
  const std::vector<double> b_values = run(tail_b, tail_rights);
  run(order_c, tail_rights);
  EXPECT_NE(a_values, b_values);

  // Hand-built values differing only in a token's length: "ab" and "ab\0"
  // pack to the same 16 bytes. The right runs hold both as well, after the
  // cache has armed.
  const Schema one({{"tokens", AttributeType::kText}});
  const MetricSuite one_column =
      MetricSuite::FromSpecs(
          one, {MetricSpec{0, MetricKind::kMongeElkan, "tokens.monge_elkan"}})
          .MoveValueOrDie();
  const std::string ab0("ab\0", 3);
  const std::vector<std::vector<std::string>> nul_rights = {
      {"cd", "ef"},  {"gh", "abc"}, {"cd", "gh"}, {"ef", "ab"},
      {"ab", "cd"},  {ab0, "gh"},   {"ab", ab0},  {ab0, "ef", "cd"},
      {"abc", "ab"}, {ab0}};
  const std::vector<std::vector<std::string>> nul_lefts = {
      {"ab", "cd", "ef", "gh"}, {ab0, "cd", "ef", "gh"}};
  for (const std::vector<std::string>& left_tokens : nul_lefts) {
    const PreparedRecord prepared_left = TokensRecord(left_tokens);
    for (const std::vector<std::string>& right_tokens : nul_rights) {
      EXPECT_TRUE(BitEqual(
          one_column.EvaluatePrepared(prepared_left, TokensRecord(right_tokens),
                                      0, &scratch),
          ReferenceMongeElkan(left_tokens, right_tokens)))
          << left_tokens[0].size() << "-byte first left token";
    }
  }
  // The helper is the reference formula.
  Record x;
  x.values = {"alpha beta"};
  Record y;
  y.values = {"alpah betta gamma"};
  EXPECT_TRUE(BitEqual(ReferenceMongeElkan(Tokenize(x.values[0]),
                                           Tokenize(y.values[0])),
                       reference::EvaluateRaw(one_column, x, y, 0)));
}

TEST(PreparedParityTest, AllKindsBitIdenticalFittedAndUnfitted) {
  constexpr size_t kWidth = 3;
  for (const bool fitted : {true, false}) {
    MetricSuite suite = AllKindsSuite(kWidth);
    Rng rng(fitted ? 101 : 202);
    if (fitted) {
      // Fit IDF tables on a random two-table corpus.
      auto left = std::make_shared<Table>(suite.schema());
      auto right = std::make_shared<Table>(suite.schema());
      for (int i = 0; i < 40; ++i) {
        ASSERT_TRUE(left->Append(RandomRecord(&rng, kWidth), i).ok());
        ASSERT_TRUE(right->Append(RandomRecord(&rng, kWidth), i).ok());
      }
      const Workload corpus("corpus", left, right, {});
      suite.Fit(corpus);
    }
    MetricScratch scratch;
    for (int iter = 0; iter < 300; ++iter) {
      const Record left = RandomRecord(&rng, kWidth);
      const Record right =
          rng.Bernoulli(0.15) ? left : RandomRecord(&rng, kWidth);
      const PreparedRecord prepared_left = suite.PrepareRecord(left);
      const PreparedRecord prepared_right = suite.PrepareRecord(right);
      std::vector<double> raw(suite.num_metrics());
      std::vector<double> prepared(suite.num_metrics());
      reference::EvaluateRawPairInto(suite, left, right, raw.data());
      suite.EvaluatePairPreparedInto(prepared_left, prepared_right, &scratch,
                                     prepared.data());
      for (size_t m = 0; m < suite.num_metrics(); ++m) {
        ASSERT_TRUE(BitEqual(raw[m], prepared[m]))
            << suite.specs()[m].name << " on '" << left.values[0] << "'... ("
            << (fitted ? "fitted" : "unfitted") << ")";
      }
    }
  }
}

TEST(PreparedParityTest, ComputeFeaturesMatchesRawEvaluation) {
  GeneratorOptions options;
  options.scale = 0.02;
  options.seed = 5;
  Workload ds = GenerateDataset("DS", options).MoveValueOrDie();
  MetricSuite suite = MetricSuite::ForSchema(ds.left().schema());
  suite.Fit(ds);
  const FeatureMatrix features = ComputeFeatures(ds, suite);
  ASSERT_EQ(features.rows(), ds.size());
  for (size_t i = 0; i < ds.size(); i += 7) {
    const std::vector<double> raw =
        reference::EvaluateRawPair(suite, ds.LeftRecord(i), ds.RightRecord(i));
    for (size_t m = 0; m < suite.num_metrics(); ++m) {
      ASSERT_TRUE(BitEqual(features.at(i, m), raw[m]))
          << "pair " << i << " metric " << suite.specs()[m].name;
    }
  }
}

TEST(PreparedParityTest, FeaturePipelinePreparedMatchesRaw) {
  GeneratorOptions options;
  options.scale = 0.02;
  options.seed = 9;
  Workload ds = GenerateDataset("DS", options).MoveValueOrDie();
  MetricSuite suite = MetricSuite::ForSchema(ds.left().schema());
  suite.Fit(ds);
  const FeatureMatrix features = ComputeFeatures(ds, suite);
  LogisticOptions logistic;
  logistic.epochs = 10;
  logistic.seed = 3;
  auto classifier = std::make_shared<LogisticClassifier>(logistic);
  ASSERT_TRUE(classifier->Train(features, ds.Labels()).ok());

  // Subset classifier columns exercise the gather path.
  std::vector<size_t> columns;
  for (size_t c = 0; c < suite.num_metrics(); c += 2) columns.push_back(c);
  const FeaturePipeline pipeline(suite, classifier, columns);
  const PreparedTable left = PreparedTable::Build(ds.left(), suite);
  const PreparedTable right = PreparedTable::Build(ds.right(), suite);

  const FeaturizedBatch raw = reference::RawFeaturize(
      pipeline.suite(), *classifier, pipeline.classifier_columns(), ds.left(),
      ds.right(), ds.pairs());
  auto prepared = pipeline.RunPrepared(left, right, ds.pairs());
  ASSERT_TRUE(prepared.ok());
  ASSERT_EQ(raw.probs.size(), prepared->probs.size());
  for (size_t i = 0; i < ds.size(); ++i) {
    ASSERT_TRUE(BitEqual(raw.probs[i], prepared->probs[i])) << i;
    for (size_t m = 0; m < suite.num_metrics(); ++m) {
      ASSERT_TRUE(BitEqual(raw.features.at(i, m), prepared->features.at(i, m)))
          << i << "," << m;
    }
  }

  // Probe path: an arbitrary left record against right-side candidates.
  const Record& probe = ds.left().record(0);
  std::vector<size_t> candidates;
  std::vector<RecordPair> probe_pairs;
  for (size_t c = 0; c < std::min<size_t>(ds.right().num_records(), 25); ++c) {
    candidates.push_back(c);
    probe_pairs.push_back({0, c, false});
  }
  const FeaturizedBatch raw_probe = reference::RawFeaturize(
      pipeline.suite(), *classifier, pipeline.classifier_columns(), ds.left(),
      ds.right(), probe_pairs, &probe);
  auto prepared_probe = pipeline.RunProbePrepared(pipeline.Prepare(probe),
                                                  right, candidates);
  ASSERT_TRUE(prepared_probe.ok());
  for (size_t i = 0; i < candidates.size(); ++i) {
    ASSERT_TRUE(BitEqual(raw_probe.probs[i], prepared_probe->probs[i])) << i;
  }

  // Out-of-range pairs are rejected against the prepared tables too.
  auto bad = pipeline.RunPrepared(left, right,
                                  {{ds.left().num_records(), 0, false}});
  EXPECT_TRUE(bad.status().IsOutOfRange());
}

// PrepareRecord borrows the record's strings instead of deep-copying them
// (PreparedValue::raw is a view into the caller-owned record, the contract
// the gateway's SideStore segments rely on), and the borrowed entry still
// evaluates bit-identically to the raw path.
TEST(PreparedParityTest, PrepareRecordBorrowsWithoutCopy) {
  GeneratorOptions options;
  options.scale = 0.02;
  options.seed = 13;
  Workload ds = GenerateDataset("DS", options).MoveValueOrDie();
  MetricSuite suite = MetricSuite::ForSchema(ds.left().schema());
  suite.Fit(ds);

  // The source record stays alive and unmoved, per the borrow contract.
  const Table& right = ds.right();
  ASSERT_GT(right.num_records(), 1u);
  const Record extra = right.record(right.num_records() - 1);
  const PreparedRecord prepared = suite.PrepareRecord(extra);

  // Zero-copy: every populated raw view aliases the extra record's own
  // string storage (no duplicated bytes).
  size_t populated = 0;
  for (size_t a = 0; a < prepared.values.size(); ++a) {
    const std::string_view raw = prepared.values[a].raw;
    if (raw.empty()) continue;
    ++populated;
    EXPECT_EQ(raw.data(), extra.values[a].data())
        << "attribute " << a << " was copied, not borrowed";
  }
  EXPECT_GT(populated, 0u);  // the suite has character-level metrics

  // And the borrowed entry is bit-identical to the raw reference path.
  MetricScratch scratch;
  std::vector<double> prepared_row(suite.num_metrics());
  std::vector<double> raw_row(suite.num_metrics());
  const PreparedTable left = PreparedTable::Build(ds.left(), suite);
  for (size_t l = 0; l < std::min<size_t>(ds.left().num_records(), 25);
       ++l) {
    suite.EvaluatePairPreparedInto(left.record(l), prepared, &scratch,
                                   prepared_row.data());
    reference::EvaluateRawPairInto(suite, ds.left().record(l), extra,
                                   raw_row.data());
    for (size_t m = 0; m < suite.num_metrics(); ++m) {
      ASSERT_TRUE(BitEqual(prepared_row[m], raw_row[m]))
          << "left " << l << " metric " << suite.specs()[m].name;
    }
  }
}

// After AddRecord, the namespace's prepared cache must include the new
// record: a gateway that grew online scores bit-identically to a gateway
// registered with the extended tables from scratch.
TEST(PreparedParityTest, GatewayCacheExtendedByAddRecord) {
  GeneratorOptions options;
  options.scale = 0.02;
  options.seed = 21;
  Workload ds = GenerateDataset("DS", options).MoveValueOrDie();
  MetricSuite suite = MetricSuite::ForSchema(ds.left().schema());
  suite.Fit(ds);
  const FeatureMatrix features = ComputeFeatures(ds, suite);
  LogisticOptions logistic;
  logistic.epochs = 10;
  logistic.seed = 4;
  auto classifier = std::make_shared<LogisticClassifier>(logistic);
  ASSERT_TRUE(classifier->Train(features, ds.Labels()).ok());

  // Split off the last right-side record: gateway A learns it via AddRecord,
  // gateway B is registered with it already present.
  const size_t full_right = ds.right().num_records();
  ASSERT_GT(full_right, 1u);
  auto trimmed_right = std::make_shared<Table>(ds.right().schema());
  for (size_t i = 0; i + 1 < full_right; ++i) {
    ASSERT_TRUE(trimmed_right
                    ->Append(ds.right().record(i), ds.right().entity_id(i))
                    .ok());
  }
  const Record extra = ds.right().record(full_right - 1);
  const int64_t extra_entity = ds.right().entity_id(full_right - 1);

  auto make_spec = [&](std::shared_ptr<const Table> right) {
    NamespaceSpec spec;
    spec.left = ds.left_ptr();
    spec.right = std::move(right);
    spec.suite = suite;
    spec.classifier = classifier;
    return spec;
  };
  Gateway grown;
  ASSERT_TRUE(grown.RegisterNamespace("ds", make_spec(trimmed_right)).ok());
  Gateway reference;
  ASSERT_TRUE(reference.RegisterNamespace("ds", make_spec(ds.right_ptr())).ok());
  const RiskModel model = MakeModel(77, 16, suite.num_metrics());
  ASSERT_TRUE(grown.Publish("ds", model).ok());
  ASSERT_TRUE(reference.Publish("ds", model).ok());

  ASSERT_TRUE(
      grown.AddRecord("ds", BlockingSide::kRight, extra, extra_entity).ok());
  ASSERT_EQ(grown.NumRecords("ds", BlockingSide::kRight).ValueOrDie(),
            full_right);

  // Explicit pairs that all touch the appended record.
  ResolveRequest request;
  for (size_t l = 0; l < std::min<size_t>(ds.left().num_records(), 20); ++l) {
    request.pairs.push_back({l, full_right - 1, false});
  }
  auto grown_response = grown.Resolve("ds", request);
  auto reference_response = reference.Resolve("ds", request);
  ASSERT_TRUE(grown_response.ok()) << grown_response.status().ToString();
  ASSERT_TRUE(reference_response.ok());
  ASSERT_EQ(grown_response->scores.risk.size(), request.pairs.size());
  for (size_t i = 0; i < request.pairs.size(); ++i) {
    ASSERT_TRUE(BitEqual(grown_response->scores.risk[i],
                         reference_response->scores.risk[i]))
        << i;
  }

  // And the full candidate set agrees end to end after the add.
  ResolveRequest block_all;
  block_all.block_all = true;
  auto grown_all = grown.Resolve("ds", block_all);
  auto reference_all = reference.Resolve("ds", block_all);
  ASSERT_TRUE(grown_all.ok());
  ASSERT_TRUE(reference_all.ok());
  ASSERT_EQ(grown_all->pairs.size(), reference_all->pairs.size());
  for (size_t i = 0; i < grown_all->pairs.size(); ++i) {
    ASSERT_TRUE(
        BitEqual(grown_all->scores.risk[i], reference_all->scores.risk[i]))
        << i;
  }
}

}  // namespace
}  // namespace learnrisk
