// Copyright 2026 The LearnRisk Authors

#include "metrics/metric_suite.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <unordered_set>

#include "common/parallel.h"
#include "common/string_util.h"

namespace learnrisk {

IdfTable IdfTable::Build(const std::vector<std::string_view>& corpus) {
  IdfTable table;
  table.num_documents_ = corpus.size();
  for (std::string_view doc : corpus) {
    std::unordered_set<std::string> seen;
    for (std::string& tok : Tokenize(doc)) {
      if (seen.insert(tok).second) table.df_[tok]++;
    }
  }
  return table;
}

double IdfTable::Idf(const std::string& token) const {
  const auto it = df_.find(token);
  const double df = it == df_.end() ? 0.0 : static_cast<double>(it->second);
  return std::log((1.0 + static_cast<double>(num_documents_)) / (1.0 + df)) +
         1.0;
}

bool IdfTable::IsKeyToken(const std::string& token, double min_idf) const {
  return Idf(token) >= min_idf;
}

const char* MetricKindToString(MetricKind kind) {
  switch (kind) {
    case MetricKind::kEditSim: return "edit_sim";
    case MetricKind::kJaroWinkler: return "jaro_winkler";
    case MetricKind::kTokenJaccard: return "jaccard";
    case MetricKind::kNgramJaccard: return "ngram_jaccard";
    case MetricKind::kLcs: return "lcs";
    case MetricKind::kCosineTfIdf: return "cosine_tfidf";
    case MetricKind::kMongeElkan: return "monge_elkan";
    case MetricKind::kContainment: return "containment";
    case MetricKind::kNumericSim: return "numeric_sim";
    case MetricKind::kExact: return "exact";
    case MetricKind::kNonSubstring: return "non_substring";
    case MetricKind::kNonPrefix: return "non_prefix";
    case MetricKind::kNonSuffix: return "non_suffix";
    case MetricKind::kAbbrNonSubstring: return "abbr_non_substring";
    case MetricKind::kDiffCardinality: return "diff_cardinality";
    case MetricKind::kDistinctEntity: return "distinct_entity";
    case MetricKind::kDiffKeyToken: return "diff_key_token";
    case MetricKind::kNumericUnequal: return "numeric_unequal";
    case MetricKind::kNotEqual: return "not_equal";
  }
  return "unknown";
}

bool IsDifferenceMetric(MetricKind kind) {
  switch (kind) {
    case MetricKind::kNonSubstring:
    case MetricKind::kNonPrefix:
    case MetricKind::kNonSuffix:
    case MetricKind::kAbbrNonSubstring:
    case MetricKind::kDiffCardinality:
    case MetricKind::kDistinctEntity:
    case MetricKind::kDiffKeyToken:
    case MetricKind::kNumericUnequal:
    case MetricKind::kNotEqual:
      return true;
    default:
      return false;
  }
}

namespace {

void AddSpec(std::vector<MetricSpec>* specs, const Schema& schema, size_t attr,
             MetricKind kind) {
  specs->push_back(MetricSpec{
      attr, kind,
      schema.attribute(attr).name + "." + MetricKindToString(kind)});
}

}  // namespace

MetricSuite MetricSuite::ForSchema(const Schema& schema) {
  std::vector<MetricSpec> specs;
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    const Attribute& attr = schema.attribute(a);
    switch (attr.type) {
      case AttributeType::kEntityName:
        AddSpec(&specs, schema, a, MetricKind::kEditSim);
        AddSpec(&specs, schema, a, MetricKind::kJaroWinkler);
        AddSpec(&specs, schema, a, MetricKind::kTokenJaccard);
        AddSpec(&specs, schema, a, MetricKind::kNonSubstring);
        AddSpec(&specs, schema, a, MetricKind::kNonPrefix);
        AddSpec(&specs, schema, a, MetricKind::kNonSuffix);
        AddSpec(&specs, schema, a, MetricKind::kAbbrNonSubstring);
        break;
      case AttributeType::kEntitySet:
        AddSpec(&specs, schema, a, MetricKind::kTokenJaccard);
        AddSpec(&specs, schema, a, MetricKind::kMongeElkan);
        AddSpec(&specs, schema, a, MetricKind::kDiffCardinality);
        AddSpec(&specs, schema, a, MetricKind::kDistinctEntity);
        break;
      case AttributeType::kText:
        if (Contains(attr.name, "description")) {
          // Long text: token-level metrics only (quadratic character DP
          // metrics are both slow and uninformative here).
          AddSpec(&specs, schema, a, MetricKind::kTokenJaccard);
          AddSpec(&specs, schema, a, MetricKind::kCosineTfIdf);
          AddSpec(&specs, schema, a, MetricKind::kContainment);
          AddSpec(&specs, schema, a, MetricKind::kDiffKeyToken);
        } else {
          AddSpec(&specs, schema, a, MetricKind::kEditSim);
          AddSpec(&specs, schema, a, MetricKind::kTokenJaccard);
          AddSpec(&specs, schema, a, MetricKind::kNgramJaccard);
          AddSpec(&specs, schema, a, MetricKind::kLcs);
          AddSpec(&specs, schema, a, MetricKind::kCosineTfIdf);
          AddSpec(&specs, schema, a, MetricKind::kMongeElkan);
          AddSpec(&specs, schema, a, MetricKind::kDiffKeyToken);
        }
        break;
      case AttributeType::kNumeric:
        AddSpec(&specs, schema, a, MetricKind::kNumericSim);
        AddSpec(&specs, schema, a, MetricKind::kExact);
        AddSpec(&specs, schema, a, MetricKind::kNumericUnequal);
        break;
      case AttributeType::kCategorical:
        AddSpec(&specs, schema, a, MetricKind::kExact);
        AddSpec(&specs, schema, a, MetricKind::kNotEqual);
        break;
    }
  }
  return FromSpecs(schema, std::move(specs)).MoveValueOrDie();
}

Result<MetricSuite> MetricSuite::FromSpecs(const Schema& schema,
                                           std::vector<MetricSpec> specs) {
  for (const MetricSpec& spec : specs) {
    if (spec.attribute >= schema.num_attributes()) {
      return Status::InvalidArgument(
          "metric '" + spec.name + "' reads attribute " +
          std::to_string(spec.attribute) + " of a " +
          std::to_string(schema.num_attributes()) + "-attribute schema");
    }
  }
  MetricSuite suite;
  suite.schema_ = schema;
  suite.specs_ = std::move(specs);
  suite.idf_.resize(schema.num_attributes());
  suite.min_key_idf_.resize(schema.num_attributes(), 0.0);
  suite.RecomputeNeeds();
  return suite;
}

void MetricSuite::Fit(const Workload& workload) {
  // Which attributes need corpus statistics?
  std::vector<bool> needs_idf(schema_.num_attributes(), false);
  for (const MetricSpec& spec : specs_) {
    if (spec.kind == MetricKind::kCosineTfIdf ||
        spec.kind == MetricKind::kDiffKeyToken) {
      needs_idf[spec.attribute] = true;
    }
  }
  for (size_t a = 0; a < schema_.num_attributes(); ++a) {
    if (!needs_idf[a]) continue;
    std::vector<std::string_view> corpus;
    const Table& left = workload.left();
    const Table& right = workload.right();
    corpus.reserve(left.num_records() +
                   (&left == &right ? 0 : right.num_records()));
    for (size_t i = 0; i < left.num_records(); ++i) {
      corpus.push_back(left.record(i).value(a));
    }
    if (&left != &right) {
      for (size_t i = 0; i < right.num_records(); ++i) {
        corpus.push_back(right.record(i).value(a));
      }
    }
    idf_[a] = std::make_shared<IdfTable>(IdfTable::Build(corpus));
    // A token counts as "key" if it appears in at most max(3, N/500)
    // documents; convert that document-frequency cap into an idf threshold.
    const double n = static_cast<double>(corpus.size());
    const double df_cap = std::max(3.0, n / 500.0);
    min_key_idf_[a] = std::log((1.0 + n) / (1.0 + df_cap)) + 1.0;
  }
}

std::vector<std::string> MetricSuite::MetricNames() const {
  std::vector<std::string> names;
  names.reserve(specs_.size());
  for (const MetricSpec& spec : specs_) names.push_back(spec.name);
  return names;
}

// --- Prepared fast path ------------------------------------------------------

namespace {

/// Which PreparedValue fields a metric kind reads.
enum PrepareNeeds : uint32_t {
  kNeedRaw = 1u << 9,
  kNeedNorm = 1u << 0,
  kNeedAbbr = 1u << 1,
  kNeedTokens = 1u << 2,
  kNeedTokenSet = 1u << 3,
  kNeedNgrams = 1u << 4,
  kNeedTfidf = 1u << 5,
  kNeedKeyTokens = 1u << 6,
  kNeedEntities = 1u << 7,
  kNeedNumeric = 1u << 8,
};

using Section = PreparedValue::Section;

/// One prepared value and the buffer of the record holding it, through
/// which the kernels read the value's sections.
struct ValueRef {
  ValueRef(const PreparedValue& v, const PreparedRecord& record)
      : value(v), bytes(reinterpret_cast<const char*>(record.data.data())) {}

  /// A uint32 section's element count.
  size_t Count(Section s) const {
    return (value.at[s + 1] - value.at[s]) / sizeof(uint32_t);
  }
  /// A uint32 section's elements.
  const uint32_t* Words(Section s) const {
    return reinterpret_cast<const uint32_t*>(bytes + value.at[s]);
  }
  std::string_view Chars(Section s) const {
    return {bytes + value.at[s], value.at[s + 1] - value.at[s]};
  }
  /// The tf-idf weight of the i-th sorted unique token.
  double Weight(size_t i) const {
    double w;
    std::memcpy(&w, bytes + value.at[Section::kTfidfWeights] + i * sizeof(w),
                sizeof(w));
    return w;
  }
  const std::string& Token(uint32_t position) const {
    return value.tokens[position];
  }

  const PreparedValue& value;
  const char* bytes;
};

/// Positions of the unique tokens of `tokens`, sorted by text.
std::vector<uint32_t> SortedUniquePositions(
    const std::vector<std::string>& tokens) {
  std::vector<uint32_t> positions(tokens.size());
  for (size_t i = 0; i < tokens.size(); ++i) {
    positions[i] = static_cast<uint32_t>(i);
  }
  std::sort(positions.begin(), positions.end(),
            [&](uint32_t x, uint32_t y) { return tokens[x] < tokens[y]; });
  positions.erase(std::unique(positions.begin(), positions.end(),
                              [&](uint32_t x, uint32_t y) {
                                return tokens[x] == tokens[y];
                              }),
                  positions.end());
  return positions;
}

/// How many tokens Tokenize(s) returns, without building them.
size_t CountTokens(std::string_view s) {
  size_t count = 0;
  bool in_token = false;
  for (char c : s) {
    const bool alnum = std::isalnum(static_cast<unsigned char>(c)) != 0;
    count += alnum && !in_token;
    in_token = alnum;
  }
  return count;
}

/// Injective integer key for a char n-gram of length 1..3 (CharNgrams with
/// n == 3 emits only those): length tag plus the raw bytes. Distinct strings
/// get distinct keys, so sorted-unique key sets have exactly the string
/// sets' cardinalities and intersection sizes.
uint32_t NgramKey(const std::string& gram) {
  uint32_t bytes = 0;
  for (char c : gram) bytes = (bytes << 8) | static_cast<unsigned char>(c);
  return (static_cast<uint32_t>(gram.size()) << 24) | bytes;
}

/// |a ∩ b| for sorted unique key arrays. The merge steps without a
/// branch: equal keys advance both sides, so the comparison outcomes are
/// data the loop adds rather than jumps it mispredicts.
size_t SortedKeyIntersectionCount(const uint32_t* a, size_t na,
                                  const uint32_t* b, size_t nb) {
  size_t count = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < na && j < nb) {
    const uint32_t x = a[i];
    const uint32_t y = b[j];
    count += x == y;
    i += x <= y;
    j += y <= x;
  }
  return count;
}

/// |A ∩ B| for section `s` of `a` (sorted or key token positions) and
/// `b`'s sorted unique tokens, compared by text; same integer the
/// unordered_set reference intersection produces.
size_t SortedTokenIntersectionCount(const ValueRef& a, Section s,
                                    const ValueRef& b) {
  const uint32_t* pa = a.Words(s);
  const uint32_t* pb = b.Words(Section::kSortedTokens);
  const size_t na = a.Count(s);
  const size_t nb = b.Count(Section::kSortedTokens);
  size_t count = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < na && j < nb) {
    const int cmp = a.Token(pa[i]).compare(b.Token(pb[j]));
    if (cmp < 0) {
      ++i;
    } else if (cmp > 0) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

/// Mirror of reference::EntityNamesEquivalent over the token runs [ta,
/// ta + na) and [tb, tb + nb): same surname edit-similarity threshold, same
/// head-initial compatibility rule.
bool PreparedEntitiesEquivalent(const std::string* ta, size_t na,
                                const std::string* tb, size_t nb,
                                MetricScratch* scratch) {
  if (na == 0 || nb == 0) return na == 0 && nb == 0;
  if (NormalizedEditSimilarityFast(ta[na - 1], tb[nb - 1], scratch) < 0.8) {
    return false;
  }
  const size_t heads = std::min(na, nb) - 1;
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

/// Mirror of reference::DistinctEntityCount over prepared entity runs
/// (greedy first-match pairing in the same order).
double PreparedDistinctEntityCount(const ValueRef& a, const ValueRef& b,
                                   MetricScratch* scratch) {
  const uint32_t* ends_a = a.Words(Section::kEntityEnds);
  const uint32_t* ends_b = b.Words(Section::kEntityEnds);
  const size_t na = a.Count(Section::kEntityEnds);
  const size_t nb = b.Count(Section::kEntityEnds);
  const std::string* ta = a.value.tokens.data();
  const std::string* tb = b.value.tokens.data();
  scratch->used.assign(nb, 0);
  size_t matched_a = 0;
  for (size_t i = 0; i < na; ++i) {
    const uint32_t begin_a = i == 0 ? 0 : ends_a[i - 1];
    for (size_t j = 0; j < nb; ++j) {
      if (scratch->used[j]) continue;
      const uint32_t begin_b = j == 0 ? 0 : ends_b[j - 1];
      if (PreparedEntitiesEquivalent(ta + begin_a, ends_a[i] - begin_a,
                                     tb + begin_b, ends_b[j] - begin_b,
                                     scratch)) {
        scratch->used[j] = 1;
        ++matched_a;
        break;
      }
    }
  }
  const size_t unmatched_a = na - matched_a;
  size_t unmatched_b = 0;
  for (uint8_t used : scratch->used) unmatched_b += used ? 0 : 1;
  return static_cast<double>(unmatched_a + unmatched_b);
}

/// Fills row_best/col_best (zeroed, sized |ta| and |tb|) with the per-token
/// maxima over the whole Jaro-Winkler matrix, in one fused pass. Three exact
/// shortcuts skip the quadratic kernel without changing either maximum:
///  - tokens with disjoint character masks score exactly 0.0 (no matches
///    and no shared prefix);
///  - equal tokens score exactly 1.0; tokens of equal length up to 16 bytes
///    are equal iff their zero-padded packed bytes are;
///  - a length-difference upper bound: Jaro's matches m <= min(|s|,|t|), so
///    jaro <= (2 + min/max) / 3, and Winkler (prefix <= 4, scale 0.1) maps
///    jaro to at most 0.4 + 0.6*jaro, giving JW <= 0.8 + 0.2 * (min/max).
///    With a 1e-9 margin absorbing FP rounding on both sides, any pair whose
///    bound is already <= *both* current maxima can be skipped — the real
///    value could not have raised either one. The bound is never below 0.8,
///    so it is only worth computing once both maxima have reached 0.8.
/// Pairs of tokens up to 16 bytes run JaroWinklerPacked on the packed
/// tokens; longer ones JaroWinklerSimilarityFast on the strings.
void MongeElkanMatrix(const PreparedValue& a, const PreparedValue& b,
                      MetricScratch* scratch) {
  const std::vector<std::string>& ta = a.tokens;
  const std::vector<std::string>& tb = b.tokens;
  std::vector<double>& row_best = scratch->row_best;
  std::vector<double>& col_best = scratch->col_best;
  for (size_t i = 0; i < ta.size(); ++i) {
    const PackedToken& pa = a.packed_tokens[i];
    const size_t la = ta[i].size();
    for (size_t j = 0; j < tb.size(); ++j) {
      const PackedToken& pb = b.packed_tokens[j];
      if ((pa.mask & pb.mask) == 0) continue;  // exactly 0.0
      const size_t lb = tb[j].size();
      const bool packed = la <= kPackedTokenBytes && lb <= kPackedTokenBytes;
      if (la == lb &&
          (packed ? std::memcmp(pa.bytes, pb.bytes, kPackedTokenBytes) == 0
                  : ta[i] == tb[j])) {  // exactly what the kernel returns
        row_best[i] = std::max(row_best[i], 1.0);
        col_best[j] = std::max(col_best[j], 1.0);
        continue;
      }
      if (row_best[i] >= 0.8 && col_best[j] >= 0.8) {
        const double ub = 0.8 +
                          0.2 * (static_cast<double>(std::min(la, lb)) /
                                 static_cast<double>(std::max(la, lb))) +
                          1e-9;
        if (ub <= row_best[i] && ub <= col_best[j]) continue;
      }
      const double s = packed && kHavePackedJaroWinkler
                           ? JaroWinklerPacked(pa, la, pb, lb)
                           : JaroWinklerSimilarityFast(ta[i], tb[j], scratch);
      row_best[i] = std::max(row_best[i], s);
      col_best[j] = std::max(col_best[j], s);
    }
  }
}

/// Jaro-Winkler of two Monge-Elkan tokens of lengths `la` and `lb` with
/// MongeElkanMatrix's disjoint-mask (0.0) and equal-token (1.0) shortcuts;
/// `ta` and `tb` are read only when a token is longer than 16 bytes. The
/// matrix pass keeps its own inline copy: it tests the length bound between
/// the shortcuts and the kernel, and calling this instead measured 1-2%
/// slower on SG runs.
double TokenJaroWinkler(const PackedToken& pa, size_t la,
                        const std::string& ta, const PackedToken& pb,
                        size_t lb, const std::string& tb,
                        MetricScratch* scratch) {
  if ((pa.mask & pb.mask) == 0) return 0.0;
  const bool packed = la <= kPackedTokenBytes && lb <= kPackedTokenBytes;
  if (la == lb &&
      (packed ? std::memcmp(pa.bytes, pb.bytes, kPackedTokenBytes) == 0
              : ta == tb)) {
    return 1.0;
  }
  return packed && kHavePackedJaroWinkler
             ? JaroWinklerPacked(pa, la, pb, lb)
             : JaroWinklerSimilarityFast(ta, tb, scratch);
}

// --- Monge-Elkan column cache (MongeElkanColumnCache) -----------------------
//
// When does a cache pay? A hit saves one Jaro-Winkler per left token; a miss
// costs a hash probe and a stored column, about one Jaro-Winkler. On the
// scale-0.1 TokenBlocking runs (bench_micro_metrics' BM_MongeElkanRuns)
// left values of fewer than four tokens, or runs shorter than five pairs,
// lose more on misses (and on a fresh scratch's first allocations) than
// their few hits save, so those never arm.

using ColumnSlot = MongeElkanColumnCache::Slot;

/// Left values with fewer tokens run uncached.
constexpr size_t kMinCachedLeftTokens = 4;

/// The pair of a left value's run at which its column cache arms.
constexpr size_t kArmAtPair = 5;

/// A column cache's first table size (slots); it doubles at half load.
constexpr size_t kInitialColumnSlots = 64;

/// A slot's tag: the cache generation that wrote it, then the right token's
/// length (at most kPackedTokenBytes, so five bits).
constexpr uint32_t kTagLengthBits = 5;
constexpr uint32_t kGenerationLimit = 1u << (32 - kTagLengthBits);

uint32_t SlotTag(uint32_t generation, uint32_t len) {
  return generation << kTagLengthBits | len;
}

/// O(1) fingerprint of a left value (token count, first and last token
/// masks), to count its consecutive pairs without storing (allocating) a
/// key. A collision only arms the cache early; hits compare full content.
uint64_t LeftFingerprint(const PreparedValue& a) {
  const std::vector<PackedToken>& p = a.packed_tokens;
  return (p.front().mask ^ p.size()) * 0x9E3779B97F4A7C15ULL ^ p.back().mask;
}

/// Whether `cache` holds the columns of left value `a`: the same tokens in
/// the same order, compared on length, packed bytes and every byte past
/// them.
bool CachedLeftIs(const MongeElkanColumnCache& cache, const PreparedValue& a) {
  if (cache.left.size() != a.tokens.size()) return false;
  size_t tail = 0;
  for (size_t i = 0; i < a.tokens.size(); ++i) {
    const MongeElkanColumnCache::LeftToken& key = cache.left[i];
    const std::string& token = a.tokens[i];
    if (key.len != token.size() ||
        std::memcmp(key.packed.bytes, a.packed_tokens[i].bytes,
                    kPackedTokenBytes) != 0) {
      return false;
    }
    if (token.size() > kPackedTokenBytes) {
      const size_t rest = token.size() - kPackedTokenBytes;
      if (cache.left_tails.compare(tail, rest, token, kPackedTokenBytes,
                                   rest) != 0) {
        return false;
      }
      tail += rest;
    }
  }
  return true;
}

/// Makes `a` the cache's left value with no cached columns. The buffers
/// keep their storage; bumping the generation empties every slot at once.
[[gnu::noinline]] void ArmColumnCache(const PreparedValue& a,
                                      MongeElkanColumnCache* cache) {
  const size_t na = a.tokens.size();
  cache->left.resize(na);
  cache->left_tails.clear();
  for (size_t i = 0; i < na; ++i) {
    const std::string& token = a.tokens[i];
    cache->left[i] = {a.packed_tokens[i], static_cast<uint32_t>(token.size())};
    if (token.size() > kPackedTokenBytes) {
      cache->left_tails.append(token, kPackedTokenBytes);
    }
  }
  if (cache->slots.empty()) {
    cache->slots.resize(kInitialColumnSlots);
    cache->keys.reserve(kInitialColumnSlots / 2);
    cache->columns.reserve(kInitialColumnSlots / 2 * (na + 1));
  }
  if (++cache->generation == kGenerationLimit) {  // stale tags could match
    for (ColumnSlot& slot : cache->slots) slot.tag = 0;
    cache->generation = 1;
  }
  cache->keys.clear();
  cache->columns.clear();
}

/// Index of the slot in `slots` holding right token (lo, hi, len), or of
/// the empty slot where it belongs. Tables are at most half full, so the
/// probe ends.
size_t FindColumnSlot(const std::vector<ColumnSlot>& slots,
                      const MongeElkanColumnCache& cache, uint64_t lo,
                      uint64_t hi, uint32_t len) {
  const size_t mask = slots.size() - 1;
  const uint32_t tag = SlotTag(cache.generation, len);
  // The top bits of a multiplicative hash depend on every key bit.
  const uint64_t key = lo + (hi ^ len) * 0xC2B2AE3D27D4EB4FULL;
  const int bits = __builtin_ctzll(slots.size());
  for (size_t i = (key * 0x9E3779B97F4A7C15ULL) >> (64 - bits);;
       i = (i + 1) & mask) {
    const ColumnSlot& slot = slots[i];
    if (slot.tag >> kTagLengthBits != cache.generation) return i;
    if (slot.tag == tag && cache.keys[slot.entry].lo == lo &&
        cache.keys[slot.entry].hi == hi) {
      return i;
    }
  }
}

/// Doubles the slot table, re-inserting the live slots.
[[gnu::noinline]] void GrowColumnSlots(MongeElkanColumnCache* cache) {
  std::vector<ColumnSlot> grown(cache->slots.size() * 2);
  for (const ColumnSlot& slot : cache->slots) {
    if (slot.tag >> kTagLengthBits != cache->generation) continue;
    const MongeElkanColumnCache::RightKey& key = cache->keys[slot.entry];
    grown[FindColumnSlot(grown, *cache, key.lo, key.hi,
                         slot.tag & ((1u << kTagLengthBits) - 1))] = slot;
  }
  cache->slots.swap(grown);
}

/// MongeElkanMatrix column by column from the cache armed with left value
/// `a`: each right token of at most 16 bytes merges its cached column, or
/// computes and stores it; longer right tokens are computed uncached. Every
/// stored value is the exact Jaro-Winkler (the length-bound skip, which
/// leaves values uncomputed, is dropped), so merging a column takes the same
/// maxima as the matrix pass, in another order, which max ignores.
[[gnu::noinline]] void MongeElkanFromColumnCache(const PreparedValue& a,
                                                 const PreparedValue& b,
                                                 MetricScratch* scratch,
                                                 MongeElkanColumnCache* cache) {
  const size_t na = a.tokens.size();
  const size_t stride = na + 1;
  double* row_best = scratch->row_best.data();
  double* col_best = scratch->col_best.data();
  const MongeElkanColumnCache::LeftToken* left = cache->left.data();
  for (size_t j = 0; j < b.tokens.size(); ++j) {
    const PackedToken& pb = b.packed_tokens[j];
    const std::string& tb = b.tokens[j];
    const size_t lb = tb.size();
    if (lb > kPackedTokenBytes) {
      double best = 0.0;
      for (size_t i = 0; i < na; ++i) {
        const double s = TokenJaroWinkler(left[i].packed, left[i].len,
                                          a.tokens[i], pb, lb, tb, scratch);
        row_best[i] = std::max(row_best[i], s);
        best = std::max(best, s);
      }
      col_best[j] = best;
      continue;
    }
    uint64_t lo;
    uint64_t hi;
    std::memcpy(&lo, pb.bytes, 8);
    std::memcpy(&hi, pb.bytes + 8, 8);
    const uint32_t tag_len = static_cast<uint32_t>(lb);
    size_t at = FindColumnSlot(cache->slots, *cache, lo, hi, tag_len);
    const double* column;
    if (cache->slots[at].tag >> kTagLengthBits == cache->generation) {
      ++cache->hits;
      column = cache->columns.data() + cache->slots[at].entry * stride;
    } else {
      ++cache->misses;
      if ((cache->keys.size() + 1) * 2 > cache->slots.size()) {
        GrowColumnSlots(cache);
        at = FindColumnSlot(cache->slots, *cache, lo, hi, tag_len);
      }
      const size_t entry = cache->keys.size();
      cache->slots[at] = {SlotTag(cache->generation, tag_len),
                          static_cast<uint32_t>(entry)};
      cache->keys.push_back({lo, hi});
      cache->columns.resize((entry + 1) * stride);
      double* out = cache->columns.data() + entry * stride;
      double best = 0.0;
      for (size_t i = 0; i < na; ++i) {
        out[i] = TokenJaroWinkler(left[i].packed, left[i].len, a.tokens[i],
                                  pb, lb, tb, scratch);
        best = std::max(best, out[i]);
      }
      out[na] = best;
      column = out;
    }
    for (size_t i = 0; i < na; ++i) {
      row_best[i] = std::max(row_best[i], column[i]);
    }
    col_best[j] = column[na];
  }
}

/// Whether `cache` serves left value `a`'s columns: `a` follows a pair
/// with the same left fingerprint and the cache already holds `a`'s
/// columns, or this is `a`'s kArmAtPair-th consecutive pair, which arms the
/// cache with `a`. Until then nothing is stored, so short runs allocate
/// nothing, and a left value seen once costs one fingerprint.
bool ColumnCacheServes(const PreparedValue& a, MongeElkanColumnCache* cache) {
  if (a.tokens.size() < kMinCachedLeftTokens) return false;
  const uint64_t fingerprint = LeftFingerprint(a);
  if (fingerprint != cache->last_left) {
    cache->last_left = fingerprint;
    cache->repeats = 1;
    return false;
  }
  if (CachedLeftIs(*cache, a)) return true;
  if (++cache->repeats < kArmAtPair) return false;
  ArmColumnCache(a, cache);
  return true;
}

/// Mirror of MongeElkan over cached token vectors. The reference evaluates
/// the |ta| x |tb| Jaro-Winkler matrix twice (once per direction); the
/// prepared kernel fills per-row and per-column maxima in one pass, which is
/// bit-identical because greedy-window Jaro-Winkler is exactly symmetric
/// (exhaustively verified in tests/prepared_parity_test.cc; IEEE addition is
/// commutative, so the swapped-argument formula reassociates nothing) and
/// max is exact and order-free. The pass is MongeElkanMatrix, or, once a
/// left value's run has armed `cache` (when given), the column cache; the
/// sums below run in index order either way.
double PreparedMongeElkan(const PreparedValue& a, const PreparedValue& b,
                          MetricScratch* scratch,
                          MongeElkanColumnCache* cache) {
  const std::vector<std::string>& ta = a.tokens;
  const std::vector<std::string>& tb = b.tokens;
  if (ta.empty() && tb.empty()) return 1.0;
  if (ta.empty() || tb.empty()) return 0.0;
  std::vector<double>& row_best = scratch->row_best;
  std::vector<double>& col_best = scratch->col_best;
  row_best.assign(ta.size(), 0.0);
  col_best.assign(tb.size(), 0.0);
  if (cache != nullptr && ColumnCacheServes(a, cache)) {
    MongeElkanFromColumnCache(a, b, scratch, cache);
  } else {
    MongeElkanMatrix(a, b, scratch);
  }
  double total_a = 0.0;
  for (double best : row_best) total_a += best;
  double total_b = 0.0;
  for (double best : col_best) total_b += best;
  return 0.5 * (total_a / static_cast<double>(ta.size()) +
                total_b / static_cast<double>(tb.size()));
}

/// Mirror of CosineTfIdf over the tf-idf sections. The reference sums
/// w_a(t) * w_b(t) over the shared tokens t in the iteration order of a's
/// weight map; the merge over both sorted token sections finds the shared
/// tokens and files each product under t's rank in that order, and the sum
/// then runs in rank order. Tokens b lacks add +0.0, which leaves every
/// partial sum unchanged (the products are positive), so the dot product is
/// bit-identical.
double PreparedCosineTfIdf(const ValueRef& a, const ValueRef& b,
                           MetricScratch* scratch) {
  const size_t na = a.Count(Section::kTfidfRanks);
  const size_t nb = b.Count(Section::kTfidfRanks);
  if (na == 0 && nb == 0) return 1.0;
  if (na == 0 || nb == 0) return 0.0;
  const uint32_t* pa = a.Words(Section::kSortedTokens);
  const uint32_t* pb = b.Words(Section::kSortedTokens);
  const uint32_t* rank = a.Words(Section::kTfidfRanks);
  std::vector<double>& products = scratch->tfidf_products;
  products.assign(na, 0.0);
  size_t i = 0;
  size_t j = 0;
  while (i < na && j < nb) {
    const int cmp = a.Token(pa[i]).compare(b.Token(pb[j]));
    if (cmp < 0) {
      ++i;
    } else if (cmp > 0) {
      ++j;
    } else {
      products[rank[i]] = a.Weight(i) * b.Weight(j);
      ++i;
      ++j;
    }
  }
  double dot = 0.0;
  for (double p : products) dot += p;
  if (a.value.tfidf_norm_sq == 0.0 || b.value.tfidf_norm_sq == 0.0) {
    return 0.0;
  }
  return dot / (std::sqrt(a.value.tfidf_norm_sq) *
                std::sqrt(b.value.tfidf_norm_sq));
}

}  // namespace

uint32_t MetricSuite::PrepareNeedsFor(MetricKind kind) {
  switch (kind) {
    case MetricKind::kEditSim:
    case MetricKind::kJaroWinkler:
    case MetricKind::kLcs:
      return kNeedRaw;  // the character-level kernels read the raw string
    case MetricKind::kTokenJaccard:
    case MetricKind::kContainment:
      return kNeedTokenSet;
    case MetricKind::kNgramJaccard:
      return kNeedNgrams;
    case MetricKind::kCosineTfIdf:
      return kNeedTfidf;
    case MetricKind::kMongeElkan:
      return kNeedTokens;
    case MetricKind::kNumericSim:
    case MetricKind::kNumericUnequal:
      return kNeedNumeric;
    case MetricKind::kExact:
    case MetricKind::kNotEqual:
    case MetricKind::kNonSubstring:
    case MetricKind::kNonPrefix:
    case MetricKind::kNonSuffix:
      return kNeedNorm;
    case MetricKind::kAbbrNonSubstring:
      return kNeedNorm | kNeedAbbr;
    case MetricKind::kDiffCardinality:
    case MetricKind::kDistinctEntity:
      return kNeedEntities;
    case MetricKind::kDiffKeyToken:
      return kNeedTokenSet | kNeedKeyTokens;
  }
  return 0;
}

void MetricSuite::RecomputeNeeds() {
  needs_.assign(schema_.num_attributes(), 0);
  monge_elkan_rank_.assign(specs_.size(), 0);
  size_t monge_elkan_columns = 0;
  for (size_t m = 0; m < specs_.size(); ++m) {
    needs_[specs_[m].attribute] |= PrepareNeedsFor(specs_[m].kind);
    if (specs_[m].kind == MetricKind::kMongeElkan) {
      monge_elkan_rank_[m] = monge_elkan_columns++;
    }
  }
}

PreparedRecord MetricSuite::PrepareRecord(const Record& record) const {
  PreparedRecord out;
  out.values.resize(schema_.num_attributes());
  std::string bytes;  // every value's sections, value after value
  const size_t width = std::min(record.values.size(), out.values.size());
  for (size_t a = 0; a < width; ++a) {
    const uint32_t needs = needs_[a];
    PreparedValue& v = out.values[a];
    const std::string& raw = record.values[a];
    const std::string trimmed = Trim(raw);
    v.missing = trimmed.empty();
    if (needs == 0) continue;
    // Only the character-level kernels read the raw string at evaluation
    // time; skipping the copy otherwise keeps prepared tables from
    // duplicating string data they never touch.
    if (needs & kNeedRaw) v.raw = raw;
    std::string norm;
    std::string abbr;
    if (needs & (kNeedNorm | kNeedAbbr)) norm = ToLower(trimmed);
    if (needs & kNeedAbbr) abbr = FirstLetterAbbreviation(norm);
    if (needs & (kNeedTokens | kNeedTokenSet | kNeedTfidf | kNeedKeyTokens |
                 kNeedEntities)) {
      v.tokens = Tokenize(raw);
    }
    if (needs & kNeedTokens) {
      v.packed_tokens.reserve(v.tokens.size());
      for (const std::string& t : v.tokens) {
        v.packed_tokens.push_back(PackToken(t));
      }
    }
    std::vector<uint32_t> sorted;  // key tokens come with a token set
    if (needs & (kNeedTokenSet | kNeedTfidf)) {
      sorted = SortedUniquePositions(v.tokens);
    }
    std::vector<uint32_t> ngrams;
    if (needs & kNeedNgrams) {
      for (const std::string& gram : CharNgrams(ToLower(raw), 3)) {
        ngrams.push_back(NgramKey(gram));
      }
      std::sort(ngrams.begin(), ngrams.end());
      ngrams.erase(std::unique(ngrams.begin(), ngrams.end()), ngrams.end());
    }
    std::vector<double> weights;
    std::vector<uint32_t> ranks;
    if ((needs & kNeedTfidf) && idf_[a] != nullptr) {
      // Same insertion sequence as the reference CosineTfIdf builds per
      // call, so the map's iteration order, which the ranks record, is
      // the reference's summation order.
      std::unordered_map<std::string, double> tfidf;
      for (const std::string& t : v.tokens) tfidf[t] += 1.0;
      weights.resize(sorted.size());
      ranks.resize(sorted.size());
      const auto by_text = [&](uint32_t position, const std::string& t) {
        return v.tokens[position] < t;
      };
      uint32_t rank = 0;
      for (auto& [t, tf] : tfidf) {
        tf *= idf_[a]->Idf(t);
        v.tfidf_norm_sq += tf * tf;
        const size_t at = static_cast<size_t>(
            std::lower_bound(sorted.begin(), sorted.end(), t, by_text) -
            sorted.begin());
        weights[at] = tf;
        ranks[at] = rank++;
      }
    }
    std::vector<uint32_t> keys;
    if ((needs & kNeedKeyTokens) && idf_[a] != nullptr) {
      for (uint32_t position : sorted) {
        if (idf_[a]->IsKeyToken(v.tokens[position], min_key_idf_[a])) {
          keys.push_back(position);
        }
      }
    }
    std::vector<uint32_t> entity_ends;
    if (needs & kNeedEntities) {
      // Tokenize splits at ',' too, so the tokens of the non-blank parts,
      // in order, are `tokens`: an element is a run of it.
      uint32_t end = 0;
      for (const std::string& part : Split(raw, ',')) {
        if (Trim(part).empty()) continue;
        end += static_cast<uint32_t>(CountTokens(part));
        entity_ends.push_back(end);
      }
    }
    if (needs & kNeedNumeric) {
      char* end = nullptr;
      v.num = std::strtod(raw.c_str(), &end);
      v.num_ok = end != raw.c_str();
    }
    const std::pair<const void*, size_t> sections[Section::kNumSections] = {
        {weights.data(), weights.size() * sizeof(double)},
        {ranks.data(), ranks.size() * sizeof(uint32_t)},
        {sorted.data(), sorted.size() * sizeof(uint32_t)},
        {keys.data(), keys.size() * sizeof(uint32_t)},
        {ngrams.data(), ngrams.size() * sizeof(uint32_t)},
        {entity_ends.data(), entity_ends.size() * sizeof(uint32_t)},
        {norm.data(), norm.size()},
        {abbr.data(), abbr.size()},
    };
    for (size_t k = 0; k < Section::kNumSections; ++k) {
      v.at[k] = static_cast<uint32_t>(bytes.size());
      bytes.append(static_cast<const char*>(sections[k].first),
                   sections[k].second);
    }
    v.at[Section::kNumSections] = static_cast<uint32_t>(bytes.size());
    bytes.resize((bytes.size() + 3) / 4 * 4, '\0');  // next value's words
  }
  if (bytes.size() > std::numeric_limits<uint32_t>::max()) {
    throw std::length_error("prepared record sections exceed 4 GiB");
  }
  if (!bytes.empty()) {
    out.data.resize(bytes.size() / sizeof(uint32_t));
    std::memcpy(out.data.data(), bytes.data(), bytes.size());
  }
  return out;
}

double MetricSuite::EvaluatePrepared(const PreparedRecord& left,
                                     const PreparedRecord& right, size_t m,
                                     MetricScratch* scratch) const {
  const MetricSpec& spec = specs_[m];
  const PreparedValue& a = left.values[spec.attribute];
  const PreparedValue& b = right.values[spec.attribute];
  const ValueRef ra(a, left);
  const ValueRef rb(b, right);
  const std::string_view norm_a = ra.Chars(Section::kNorm);
  const std::string_view norm_b = rb.Chars(Section::kNorm);
  const bool missing = a.missing || b.missing;
  switch (spec.kind) {
    case MetricKind::kEditSim:
      return missing ? kMissingMetric
                     : NormalizedEditSimilarityFast(a.raw, b.raw, scratch);
    case MetricKind::kJaroWinkler:
      return missing ? kMissingMetric
                     : JaroWinklerSimilarityFast(a.raw, b.raw, scratch);
    case MetricKind::kTokenJaccard: {
      if (missing) return kMissingMetric;
      const size_t na = ra.Count(Section::kSortedTokens);
      const size_t nb = rb.Count(Section::kSortedTokens);
      if (na == 0 && nb == 0) return 1.0;
      const size_t inter =
          SortedTokenIntersectionCount(ra, Section::kSortedTokens, rb);
      const size_t uni = na + nb - inter;
      return uni == 0 ? 1.0
                      : static_cast<double>(inter) / static_cast<double>(uni);
    }
    case MetricKind::kNgramJaccard: {
      if (missing) return kMissingMetric;
      const size_t na = ra.Count(Section::kNgrams);
      const size_t nb = rb.Count(Section::kNgrams);
      if (na == 0 && nb == 0) return 1.0;
      const size_t inter = SortedKeyIntersectionCount(
          ra.Words(Section::kNgrams), na, rb.Words(Section::kNgrams), nb);
      const size_t uni = na + nb - inter;
      return uni == 0 ? 1.0
                      : static_cast<double>(inter) / static_cast<double>(uni);
    }
    case MetricKind::kLcs:
      return missing ? kMissingMetric : LcsRatioFast(a.raw, b.raw, scratch);
    case MetricKind::kCosineTfIdf:
      if (missing) return kMissingMetric;
      return idf_[spec.attribute] ? PreparedCosineTfIdf(ra, rb, scratch)
                                  : kMissingMetric;
    case MetricKind::kMongeElkan: {
      if (missing) return kMissingMetric;
      const size_t rank = monge_elkan_rank_[m];
      return PreparedMongeElkan(a, b, scratch,
                                rank < kMongeElkanCachedColumns
                                    ? &scratch->monge_elkan[rank]
                                    : nullptr);
    }
    case MetricKind::kContainment: {
      if (missing) return kMissingMetric;
      const size_t na = ra.Count(Section::kSortedTokens);
      if (na == 0) return 1.0;
      const size_t inter =
          SortedTokenIntersectionCount(ra, Section::kSortedTokens, rb);
      return static_cast<double>(inter) / static_cast<double>(na);
    }
    case MetricKind::kNumericSim: {
      if (!a.num_ok || !b.num_ok) return kMissingMetric;
      const double denom =
          std::max({std::fabs(a.num), std::fabs(b.num), 1.0});
      return std::max(0.0, 1.0 - std::fabs(a.num - b.num) / denom);
    }
    case MetricKind::kExact:
      return missing ? kMissingMetric : (norm_a == norm_b ? 1.0 : 0.0);
    case MetricKind::kNonSubstring:
      if (missing) return kMissingMetric;
      return Contains(norm_a, norm_b) || Contains(norm_b, norm_a) ? 0.0 : 1.0;
    case MetricKind::kNonPrefix:
      if (missing) return kMissingMetric;
      return StartsWith(norm_a, norm_b) || StartsWith(norm_b, norm_a) ? 0.0
                                                                      : 1.0;
    case MetricKind::kNonSuffix:
      if (missing) return kMissingMetric;
      return EndsWith(norm_a, norm_b) || EndsWith(norm_b, norm_a) ? 0.0 : 1.0;
    case MetricKind::kAbbrNonSubstring: {
      if (missing) return kMissingMetric;
      const std::string_view abbr_a = ra.Chars(Section::kAbbr);
      const std::string_view abbr_b = rb.Chars(Section::kAbbr);
      const bool related = Contains(norm_b, abbr_a) ||
                           Contains(norm_a, abbr_b) ||
                           Contains(abbr_b, abbr_a) ||
                           Contains(abbr_a, abbr_b);
      return related ? 0.0 : 1.0;
    }
    case MetricKind::kDiffCardinality:
      if (missing) return kMissingMetric;
      return ra.Count(Section::kEntityEnds) != rb.Count(Section::kEntityEnds)
                 ? 1.0
                 : 0.0;
    case MetricKind::kDistinctEntity: {
      if (missing) return kMissingMetric;
      const double count = PreparedDistinctEntityCount(ra, rb, scratch);
      const double total = static_cast<double>(
          ra.Count(Section::kEntityEnds) + rb.Count(Section::kEntityEnds));
      return total == 0.0 ? 0.0 : count / total;
    }
    case MetricKind::kDiffKeyToken: {
      if (idf_[spec.attribute] == nullptr) return kMissingMetric;
      if (missing) return kMissingMetric;
      // |keys(a) \ tokens(b)| + |keys(b) \ tokens(a)|.
      const double count = static_cast<double>(
          ra.Count(Section::kKeyTokens) -
          SortedTokenIntersectionCount(ra, Section::kKeyTokens, rb) +
          rb.Count(Section::kKeyTokens) -
          SortedTokenIntersectionCount(rb, Section::kKeyTokens, ra));
      return count / (count + 1.0);
    }
    case MetricKind::kNumericUnequal:
      if (!a.num_ok || !b.num_ok) return kMissingMetric;
      return a.num == b.num ? 0.0 : 1.0;
    case MetricKind::kNotEqual:
      return missing ? kMissingMetric : 1.0 - (norm_a == norm_b ? 1.0 : 0.0);
  }
  return kMissingMetric;
}

void MetricSuite::EvaluatePairPreparedInto(const PreparedRecord& left,
                                           const PreparedRecord& right,
                                           MetricScratch* scratch,
                                           double* out) const {
  for (size_t m = 0; m < specs_.size(); ++m) {
    out[m] = EvaluatePrepared(left, right, m, scratch);
  }
}

FeatureMatrix ComputeFeatures(const Workload& workload,
                              const MetricSuite& suite) {
  FeatureMatrix matrix(workload.size(), suite.num_metrics());
  matrix.column_names = suite.MetricNames();
  const Table& left_table = workload.left();
  const Table& right_table = workload.right();
  const bool shared_table = &left_table == &right_table;

  // Prepare each referenced record once (a Subset workload can reference a
  // small slice of large shared tables, so only pair-referenced records pay).
  std::vector<PreparedRecord> left_prepared(left_table.num_records());
  std::vector<PreparedRecord> right_prepared(
      shared_table ? 0 : right_table.num_records());
  std::vector<size_t> left_used;
  std::vector<size_t> right_used;
  {
    std::vector<uint8_t> left_seen(left_table.num_records(), 0);
    std::vector<uint8_t> right_seen(
        shared_table ? 0 : right_table.num_records(), 0);
    std::vector<uint8_t>& right_seen_ref =
        shared_table ? left_seen : right_seen;
    for (const RecordPair& pair : workload.pairs()) {
      if (!left_seen[pair.left]) {
        left_seen[pair.left] = 1;
        left_used.push_back(pair.left);
      }
      if (!right_seen_ref[pair.right]) {
        right_seen_ref[pair.right] = 1;
        (shared_table ? left_used : right_used).push_back(pair.right);
      }
    }
  }
  ParallelFor(left_used.size() + right_used.size(), [&](size_t i) {
    if (i < left_used.size()) {
      const size_t r = left_used[i];
      left_prepared[r] = suite.PrepareRecord(left_table.record(r));
    } else {
      const size_t r = right_used[i - left_used.size()];
      right_prepared[r] = suite.PrepareRecord(right_table.record(r));
    }
  });
  const std::vector<PreparedRecord>& right_side =
      shared_table ? left_prepared : right_prepared;

  ParallelForRange(workload.size(), [&](size_t begin, size_t end) {
    MetricScratch scratch;
    for (size_t i = begin; i < end; ++i) {
      const RecordPair& pair = workload.pair(i);
      suite.EvaluatePairPreparedInto(left_prepared[pair.left],
                                     right_side[pair.right], &scratch,
                                     matrix.mutable_row(i));
    }
  });
  return matrix;
}

FeatureMatrix GatherRows(const FeatureMatrix& features,
                         const std::vector<size_t>& rows) {
  FeatureMatrix out(rows.size(), features.cols());
  out.column_names = features.column_names;
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t c = 0; c < features.cols(); ++c) {
      out.set(r, c, features.at(rows[r], c));
    }
  }
  return out;
}

FeatureMatrix GatherColumns(const FeatureMatrix& features,
                            const std::vector<size_t>& cols) {
  FeatureMatrix out(features.rows(), cols.size());
  for (size_t c = 0; c < cols.size(); ++c) {
    if (cols[c] < features.column_names.size()) {
      out.column_names.push_back(features.column_names[cols[c]]);
    }
  }
  for (size_t r = 0; r < features.rows(); ++r) {
    for (size_t c = 0; c < cols.size(); ++c) {
      out.set(r, c, features.at(r, cols[c]));
    }
  }
  return out;
}

}  // namespace learnrisk
