// Copyright 2026 The LearnRisk Authors
// Record-level feature preparation: everything a metric suite derives from a
// *single* record — normalized strings, token lists, sorted token / q-gram
// sets, tf-idf weights, key-token subsets, entity token ranges, parsed
// numerics — computed once per (record, attribute) and reused across every
// pair the record participates in. Blocking emits each record in many
// candidate pairs; MetricSuite::EvaluatePairPreparedInto reads these caches
// instead of re-deriving them per pair, as the raw reference
// (tests/reference/raw_metrics.h) does.
//
// Layout. A PreparedValue keeps inline only what every token kernel walks
// (`tokens`, `packed_tokens`), the parsed number and a handful of offsets.
// Everything else a value derives lives in its record's one buffer,
// PreparedRecord::data, as sections addressed by byte offsets: the sorted
// unique tokens and the key tokens are uint32 positions into `tokens` (no
// second copy of any token string), the trigram keys are uint32s, the
// tf-idf weights are doubles in sorted-token order next to each token's
// rank in the reference map's iteration order (so the dot product sums in
// the reference's order), an entity is a run of `tokens` ending at a stored
// position, and the normalized and abbreviated strings are raw chars.
// Offsets rather than pointers keep a PreparedRecord valid when it is moved
// or copied (vector growth, a SideStore segment's prepared vector).
//
// PreparedRecords are plain immutable data once built: safe to share across
// threads without synchronization. They are only meaningful together with
// the MetricSuite that prepared them (the suite's specs decide which fields
// and sections are populated and its IDF tables weight the tf-idf section),
// and they *borrow* the raw attribute strings of the record they were
// prepared from (PreparedValue::raw is a view, not a copy), so the source
// record — or the Table / segment owning it — must outlive them. Nothing
// else is borrowed: a value's sections belong to the PreparedRecord that
// holds the value, and are read only together with that record.

#ifndef LEARNRISK_METRICS_PREPARED_RECORD_H_
#define LEARNRISK_METRICS_PREPARED_RECORD_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "data/table.h"
#include "metrics/string_kernels.h"

namespace learnrisk {

class MetricSuite;

/// \brief Cached single-record derivations for one attribute. Only the
/// fields and sections the owning suite's metrics need are populated (the
/// rest stay empty); `missing` is always valid.
struct PreparedValue {
  /// The derived sections in the owning PreparedRecord's `data`, in buffer
  /// order; section s spans bytes [at[s], at[s + 1]).
  enum Section : uint32_t {
    /// double per sorted unique token: tf * idf.
    kTfidfWeights,
    /// uint32 per sorted unique token: its rank in the iteration order of
    /// the std::unordered_map the raw CosineTfIdf builds from `tokens`.
    kTfidfRanks,
    /// uint32 positions into `tokens` of the unique tokens, sorted by text.
    kSortedTokens,
    /// uint32 positions of the high-IDF unique tokens, sorted by text.
    kKeyTokens,
    /// uint32 keys of the unique trigrams of ToLower(raw), sorted; set
    /// cardinalities and intersections equal the string-set ones exactly.
    kNgrams,
    /// uint32 per non-empty entity-set element (Split(raw, ',') parts that
    /// trim non-empty): one past its last token in `tokens`; an element's
    /// tokens start where the previous element's end.
    kEntityEnds,
    /// chars: ToLower(Trim(raw)).
    kNorm,
    /// chars: FirstLetterAbbreviation(norm).
    kAbbr,
    kNumSections,
  };

  /// View of the source record's attribute value (no copy — the record's
  /// string storage is shared with whoever owns the record: the Table, the
  /// gateway segment, or the probe on the caller's stack). Populated only
  /// when a character-level metric (edit / Jaro-Winkler / LCS) reads it.
  std::string_view raw;

  std::vector<std::string> tokens;  ///< Tokenize(raw), original order
  /// `tokens` packed once for the Monge-Elkan kernel, parallel to `tokens`:
  /// each token's character-presence mask (disjoint masks prove a
  /// Jaro-Winkler similarity of exactly 0.0, so the kernel skips the pair)
  /// and its first 16 bytes, zero-padded, which JaroWinklerPacked matches on
  /// when both tokens fit and the equal-token test compares.
  std::vector<PackedToken> packed_tokens;

  double num = 0.0;            ///< parsed numeric value
  double tfidf_norm_sq = 0.0;  ///< sum of squared tf-idf weights

  /// Section boundaries, byte offsets into PreparedRecord::data.
  uint32_t at[kNumSections + 1] = {};

  bool missing = true;   ///< Trim(value).empty()
  bool num_ok = false;   ///< strtod consumed at least one char
};

/// \brief One record's cached derivations, indexed by attribute, and the
/// buffer holding every value's sections.
struct PreparedRecord {
  std::vector<PreparedValue> values;  ///< one per schema attribute
  /// The values' sections (see PreparedValue::Section), value after value,
  /// each value's run padded to a whole word.
  std::vector<uint32_t> data;

  /// \brief The bytes this record holds: sizeof(PreparedRecord) plus the
  /// capacity of every heap block it owns (values, data, token vectors and
  /// token strings too long for in-place storage), without malloc's
  /// per-block overhead. The borrowed raw strings are not counted.
  size_t Bytes() const;
};

/// \brief A table's records in prepared form, index-aligned with the source
/// Table and built in one parallel pass. The prepared entries borrow their
/// raw attribute strings from the source records (zero copy), so the table
/// must outlive the PreparedTable. (The gateway's serving path instead uses
/// SideStore segments, which own record and prepared storage together; see
/// src/gateway/namespace_segments.h.)
class PreparedTable {
 public:
  PreparedTable() = default;

  /// \brief Prepares every record of `table` under `suite` (parallel).
  /// Borrows: `table` must outlive the result.
  static PreparedTable Build(const Table& table, const MetricSuite& suite);

  size_t size() const { return records_.size(); }
  const PreparedRecord& record(size_t i) const { return records_[i]; }

 private:
  std::vector<PreparedRecord> records_;
};

}  // namespace learnrisk

#endif  // LEARNRISK_METRICS_PREPARED_RECORD_H_
