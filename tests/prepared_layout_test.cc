// Copyright 2026 The LearnRisk Authors
// Layout tests for PreparedRecord's section buffer (metrics/prepared_record.h):
// every MetricKind read from prepared records stays bit-identical to the
// raw reference (tests/reference/raw_metrics.h) when the records were moved
// and copied (vector growth, copies, SideStore::WithAppended); for tf-idf
// values with repeated tokens and with many tokens in one hash bucket, where
// the dot product's summation order decides its last bits; for entity sets
// with blank and token-less parts, single-token entities and tokens longer
// than 16 bytes; and for AB's long descriptions. Token positions and
// section offsets are 32 bits wide, as wide as a value's token count can
// usefully be, so no value can outgrow them. A PreparedValue stays within
// 128 bytes.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "data/generators.h"
#include "gateway/namespace_segments.h"
#include "metrics/metric_suite.h"
#include "metrics/prepared_record.h"
#include "reference/raw_metrics.h"

namespace learnrisk {
namespace {

static_assert(sizeof(PreparedValue) <= 128, "PreparedValue grew past 128 B");

::testing::AssertionResult BitEqual(double a, double b) {
  if (std::memcmp(&a, &b, sizeof(double)) == 0) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "doubles differ: " << a << " vs " << b;
}

constexpr MetricKind kAllKinds[] = {
    MetricKind::kEditSim,         MetricKind::kJaroWinkler,
    MetricKind::kTokenJaccard,    MetricKind::kNgramJaccard,
    MetricKind::kLcs,             MetricKind::kCosineTfIdf,
    MetricKind::kMongeElkan,      MetricKind::kContainment,
    MetricKind::kNumericSim,      MetricKind::kExact,
    MetricKind::kNonSubstring,    MetricKind::kNonPrefix,
    MetricKind::kNonSuffix,       MetricKind::kAbbrNonSubstring,
    MetricKind::kDiffCardinality, MetricKind::kDistinctEntity,
    MetricKind::kDiffKeyToken,    MetricKind::kNumericUnequal,
    MetricKind::kNotEqual,
};

// Every MetricKind on each of `width` text attributes, IDF tables fitted
// on `values` (record i holds values[i] in every attribute).
MetricSuite FittedAllKindsSuite(size_t width,
                                const std::vector<std::string>& values) {
  std::vector<Attribute> attrs;
  for (size_t a = 0; a < width; ++a) {
    attrs.push_back({"attr" + std::to_string(a), AttributeType::kText});
  }
  const Schema schema(std::move(attrs));
  std::vector<MetricSpec> specs;
  for (size_t a = 0; a < width; ++a) {
    for (MetricKind kind : kAllKinds) {
      specs.push_back(MetricSpec{
          a, kind,
          schema.attribute(a).name + "." + MetricKindToString(kind)});
    }
  }
  MetricSuite suite =
      MetricSuite::FromSpecs(schema, std::move(specs)).MoveValueOrDie();
  auto table = std::make_shared<Table>(schema);
  for (size_t i = 0; i < values.size(); ++i) {
    Record record;
    record.values.assign(width, values[i]);
    EXPECT_TRUE(table->Append(std::move(record), static_cast<int64_t>(i)).ok());
  }
  suite.Fit(Workload("corpus", table, table, {}));
  return suite;
}

Record OneValueRecord(const std::string& value) {
  Record record;
  record.values = {value};
  return record;
}

// Every metric of (left, right) from the prepared records equals the raw
// reference on the records they were prepared from.
void ExpectBitIdentical(const MetricSuite& suite, const Record& left,
                        const PreparedRecord& prepared_left,
                        const Record& right,
                        const PreparedRecord& prepared_right,
                        MetricScratch* scratch) {
  std::vector<double> raw(suite.num_metrics());
  std::vector<double> prepared(suite.num_metrics());
  reference::EvaluateRawPairInto(suite, left, right, raw.data());
  suite.EvaluatePairPreparedInto(prepared_left, prepared_right, scratch,
                                 prepared.data());
  for (size_t m = 0; m < suite.num_metrics(); ++m) {
    EXPECT_TRUE(BitEqual(raw[m], prepared[m]))
        << suite.specs()[m].name << " on '" << left.values[0] << "' vs '"
        << right.values[0] << "'";
  }
}

// Every ordered pair of `values` as one-attribute records, prepared once.
void ExpectAllPairsBitIdentical(const MetricSuite& suite,
                                const std::vector<std::string>& values) {
  std::vector<Record> records;
  for (const std::string& v : values) records.push_back(OneValueRecord(v));
  std::vector<PreparedRecord> prepared;
  prepared.reserve(records.size());
  for (const Record& r : records) prepared.push_back(suite.PrepareRecord(r));
  MetricScratch scratch;
  for (size_t i = 0; i < records.size(); ++i) {
    for (size_t j = 0; j < records.size(); ++j) {
      ExpectBitIdentical(suite, records[i], prepared[i], records[j],
                         prepared[j], &scratch);
    }
  }
}

std::string RandomWords(Rng* rng, size_t max_words) {
  static const char* kWords[] = {
      "data",  "base",   "large", "very",    "query", "smith",
      "j",     "m",      "franklin", "michael", "2001", "xr5500",
      "a",     "the",    "entity",   "resolution", "vldb", "sigmod",
      "averyveryverylongtoken", "averyveryverylongtokens"};
  const size_t n = rng->Index(max_words + 1);
  std::string out;
  for (size_t i = 0; i < n; ++i) {
    if (i > 0) out += rng->Bernoulli(0.2) ? ", " : " ";
    out += kWords[rng->Index(std::size(kWords))];
  }
  return out;
}

TEST(PreparedLayoutTest, PreparedValueFitsIn128Bytes) {
  EXPECT_LE(sizeof(PreparedValue), 128u);
}

// Sections are addressed by offsets into the record's own buffer, so a
// record that was moved (vector growth), copied, copy-assigned or moved
// out evaluates exactly as freshly prepared, against any other record.
TEST(PreparedLayoutTest, MovedAndCopiedRecordsBitIdentical) {
  Rng rng(7);
  std::vector<std::string> corpus;
  for (int i = 0; i < 60; ++i) corpus.push_back(RandomWords(&rng, 9));
  const MetricSuite suite = FittedAllKindsSuite(2, corpus);

  std::vector<Record> records;
  for (int i = 0; i < 40; ++i) {
    Record record;
    record.values = {RandomWords(&rng, 9), RandomWords(&rng, 9)};
    records.push_back(std::move(record));
  }
  std::vector<PreparedRecord> grown;  // no reserve: every growth moves
  for (const Record& r : records) grown.push_back(suite.PrepareRecord(r));
  std::vector<PreparedRecord> copies = grown;  // copy-constructed
  std::vector<PreparedRecord> assigned(records.size());
  for (size_t i = 0; i < records.size(); ++i) assigned[i] = copies[i];
  std::vector<PreparedRecord> moved;
  for (PreparedRecord& r : copies) moved.push_back(std::move(r));

  MetricScratch scratch;
  for (size_t i = 0; i < records.size(); ++i) {
    const size_t j = (i * 7 + 3) % records.size();
    ExpectBitIdentical(suite, records[i], grown[i], records[j], assigned[j],
                       &scratch);
    ExpectBitIdentical(suite, records[i], moved[i], records[j], grown[j],
                       &scratch);
    ExpectBitIdentical(suite, records[i], assigned[i], records[i], moved[i],
                       &scratch);
  }

  // A SideStore grown record by record, and a copy of it: each tail
  // segment's prepared record against every base and tail record.
  Schema schema = suite.schema();
  Table base(schema);
  for (size_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(base.Append(records[i], static_cast<int64_t>(i)).ok());
  }
  SideStore store = SideStore::Build(base, suite);
  for (size_t i = 10; i < records.size(); ++i) {
    store = store.WithAppended(records[i], static_cast<int64_t>(i), suite);
  }
  const SideStore copy = store;
  ASSERT_EQ(copy.size(), records.size());
  for (size_t i = 0; i < copy.size(); ++i) {
    for (size_t j = 0; j < copy.size(); j += 3) {
      ExpectBitIdentical(suite, copy.record(i), copy.prepared(i),
                         copy.record(j), copy.prepared(j), &scratch);
    }
  }
}

// The cosine's dot product sums the shared tokens' products in the
// iteration order of the reference's std::unordered_map, so values whose
// tokens repeat (tf > 1) and whose tokens crowd one hash bucket, which
// reorders iteration against insertion, must still match bit for bit.
TEST(PreparedLayoutTest, TfidfRepeatedTokensAndCrowdedBucketsBitIdentical) {
  // A map's bucket count depends only on how many distinct keys were
  // inserted, so every value below has kDistinct distinct tokens and its
  // map the probe's bucket count.
  constexpr size_t kDistinct = 24;
  std::unordered_map<std::string, double> probe;
  for (size_t i = 0; i < kDistinct; ++i) probe["p" + std::to_string(i)] = 0;
  const size_t buckets = probe.bucket_count();
  std::vector<std::string> crowded;  // all in bucket 0
  std::vector<std::string> spread;   // anywhere else
  const std::hash<std::string> hash;
  for (size_t i = 0; crowded.size() < 32 || spread.size() < 16; ++i) {
    const std::string token = "tok" + std::to_string(i);
    if (hash(token) % buckets == 0) {
      if (crowded.size() < 32) crowded.push_back(token);
    } else if (spread.size() < 16) {
      spread.push_back(token);
    }
  }

  Rng rng(11);
  std::vector<std::string> values;
  for (int v = 0; v < 12; ++v) {
    // 18 crowded and 6 spread tokens, a third of them repeated.
    std::vector<std::string> tokens;
    for (size_t k : rng.SampleIndices(crowded.size(), 18)) {
      tokens.push_back(crowded[k]);
    }
    for (size_t k : rng.SampleIndices(spread.size(), 6)) {
      tokens.push_back(spread[k]);
    }
    for (size_t k = 0; k < kDistinct; k += 3) {
      for (size_t r = rng.Index(3); r > 0; --r) tokens.push_back(tokens[k]);
    }
    rng.Shuffle(&tokens);
    std::string value;
    for (const std::string& token : tokens) value += token + " ";
    values.push_back(value);
  }
  values.push_back("a a a b b c");
  values.push_back("c b a a b a");
  values.push_back("a");
  const MetricSuite suite = FittedAllKindsSuite(1, values);
  ExpectAllPairsBitIdentical(suite, values);
}

// Entities are runs of the value's tokens: blank parts (", ,") are not
// entities, a part of punctuation only is an entity without tokens, and
// single-token entities and tokens past the 16 packed bytes compare as the
// reference does.
TEST(PreparedLayoutTest, EntitySetsBitIdentical) {
  const std::vector<std::string> values = {
      "m franklin, michael j franklin",
      "michael franklin, , m j franklin,",
      ", ,smith, ,",
      "smith, jones, lee",
      "jones, smith",
      "-, smith",
      "smith, -",
      "--, ;;",
      ",",
      "abcdefghijklmnopqrstuvwxyz smith, j abcdefghijklmnopqrstuvwxyz",
      "a abcdefghijklmnopqrstuvwxyz, jones",
      "abcdefghijklmnopqrstuvwxyzsmith",
      "abcdefghijklmnopqrstuvwxyzsmiht",
      "M. FRANKLIN , Michael-J Franklin",
  };
  const MetricSuite suite = FittedAllKindsSuite(1, values);
  ExpectAllPairsBitIdentical(suite, values);
}

// AB's long product descriptions: every column of the default suite over
// the workload's pairs, prepared once per record.
TEST(PreparedLayoutTest, AbLongDescriptionsBitIdentical) {
  GeneratorOptions options;
  options.scale = 0.05;
  options.seed = 3;
  const Workload ab = GenerateDataset("AB", options).MoveValueOrDie();
  MetricSuite suite = MetricSuite::ForSchema(ab.left().schema());
  suite.Fit(ab);
  const PreparedTable left = PreparedTable::Build(ab.left(), suite);
  const PreparedTable right = PreparedTable::Build(ab.right(), suite);
  size_t long_values = 0;
  MetricScratch scratch;
  for (size_t i = 0; i < std::min<size_t>(ab.size(), 1500); ++i) {
    const RecordPair& pair = ab.pair(i);
    const Record& l = ab.left().record(pair.left);
    for (const std::string& value : l.values) {
      long_values += value.size() > 100;
    }
    ExpectBitIdentical(suite, l, left.record(pair.left),
                       ab.right().record(pair.right), right.record(pair.right),
                       &scratch);
  }
  EXPECT_GT(long_values, 0u);
}

}  // namespace
}  // namespace learnrisk
