// Copyright 2026 The LearnRisk Authors
// Durability edge cases for the gateway's WAL + checkpoint subsystem:
// register/add/checkpoint/recover round trips are bit-identical to a
// never-restarted reference; empty namespaces checkpoint and recover;
// recover -> AddRecord -> recover keeps appending to the recovered WAL; a
// review-WAL append failure is absorbed by Resolve (counted, offers
// skipped, scores unchanged); a
// WAL frame with a valid length but a bad checksum is discarded (along with
// everything behind it); a torn tail is truncated and the log stays
// appendable; and corrupt or incomplete durable state (manifest pointing at
// a deleted segment file, byte-flipped manifest) fails with a diagnostic
// Status instead of undefined behavior. Review offers and drains travel in
// batch frames that replay all or nothing: a resolve offering N pairs
// advances the WAL entry count by N, malformed-but-checksummed batch frames
// end replay, and single-event frames from older logs still replay. A WAL
// write that fails (file-size limit) is rolled back so the next acked
// append survives recovery, and CRC-32 matches a bitwise reference; a
// drain whose second frame fails applies and returns only its first
// frame's pairs, and recovers to a twin that drained that many. A review
// segment that files one pair key twice, or holds a value the queue cannot
// order (non-finite risk, probability outside [0, 1], label or truth
// above 1), fails recovery, and SubmitReviewLabel refuses such a truth
// before logging it. The
// on-disk layout is one shape for
// every shard count (SHARDS + shards/s<k>/, the model on shard 0 only):
// corrupt shard counts, re-registration with another count, interrupted
// registrations and flat directories from the retired layout are covered
// at the end. The crash-injection matrix lives in
// tests/gateway_crash_recovery_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "classifier/logistic.h"
#include "data/generators.h"
#include "gateway/durability.h"
#include "gateway/gateway.h"
#include "risk/risk_feature.h"
#include "test_models.h"

#ifndef _WIN32
#include <sys/resource.h>
#endif

namespace learnrisk {
namespace {

using testutil::MakeModel;

// One generated workload + fitted pipeline pieces, built once and shared by
// every test (registration inputs are copied, never mutated).
struct SharedSetup {
  Workload workload;
  MetricSuite suite;
  std::shared_ptr<const BinaryClassifier> classifier;
  RiskModel model{RiskFeatureSet()};

  SharedSetup() {
    GeneratorOptions options;
    options.scale = 0.015;
    options.seed = 77;
    Result<Workload> generated = GenerateDataset("DS", options);
    EXPECT_TRUE(generated.ok()) << generated.status().ToString();
    workload = generated.MoveValueOrDie();
    suite = MetricSuite::ForSchema(workload.left().schema());
    suite.Fit(workload);
    const FeatureMatrix features = ComputeFeatures(workload, suite);
    LogisticOptions logistic;
    logistic.epochs = 15;
    logistic.seed = 5;
    auto trained = std::make_shared<LogisticClassifier>(logistic);
    EXPECT_TRUE(trained->Train(features, workload.Labels()).ok());
    classifier = trained;
    model = MakeModel(9, 24, suite.num_metrics());
  }
};

const SharedSetup& Shared() {
  static const SharedSetup* setup = new SharedSetup();
  return *setup;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/learnrisk_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

GatewayOptions DurableOptions(const std::string& dir) {
  GatewayOptions options;
  options.durability.dir = dir;
  return options;
}

NamespaceSpec BaseSpec() {
  const SharedSetup& s = Shared();
  NamespaceSpec spec;
  spec.left = s.workload.left_ptr();
  spec.right = s.workload.right_ptr();
  spec.suite = s.suite;
  spec.classifier = s.classifier;
  return spec;
}

RecoverNamespaceSpec RecoverSpec() {
  const SharedSetup& s = Shared();
  RecoverNamespaceSpec spec;
  spec.schema = s.workload.left().schema();
  spec.suite = s.suite;
  spec.classifier = s.classifier;
  return spec;
}

// The deterministic add sequence both the durable gateway and the
// never-restarted reference replay: alternating sides, records drawn from
// the workload's own tables, every third add keeping its ground-truth id.
Status ApplyAdds(Gateway* gateway, const std::string& ns, size_t count) {
  const SharedSetup& s = Shared();
  for (size_t i = 0; i < count; ++i) {
    const bool to_left = i % 2 == 0;
    const Table& source = to_left ? s.workload.left() : s.workload.right();
    const size_t idx = i % source.num_records();
    const int64_t entity = i % 3 == 0 ? source.entity_id(idx) : -1;
    LEARNRISK_RETURN_NOT_OK(gateway->AddRecord(
        ns, to_left ? BlockingSide::kLeft : BlockingSide::kRight,
        source.record(idx), entity));
  }
  return Status::OK();
}

// Full bit-identity check between two gateways serving the same namespace:
// block_all pairs (indices + equivalence flags), risk scores, the served
// model version, record counts, and several ResolveRecord probes.
void ExpectBitIdentical(Gateway* recovered, Gateway* reference,
                        const std::string& ns) {
  const SharedSetup& s = Shared();
  for (BlockingSide side : {BlockingSide::kLeft, BlockingSide::kRight}) {
    const auto got = recovered->NumRecords(ns, side);
    const auto want = reference->NumRecords(ns, side);
    ASSERT_TRUE(got.ok() && want.ok());
    EXPECT_EQ(*got, *want);
  }

  ResolveRequest block_all;
  block_all.block_all = true;
  const auto got = recovered->Resolve(ns, block_all);
  const auto want = reference->Resolve(ns, block_all);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_EQ(got->pairs.size(), want->pairs.size());
  for (size_t i = 0; i < want->pairs.size(); ++i) {
    EXPECT_EQ(got->pairs[i].left, want->pairs[i].left);
    EXPECT_EQ(got->pairs[i].right, want->pairs[i].right);
    EXPECT_EQ(got->pairs[i].is_equivalent, want->pairs[i].is_equivalent);
  }
  EXPECT_EQ(got->scores.risk, want->scores.risk);  // exact, not approximate
  EXPECT_EQ(got->scores.machine_label, want->scores.machine_label);
  EXPECT_EQ(got->scores.model_version, want->scores.model_version);

  for (size_t p = 0; p < 5; ++p) {
    const Record& probe =
        s.workload.left().record(p % s.workload.left().num_records());
    const auto got_probe = recovered->ResolveRecord(ns, probe);
    const auto want_probe = reference->ResolveRecord(ns, probe);
    ASSERT_TRUE(got_probe.ok() && want_probe.ok());
    EXPECT_EQ(got_probe->candidates, want_probe->candidates);
    EXPECT_EQ(got_probe->scores.risk, want_probe->scores.risk);
  }
}

TEST(GatewayDurabilityTest, CheckpointRecoverRoundTripIsBitIdentical) {
  const SharedSetup& s = Shared();
  constexpr size_t kAdds = 20;
  const MetricLabels ns_labels = {{"namespace", "ds"}};
  // fsync_appends only changes how far each append is pushed to disk: the
  // round trip must be bit-identical either way, and the fsync counter
  // must track every append exactly when (and only when) it is on.
  for (const bool fsync : {false, true}) {
    SCOPED_TRACE(fsync ? "fsync_appends on" : "fsync_appends off");
    const std::string dir = FreshDir("durable_roundtrip");
    GatewayOptions options = DurableOptions(dir);
    options.durability.fsync_appends = fsync;
    {
      Gateway gateway(options);
      ASSERT_TRUE(gateway.RegisterNamespace("ds", BaseSpec()).ok());
      ASSERT_TRUE(gateway.Publish("ds", s.model).ok());
      ASSERT_TRUE(ApplyAdds(&gateway, "ds", kAdds / 2).ok());
      // Checkpoint mid-sequence: recovery must compose checkpoint segments
      // with the WAL tail written after them.
      ASSERT_TRUE(gateway.Checkpoint("ds").ok());
      EXPECT_EQ(*gateway.WalEntriesSinceCheckpoint("ds"), 0u);
      ASSERT_TRUE(ApplyAdds(&gateway, "ds", kAdds).ok());
      EXPECT_EQ(*gateway.WalEntriesSinceCheckpoint("ds"), kAdds);

      const MetricsSnapshot snap = gateway.MetricsSnapshot();
      const CounterSnapshot* appends =
          snap.FindCounter("learnrisk_gateway_wal_appends_total", ns_labels);
      const CounterSnapshot* fsyncs =
          snap.FindCounter("learnrisk_gateway_wal_fsyncs_total", ns_labels);
      ASSERT_NE(appends, nullptr);
      ASSERT_NE(fsyncs, nullptr);
      EXPECT_EQ(appends->value, kAdds / 2 + kAdds);
      EXPECT_EQ(fsyncs->value, fsync ? appends->value : 0u);
    }  // gateway destroyed: simulates a clean process exit (no final flushes)

    Gateway recovered(options);
    ASSERT_TRUE(recovered.RecoverNamespace("ds", RecoverSpec()).ok());
    // The checkpointed model comes back at its recorded version without any
    // re-publish by the caller.
    EXPECT_TRUE(recovered.registry().Contains("ds"));

    Gateway reference;
    ASSERT_TRUE(reference.RegisterNamespace("ds", BaseSpec()).ok());
    ASSERT_TRUE(reference.Publish("ds", s.model).ok());
    ASSERT_TRUE(ApplyAdds(&reference, "ds", kAdds / 2).ok());
    ASSERT_TRUE(ApplyAdds(&reference, "ds", kAdds).ok());
    ExpectBitIdentical(&recovered, &reference, "ds");
  }
}

TEST(GatewayDurabilityTest, EmptyNamespaceCheckpointsAndRecovers) {
  const SharedSetup& s = Shared();
  const std::string dir = FreshDir("durable_empty");
  const Schema schema = s.workload.left().schema();
  auto empty = std::make_shared<Table>(schema);
  {
    Gateway gateway(DurableOptions(dir));
    NamespaceSpec spec = BaseSpec();
    spec.left = empty;
    spec.right = nullptr;  // dedup
    ASSERT_TRUE(gateway.RegisterNamespace("empty", std::move(spec)).ok());
    ASSERT_TRUE(gateway.Checkpoint("empty").ok());
  }
  Gateway recovered(DurableOptions(dir));
  ASSERT_TRUE(recovered.RecoverNamespace("empty", RecoverSpec()).ok());
  EXPECT_EQ(*recovered.NumRecords("empty", BlockingSide::kLeft), 0u);
  // The recovered empty namespace accepts appends like a fresh one.
  ASSERT_TRUE(recovered
                  .AddRecord("empty", BlockingSide::kLeft,
                             s.workload.left().record(0), 1)
                  .ok());
  EXPECT_EQ(*recovered.NumRecords("empty", BlockingSide::kLeft), 1u);
}

TEST(GatewayDurabilityTest, RecoverAddRecoverRoundTrip) {
  const SharedSetup& s = Shared();
  const std::string dir = FreshDir("durable_rerecovery");
  constexpr size_t kFirst = 10;
  constexpr size_t kSecond = 7;
  {
    Gateway gateway(DurableOptions(dir));
    ASSERT_TRUE(gateway.RegisterNamespace("ds", BaseSpec()).ok());
    ASSERT_TRUE(gateway.Publish("ds", s.model).ok());
    ASSERT_TRUE(ApplyAdds(&gateway, "ds", kFirst).ok());
  }
  {
    // First recovery continues the surviving WAL: the second batch of adds
    // lands behind the replayed entries of the first. The only checkpoint
    // so far is registration's (pre-publish, so no model in the manifest);
    // the model is re-published here and a fresh checkpoint captures it for
    // the second recovery.
    Gateway gateway(DurableOptions(dir));
    ASSERT_TRUE(gateway.RecoverNamespace("ds", RecoverSpec()).ok());
    EXPECT_EQ(*gateway.WalEntriesSinceCheckpoint("ds"), kFirst);
    ASSERT_TRUE(gateway.Publish("ds", s.model).ok());
    for (size_t i = 0; i < kSecond; ++i) {
      ASSERT_TRUE(gateway
                      .AddRecord("ds", BlockingSide::kLeft,
                                 s.workload.left().record(i), -1)
                      .ok());
    }
    EXPECT_EQ(*gateway.WalEntriesSinceCheckpoint("ds"), kFirst + kSecond);
    ASSERT_TRUE(gateway.Checkpoint("ds").ok());
  }
  Gateway recovered(DurableOptions(dir));
  ASSERT_TRUE(recovered.RecoverNamespace("ds", RecoverSpec()).ok());

  Gateway reference;
  ASSERT_TRUE(reference.RegisterNamespace("ds", BaseSpec()).ok());
  ASSERT_TRUE(reference.Publish("ds", s.model).ok());
  ASSERT_TRUE(ApplyAdds(&reference, "ds", kFirst).ok());
  for (size_t i = 0; i < kSecond; ++i) {
    ASSERT_TRUE(reference
                    .AddRecord("ds", BlockingSide::kLeft,
                               s.workload.left().record(i), -1)
                    .ok());
  }
  ExpectBitIdentical(&recovered, &reference, "ds");
}

// --- Direct NamespaceLog tests: forged / torn WAL frames. ------------------

// Offsets (from file start) of each frame's payload in a WAL file.
std::vector<size_t> FramePayloadOffsets(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::vector<size_t> offsets;
  size_t pos = 17;  // "learnrisk-wal v1\n"
  while (pos + 8 <= bytes.size()) {
    uint32_t payload_size = 0;
    for (int i = 0; i < 4; ++i) {
      payload_size |= static_cast<uint32_t>(
                          static_cast<unsigned char>(bytes[pos + i]))
                      << (8 * i);
    }
    offsets.push_back(pos + 8);
    pos += 8 + payload_size;
  }
  return offsets;
}

void FlipByteAt(const std::string& path, size_t offset) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.is_open());
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x5A);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&c, 1);
}

struct DirectLog {
  std::string dir;
  DurabilityOptions options;
  std::unique_ptr<NamespaceLog> log;
  Table base;

  explicit DirectLog(const std::string& name)
      : dir(FreshDir(name)), base(Shared().workload.left().schema()) {
    options.dir = dir;
    Result<std::unique_ptr<NamespaceLog>> created =
        NamespaceLog::Create(options, "ns");
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    log = created.MoveValueOrDie();
    EXPECT_TRUE(base.Append(Shared().workload.left().record(0), 1).ok());
    EXPECT_TRUE(log->WriteCheckpoint(base, nullptr, 0, nullptr).ok());
  }

  Status AppendN(size_t n) {
    for (size_t i = 0; i < n; ++i) {
      WalEntry entry;
      entry.entity_id = static_cast<int64_t>(100 + i);
      entry.record = Shared().workload.left().record(
          (i + 1) % Shared().workload.left().num_records());
      LEARNRISK_RETURN_NOT_OK(log->Append(entry));
    }
    return Status::OK();
  }

  std::string wal_path() const { return dir + "/ns/wal_1.log"; }
};

TEST(GatewayDurabilityTest, ReviewWalFailureIsAbsorbedByResolve) {
  const SharedSetup& s = Shared();
  GatewayOptions options = DurableOptions(FreshDir("review_offer_failure"));
  options.review.enabled = true;
  // Armed after registration and publish, so the first WAL append it sees
  // is the Resolve's first review offer; it fails that append and leaves
  // the log dead.
  auto armed = std::make_shared<bool>(false);
  auto fired = std::make_shared<int>(0);
  options.durability.crash_hook = [armed, fired](const std::string& point) {
    if (!*armed || point != "wal:before_append" || *fired > 0) return false;
    ++*fired;
    return true;
  };
  Gateway gateway(options);
  ASSERT_TRUE(gateway.RegisterNamespace("ds", BaseSpec()).ok());
  ASSERT_TRUE(gateway.Publish("ds", s.model).ok());

  GatewayOptions in_memory_options;
  in_memory_options.review.enabled = true;
  Gateway in_memory(in_memory_options);
  ASSERT_TRUE(in_memory.RegisterNamespace("ds", BaseSpec()).ok());
  ASSERT_TRUE(in_memory.Publish("ds", s.model).ok());

  const MetricLabels ns_labels = {{"namespace", "ds"}};
  const MetricsSnapshot before = gateway.MetricsSnapshot();
  const GaugeSnapshot* depth_before =
      before.FindGauge("learnrisk_gateway_review_queue_depth", ns_labels);
  ASSERT_NE(depth_before, nullptr);
  const int64_t depth = depth_before->value;

  *armed = true;
  ResolveRequest request;
  request.block_all = true;
  const Result<ResolveResponse> response = gateway.Resolve("ds", request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(*fired, 1);
  const Result<ResolveResponse> reference = in_memory.Resolve("ds", request);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_FALSE(reference->pairs.empty());
  ASSERT_EQ(response->pairs.size(), reference->pairs.size());
  for (size_t i = 0; i < reference->pairs.size(); ++i) {
    EXPECT_EQ(response->pairs[i].left, reference->pairs[i].left);
    EXPECT_EQ(response->pairs[i].right, reference->pairs[i].right);
  }
  EXPECT_EQ(response->scores.risk, reference->scores.risk);  // bit-identical
  EXPECT_EQ(response->scores.machine_label, reference->scores.machine_label);

  const MetricsSnapshot snap = gateway.MetricsSnapshot();
  const CounterSnapshot* failures = snap.FindCounter(
      "learnrisk_gateway_review_log_failures_total", ns_labels);
  ASSERT_NE(failures, nullptr);
  EXPECT_EQ(failures->value, 1u);
  const GaugeSnapshot* depth_after =
      snap.FindGauge("learnrisk_gateway_review_queue_depth", ns_labels);
  ASSERT_NE(depth_after, nullptr);
  EXPECT_EQ(depth_after->value, depth);
}

// Offers travel in batch frames of at most kMaxReviewEventsPerFrame events,
// but the WAL entry count — which drives the auto-checkpoint cadence — and
// the replay count both count events: a resolve offering N pairs advances
// them by N while adding only ceil(N / 256) frames.
TEST(GatewayDurabilityTest, ReviewOffersCountAsWalEntriesNotFrames) {
  const SharedSetup& s = Shared();
  const std::string dir = FreshDir("review_offer_entries");
  GatewayOptions options = DurableOptions(dir);
  options.review.enabled = true;
  options.review.per_request_budget = 1u << 20;  // block_all offers it all
  options.review.queue_capacity = 1u << 20;
  const MetricLabels ns_labels = {{"namespace", "ds"}};
  auto appends = [&](Gateway& gateway) {
    const MetricsSnapshot snap = gateway.MetricsSnapshot();
    const CounterSnapshot* counter =
        snap.FindCounter("learnrisk_gateway_wal_appends_total", ns_labels);
    return counter == nullptr ? uint64_t{0} : counter->value;
  };

  size_t offered = 0;
  size_t depth = 0;
  {
    Gateway gateway(options);
    ASSERT_TRUE(gateway.RegisterNamespace("ds", BaseSpec()).ok());
    ASSERT_TRUE(gateway.Publish("ds", s.model).ok());
    ASSERT_EQ(*gateway.WalEntriesSinceCheckpoint("ds"), 0u);
    ResolveRequest request;
    request.block_all = true;
    const auto response = gateway.Resolve("ds", request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    offered = gateway.ReviewStats("ds")->offered;
    depth = gateway.ReviewStats("ds")->depth;
    // More than one frame's worth, so the chunking is exercised.
    ASSERT_GT(offered, kMaxReviewEventsPerFrame);
    EXPECT_EQ(offered, response->pairs.size());
    EXPECT_EQ(*gateway.WalEntriesSinceCheckpoint("ds"), offered);
    const size_t frames = (offered + kMaxReviewEventsPerFrame - 1) /
                          kMaxReviewEventsPerFrame;
    EXPECT_EQ(appends(gateway), frames);

    // A drain of D pairs advances the count by D as well.
    const auto drained = gateway.DrainReview("ds", 3);
    ASSERT_TRUE(drained.ok());
    ASSERT_EQ(drained->size(), 3u);
    EXPECT_EQ(*gateway.WalEntriesSinceCheckpoint("ds"), offered + 3);
    EXPECT_EQ(appends(gateway), frames + 1);
    depth -= 3;
  }

  Gateway recovered(options);
  ASSERT_TRUE(recovered.RecoverNamespace("ds", RecoverSpec()).ok());
  EXPECT_EQ(*recovered.WalEntriesSinceCheckpoint("ds"), offered + 3);
  const MetricsSnapshot snap = recovered.MetricsSnapshot();
  const CounterSnapshot* replayed = snap.FindCounter(
      "learnrisk_gateway_recovered_wal_entries_total", ns_labels);
  ASSERT_NE(replayed, nullptr);
  EXPECT_EQ(replayed->value, offered + 3);
  // The three drained pairs were outstanding; recovery requeues them.
  EXPECT_EQ(recovered.ReviewStats("ds")->depth, depth + 3);
}

TEST(NamespaceLogTest, BadChecksumFrameEndsReplayAndDiscardsTheRest) {
  DirectLog d("wal_badcrc");
  ASSERT_TRUE(d.AppendN(3).ok());
  d.log.reset();  // close the stream before editing the file

  // Corrupt one payload byte of the SECOND frame: its length is still
  // valid, only the checksum fails. The frame and everything after it —
  // including the intact third frame — must be discarded: WAL replay is a
  // prefix, never a subsequence.
  const std::vector<size_t> offsets = FramePayloadOffsets(d.wal_path());
  ASSERT_EQ(offsets.size(), 3u);
  FlipByteAt(d.wal_path(), offsets[1] + 9);  // inside the record bytes

  RecoveredNamespace recovered;
  Result<std::unique_ptr<NamespaceLog>> log = NamespaceLog::Recover(
      d.options, "ns", d.base.schema(), &recovered);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_EQ(recovered.wal_entries_replayed, 1u);
  EXPECT_GT(recovered.wal_bytes_discarded, 0u);
  EXPECT_EQ(recovered.left.num_records(), d.base.num_records() + 1);
}

TEST(NamespaceLogTest, TornTailIsTruncatedAndTheLogStaysAppendable) {
  DirectLog d("wal_torn");
  ASSERT_TRUE(d.AppendN(3).ok());
  d.log.reset();

  // Tear the last frame mid-payload, as a crash between the two flushed
  // halves of an append would.
  const auto size = std::filesystem::file_size(d.wal_path());
  std::filesystem::resize_file(d.wal_path(), size - 5);

  RecoveredNamespace first;
  Result<std::unique_ptr<NamespaceLog>> log =
      NamespaceLog::Recover(d.options, "ns", d.base.schema(), &first);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_EQ(first.wal_entries_replayed, 2u);
  EXPECT_GT(first.wal_bytes_discarded, 0u);

  // The torn bytes were truncated away, so a post-recovery append extends a
  // valid prefix — a second recovery sees all three entries intact.
  WalEntry entry;
  entry.entity_id = 7;
  entry.record = Shared().workload.left().record(2);
  ASSERT_TRUE((*log)->Append(entry).ok());
  log->reset();

  RecoveredNamespace second;
  Result<std::unique_ptr<NamespaceLog>> again =
      NamespaceLog::Recover(d.options, "ns", d.base.schema(), &second);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(second.wal_entries_replayed, 3u);
  EXPECT_EQ(second.wal_bytes_discarded, 0u);
}

// --- Forged review frames: batch frames fail closed, old kinds replay. ---

void PutLE(std::string* out, uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out->push_back(static_cast<char>(v >> (8 * i)));
  }
}

void PutF64LE(std::string* out, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  PutLE(out, bits, 8);
}

// A drain event as the WAL encodes it: kind byte 3, then the pair key.
std::string DrainEvent(int64_t left, int64_t right) {
  std::string out(1, '\3');
  PutLE(&out, static_cast<uint64_t>(left), 8);
  PutLE(&out, static_cast<uint64_t>(right), 8);
  return out;
}

// An offer event as the WAL encodes it: kind byte 2, then the full item.
std::string OfferEvent(const ReviewItem& item) {
  std::string out(1, '\2');
  PutLE(&out, static_cast<uint64_t>(item.left), 8);
  PutLE(&out, static_cast<uint64_t>(item.right), 8);
  PutF64LE(&out, item.risk);
  PutF64LE(&out, item.classifier_prob);
  out.push_back(static_cast<char>(item.machine_label));
  PutLE(&out, item.model_version, 8);
  PutLE(&out, item.request_id, 8);
  PutLE(&out, item.features.size(), 4);
  for (double f : item.features) PutF64LE(&out, f);
  return out;
}

// A batch payload: kind byte 5, u32 event count, then the event bytes.
std::string BatchPayload(uint32_t count, const std::string& events) {
  std::string out(1, '\5');
  PutLE(&out, count, 4);
  return out + events;
}

// Appends one correctly sized and checksummed frame to a WAL file.
void AppendRawFrame(const std::string& path, const std::string& payload) {
  std::string frame;
  PutLE(&frame, payload.size(), 4);
  PutLE(&frame, Crc32(payload.data(), payload.size()), 4);
  frame += payload;
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
}

ReviewItem SampleItem() {
  ReviewItem item;
  item.left = 11;
  item.right = 22;
  item.risk = 0.625;
  item.classifier_prob = 0.375;
  item.machine_label = 1;
  item.model_version = 3;
  item.request_id = 44;
  item.features = {0.5, -1.25, 2.0};
  return item;
}

// An offer event carrying `item` with one field set to a value the review
// queue cannot hold.
std::string BadOffer(void (*spoil)(ReviewItem*)) {
  ReviewItem item = SampleItem();
  spoil(&item);
  return BatchPayload(1, OfferEvent(item));
}

// A single-event label frame (kind 4) with the given truth byte.
std::string LabelFrame(int64_t left, int64_t right, char truth) {
  std::string label(1, '\4');
  label += DrainEvent(left, right).substr(1);
  label.push_back(truth);
  return label;
}

TEST(NamespaceLogTest, MalformedReviewFrameEndsReplayAtThatFrame) {
  const std::string drain = DrainEvent(5, 6);
  const std::string offer = OfferEvent(SampleItem());
  struct Case {
    const char* name;
    std::string payload;
  };
  const Case kCases[] = {
      {"offer with a NaN risk",
       BadOffer([](ReviewItem* i) { i->risk = std::nan(""); })},
      {"offer with an infinite risk",
       BadOffer([](ReviewItem* i) { i->risk = HUGE_VAL; })},
      {"offer with a probability below 0",
       BadOffer([](ReviewItem* i) { i->classifier_prob = -0.125; })},
      {"offer with a probability above 1",
       BadOffer([](ReviewItem* i) { i->classifier_prob = 1.5; })},
      {"offer with a NaN probability",
       BadOffer([](ReviewItem* i) { i->classifier_prob = std::nan(""); })},
      {"offer with machine label 2",
       BadOffer([](ReviewItem* i) { i->machine_label = 2; })},
      {"label with truth 2", LabelFrame(5, 6, '\2')},
      {"batched label with truth 255",
       BatchPayload(1, LabelFrame(5, 6, '\xff'))},
      {"count larger than the bytes left", BatchPayload(1000, drain)},
      {"count one past the events", BatchPayload(2, drain)},
      {"nested record kind 0", BatchPayload(1, '\0' + drain.substr(1))},
      {"nested record kind 1", BatchPayload(1, '\1' + drain.substr(1))},
      {"nested batch kind", BatchPayload(1, BatchPayload(1, drain))},
      {"truncated nested offer",
       BatchPayload(1, offer.substr(0, offer.size() - 3))},
      {"trailing bytes", BatchPayload(1, drain + std::string(1, '\0'))},
      {"unknown frame kind", '\6' + drain.substr(1)},
  };
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.name);
    DirectLog d("wal_bad_batch");
    ASSERT_TRUE(d.AppendN(1).ok());
    const ReviewItem keys[2] = {SampleItem(), SampleItem()};
    ASSERT_TRUE(
        d.log->AppendReviewBatch(ReviewWalEvent::Kind::kDrain, keys, 2).ok());
    d.log.reset();
    AppendRawFrame(d.wal_path(), c.payload);
    // A valid frame behind the malformed one is discarded with it.
    AppendRawFrame(d.wal_path(), BatchPayload(1, drain));

    RecoveredNamespace recovered;
    Result<std::unique_ptr<NamespaceLog>> log = NamespaceLog::Recover(
        d.options, "ns", d.base.schema(), &recovered);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    EXPECT_EQ(recovered.wal_entries_replayed, 3u);  // 1 record + 2 drains
    ASSERT_EQ(recovered.review_events.size(), 2u);
    EXPECT_EQ(recovered.review_events[1].kind, ReviewWalEvent::Kind::kDrain);
    EXPECT_GT(recovered.wal_bytes_discarded, 0u);
    EXPECT_EQ(recovered.left.num_records(), d.base.num_records() + 1);
  }
}

TEST(NamespaceLogTest, BatchAppendRejectsCountsOutsideTheFrameBound) {
  DirectLog d("wal_batch_bounds");
  const std::vector<ReviewItem> items(kMaxReviewEventsPerFrame + 1,
                                      SampleItem());
  EXPECT_TRUE(d.log->AppendReviewBatch(ReviewWalEvent::Kind::kOffer,
                                       items.data(), 0)
                  .IsInvalidArgument());
  EXPECT_TRUE(d.log->AppendReviewBatch(ReviewWalEvent::Kind::kOffer,
                                       items.data(), items.size())
                  .IsInvalidArgument());
  EXPECT_TRUE(
      d.log->AppendReviewBatch(ReviewWalEvent::Kind::kLabel, items.data(), 1)
          .IsInvalidArgument());
  EXPECT_EQ(d.log->wal_entries_since_checkpoint(), 0u);
  ASSERT_TRUE(d.log
                  ->AppendReviewBatch(ReviewWalEvent::Kind::kOffer,
                                      items.data(), kMaxReviewEventsPerFrame)
                  .ok());
  EXPECT_EQ(d.log->wal_entries_since_checkpoint(), kMaxReviewEventsPerFrame);
}

TEST(NamespaceLogTest, SingleEventReviewFramesStillReplay) {
  // Hand-written frames of kinds 2-4, one event each — the only review
  // frames older logs hold — interleaved with a batch frame.
  DirectLog d("wal_single_event");
  d.log.reset();
  const ReviewItem item = SampleItem();
  AppendRawFrame(d.wal_path(), OfferEvent(item));
  AppendRawFrame(d.wal_path(), BatchPayload(1, DrainEvent(7, 8)));
  AppendRawFrame(d.wal_path(), DrainEvent(item.left, item.right));
  std::string label(1, '\4');
  label += DrainEvent(item.left, item.right).substr(1);
  label.push_back('\1');
  AppendRawFrame(d.wal_path(), label);

  RecoveredNamespace recovered;
  Result<std::unique_ptr<NamespaceLog>> log =
      NamespaceLog::Recover(d.options, "ns", d.base.schema(), &recovered);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_EQ(recovered.wal_bytes_discarded, 0u);
  EXPECT_EQ(recovered.wal_entries_replayed, 4u);
  ASSERT_EQ(recovered.review_events.size(), 4u);
  const ReviewWalEvent& offer = recovered.review_events[0];
  EXPECT_EQ(offer.kind, ReviewWalEvent::Kind::kOffer);
  EXPECT_EQ(offer.item.left, item.left);
  EXPECT_EQ(offer.item.right, item.right);
  EXPECT_EQ(offer.item.risk, item.risk);
  EXPECT_EQ(offer.item.classifier_prob, item.classifier_prob);
  EXPECT_EQ(offer.item.machine_label, item.machine_label);
  EXPECT_EQ(offer.item.model_version, item.model_version);
  EXPECT_EQ(offer.item.request_id, item.request_id);
  EXPECT_EQ(offer.item.features, item.features);
  EXPECT_EQ(recovered.review_events[1].kind, ReviewWalEvent::Kind::kDrain);
  EXPECT_EQ(recovered.review_events[1].item.left, 7);
  EXPECT_EQ(recovered.review_events[2].kind, ReviewWalEvent::Kind::kDrain);
  EXPECT_EQ(recovered.review_events[3].kind, ReviewWalEvent::Kind::kLabel);
  EXPECT_EQ(recovered.review_events[3].item.right, item.right);
  EXPECT_EQ(recovered.review_events[3].truth, 1);
  EXPECT_EQ((*log)->wal_entries_since_checkpoint(), 4u);
}

// CRC-32/IEEE one bit at a time: the definition the table-driven Crc32
// must reproduce exactly (WAL frames, segments and manifests depend on it).
uint32_t BitwiseCrc32(const unsigned char* data, size_t size) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, KnownAnswersAndBitwiseReference) {
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  std::vector<unsigned char> bytes(1024 + 8);
  uint32_t state = 12345;
  for (unsigned char& b : bytes) {
    state = state * 1103515245u + 12345u;
    b = static_cast<unsigned char>(state >> 16);
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t size = 0; size <= 1024; ++size) {
      ASSERT_EQ(Crc32(bytes.data() + offset, size),
                BitwiseCrc32(bytes.data() + offset, size))
          << "offset " << offset << " size " << size;
    }
  }
}

#ifndef _WIN32
// Runs in a death-test child. A file-size limit just past the WAL's end
// makes one AddRecord's write fail partway; once the limit is lifted, the
// next AddRecord is acknowledged. Recovery must hold exactly that acked
// record: the failed append's partial bytes were rolled back instead of
// being left to tear the frame written behind them. Returns 0 on success,
// otherwise the number of the failed step.
int FailedWalWriteThenAckedAppend(const std::string& dir) {
  const SharedSetup& s = Shared();
  std::signal(SIGXFSZ, SIG_IGN);  // EFBIG from write(2) instead of a kill
  const std::string wal = dir + "/ds/shards/s0/wal_1.log";
  const size_t base = s.workload.left().num_records();
  {
    Gateway gateway(DurableOptions(dir));
    if (!gateway.RegisterNamespace("ds", BaseSpec()).ok()) return 1;
    std::error_code ec;
    const uintmax_t wal_size = std::filesystem::file_size(wal, ec);
    if (ec) return 2;
    rlimit original{};
    if (getrlimit(RLIMIT_FSIZE, &original) != 0) return 3;
    rlimit tight = original;
    tight.rlim_cur = static_cast<rlim_t>(wal_size + 16);
    if (setrlimit(RLIMIT_FSIZE, &tight) != 0) return 4;
    const Status failed = gateway.AddRecord("ds", BlockingSide::kLeft,
                                            s.workload.left().record(0), -1);
    if (setrlimit(RLIMIT_FSIZE, &original) != 0) return 5;
    if (failed.ok()) return 6;
    if (!gateway
             .AddRecord("ds", BlockingSide::kLeft, s.workload.left().record(1),
                        -1)
             .ok()) {
      return 7;
    }
  }
  Gateway recovered(DurableOptions(dir));
  if (!recovered.RecoverNamespace("ds", RecoverSpec()).ok()) return 8;
  const Result<size_t> left = recovered.NumRecords("ds", BlockingSide::kLeft);
  if (!left.ok() || *left != base + 1) return 9;
  return 0;
}

TEST(GatewayDurabilityDeathTest, FailedWalWriteDoesNotHideLaterAckedAppends) {
  // Re-executes the binary for the child, so no pool thread is forked.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string dir = FreshDir("wal_failed_write");
  EXPECT_EXIT(
      {
        const int step = FailedWalWriteThenAckedAppend(dir);
        if (step != 0) std::fprintf(stderr, "step %d failed\n", step);
        std::exit(step);
      },
      ::testing::ExitedWithCode(0), "");
}

// Keys of `items` in order.
std::vector<std::pair<int64_t, int64_t>> KeysOf(
    const std::vector<ReviewItem>& items) {
  std::vector<std::pair<int64_t, int64_t>> keys;
  for (const ReviewItem& item : items) keys.emplace_back(item.left, item.right);
  return keys;
}

// Drains up to `max_items` from both gateways and labels every drained pair
// on both; false unless both hand out the same pairs in the same order.
bool DrainAndLabelBoth(Gateway* durable, Gateway* twin, size_t max_items) {
  const auto got = durable->DrainReview("ds", max_items);
  const auto want = twin->DrainReview("ds", max_items);
  if (!got.ok() || !want.ok() || KeysOf(*got) != KeysOf(*want)) return false;
  for (const ReviewItem& item : *want) {
    for (Gateway* g : {durable, twin}) {
      if (!g->SubmitReviewLabel("ds", item.left, item.right,
                                item.machine_label)
               .ok()) {
        return false;
      }
    }
  }
  return true;
}

// Runs in a death-test child. A file-size limit admits the first drain
// frame of a DrainReview(300) but not the second: the drain must hand out
// exactly the first frame's 256 durable items, OK, and apply no more. Once
// the limit is lifted and more review traffic runs, the recovered queue
// must equal an in-memory twin whose drain asked for 256 items: the same
// depth, labels and drain order. The failed frame is counted in
// learnrisk_gateway_review_log_failures_total. Returns 0 on success,
// otherwise the number of the failed step.
int PartlyFailedDrainThenRecover(const std::string& dir) {
  const SharedSetup& s = Shared();
  std::signal(SIGXFSZ, SIG_IGN);  // EFBIG from write(2) instead of a kill
  const std::string wal = dir + "/ds/shards/s0/wal_1.log";
  GatewayOptions options = DurableOptions(dir);
  options.review.enabled = true;
  options.review.per_request_budget = 400;
  GatewayOptions twin_options = options;
  twin_options.durability.dir.clear();
  Gateway twin(twin_options);
  ResolveRequest block_all;
  block_all.block_all = true;
  {
    Gateway gateway(options);
    for (Gateway* g : {&gateway, &twin}) {
      if (!g->RegisterNamespace("ds", BaseSpec()).ok()) return 1;
      if (!g->Publish("ds", s.model).ok()) return 2;
      if (!g->Resolve("ds", block_all).ok()) return 3;
    }
    if (twin.ReviewStats("ds")->depth < 300) return 4;
    std::error_code ec;
    const uintmax_t wal_size = std::filesystem::file_size(wal, ec);
    if (ec) return 5;
    // A drain batch frame: 8 header bytes, the kind byte, a u32 count,
    // then 17 bytes per drain. The limit cuts the second frame short.
    const uintmax_t first_frame = 8 + 1 + 4 + 17 * kMaxReviewEventsPerFrame;
    rlimit original{};
    if (getrlimit(RLIMIT_FSIZE, &original) != 0) return 6;
    rlimit tight = original;
    tight.rlim_cur = static_cast<rlim_t>(wal_size + first_frame + 64);
    if (setrlimit(RLIMIT_FSIZE, &tight) != 0) return 7;
    const auto drained = gateway.DrainReview("ds", 300);
    if (setrlimit(RLIMIT_FSIZE, &original) != 0) return 8;
    if (!drained.ok() || drained->size() != kMaxReviewEventsPerFrame) return 9;
    if (std::filesystem::file_size(wal, ec) != wal_size + first_frame) {
      return 10;
    }
    const auto twin_drained = twin.DrainReview("ds", kMaxReviewEventsPerFrame);
    if (!twin_drained.ok() || KeysOf(*drained) != KeysOf(*twin_drained)) {
      return 11;
    }
    if (gateway.ReviewStats("ds")->outstanding != kMaxReviewEventsPerFrame) {
      return 12;
    }
    // The absorbed frame failure is counted, not silent.
    {
      const MetricsSnapshot snap = gateway.MetricsSnapshot();
      const CounterSnapshot* failures =
          snap.FindCounter("learnrisk_gateway_review_log_failures_total",
                           {{"namespace", "ds"}});
      if (failures == nullptr || failures->value != 1) return 19;
    }
    // More traffic: label the drained pairs, offer probe pairs, drain and
    // label again; nothing stays outstanding.
    for (const ReviewItem& item : *twin_drained) {
      for (Gateway* g : {&gateway, &twin}) {
        if (!g->SubmitReviewLabel("ds", item.left, item.right, 1).ok()) {
          return 13;
        }
      }
    }
    for (size_t p = 0; p < 4; ++p) {
      const Record& probe = s.workload.right().record(p);
      for (Gateway* g : {&gateway, &twin}) {
        if (!g->ResolveRecord("ds", probe).ok()) return 14;
      }
    }
    if (!DrainAndLabelBoth(&gateway, &twin, 20)) return 15;
  }
  Gateway recovered(options);
  if (!recovered.RecoverNamespace("ds", RecoverSpec()).ok()) return 16;
  const auto got = recovered.ReviewStats("ds");
  const auto want = twin.ReviewStats("ds");
  if (got->depth != want->depth || got->labels != want->labels ||
      got->outstanding != 0) {
    return 17;
  }
  const auto got_order = recovered.DrainReview("ds", 1u << 20);
  const auto want_order = twin.DrainReview("ds", 1u << 20);
  if (!got_order.ok() || !want_order.ok() ||
      KeysOf(*got_order) != KeysOf(*want_order)) {
    return 18;
  }
  return 0;
}

TEST(GatewayDurabilityDeathTest, PartlyFailedDrainAppliesItsDurableFrames) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string dir = FreshDir("drain_failed_frame");
  EXPECT_EXIT(
      {
        const int step = PartlyFailedDrainThenRecover(dir);
        if (step != 0) std::fprintf(stderr, "step %d failed\n", step);
        std::exit(step);
      },
      ::testing::ExitedWithCode(0), "");
}
#endif

TEST(NamespaceLogTest, MissingSegmentFileFailsWithDiagnostic) {
  DirectLog d("missing_segment");
  d.log.reset();
  const std::string segment = d.dir + "/ns/ckpt_1_left.seg";
  ASSERT_TRUE(std::filesystem::remove(segment));

  RecoveredNamespace recovered;
  Result<std::unique_ptr<NamespaceLog>> log =
      NamespaceLog::Recover(d.options, "ns", d.base.schema(), &recovered);
  ASSERT_FALSE(log.ok());
  EXPECT_TRUE(log.status().IsIOError());
  // The diagnostic names the missing file.
  EXPECT_NE(log.status().message().find("ckpt_1_left.seg"), std::string::npos)
      << log.status().ToString();
}

TEST(NamespaceLogTest, CorruptManifestFailsWithDiagnostic) {
  DirectLog d("corrupt_manifest");
  d.log.reset();
  FlipByteAt(d.dir + "/ns/MANIFEST", 40);

  RecoveredNamespace recovered;
  Result<std::unique_ptr<NamespaceLog>> log =
      NamespaceLog::Recover(d.options, "ns", d.base.schema(), &recovered);
  ASSERT_FALSE(log.ok());
  EXPECT_TRUE(log.status().IsInvalidArgument()) << log.status().ToString();
}

// A review segment whose queued, outstanding or labeled count matches a
// forged (checksummed) manifest but could never fit the segment's payload
// fails recovery with an IOError naming the segment, before anything of
// that size is reserved.
TEST(NamespaceLogTest, ReviewSegmentCountBeyondItsPayloadFailsClosed) {
  const uint64_t forged = uint64_t{1} << 40;
  for (int section = 0; section < 3; ++section) {
    SCOPED_TRACE(section);
    DirectLog d("review_count_forged_" + std::to_string(section));
    d.log.reset();
    const std::string ns_dir = d.dir + "/ns";
    uint64_t counts[3] = {0, 0, 0};
    counts[section] = forged;

    // The segment: header, u64 payload size, u32 crc, then a payload with
    // the forged count in its section and a few bytes after it.
    std::string payload;
    for (int s = 0; s <= section; ++s) PutLE(&payload, counts[s], 8);
    payload += std::string(16, '\0');
    std::string segment = "learnrisk-rev v1\n";
    PutLE(&segment, payload.size(), 8);
    PutLE(&segment, Crc32(payload.data(), payload.size()), 4);
    segment += payload;
    std::ofstream(ns_dir + "/ckpt_1_review.seg", std::ios::binary) << segment;

    // The manifest gains a review record with the same counts, under a
    // recomputed crc trailer.
    std::ifstream in(ns_dir + "/MANIFEST", std::ios::binary);
    const std::string manifest((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
    const size_t crc_pos = manifest.rfind("crc ");
    ASSERT_NE(crc_pos, std::string::npos);
    const std::string body =
        manifest.substr(0, crc_pos) + "review ckpt_1_review.seg " +
        std::to_string(counts[0]) + " " + std::to_string(counts[1]) + " " +
        std::to_string(counts[2]) + "\n";
    char trailer[32];
    std::snprintf(trailer, sizeof(trailer), "crc %08x\n",
                  Crc32(body.data(), body.size()));
    std::ofstream(ns_dir + "/MANIFEST", std::ios::binary | std::ios::trunc)
        << body << trailer;

    RecoveredNamespace recovered;
    Result<std::unique_ptr<NamespaceLog>> log =
        NamespaceLog::Recover(d.options, "ns", d.base.schema(), &recovered);
    ASSERT_FALSE(log.ok());
    EXPECT_TRUE(log.status().IsIOError()) << log.status().ToString();
    EXPECT_NE(log.status().message().find("ckpt_1_review.seg"),
              std::string::npos)
        << log.status().ToString();
  }
}

// A checksummed review segment whose counts match its manifest but which
// files one pair key twice — within a section or across two — fails
// recovery with an IOError instead of serving the pair in two stages (it
// could be drained and labeled again, and the next retrain would see its
// label twice). The segment is written through shard 0's own log, so its
// checksum and manifest counts are genuine.
TEST(GatewayDurabilityTest, ReviewSegmentRepeatingAPairKeyFailsClosed) {
  ReviewItem a;
  a.left = 0;
  a.right = 1;
  a.risk = 0.75;
  a.features.assign(Shared().suite.num_metrics(), 0.5);
  ReviewItem b = a;
  b.right = 2;
  b.risk = 0.25;
  ReviewItem c = a;
  c.right = 3;
  struct Forgery {
    ReviewQueue::CheckpointState state;
    bool repeats;
  };
  const std::vector<Forgery> forgeries = {
      {{{a, b}, {}, {LabeledReview{c, 1}}}, false},  // control
      {{{a, b, a}, {}, {}}, true},
      {{{a}, {a}, {}}, true},
      {{{a, b}, {}, {LabeledReview{a, 1}}}, true},
      {{{b}, {a}, {LabeledReview{a, 0}}}, true},
      {{{}, {}, {LabeledReview{a, 1}, LabeledReview{a, 1}}}, true},
  };
  for (size_t i = 0; i < forgeries.size(); ++i) {
    SCOPED_TRACE(i);
    const std::string dir = FreshDir("review_repeat_" + std::to_string(i));
    GatewayOptions options = DurableOptions(dir);
    options.review.enabled = true;
    {
      Gateway gateway(options);
      ASSERT_TRUE(gateway.RegisterNamespace("ds", BaseSpec()).ok());
    }
    {
      DurabilityOptions shard;
      shard.dir = dir + "/ds/shards";
      RecoveredNamespace rec;
      Result<std::unique_ptr<NamespaceLog>> log = NamespaceLog::Recover(
          shard, "s0", Shared().workload.left().schema(), &rec);
      ASSERT_TRUE(log.ok()) << log.status().ToString();
      ASSERT_TRUE((*log)
                      ->WriteCheckpoint(rec.left,
                                        rec.dedup ? nullptr : &rec.right, 0,
                                        nullptr, &forgeries[i].state)
                      .ok());
    }
    Gateway recovered(options);
    const Status status = recovered.RecoverNamespace("ds", RecoverSpec());
    if (!forgeries[i].repeats) {
      ASSERT_TRUE(status.ok()) << status.ToString();
      EXPECT_EQ(recovered.ReviewStats("ds")->depth, 2u);
      EXPECT_EQ(recovered.ReviewStats("ds")->labeled, 1u);
      continue;
    }
    EXPECT_TRUE(status.IsIOError()) << status.ToString();
    EXPECT_NE(status.message().find("(0, 1)"), std::string::npos)
        << status.ToString();
    EXPECT_FALSE(recovered.ReviewStats("ds").ok());  // nothing is served
  }
}

// Writes `state` as the review segment of a fresh review-enabled durable
// namespace under `dir`, through shard 0's own log, so the segment's
// checksum and the manifest's counts are genuine.
void ForgeReviewCheckpoint(const GatewayOptions& options,
                           const ReviewQueue::CheckpointState& state) {
  {
    Gateway gateway(options);
    ASSERT_TRUE(gateway.RegisterNamespace("ds", BaseSpec()).ok());
  }
  DurabilityOptions shard;
  shard.dir = options.durability.dir + "/ds/shards";
  RecoveredNamespace rec;
  Result<std::unique_ptr<NamespaceLog>> log = NamespaceLog::Recover(
      shard, "s0", Shared().workload.left().schema(), &rec);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  ASSERT_TRUE((*log)
                  ->WriteCheckpoint(rec.left, rec.dedup ? nullptr : &rec.right,
                                    0, nullptr, &state)
                  .ok());
}

// A checksummed review segment holding a value the queue cannot order or
// retrain on — a non-finite risk, a probability outside [0, 1], a machine
// label or truth above 1 — in any section fails recovery with an IOError
// naming the segment instead of serving it.
TEST(GatewayDurabilityTest, ReviewSegmentWithUnorderableValuesFailsClosed) {
  ReviewItem good;
  good.left = 0;
  good.right = 1;
  good.risk = 0.75;
  good.classifier_prob = 0.5;
  good.features.assign(Shared().suite.num_metrics(), 0.5);
  // `good` under the key (0, right) with one field changed.
  auto variant = [&](int64_t right, void (*change)(ReviewItem*)) {
    ReviewItem item = good;
    item.right = right;
    change(&item);
    return item;
  };
  const ReviewItem nan_risk =
      variant(2, [](ReviewItem* i) { i->risk = std::nan(""); });
  const ReviewItem inf_risk =
      variant(2, [](ReviewItem* i) { i->risk = -HUGE_VAL; });
  const ReviewItem big_prob =
      variant(2, [](ReviewItem* i) { i->classifier_prob = 1.5; });
  const ReviewItem bad_label =
      variant(2, [](ReviewItem* i) { i->machine_label = 2; });
  const ReviewItem edges = variant(3, [](ReviewItem* i) {
    i->risk = -1e300;
    i->classifier_prob = 1.0;
    i->machine_label = 1;
  });
  struct Forgery {
    const char* name;
    ReviewQueue::CheckpointState state;
    bool valid;
  };
  const std::vector<Forgery> forgeries = {
      {"control",
       {{good}, {edges}, {LabeledReview{variant(4, [](ReviewItem*) {}), 1}}},
       true},
      {"queued NaN risk", {{good, nan_risk}, {}, {}}, false},
      {"outstanding infinite risk", {{good}, {inf_risk}, {}}, false},
      {"queued probability 1.5", {{big_prob}, {}, {}}, false},
      {"labeled machine label 2", {{}, {}, {LabeledReview{bad_label, 0}}},
       false},
      {"labeled truth 2", {{}, {}, {LabeledReview{good, 2}}}, false},
  };
  for (size_t i = 0; i < forgeries.size(); ++i) {
    SCOPED_TRACE(forgeries[i].name);
    GatewayOptions options =
        DurableOptions(FreshDir("review_unorderable_" + std::to_string(i)));
    options.review.enabled = true;
    ForgeReviewCheckpoint(options, forgeries[i].state);
    if (::testing::Test::HasFatalFailure()) return;
    Gateway recovered(options);
    const Status status = recovered.RecoverNamespace("ds", RecoverSpec());
    if (forgeries[i].valid) {
      EXPECT_TRUE(status.ok()) << status.ToString();
      continue;
    }
    EXPECT_TRUE(status.IsIOError()) << status.ToString();
    EXPECT_NE(status.message().find("ckpt_2_review.seg"), std::string::npos)
        << status.ToString();
    EXPECT_FALSE(recovered.ReviewStats("ds").ok());  // nothing is served
  }
}

// A label the queue cannot count (truth above 1) is refused before any
// frame is written; a valid label for the same pair is then accepted.
TEST(GatewayDurabilityTest, SubmitReviewLabelRefusesATruthAboveOne) {
  GatewayOptions options = DurableOptions(FreshDir("review_bad_truth"));
  options.review.enabled = true;
  Gateway gateway(options);
  ASSERT_TRUE(gateway.RegisterNamespace("ds", BaseSpec()).ok());
  ASSERT_TRUE(gateway.Publish("ds", Shared().model).ok());
  ResolveRequest block_all;
  block_all.block_all = true;
  ASSERT_TRUE(gateway.Resolve("ds", block_all).ok());
  const auto drained = gateway.DrainReview("ds", 1);
  ASSERT_TRUE(drained.ok());
  ASSERT_EQ(drained->size(), 1u);
  const ReviewItem& item = (*drained)[0];
  const size_t wal_entries = *gateway.WalEntriesSinceCheckpoint("ds");
  for (uint8_t truth : {uint8_t{2}, uint8_t{255}}) {
    EXPECT_TRUE(gateway.SubmitReviewLabel("ds", item.left, item.right, truth)
                    .IsInvalidArgument());
  }
  EXPECT_EQ(*gateway.WalEntriesSinceCheckpoint("ds"), wal_entries);
  EXPECT_EQ(gateway.ReviewStats("ds")->labels, 0u);
  EXPECT_TRUE(gateway.SubmitReviewLabel("ds", item.left, item.right, 1).ok());
  EXPECT_EQ(*gateway.WalEntriesSinceCheckpoint("ds"), wal_entries + 1);
}

TEST(NamespaceLogTest, CreateRefusesExistingStateAndRecoverNeedsState) {
  DirectLog d("create_refuses");
  d.log.reset();
  // A committed manifest exists: a second Create must refuse (the state
  // belongs to a previous incarnation) rather than wipe it.
  Result<std::unique_ptr<NamespaceLog>> second =
      NamespaceLog::Create(d.options, "ns");
  ASSERT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsFailedPrecondition());

  // And recovering a namespace that never existed is NotFound.
  RecoveredNamespace recovered;
  Result<std::unique_ptr<NamespaceLog>> log =
      NamespaceLog::Recover(d.options, "never", d.base.schema(), &recovered);
  ASSERT_FALSE(log.ok());
  EXPECT_TRUE(log.status().IsNotFound());
}

TEST(GatewayDurabilityTest, DurableReRegistrationIsRefused) {
  const std::string dir = FreshDir("durable_reregister");
  {
    Gateway gateway(DurableOptions(dir));
    ASSERT_TRUE(gateway.RegisterNamespace("ds", BaseSpec()).ok());
  }
  // A new gateway over the same directory must not silently overwrite the
  // durable namespace; the state is recovered, not re-registered.
  Gateway gateway(DurableOptions(dir));
  const Status status = gateway.RegisterNamespace("ds", BaseSpec());
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsFailedPrecondition()) << status.ToString();
  ASSERT_TRUE(gateway.RecoverNamespace("ds", RecoverSpec()).ok());
}

// --- One on-disk layout for every shard count. ----------------------------

NamespaceSpec ShardedSpec(size_t shards) {
  NamespaceSpec spec = BaseSpec();
  spec.shards = shards;
  return spec;
}

// Every regular file under `root`, relative to it, sorted.
std::vector<std::string> FilesUnder(const std::string& root) {
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(root)) {
    if (entry.is_regular_file()) {
      files.push_back(std::filesystem::relative(entry.path(), root).string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

void WriteShardsCount(const std::string& ns_dir, const std::string& count) {
  std::ofstream out(ns_dir + "/SHARDS", std::ios::trunc);
  out << "learnrisk-namespace-shards v1\n" << count << "\n";
}

TEST(GatewayDurabilityTest, EveryShardCountUsesTheShardsLayout) {
  for (const size_t shards : {size_t{1}, size_t{3}}) {
    SCOPED_TRACE(shards);
    const std::string dir = FreshDir("layout_" + std::to_string(shards));
    Gateway gateway(DurableOptions(dir));
    ASSERT_TRUE(gateway.RegisterNamespace("ds", ShardedSpec(shards)).ok());
    const std::string ns_dir = dir + "/ds";
    EXPECT_TRUE(std::filesystem::exists(ns_dir + "/SHARDS"));
    EXPECT_FALSE(std::filesystem::exists(ns_dir + "/MANIFEST"));
    for (size_t k = 0; k < shards; ++k) {
      EXPECT_TRUE(std::filesystem::exists(ns_dir + "/shards/s" +
                                          std::to_string(k) + "/MANIFEST"));
    }
    EXPECT_FALSE(std::filesystem::exists(ns_dir + "/shards/s" +
                                         std::to_string(shards)));
  }
}

TEST(GatewayDurabilityTest, CheckpointKeepsOneModelFileOnShardZero) {
  const SharedSetup& s = Shared();
  const std::string dir = FreshDir("model_on_shard0");
  uint64_t version = 0;
  {
    Gateway gateway(DurableOptions(dir));
    ASSERT_TRUE(gateway.RegisterNamespace("ds", ShardedSpec(3)).ok());
    ASSERT_TRUE(gateway.Publish("ds", s.model).ok());
    const Result<uint64_t> published = gateway.Publish("ds", s.model);
    ASSERT_TRUE(published.ok());
    version = *published;
    ASSERT_TRUE(gateway.Checkpoint("ds").ok());
  }
  std::vector<std::string> models;
  for (const std::string& file : FilesUnder(dir + "/ds")) {
    if (std::filesystem::path(file).extension() == ".model") {
      models.push_back(file);
    }
  }
  ASSERT_EQ(models.size(), 1u);
  EXPECT_EQ(models[0].rfind("shards/s0/", 0), 0u) << models[0];

  Gateway recovered(DurableOptions(dir));
  ASSERT_TRUE(recovered.RecoverNamespace("ds", RecoverSpec()).ok());
  const auto engine = recovered.registry().Engine("ds");
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ((*engine)->version(), version);
}

TEST(GatewayDurabilityTest, ReRegistrationWithAnotherShardCountIsRefused) {
  const SharedSetup& s = Shared();
  const std::string dir = FreshDir("reregister_other_count");
  {
    Gateway gateway(DurableOptions(dir));
    ASSERT_TRUE(gateway.RegisterNamespace("ds", ShardedSpec(3)).ok());
    ASSERT_TRUE(gateway.Publish("ds", s.model).ok());
    ASSERT_TRUE(ApplyAdds(&gateway, "ds", 7).ok());
    ASSERT_TRUE(gateway.Checkpoint("ds").ok());
  }
  for (const size_t shards : {size_t{1}, size_t{2}, size_t{3}, size_t{4}}) {
    SCOPED_TRACE(shards);
    Gateway gateway(DurableOptions(dir));
    const Status status =
        gateway.RegisterNamespace("ds", ShardedSpec(shards));
    EXPECT_TRUE(status.IsFailedPrecondition()) << status.ToString();
  }
  // Recovery takes S from SHARDS (the spec carries no shard count) and
  // serves all three shards' records.
  Gateway recovered(DurableOptions(dir));
  ASSERT_TRUE(recovered.RecoverNamespace("ds", RecoverSpec()).ok());
  Gateway reference;
  ASSERT_TRUE(reference.RegisterNamespace("ds", BaseSpec()).ok());
  ASSERT_TRUE(reference.Publish("ds", s.model).ok());
  ASSERT_TRUE(ApplyAdds(&reference, "ds", 7).ok());
  ExpectBitIdentical(&recovered, &reference, "ds");
}

TEST(GatewayDurabilityTest, CorruptShardCountFailsClosed) {
  for (const char* count : {"99999999999", "-1", "0", "3 junk", "1"}) {
    SCOPED_TRACE(count);
    const std::string dir = FreshDir("corrupt_shards");
    {
      Gateway gateway(DurableOptions(dir));
      ASSERT_TRUE(gateway.RegisterNamespace("ds", ShardedSpec(3)).ok());
    }
    WriteShardsCount(dir + "/ds", count);
    {
      Gateway gateway(DurableOptions(dir));
      const Status recovered = gateway.RecoverNamespace("ds", RecoverSpec());
      EXPECT_FALSE(recovered.ok());
      const Status registered =
          gateway.RegisterNamespace("ds", ShardedSpec(3));
      EXPECT_FALSE(registered.ok());
    }
    // Neither call wiped the committed shards: with the count repaired the
    // namespace recovers.
    WriteShardsCount(dir + "/ds", "3");
    Gateway gateway(DurableOptions(dir));
    EXPECT_TRUE(gateway.RecoverNamespace("ds", RecoverSpec()).ok());
  }
}

TEST(GatewayDurabilityTest, InterruptedRegistrationIsClearedByTheNextOne) {
  const std::string dir = FreshDir("interrupted_registration");
  const std::string shards_dir = dir + "/ds/shards";
  {
    // Registration checkpoints shard by shard; crash at the 2nd shard's
    // manifest swap: s0 is committed, s1 holds only a MANIFEST.tmp.
    int countdown = 2;
    GatewayOptions options = DurableOptions(dir);
    options.durability.crash_hook = [&countdown](const std::string& point) {
      return point == "manifest:before_swap" && --countdown == 0;
    };
    Gateway gateway(options);
    ASSERT_FALSE(gateway.RegisterNamespace("ds", ShardedSpec(3)).ok());
  }
  ASSERT_TRUE(std::filesystem::exists(shards_dir + "/s0/MANIFEST"));
  ASSERT_TRUE(std::filesystem::exists(shards_dir + "/s1/MANIFEST.tmp"));
  ASSERT_FALSE(std::filesystem::exists(shards_dir + "/s1/MANIFEST"));
  {
    // The registration was never acknowledged: nothing to recover.
    Gateway gateway(DurableOptions(dir));
    EXPECT_FALSE(gateway.RecoverNamespace("ds", RecoverSpec()).ok());
  }
  {
    Gateway gateway(DurableOptions(dir));
    const Status status = gateway.RegisterNamespace("ds", ShardedSpec(3));
    ASSERT_TRUE(status.ok()) << status.ToString();
  }
  std::vector<std::string> expected = {"SHARDS"};
  for (const char* shard : {"s0", "s1", "s2"}) {
    for (const char* file :
         {"MANIFEST", "ckpt_1_left.seg", "ckpt_1_right.seg", "wal_1.log"}) {
      expected.push_back(std::string("shards/") + shard + "/" + file);
    }
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(FilesUnder(dir + "/ds"), expected);
  Gateway recovered(DurableOptions(dir));
  EXPECT_TRUE(recovered.RecoverNamespace("ds", RecoverSpec()).ok());
}

TEST(GatewayDurabilityTest, FlatDirectoryIsNeitherWipedNorRecovered) {
  // The retired flat layout: one log straight under <dir>/<ns>/, no SHARDS.
  const std::string dir = FreshDir("flat_layout");
  DurabilityOptions durability;
  durability.dir = dir;
  {
    Result<std::unique_ptr<NamespaceLog>> log =
        NamespaceLog::Create(durability, "ds");
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    ASSERT_TRUE((*log)
                    ->WriteCheckpoint(Shared().workload.left(),
                                      &Shared().workload.right(), 0, nullptr)
                    .ok());
  }
  const std::vector<std::string> before = FilesUnder(dir + "/ds");
  ASSERT_NE(std::find(before.begin(), before.end(), "MANIFEST"),
            before.end());

  Gateway gateway(DurableOptions(dir));
  const Status registered = gateway.RegisterNamespace("ds", BaseSpec());
  EXPECT_TRUE(registered.IsFailedPrecondition()) << registered.ToString();
  const Status recovered = gateway.RecoverNamespace("ds", RecoverSpec());
  EXPECT_TRUE(recovered.IsFailedPrecondition()) << recovered.ToString();
  EXPECT_FALSE(gateway.HasNamespace("ds"));
  EXPECT_EQ(FilesUnder(dir + "/ds"), before);
}

}  // namespace
}  // namespace learnrisk
