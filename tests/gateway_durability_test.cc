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
// Status instead of undefined behavior. The on-disk layout is one shape for
// every shard count (SHARDS + shards/s<k>/, the model on shard 0 only):
// corrupt shard counts, re-registration with another count, interrupted
// registrations and flat directories from the retired layout are covered
// at the end. The crash-injection matrix lives in
// tests/gateway_crash_recovery_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "classifier/logistic.h"
#include "data/generators.h"
#include "gateway/durability.h"
#include "gateway/gateway.h"
#include "risk/risk_feature.h"
#include "test_models.h"

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
