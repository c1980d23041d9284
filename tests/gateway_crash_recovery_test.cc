// Copyright 2026 The LearnRisk Authors
// Crash-injection matrix for the durable gateway. For every registered
// crash point — mid-WAL-append (before, torn-frame, and after-flush),
// mid-checkpoint-segment, mid-manifest-write, and both sides of the atomic
// manifest swap — the test "kills" a durable gateway at that exact IO
// boundary via the DurabilityOptions crash hook, then restarts by
// recovering the namespace from disk into a fresh gateway. The recovered
// namespace must hold every acknowledged record (at most one extra
// durable-but-unacknowledged record is allowed: a crash after the WAL flush
// but before the call returned), and its Resolve / ResolveRecord /
// block_all outputs must be bit-identical to a reference gateway that never
// crashed and applied exactly the recovered record sequence. The review
// cases kill the gateway mid-enqueue (review offers / drains / labels torn
// at every WAL boundary: no acked label may be lost, labeled pairs never
// re-queue; a torn offer batch frame replays all of its offers or none) and
// mid-retrain-publish (crash inside the post-publish
// checkpoint: the recovered namespace serves either the old or the
// retrained model, bit-identically, never a torn mixture). The twin cases
// drive a durable gateway and an in-memory twin through the same review
// traffic (scripted, and seeded random) and require each recovered queue
// to equal the never-restarted one. Runs under
// ASan+UBSan in CI (the asan-ubsan job): torn files and replay paths are
// exactly where memory bugs would hide.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "classifier/logistic.h"
#include "data/blocking.h"
#include "data/generators.h"
#include "gateway/durability.h"
#include "gateway/gateway.h"
#include "risk/risk_feature.h"
#include "test_models.h"

namespace learnrisk {
namespace {

using testutil::MakeModel;

struct SharedSetup {
  Workload workload;
  MetricSuite suite;
  std::shared_ptr<const BinaryClassifier> classifier;
  RiskModel model{RiskFeatureSet()};

  SharedSetup() {
    GeneratorOptions options;
    options.scale = 0.015;
    options.seed = 99;
    Result<Workload> generated = GenerateDataset("DS", options);
    EXPECT_TRUE(generated.ok()) << generated.status().ToString();
    workload = generated.MoveValueOrDie();
    suite = MetricSuite::ForSchema(workload.left().schema());
    suite.Fit(workload);
    const FeatureMatrix features = ComputeFeatures(workload, suite);
    LogisticOptions logistic;
    logistic.epochs = 15;
    logistic.seed = 3;
    auto trained = std::make_shared<LogisticClassifier>(logistic);
    EXPECT_TRUE(trained->Train(features, workload.Labels()).ok());
    classifier = trained;
    model = MakeModel(17, 24, suite.num_metrics());
  }
};

const SharedSetup& Shared() {
  static const SharedSetup* setup = new SharedSetup();
  return *setup;
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

// The i-th add of the deterministic sequence both gateways replay.
struct Add {
  BlockingSide side;
  size_t source_index;
  int64_t entity_id;
};

Add AddAt(size_t i) {
  const SharedSetup& s = Shared();
  Add add;
  add.side = i % 2 == 0 ? BlockingSide::kLeft : BlockingSide::kRight;
  const Table& source =
      add.side == BlockingSide::kLeft ? s.workload.left() : s.workload.right();
  add.source_index = i % source.num_records();
  add.entity_id = i % 3 == 0 ? source.entity_id(add.source_index) : -1;
  return add;
}

Status ApplyAdd(Gateway* gateway, size_t i) {
  const SharedSetup& s = Shared();
  const Add add = AddAt(i);
  const Table& source =
      add.side == BlockingSide::kLeft ? s.workload.left() : s.workload.right();
  return gateway->AddRecord("ds", add.side, source.record(add.source_index),
                            add.entity_id);
}

// Bit-identity between the recovered gateway and the never-crashed
// reference: record counts, full block_all output (pairs + scores + served
// model version), and several single-record probes.
void ExpectBitIdentical(Gateway* recovered, Gateway* reference) {
  const SharedSetup& s = Shared();
  for (BlockingSide side : {BlockingSide::kLeft, BlockingSide::kRight}) {
    ASSERT_EQ(*recovered->NumRecords("ds", side),
              *reference->NumRecords("ds", side));
  }
  ResolveRequest block_all;
  block_all.block_all = true;
  const auto got = recovered->Resolve("ds", block_all);
  const auto want = reference->Resolve("ds", block_all);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_EQ(got->pairs.size(), want->pairs.size());
  for (size_t i = 0; i < want->pairs.size(); ++i) {
    ASSERT_EQ(got->pairs[i].left, want->pairs[i].left);
    ASSERT_EQ(got->pairs[i].right, want->pairs[i].right);
    ASSERT_EQ(got->pairs[i].is_equivalent, want->pairs[i].is_equivalent);
  }
  EXPECT_EQ(got->scores.risk, want->scores.risk);  // exact double equality
  EXPECT_EQ(got->scores.machine_label, want->scores.machine_label);
  EXPECT_EQ(got->scores.model_version, want->scores.model_version);

  for (size_t p = 0; p < 4; ++p) {
    const Record& probe =
        s.workload.right().record(p % s.workload.right().num_records());
    const auto got_probe = recovered->ResolveRecord("ds", probe);
    const auto want_probe = reference->ResolveRecord("ds", probe);
    ASSERT_TRUE(got_probe.ok() && want_probe.ok());
    EXPECT_EQ(got_probe->candidates, want_probe->candidates);
    EXPECT_EQ(got_probe->scores.risk, want_probe->scores.risk);
  }
}

struct CrashCase {
  const char* point;
  /// Which occurrence of the point triggers the crash. WAL points first
  /// fire during the add sequence; checkpoint/manifest points fire once
  /// during registration's initial checkpoint, so their second occurrence
  /// is the interesting one — the auto-checkpoint mid-run.
  int occurrence;
};

TEST(GatewayCrashRecoveryTest, EveryCrashPointRecoversBitIdentical) {
  const SharedSetup& s = Shared();
  const CrashCase kCases[] = {
      {"wal:before_append", 5},
      {"wal:mid_append", 5},
      {"wal:after_append", 5},
      {"checkpoint:mid_segment", 2},
      {"checkpoint:mid_manifest", 2},
      {"manifest:before_swap", 2},
      {"manifest:after_swap", 2},
  };
  constexpr size_t kMaxAdds = 64;
  constexpr size_t kCheckpointEvery = 8;

  for (const CrashCase& c : kCases) {
    SCOPED_TRACE(c.point);
    const std::string dir =
        ::testing::TempDir() + "/learnrisk_crash_" + std::string(c.point);
    std::filesystem::remove_all(dir);

    std::atomic<int> countdown{c.occurrence};
    GatewayOptions options;
    options.durability.dir = dir;
    options.durability.wal_checkpoint_threshold = kCheckpointEvery;
    options.durability.crash_hook = [&](const std::string& point) {
      if (point != c.point) return false;
      return countdown.fetch_sub(1) == 1;
    };

    // Run until the simulated kill. Everything before the failing call is
    // acknowledged; the failing call may or may not have reached the WAL.
    size_t acked = 0;
    {
      Gateway gateway(options);
      ASSERT_TRUE(gateway.RegisterNamespace("ds", BaseSpec()).ok());
      ASSERT_TRUE(gateway.Publish("ds", s.model).ok());
      Status status = Status::OK();
      for (size_t i = 0; i < kMaxAdds; ++i) {
        status = ApplyAdd(&gateway, i);
        if (!status.ok()) break;
        ++acked;
      }
      ASSERT_FALSE(status.ok()) << "crash hook for " << c.point
                                << " never fired within " << kMaxAdds
                                << " adds";
      // The dead log refuses everything after the crash, like a killed
      // process would.
      EXPECT_FALSE(ApplyAdd(&gateway, acked).ok());
    }

    // "Restart": recover the namespace from disk into a fresh gateway.
    GatewayOptions recover_options;
    recover_options.durability.dir = dir;
    Gateway recovered(recover_options);
    ASSERT_TRUE(recovered.RecoverNamespace("ds", RecoverSpec()).ok());

    // Every acknowledged record must have survived; at most one extra
    // (durable in the WAL, crash before the ack) may appear.
    const size_t base_records = s.workload.left().num_records() +
                                s.workload.right().num_records();
    const size_t recovered_records =
        *recovered.NumRecords("ds", BlockingSide::kLeft) +
        *recovered.NumRecords("ds", BlockingSide::kRight);
    ASSERT_GE(recovered_records, base_records + acked);
    ASSERT_LE(recovered_records, base_records + acked + 1);
    const size_t replayed = recovered_records - base_records;

    // The checkpointed model (when the crash happened after the first
    // auto-checkpoint) comes back on its own; otherwise the recovered
    // namespace is pre-first-publish and gets the model published fresh —
    // either way both gateways serve the same model at the same version.
    if (!recovered.registry().Contains("ds")) {
      ASSERT_TRUE(recovered.Publish("ds", s.model).ok());
    }

    // Never-crashed reference: the base namespace plus exactly the records
    // recovery reports, in the same order.
    Gateway reference;
    ASSERT_TRUE(reference.RegisterNamespace("ds", BaseSpec()).ok());
    ASSERT_TRUE(reference.Publish("ds", s.model).ok());
    for (size_t i = 0; i < replayed; ++i) {
      ASSERT_TRUE(ApplyAdd(&reference, i).ok());
    }
    ExpectBitIdentical(&recovered, &reference);
  }
}

// Sharded namespaces run the same crash matrix against the per-shard WAL /
// checkpoint / manifest protocol (every shard owns a log under
// <ns>/shards/s<k>/). The hook is armed only after registration: a sharded
// registration legitimately writes S initial checkpoints, and arming late
// keeps the occurrence counts anchored to the add sequence instead of the
// registration layout. A crash kills one shard's log; the single-threaded
// add sequence still recovers to an exact prefix (acked <= recovered <=
// acked + 1), and — because the shard router re-assigns ids exactly like
// the original run — the recovered namespace must be bit-identical to an
// *unsharded* never-crashed reference replaying that prefix.
TEST(GatewayCrashRecoveryTest, ShardedCrashPointsRecoverBitIdentical) {
  const SharedSetup& s = Shared();
  constexpr size_t kShards = 3;
  const CrashCase kCases[] = {
      {"wal:before_append", 5},
      {"wal:mid_append", 5},
      {"wal:after_append", 5},
      {"checkpoint:mid_segment", 1},
      {"checkpoint:mid_manifest", 1},
      {"manifest:before_swap", 1},
      {"manifest:after_swap", 1},
  };
  constexpr size_t kMaxAdds = 64;
  constexpr size_t kCheckpointEvery = 8;  // per shard

  for (const CrashCase& c : kCases) {
    SCOPED_TRACE(std::string("sharded ") + c.point);
    const std::string dir = ::testing::TempDir() +
                            "/learnrisk_shard_crash_" + std::string(c.point);
    std::filesystem::remove_all(dir);

    std::atomic<bool> armed{false};
    std::atomic<int> countdown{c.occurrence};
    GatewayOptions options;
    options.durability.dir = dir;
    options.durability.wal_checkpoint_threshold = kCheckpointEvery;
    options.durability.crash_hook = [&](const std::string& point) {
      if (!armed.load(std::memory_order_relaxed)) return false;
      if (point != c.point) return false;
      return countdown.fetch_sub(1) == 1;
    };

    size_t acked = 0;
    {
      Gateway gateway(options);
      NamespaceSpec spec = BaseSpec();
      spec.shards = kShards;
      ASSERT_TRUE(gateway.RegisterNamespace("ds", std::move(spec)).ok());
      ASSERT_TRUE(gateway.Publish("ds", s.model).ok());
      armed.store(true);
      Status status = Status::OK();
      for (size_t i = 0; i < kMaxAdds; ++i) {
        status = ApplyAdd(&gateway, i);
        if (!status.ok()) break;
        ++acked;
      }
      // Stop at the first failure, like a killed process: a sharded gateway
      // could keep appending on the surviving shards, but the process that
      // hit the IO error is gone.
      ASSERT_FALSE(status.ok()) << "crash hook for " << c.point
                                << " never fired within " << kMaxAdds
                                << " adds";
    }

    GatewayOptions recover_options;
    recover_options.durability.dir = dir;
    Gateway recovered(recover_options);
    ASSERT_TRUE(recovered.RecoverNamespace("ds", RecoverSpec()).ok());

    const size_t base_records = s.workload.left().num_records() +
                                s.workload.right().num_records();
    const size_t recovered_records =
        *recovered.NumRecords("ds", BlockingSide::kLeft) +
        *recovered.NumRecords("ds", BlockingSide::kRight);
    ASSERT_GE(recovered_records, base_records + acked);
    ASSERT_LE(recovered_records, base_records + acked + 1);
    const size_t replayed = recovered_records - base_records;

    if (!recovered.registry().Contains("ds")) {
      ASSERT_TRUE(recovered.Publish("ds", s.model).ok());
    }

    Gateway reference;  // unsharded: recovery parity and shard parity at once
    ASSERT_TRUE(reference.RegisterNamespace("ds", BaseSpec()).ok());
    ASSERT_TRUE(reference.Publish("ds", s.model).ok());
    for (size_t i = 0; i < replayed; ++i) {
      ASSERT_TRUE(ApplyAdd(&reference, i).ok());
    }
    ExpectBitIdentical(&recovered, &reference);
  }
}

// --- Review-loop crash cases -----------------------------------------------

using PairKey = std::pair<int64_t, int64_t>;

GatewayOptions ReviewDurableOptions(const std::string& dir) {
  GatewayOptions options;
  options.durability.dir = dir;
  options.review.enabled = true;
  options.review.per_request_budget = 4;
  options.review.queue_capacity = 64;
  return options;
}

// Blocked pairs of the shared workload, for explicit-pair review traffic.
const std::vector<RecordPair>& BlockedPairs() {
  static const std::vector<RecordPair>* pairs = [] {
    const SharedSetup& s = Shared();
    auto blocked =
        TokenBlocking(s.workload.left(), s.workload.right(), BlockingConfig());
    EXPECT_TRUE(blocked.ok()) << blocked.status().ToString();
    auto* out = new std::vector<RecordPair>(blocked.MoveValueOrDie());
    EXPECT_GE(out->size(), 32u);
    return out;
  }();
  return *pairs;
}

ResolveRequest PairWindow(size_t start, size_t count) {
  const std::vector<RecordPair>& blocked = BlockedPairs();
  ResolveRequest request;
  for (size_t i = 0; i < count; ++i) {
    request.pairs.push_back(blocked[(start + i) % blocked.size()]);
  }
  return request;
}

// Kill the gateway at every WAL boundary while review traffic (offers,
// drains, labels) is the only thing being logged. Each round appends a
// deterministic 4 frames (one batch frame of 4 offers, one batch frame of
// 2 drains, then 2 single-label frames), so the occurrence count picks
// which kind of frame tears. After recovery: every
// acked label survived (at most one durable-but-unacked extra), no labeled
// pair is back in the queue, the accounting invariant holds exactly, and
// the loop still closes (drain -> label -> retrain -> publish).
TEST(GatewayCrashRecoveryTest, ReviewCrashMidEnqueueKeepsEveryAckedLabel) {
  const SharedSetup& s = Shared();
  const CrashCase kCases[] = {
      {"wal:before_append", 10},  // drain batch of round 2
      {"wal:mid_append", 10},     // same drain batch, torn frame
      {"wal:after_append", 10},   // durable drains, unacknowledged drain
      {"wal:before_append", 13},  // offer batch of round 3: mid-enqueue
      {"wal:mid_append", 15},     // torn label frame
      {"wal:after_append", 16},   // durable label, unacknowledged
  };
  constexpr size_t kMaxRounds = 32;

  for (const CrashCase& c : kCases) {
    SCOPED_TRACE(std::string(c.point) + " occurrence " +
                 std::to_string(c.occurrence));
    const std::string dir = ::testing::TempDir() + "/learnrisk_review_crash_" +
                            std::string(c.point) + "_" +
                            std::to_string(c.occurrence);
    std::filesystem::remove_all(dir);

    std::atomic<int> countdown{c.occurrence};
    GatewayOptions options = ReviewDurableOptions(dir);
    options.durability.crash_hook = [&](const std::string& point) {
      if (point != c.point) return false;
      return countdown.fetch_sub(1) == 1;
    };

    std::vector<std::pair<PairKey, uint8_t>> acked;
    {
      Gateway gateway(options);
      ASSERT_TRUE(gateway.RegisterNamespace("ds", BaseSpec()).ok());
      ASSERT_TRUE(gateway.Publish("ds", s.model).ok());
      bool crashed = false;
      for (size_t round = 0; round < kMaxRounds && !crashed; ++round) {
        if (!gateway.Resolve("ds", PairWindow(round * 7, 16)).ok()) {
          crashed = true;
          break;
        }
        const auto items = gateway.DrainReview("ds", 2);
        if (!items.ok()) {
          crashed = true;
          break;
        }
        for (const ReviewItem& item : *items) {
          const uint8_t truth = item.machine_label ^ 1;
          if (!gateway.SubmitReviewLabel("ds", item.left, item.right, truth)
                   .ok()) {
            crashed = true;
            break;
          }
          acked.emplace_back(PairKey(item.left, item.right), truth);
        }
      }
      ASSERT_TRUE(crashed) << "crash hook for " << c.point
                           << " never fired within " << kMaxRounds
                           << " review rounds";
    }
    ASSERT_GE(acked.size(), 2u);  // round 0 completed before every case

    Gateway recovered(ReviewDurableOptions(dir));
    ASSERT_TRUE(recovered.RecoverNamespace("ds", RecoverSpec()).ok());

    // No acked label lost; at most one durable-but-unacked extra.
    const auto stats = recovered.ReviewStats("ds");
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    ASSERT_GE(stats->labels, acked.size());
    ASSERT_LE(stats->labels, acked.size() + 1);
    // Recovery requeued any outstanding drains and kept the books exact.
    EXPECT_EQ(stats->outstanding, 0u);
    EXPECT_EQ(stats->enqueued + stats->requeued,
              stats->drained + stats->dropped + stats->depth);

    // Labeled pairs never re-enter the queue: drain everything resident and
    // prove no acked key is among it.
    const auto leftover = recovered.DrainReview("ds", 1u << 20);
    ASSERT_TRUE(leftover.ok());
    std::set<PairKey> leftover_keys;
    for (const ReviewItem& item : *leftover) {
      leftover_keys.insert(PairKey(item.left, item.right));
    }
    for (const auto& [key, truth] : acked) {
      EXPECT_EQ(leftover_keys.count(key), 0u)
          << "acked label for (" << key.first << ", " << key.second
          << ") was lost and its pair re-queued";
    }

    // The loop still closes after recovery: label the leftovers, retrain,
    // hot-publish.
    for (const ReviewItem& item : *leftover) {
      ASSERT_TRUE(recovered
                      .SubmitReviewLabel("ds", item.left, item.right,
                                         item.machine_label ^ 1)
                      .ok());
    }
    // An already-labeled pair is not awaiting a label — acked labels are
    // final, not silently re-openable.
    for (const auto& [key, truth] : acked) {
      EXPECT_TRUE(recovered.SubmitReviewLabel("ds", key.first, key.second, 1)
                      .IsNotFound());
    }
    if (!recovered.registry().Contains("ds")) {
      ASSERT_TRUE(recovered.Publish("ds", s.model).ok());
    }
    ReviewRetrainOptions retrain;
    retrain.retrain.trainer.epochs = 40;
    const auto result = recovered.RetrainFromReview("ds", retrain);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->labels_used, recovered.ReviewStats("ds")->labeled);
  }
}

// Tear the batch frame carrying one request's offers at each WAL boundary.
// A frame is all or nothing: the recovered queue holds none of the
// request's offers when the crash hits before the append or mid-frame, and
// all of them when it hits after the frame is durable — exactly the queue
// a never-crashed gateway holds after the first request or after both.
TEST(GatewayCrashRecoveryTest, ReviewCrashTearsAnOfferBatchWhole) {
  const SharedSetup& s = Shared();
  struct BatchCase {
    const char* point;
    bool offers_survive;
  };
  const BatchCase kCases[] = {
      {"wal:before_append", false},
      {"wal:mid_append", false},
      {"wal:after_append", true},
  };
  // The queue a never-crashed gateway holds after the first `requests` of
  // the two resolves, in drain (risk) order.
  auto reference_queue = [&](size_t requests) {
    GatewayOptions options = ReviewDurableOptions("");
    Gateway reference(options);
    EXPECT_TRUE(reference.RegisterNamespace("ds", BaseSpec()).ok());
    EXPECT_TRUE(reference.Publish("ds", s.model).ok());
    for (size_t r = 0; r < requests; ++r) {
      EXPECT_TRUE(reference.Resolve("ds", PairWindow(r * 16, 16)).ok());
    }
    const auto drained = reference.DrainReview("ds", 1u << 20);
    EXPECT_TRUE(drained.ok());
    std::vector<PairKey> keys;
    for (const ReviewItem& item : *drained) {
      keys.emplace_back(item.left, item.right);
    }
    return keys;
  };
  const std::vector<PairKey> after_first = reference_queue(1);
  const std::vector<PairKey> after_both = reference_queue(2);
  ASSERT_EQ(after_first.size(), 4u);
  ASSERT_GT(after_both.size(), after_first.size());

  for (const BatchCase& c : kCases) {
    SCOPED_TRACE(c.point);
    const std::string dir = ::testing::TempDir() +
                            "/learnrisk_review_batch_crash_" +
                            std::string(c.point);
    std::filesystem::remove_all(dir);
    // Registration and publish append nothing, so the second firing of the
    // point is the second request's offer frame.
    std::atomic<int> countdown{2};
    GatewayOptions options = ReviewDurableOptions(dir);
    options.durability.crash_hook = [&](const std::string& point) {
      if (point != c.point) return false;
      return countdown.fetch_sub(1) == 1;
    };
    {
      Gateway gateway(options);
      ASSERT_TRUE(gateway.RegisterNamespace("ds", BaseSpec()).ok());
      ASSERT_TRUE(gateway.Publish("ds", s.model).ok());
      ASSERT_TRUE(gateway.Resolve("ds", PairWindow(0, 16)).ok());
      // Offers are fail-open: the crashed append does not fail the resolve.
      ASSERT_TRUE(gateway.Resolve("ds", PairWindow(16, 16)).ok());
      ASSERT_EQ(countdown.load(), 0) << "crash hook never fired";
    }

    Gateway recovered(ReviewDurableOptions(dir));
    ASSERT_TRUE(recovered.RecoverNamespace("ds", RecoverSpec()).ok());
    const auto stats = recovered.ReviewStats("ds");
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->outstanding, 0u);
    EXPECT_EQ(stats->enqueued + stats->requeued,
              stats->drained + stats->dropped + stats->depth);
    const auto drained = recovered.DrainReview("ds", 1u << 20);
    ASSERT_TRUE(drained.ok());
    std::vector<PairKey> keys;
    for (const ReviewItem& item : *drained) {
      keys.emplace_back(item.left, item.right);
    }
    EXPECT_EQ(keys, c.offers_survive ? after_both : after_first);
  }
}

// Kill the gateway inside RetrainFromReview's post-publish checkpoint, at
// every checkpoint/manifest boundary. The recovered namespace must serve
// either the pre-retrain model (version 1, crash before the manifest swap)
// or the retrained one (version 2, crash after) — bit-identical risk scores
// to a never-crashed reference either way, never a torn mixture — and every
// acked label survives regardless of which side of the swap the crash hit.
TEST(GatewayCrashRecoveryTest, ReviewRetrainPublishCrashServesOldOrNew) {
  const SharedSetup& s = Shared();
  const char* kPoints[] = {
      "checkpoint:mid_segment",
      "checkpoint:mid_manifest",
      "manifest:before_swap",
      "manifest:after_swap",
  };
  const ResolveRequest fixed_batch = PairWindow(0, 16);
  ReviewRetrainOptions retrain;
  retrain.retrain.trainer.epochs = 60;  // checkpoint=true: the crash site

  // Never-crashed reference (non-durable): replay the identical label
  // sequence to learn what "old" and "new" must look like, bit for bit.
  std::vector<uint8_t> truth_sequence;
  std::vector<double> old_risk;
  std::vector<double> new_risk;
  uint64_t old_version = 0;
  uint64_t new_version = 0;
  {
    GatewayOptions options;
    options.review = ReviewDurableOptions("unused").review;
    Gateway reference(options);
    ASSERT_TRUE(reference.RegisterNamespace("ds", BaseSpec()).ok());
    ASSERT_TRUE(reference.Publish("ds", s.model).ok());
    ASSERT_TRUE(reference.Resolve("ds", fixed_batch).ok());
    const auto items = reference.DrainReview("ds", 4);
    ASSERT_TRUE(items.ok());
    ASSERT_EQ(items->size(), 4u);
    for (size_t i = 0; i < items->size(); ++i) {
      const ReviewItem& item = (*items)[i];
      // Half the oracle verdicts disagree: the retrain batch holds both
      // classes, so the published parameters genuinely move.
      const uint8_t truth =
          i % 2 == 0 ? (item.machine_label ^ 1) : item.machine_label;
      truth_sequence.push_back(truth);
      ASSERT_TRUE(
          reference.SubmitReviewLabel("ds", item.left, item.right, truth)
              .ok());
    }
    const auto before = reference.Resolve("ds", fixed_batch);
    ASSERT_TRUE(before.ok());
    old_risk = before->scores.risk;
    old_version = before->scores.model_version;
    const auto result = reference.RetrainFromReview("ds", retrain);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    new_version = result->model_version;
    const auto after = reference.Resolve("ds", fixed_batch);
    ASSERT_TRUE(after.ok());
    new_risk = after->scores.risk;
    ASSERT_EQ(after->scores.model_version, new_version);
    ASSERT_NE(old_version, new_version);
  }

  for (const char* point : kPoints) {
    SCOPED_TRACE(point);
    const std::string dir = ::testing::TempDir() +
                            "/learnrisk_retrain_crash_" + std::string(point);
    std::filesystem::remove_all(dir);

    // Armed only after the setup checkpoint: occurrence 1 is then the
    // retrain's own post-publish checkpoint.
    std::atomic<bool> armed{false};
    std::atomic<int> countdown{1};
    GatewayOptions options = ReviewDurableOptions(dir);
    options.durability.crash_hook = [&](const std::string& p) {
      if (!armed.load(std::memory_order_relaxed)) return false;
      if (p != std::string(point)) return false;
      return countdown.fetch_sub(1) == 1;
    };

    {
      Gateway gateway(options);
      ASSERT_TRUE(gateway.RegisterNamespace("ds", BaseSpec()).ok());
      ASSERT_TRUE(gateway.Publish("ds", s.model).ok());
      // Commit model version 1 to the manifest so recovery can serve it.
      ASSERT_TRUE(gateway.Checkpoint("ds").ok());
      ASSERT_TRUE(gateway.Resolve("ds", fixed_batch).ok());
      const auto items = gateway.DrainReview("ds", 4);
      ASSERT_TRUE(items.ok());
      ASSERT_EQ(items->size(), 4u);
      for (size_t i = 0; i < items->size(); ++i) {
        // Same deterministic drain order as the reference, same verdicts.
        ASSERT_TRUE(gateway
                        .SubmitReviewLabel("ds", (*items)[i].left,
                                           (*items)[i].right,
                                           truth_sequence[i])
                        .ok());
      }
      armed.store(true);
      const auto result = gateway.RetrainFromReview("ds", retrain);
      ASSERT_FALSE(result.ok())
          << "crash hook for " << point << " never fired during the "
          << "retrain's checkpoint";
    }

    Gateway recovered(ReviewDurableOptions(dir));
    ASSERT_TRUE(recovered.RecoverNamespace("ds", RecoverSpec()).ok());
    ASSERT_TRUE(recovered.registry().Contains("ds"));

    // Acked labels survive on both sides of the swap.
    const auto stats = recovered.ReviewStats("ds");
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->labels, truth_sequence.size());
    EXPECT_EQ(stats->enqueued + stats->requeued,
              stats->drained + stats->dropped + stats->depth);

    // Served model: old or new, bit-identically — never a torn mixture.
    const auto served = recovered.Resolve("ds", fixed_batch);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    const uint64_t version = served->scores.model_version;
    ASSERT_TRUE(version == old_version || version == new_version)
        << "recovered namespace serves version " << version
        << ", neither old (" << old_version << ") nor new (" << new_version
        << ")";
    if (version == old_version) {
      EXPECT_EQ(served->scores.risk, old_risk);
    } else {
      EXPECT_EQ(served->scores.risk, new_risk);
    }
  }
}

// --- Recovered queue == never-restarted queue -----------------------------
//
// A durable gateway and an in-memory twin take the same review traffic;
// the durable one is dropped at points where no pair is outstanding and
// recovered from disk. Recovery replays the logged offers, drains and
// labels through the live queue operations, so the recovered queue must
// equal the twin's: the same depth, the same labels and the same drain
// order, even after the capacity has dropped and displaced offers.

std::vector<PairKey> KeysOf(const std::vector<ReviewItem>& items) {
  std::vector<PairKey> keys;
  for (const ReviewItem& item : items) keys.emplace_back(item.left, item.right);
  return keys;
}

// Drains up to `max_items` from both gateways; both must hand out the same
// pairs in the same order (and at the same risks).
std::vector<ReviewItem> DrainBoth(Gateway* durable, Gateway* twin,
                                  size_t max_items) {
  const auto got = durable->DrainReview("ds", max_items);
  const auto want = twin->DrainReview("ds", max_items);
  EXPECT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(want.ok()) << want.status().ToString();
  if (!got.ok() || !want.ok()) return {};
  EXPECT_EQ(KeysOf(*got), KeysOf(*want));
  for (size_t i = 0; i < std::min(got->size(), want->size()); ++i) {
    EXPECT_EQ((*got)[i].risk, (*want)[i].risk) << i;
  }
  return *want;
}

// Labels every pending pair on both gateways with the given verdicts.
void LabelBoth(Gateway* durable, Gateway* twin,
               const std::vector<ReviewItem>& pending,
               const std::vector<uint8_t>& truths) {
  for (size_t i = 0; i < pending.size(); ++i) {
    const ReviewItem& item = pending[i];
    EXPECT_TRUE(
        durable->SubmitReviewLabel("ds", item.left, item.right, truths[i])
            .ok());
    EXPECT_TRUE(
        twin->SubmitReviewLabel("ds", item.left, item.right, truths[i]).ok());
  }
}

// Drops `durable` and recovers the namespace from `dir` into a fresh
// gateway, re-publishing the model when no checkpoint saved it.
std::unique_ptr<Gateway> Restart(std::unique_ptr<Gateway> durable,
                                 const GatewayOptions& options) {
  durable.reset();
  auto recovered = std::make_unique<Gateway>(options);
  const Status status = recovered->RecoverNamespace("ds", RecoverSpec());
  EXPECT_TRUE(status.ok()) << status.ToString();
  if (!recovered->registry().Contains("ds")) {
    EXPECT_TRUE(recovered->Publish("ds", Shared().model).ok());
  }
  return recovered;
}

// The recovered queue must equal the twin's: depth and labels, then the
// whole drain order. Returns the drained pairs, now outstanding on both.
std::vector<ReviewItem> ExpectSameQueue(Gateway* recovered, Gateway* twin) {
  const auto got = recovered->ReviewStats("ds");
  const auto want = twin->ReviewStats("ds");
  EXPECT_TRUE(got.ok() && want.ok());
  if (!got.ok() || !want.ok()) return {};
  EXPECT_EQ(got->depth, want->depth);
  EXPECT_EQ(got->labels, want->labels);
  EXPECT_EQ(got->labeled, want->labeled);
  EXPECT_EQ(got->outstanding, 0u);
  return DrainBoth(recovered, twin, 1u << 20);
}

TEST(GatewayCrashRecoveryTest, RecoveredQueueEqualsNeverRestartedTwin) {
  const SharedSetup& s = Shared();
  const std::string dir = ::testing::TempDir() + "/learnrisk_review_twin";
  std::filesystem::remove_all(dir);
  GatewayOptions options = ReviewDurableOptions(dir);
  options.review.queue_capacity = 8;
  GatewayOptions twin_options = options;
  twin_options.durability.dir.clear();

  auto durable = std::make_unique<Gateway>(options);
  Gateway twin(twin_options);
  for (Gateway* g : {durable.get(), &twin}) {
    ASSERT_TRUE(g->RegisterNamespace("ds", BaseSpec()).ok());
    ASSERT_TRUE(g->Publish("ds", s.model).ok());
  }
  // 40 resolves of 16 pairs offer 4 pairs each into 8 slots, so most
  // offers displace or drop; every fourth resolve a reviewer drains and
  // labels 4 pairs.
  for (size_t r = 0; r < 40; ++r) {
    ASSERT_TRUE(durable->Resolve("ds", PairWindow(r * 5, 16)).ok());
    ASSERT_TRUE(twin.Resolve("ds", PairWindow(r * 5, 16)).ok());
    if (r % 4 == 3) {
      const std::vector<ReviewItem> pending =
          DrainBoth(durable.get(), &twin, 4);
      std::vector<uint8_t> truths;
      for (const ReviewItem& item : pending) {
        truths.push_back(item.machine_label ^ (r % 8 == 3 ? 1 : 0));
      }
      LabelBoth(durable.get(), &twin, pending, truths);
    }
  }
  ASSERT_GT(twin.ReviewStats("ds")->dropped, 0u);

  durable = Restart(std::move(durable), options);
  const std::vector<ReviewItem> leftover = ExpectSameQueue(durable.get(), &twin);
  EXPECT_FALSE(leftover.empty());
  EXPECT_LE(leftover.size(), options.review.queue_capacity);
}

// A restart with pairs outstanding requeues them, so the recovered queue
// is no longer the replay of its own log. Its later traffic must still
// replay to the queue it was applied to. The durable directory is copied
// at the crash; the copy recovers into a twin that takes the same traffic
// and is never restarted again. The traffic runs over capacity, so offers
// drop, and it drains and labels pairs admitted after those drops. The
// second recovery must keep every acked label and equal the twin's queue.
TEST(GatewayCrashRecoveryTest, RestartWithOutstandingPairsRecoversTwice) {
  const SharedSetup& s = Shared();
  const std::string dir = ::testing::TempDir() + "/learnrisk_review_requeue";
  const std::string twin_dir = dir + "_twin";
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(twin_dir);
  GatewayOptions options = ReviewDurableOptions(dir);
  options.review.queue_capacity = 8;
  GatewayOptions twin_options = options;
  twin_options.durability.dir = twin_dir;

  auto durable = std::make_unique<Gateway>(options);
  ASSERT_TRUE(durable->RegisterNamespace("ds", BaseSpec()).ok());
  ASSERT_TRUE(durable->Publish("ds", s.model).ok());
  // Fill the queue, hand all 8 pairs to a reviewer and crash with them
  // still outstanding: the log alone replays to an empty resident queue.
  for (size_t r = 0; r < 12; ++r) {
    ASSERT_TRUE(durable->Resolve("ds", PairWindow(r * 5, 16)).ok());
  }
  ASSERT_EQ(durable->DrainReview("ds", 8)->size(), 8u);
  ASSERT_EQ(durable->ReviewStats("ds")->depth, 0u);
  durable.reset();
  std::filesystem::copy(dir, twin_dir,
                        std::filesystem::copy_options::recursive);

  durable = Restart(std::move(durable), options);
  std::unique_ptr<Gateway> twin = Restart(nullptr, twin_options);
  ASSERT_EQ(twin->ReviewStats("ds")->requeued, 8u);
  ASSERT_EQ(twin->ReviewStats("ds")->depth, 8u);
  // Every third resolve the reviewer labels what they hold and drains 8
  // more, emptying the queue, so the labels trail their drains by two
  // resolves of offers that refill it.
  std::vector<ReviewItem> pending;
  for (size_t r = 0; r < 24; ++r) {
    ASSERT_TRUE(durable->Resolve("ds", PairWindow(100 + r * 7, 16)).ok());
    ASSERT_TRUE(twin->Resolve("ds", PairWindow(100 + r * 7, 16)).ok());
    if (r % 3 == 2) {
      LabelBoth(durable.get(), twin.get(), pending,
                std::vector<uint8_t>(pending.size(), 1));
      pending = DrainBoth(durable.get(), twin.get(), 8);
    }
  }
  LabelBoth(durable.get(), twin.get(), pending,
            std::vector<uint8_t>(pending.size(), 0));
  ASSERT_GT(twin->ReviewStats("ds")->dropped, 0u);
  ASSERT_GE(twin->ReviewStats("ds")->labels, 32u);

  durable = Restart(std::move(durable), options);
  ExpectSameQueue(durable.get(), twin.get());
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(twin_dir);
}

// Seeded random review traffic against the twin: explicit-pair resolves,
// drains of random size (some spanning several WAL frames), labels (some
// for pairs not awaiting one), checkpoints, and restarts whenever nothing
// is outstanding. Every restart must recover the twin's queue.
TEST(GatewayCrashRecoveryTest, RandomReviewTrafficRecoversToTheTwin) {
  const SharedSetup& s = Shared();
  const std::vector<RecordPair>& blocked = BlockedPairs();
  constexpr int kSeeds = 24;
  constexpr size_t kOps = 40;
  // What the seeds covered, summed over all of them.
  size_t restarts = 0;
  size_t multi_frame_drains = 0;
  size_t seeds_with_drops = 0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    const std::string dir = ::testing::TempDir() +
                            "/learnrisk_review_twin_seed_" +
                            std::to_string(seed);
    std::filesystem::remove_all(dir);
    GatewayOptions options = ReviewDurableOptions(dir);
    const size_t kCapacities[] = {8, 64, 400};
    options.review.queue_capacity = kCapacities[seed % 3];
    options.review.per_request_budget = seed % 4 == 0 ? 4 : 64;
    GatewayOptions twin_options = options;
    twin_options.durability.dir.clear();

    auto durable = std::make_unique<Gateway>(options);
    Gateway twin(twin_options);
    for (Gateway* g : {durable.get(), &twin}) {
      ASSERT_TRUE(g->RegisterNamespace("ds", BaseSpec()).ok());
      ASSERT_TRUE(g->Publish("ds", s.model).ok());
    }
    std::vector<ReviewItem> pending;  // drained, awaiting a label
    for (size_t op = 0; op < kOps; ++op) {
      // The first ops fill the queue; then the weights are resolve 5,
      // drain 2, label 2, checkpoint 1, restart 1.
      enum Op { kResolve, kDrain, kLabel, kCheckpoint, kRestart };
      constexpr Op kWeighted[] = {kResolve, kResolve, kResolve,
                                  kResolve, kResolve, kDrain,
                                  kDrain,   kLabel,   kLabel,
                                  kCheckpoint, kRestart};
      switch (op < 6 ? kResolve : kWeighted[rng() % 11]) {
        case kResolve: {
          const ResolveRequest request =
              PairWindow(rng() % blocked.size(), 1 + rng() % 96);
          ASSERT_TRUE(durable->Resolve("ds", request).ok());
          ASSERT_TRUE(twin.Resolve("ds", request).ok());
          break;
        }
        case kDrain: {
          // Mostly small drains; one in three may span several frames.
          const size_t max_items = rng() % 3 == 0
                                       ? 1 + rng() % (3 * kMaxReviewEventsPerFrame)
                                       : 1 + rng() % 8;
          const std::vector<ReviewItem> drained =
              DrainBoth(durable.get(), &twin, max_items);
          if (drained.size() > kMaxReviewEventsPerFrame) ++multi_frame_drains;
          pending.insert(pending.end(), drained.begin(), drained.end());
          break;
        }
        case kLabel: {
          // Label a random prefix of the pending pairs, then one pair that
          // is probably not awaiting a label (both must agree on either).
          const size_t n = pending.empty() ? 0 : 1 + rng() % pending.size();
          std::vector<uint8_t> truths;
          for (size_t i = 0; i < n; ++i) truths.push_back(rng() % 2);
          LabelBoth(durable.get(), &twin,
                    std::vector<ReviewItem>(pending.begin(),
                                            pending.begin() + n),
                    truths);
          pending.erase(pending.begin(), pending.begin() + n);
          const RecordPair& pair = blocked[rng() % blocked.size()];
          const int64_t left = static_cast<int64_t>(pair.left);
          const int64_t right = static_cast<int64_t>(pair.right);
          const Status labeled = twin.SubmitReviewLabel("ds", left, right, 1);
          EXPECT_EQ(durable->SubmitReviewLabel("ds", left, right, 1).code(),
                    labeled.code());
          if (labeled.ok()) {
            pending.erase(
                std::remove_if(pending.begin(), pending.end(),
                               [&](const ReviewItem& item) {
                                 return item.left == left &&
                                        item.right == right;
                               }),
                pending.end());
          }
          break;
        }
        case kCheckpoint:
          ASSERT_TRUE(durable->Checkpoint("ds").ok());
          break;
        case kRestart: {
          // A clean restart: the reviewer labels what they hold first.
          std::vector<uint8_t> truths;
          for (const ReviewItem& item : pending) {
            truths.push_back(item.machine_label);
          }
          LabelBoth(durable.get(), &twin, pending, truths);
          durable = Restart(std::move(durable), options);
          ++restarts;
          pending = ExpectSameQueue(durable.get(), &twin);
          if (pending.size() > kMaxReviewEventsPerFrame) ++multi_frame_drains;
          break;
        }
      }
      if (::testing::Test::HasFailure()) return;
    }
    std::vector<uint8_t> truths(pending.size(), 0);
    LabelBoth(durable.get(), &twin, pending, truths);
    if (twin.ReviewStats("ds")->dropped > 0) ++seeds_with_drops;
    durable = Restart(std::move(durable), options);
    ++restarts;
    ExpectSameQueue(durable.get(), &twin);
    if (::testing::Test::HasFailure()) return;
    std::filesystem::remove_all(dir);
  }
  EXPECT_GE(restarts, 2u * kSeeds);
  EXPECT_GT(multi_frame_drains, 0u);
  EXPECT_GE(seeds_with_drops, kSeeds / 2u);
}

}  // namespace
}  // namespace learnrisk
