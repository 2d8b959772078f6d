#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "cluster/clustering.h"
#include "core/icpe_engine.h"
#include "core/recovery.h"
#include "flow/checkpoint/snapshot_store.h"
#include "trajgen/brinkhoff_generator.h"
#include "trajgen/dataset.h"

namespace comove::core {
namespace {

using trajgen::Dataset;

/// The GeneratedWorkload dataset of icpe_engine_test: 5 seeded groups over
/// 40 ticks, dense enough that every enumerator finds patterns.
const Dataset& Workload() {
  static const Dataset dataset = [] {
    trajgen::BrinkhoffOptions gen;
    gen.object_count = 60;
    gen.duration = 40;
    gen.group_count = 5;
    gen.group_size = 5;
    gen.group_jitter = 2.0;
    return GenerateBrinkhoff(gen, 99);
  }();
  return dataset;
}

IcpeOptions BaseOptions(EnumeratorKind kind, std::size_t batch) {
  IcpeOptions options;
  options.cluster_options.join =
      cluster::RangeJoinOptions{.grid_cell_width = 60.0, .eps = 12.0};
  options.cluster_options.dbscan = cluster::DbscanOptions{3};
  options.constraints = PatternConstraints{3, 6, 3, 2};
  options.enumerator = kind;
  options.parallelism = 2;
  options.exchange_batch_size = batch;
  return options;
}

struct RecoveryConfig {
  EnumeratorKind enumerator;
  std::size_t batch;
  const char* fault_stage;  ///< "cluster" or "enumerate"
};

std::string ConfigName(
    const ::testing::TestParamInfo<RecoveryConfig>& info) {
  const RecoveryConfig& c = info.param;
  // "_snapshots" names the snapshot-parallel topology; the label keeps
  // the test names stable.
  return std::string(EnumeratorKindName(c.enumerator)) +
         "_snapshots_batch" + std::to_string(c.batch) + "_" + c.fault_stage;
}

class ExactlyOnceMatrix : public ::testing::TestWithParam<RecoveryConfig> {
};

/// The subsystem's headline guarantee: kill a stage mid-run, recover from
/// the last completed checkpoint, and the final pattern set is
/// BIT-IDENTICAL (full vector equality: same sets, same witness times,
/// same order) to a failure-free run.
TEST_P(ExactlyOnceMatrix, CrashRecoverBitIdentical) {
  const RecoveryConfig config = GetParam();
  const Dataset& dataset = Workload();

  const IcpeResult free_run = RunIcpe(
      dataset, BaseOptions(config.enumerator, config.batch));
  ASSERT_FALSE(free_run.patterns.empty());
  ASSERT_FALSE(free_run.crashed);

  flow::MemorySnapshotStore store;
  IcpeOptions crash_options =
      BaseOptions(config.enumerator, config.batch);
  crash_options.checkpoint_interval = 3;
  crash_options.snapshot_store = &store;
  crash_options.fault =
      FaultSpec{config.fault_stage, /*subtask=*/1, /*at_checkpoint=*/2};
  const IcpeResult crashed = RunIcpe(dataset, crash_options);
  EXPECT_TRUE(crashed.crashed);
  // The fault fires while snapshotting checkpoint 2, so 2 never
  // completes. (1 may also miss its final ack when another worker was
  // still behind barrier 1 at crash time - recovery then cold-starts.)
  EXPECT_LT(crashed.last_checkpoint_id, 2);

  IcpeOptions recover_options =
      BaseOptions(config.enumerator, config.batch);
  recover_options.checkpoint_interval = 3;
  recover_options.snapshot_store = &store;
  recover_options.recover = true;
  const IcpeResult recovered = RunIcpe(dataset, recover_options);
  EXPECT_FALSE(recovered.crashed);
  // Checkpoint numbering continues where the crashed run left off.
  EXPECT_GT(recovered.last_checkpoint_id, crashed.last_checkpoint_id);
  EXPECT_GT(recovered.checkpoints_completed, 0);

  EXPECT_EQ(free_run.patterns, recovered.patterns);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ExactlyOnceMatrix,
    ::testing::Values(
        // {BA, FBA, VBA} x batch {1, 64}, alternating the killed stage
        // between cluster and enumerate.
        RecoveryConfig{EnumeratorKind::kBA, 1, "cluster"},
        RecoveryConfig{EnumeratorKind::kBA, 64, "enumerate"},
        RecoveryConfig{EnumeratorKind::kFBA, 1, "enumerate"},
        RecoveryConfig{EnumeratorKind::kFBA, 64, "cluster"},
        RecoveryConfig{EnumeratorKind::kVBA, 1, "cluster"},
        RecoveryConfig{EnumeratorKind::kVBA, 64, "enumerate"}),
    ConfigName);

TEST(Recovery, CheckpointingAloneDoesNotChangeResults) {
  const Dataset& dataset = Workload();
  const IcpeResult plain =
      RunIcpe(dataset, BaseOptions(EnumeratorKind::kFBA, 64));

  flow::MemorySnapshotStore store;
  IcpeOptions options = BaseOptions(EnumeratorKind::kFBA, 64);
  options.checkpoint_interval = 5;
  options.snapshot_store = &store;
  const IcpeResult checkpointed = RunIcpe(dataset, options);
  EXPECT_FALSE(checkpointed.crashed);
  EXPECT_GT(checkpointed.checkpoints_completed, 0);
  EXPECT_EQ(checkpointed.last_checkpoint_id,
            checkpointed.checkpoints_completed);
  EXPECT_EQ(plain.patterns, checkpointed.patterns);
}

TEST(Recovery, ColdStoreRecoveryFallsBackToNormalRun) {
  const Dataset& dataset = Workload();
  const IcpeResult plain =
      RunIcpe(dataset, BaseOptions(EnumeratorKind::kVBA, 64));

  flow::MemorySnapshotStore store;  // empty: nothing to restore
  IcpeOptions options = BaseOptions(EnumeratorKind::kVBA, 64);
  options.checkpoint_interval = 4;
  options.snapshot_store = &store;
  options.recover = true;
  const IcpeResult recovered = RunIcpe(dataset, options);
  EXPECT_FALSE(recovered.crashed);
  EXPECT_EQ(plain.patterns, recovered.patterns);
}

TEST(Recovery, FailedStoreWriteAbortsCheckpointNotPipeline) {
  const Dataset& dataset = Workload();
  const IcpeResult plain =
      RunIcpe(dataset, BaseOptions(EnumeratorKind::kFBA, 64));

  flow::MemorySnapshotStore inner;
  core::FailingSnapshotStore store(&inner, /*fail_write_number=*/2);
  IcpeOptions options = BaseOptions(EnumeratorKind::kFBA, 64);
  options.checkpoint_interval = 3;
  options.snapshot_store = &store;
  const IcpeResult result = RunIcpe(dataset, options);
  EXPECT_FALSE(result.crashed);
  EXPECT_EQ(result.checkpoints_failed, 1);
  EXPECT_GT(result.checkpoints_completed, 0);
  EXPECT_EQ(plain.patterns, result.patterns);
}

/// Compound failure: the store loses checkpoint 2 to a write error, then
/// the pipeline crashes while snapshotting checkpoint 3. Recovery must
/// rewind all the way to checkpoint 1 - the newest PERSISTED cut - and
/// still reproduce the failure-free output exactly.
TEST(Recovery, CrashAfterLostCheckpointRewindsFurther) {
  const Dataset& dataset = Workload();
  const IcpeResult plain =
      RunIcpe(dataset, BaseOptions(EnumeratorKind::kVBA, 64));

  flow::MemorySnapshotStore inner;
  core::FailingSnapshotStore store(&inner, /*fail_write_number=*/2);
  IcpeOptions options = BaseOptions(EnumeratorKind::kVBA, 64);
  options.checkpoint_interval = 3;
  options.snapshot_store = &store;
  options.fault = FaultSpec{"enumerate", 0, /*at_checkpoint=*/3};
  const IcpeResult crashed = RunIcpe(dataset, options);
  EXPECT_TRUE(crashed.crashed);
  EXPECT_LE(crashed.last_checkpoint_id, 1);
  EXPECT_LE(crashed.checkpoints_failed, 1);

  IcpeOptions recover_options = BaseOptions(EnumeratorKind::kVBA, 64);
  recover_options.checkpoint_interval = 3;
  recover_options.snapshot_store = &inner;
  recover_options.recover = true;
  const IcpeResult recovered = RunIcpe(dataset, recover_options);
  EXPECT_FALSE(recovered.crashed);
  EXPECT_EQ(plain.patterns, recovered.patterns);
}

TEST(Recovery, FileStoreEndToEnd) {
  const Dataset& dataset = Workload();
  const IcpeResult plain =
      RunIcpe(dataset, BaseOptions(EnumeratorKind::kFBA, 64));

  const std::string dir =
      (std::filesystem::temp_directory_path() / "comove_recovery_e2e")
          .string();
  std::filesystem::remove_all(dir);
  {
    flow::FileSnapshotStore store(dir);
    IcpeOptions options = BaseOptions(EnumeratorKind::kFBA, 64);
    options.checkpoint_interval = 3;
    options.snapshot_store = &store;
    options.fault = FaultSpec{"enumerate", 1, /*at_checkpoint=*/3};
    const IcpeResult crashed = RunIcpe(dataset, options);
    EXPECT_TRUE(crashed.crashed);
    EXPECT_LT(crashed.last_checkpoint_id, 3);
  }
  {
    // A brand-new process would build a fresh store over the directory.
    flow::FileSnapshotStore store(dir);
    IcpeOptions options = BaseOptions(EnumeratorKind::kFBA, 64);
    options.checkpoint_interval = 3;
    options.snapshot_store = &store;
    options.recover = true;
    const IcpeResult recovered = RunIcpe(dataset, options);
    EXPECT_FALSE(recovered.crashed);
    EXPECT_EQ(plain.patterns, recovered.patterns);
  }
  std::filesystem::remove_all(dir);
}

TEST(Recovery, CheckpointStatsSurfaceInStageTable) {
  const Dataset& dataset = Workload();
  flow::MemorySnapshotStore store;
  IcpeOptions options = BaseOptions(EnumeratorKind::kFBA, 64);
  options.checkpoint_interval = 3;
  options.snapshot_store = &store;
  options.collect_stats = true;
  const IcpeResult result = RunIcpe(dataset, options);
  ASSERT_FALSE(result.stage_stats.empty());
  bool saw_checkpoint_row = false;
  for (const flow::StageStatsSnapshot& s : result.stage_stats) {
    if (s.stage == "checkpoint") {
      saw_checkpoint_row = true;
      EXPECT_GT(s.snapshot_bytes, 0);
      EXPECT_EQ(s.last_checkpoint_id, result.last_checkpoint_id);
    }
  }
  EXPECT_TRUE(saw_checkpoint_row);
  // Barriers crossed the first exchange: one push per checkpoint.
  EXPECT_GT(result.stage_stats[0].barriers_pushed, 0);
}

using RecoveryDeathTest = ::testing::Test;

TEST(RecoveryDeathTest, FingerprintMismatchRefusesRestore) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Dataset& dataset = Workload();
  flow::MemorySnapshotStore store;
  {
    IcpeOptions options = BaseOptions(EnumeratorKind::kFBA, 64);
    options.checkpoint_interval = 5;
    options.snapshot_store = &store;
    const IcpeResult result = RunIcpe(dataset, options);
    ASSERT_GT(result.checkpoints_completed, 0);
  }
  IcpeOptions mismatched = BaseOptions(EnumeratorKind::kFBA, 64);
  mismatched.cluster_options.join.eps = 13.0;  // different pipeline shape
  mismatched.checkpoint_interval = 5;
  mismatched.snapshot_store = &store;
  mismatched.recover = true;
  EXPECT_DEATH(RunIcpe(dataset, mismatched), "fingerprint mismatch");
}

TEST(Recovery, FingerprintCoversShapeNotTuning) {
  const Dataset& dataset = Workload();
  IcpeOptions a = BaseOptions(EnumeratorKind::kFBA, 1);
  IcpeOptions b = BaseOptions(EnumeratorKind::kFBA, 64);
  b.channel_capacity = 7;
  b.collect_stats = true;
  // Batch size, capacity, and stats do not affect results, so they must
  // not invalidate a checkpoint.
  EXPECT_EQ(BuildFingerprint(dataset, a), BuildFingerprint(dataset, b));
  IcpeOptions c = BaseOptions(EnumeratorKind::kVBA, 1);
  EXPECT_NE(BuildFingerprint(dataset, a), BuildFingerprint(dataset, c));
  // Parallelism fixes the subtask set and the id routing, so it is shape.
  IcpeOptions d = BaseOptions(EnumeratorKind::kFBA, 1);
  d.parallelism = 3;
  EXPECT_NE(BuildFingerprint(dataset, a), BuildFingerprint(dataset, d));
}

}  // namespace
}  // namespace comove::core
