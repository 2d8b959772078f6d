#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/icpe_engine.h"
#include "flow/checkpoint/snapshot_store.h"
#include "trajgen/brinkhoff_generator.h"
#include "trajgen/dataset.h"

/// \file
/// Delta-path correctness at the engine layer: with
/// ClusteringOptions::join.incremental set, every pipeline configuration
/// must produce BIT-IDENTICAL patterns to the full-recompute run - across
/// cell modes, batch sizes, shuffled replay, and crash/recovery with a
/// cache that was warm at the crash (recovery restarts it cold, which the
/// identity proves is sound).

namespace comove::core {
namespace {

using trajgen::Dataset;

/// A mostly-parked fleet: seeded co-moving groups drift slowly, so most
/// grid cells repeat between consecutive snapshots and the delta caches
/// engage for real.
const Dataset& SlowWorkload() {
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

/// A literally stationary fleet - every object reports the same position
/// at every tick, no dropout - the strongest replay case: after the cold
/// start, everything replays. Five tight groups (clusters and patterns
/// form) plus spread-out singletons.
Dataset StationaryWorkload() {
  Dataset out;
  out.name = "stationary";
  std::vector<Point> home;
  for (int g = 0; g < 5; ++g) {
    for (int m = 0; m < 8; ++m) {
      home.push_back(Point{100.0 * g + 2.0 * m, 50.0});
    }
  }
  for (int lone = 0; lone < 20; ++lone) {
    home.push_back(Point{37.0 * lone, 400.0});
  }
  for (Timestamp t = 0; t < 40; ++t) {
    for (std::size_t i = 0; i < home.size(); ++i) {
      out.records.push_back(GpsRecord{static_cast<TrajectoryId>(i), home[i],
                                      t, t == 0 ? kNoTime : t - 1});
    }
  }
  return out;
}

IcpeOptions BaseOptions(std::size_t batch) {
  IcpeOptions options;
  options.cluster_options.join =
      cluster::RangeJoinOptions{.grid_cell_width = 60.0, .eps = 12.0};
  options.cluster_options.dbscan = cluster::DbscanOptions{3};
  options.constraints = PatternConstraints{3, 6, 3, 2};
  options.enumerator = EnumeratorKind::kFBA;
  options.parallelism = 2;
  options.exchange_batch_size = batch;
  return options;
}

/// gtest prints this struct as raw bytes inside the test ID, so its size
/// is part of the ID: keep the layout at 24 bytes to keep the IDs stable.
struct DeltaConfig {
  std::size_t batch;
  cluster::JoinKernel kernel;
  std::size_t parallelism;
};
static_assert(sizeof(DeltaConfig) == 24);

std::string ConfigName(const ::testing::TestParamInfo<DeltaConfig>& info) {
  const DeltaConfig& c = info.param;
  // "snapshots_" names the snapshot-parallel topology; the label keeps
  // the test names stable.
  return "snapshots_batch" + std::to_string(c.batch) + "_" +
         cluster::JoinKernelName(c.kernel);
}

class DeltaMatrix : public ::testing::TestWithParam<DeltaConfig> {};

TEST_P(DeltaMatrix, IncrementalBitIdenticalToFullRecompute) {
  const DeltaConfig config = GetParam();
  const Dataset& dataset = SlowWorkload();
  IcpeOptions options = BaseOptions(config.batch);
  options.cluster_options.join.kernel = config.kernel;
  options.parallelism = static_cast<std::int32_t>(config.parallelism);

  const IcpeResult full = RunIcpe(dataset, options);
  ASSERT_FALSE(full.patterns.empty());
  EXPECT_EQ(full.delta_cells_seen, 0);

  options.cluster_options.join.incremental = true;
  const IcpeResult delta = RunIcpe(dataset, options);

  EXPECT_EQ(delta.patterns, full.patterns);
  EXPECT_EQ(delta.cluster_count, full.cluster_count);
  EXPECT_EQ(delta.snapshot_count, full.snapshot_count);
  EXPECT_GT(delta.delta_cells_seen, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, DeltaMatrix,
    ::testing::Values(
        DeltaConfig{1, cluster::JoinKernel::kSweep, 2},
        DeltaConfig{64, cluster::JoinKernel::kSweep, 2},
        DeltaConfig{64, cluster::JoinKernel::kRTree, 2}),
    ConfigName);

TEST(IcpeIncremental, StationaryFleetReplaysNearlyEverything) {
  const Dataset dataset = StationaryWorkload();
  IcpeOptions options = BaseOptions(64);
  const IcpeResult full = RunIcpe(dataset, options);
  options.cluster_options.join.incremental = true;
  const IcpeResult delta = RunIcpe(dataset, options);
  EXPECT_EQ(delta.patterns, full.patterns);
  ASSERT_GT(delta.delta_cells_seen, 0);
  // Every worker pays one cold snapshot per cell; with 40 snapshots the
  // replay rate must be high even split across workers.
  EXPECT_GT(delta.delta_cells_replayed, delta.delta_cells_seen / 2);
  EXPECT_GT(delta.delta_dbscan_replays, 0);
}

TEST(IcpeIncremental, OutOfOrderArrivalsMatchOrderedFullRecompute) {
  const Dataset& dataset = SlowWorkload();
  IcpeOptions ordered = BaseOptions(/*batch=*/64);
  const IcpeResult full = RunIcpe(dataset, ordered);

  IcpeOptions shuffled = ordered;
  shuffled.cluster_options.join.incremental = true;
  shuffled.replay_shuffle_window = 5;
  shuffled.shuffle_seed = 41;
  const IcpeResult delta = RunIcpe(dataset, shuffled);
  EXPECT_EQ(delta.patterns, full.patterns);
  EXPECT_GT(delta.delta_cells_seen, 0);
}

TEST(IcpeIncremental, CrashRecoveryWithWarmCacheStaysExactlyOnce) {
  // The crashed run's delta caches are warm when the fault fires; the
  // recovering run rebuilds them cold from the checkpoint cut and must
  // still produce the failure-free pattern vector.
  const Dataset& dataset = SlowWorkload();
  IcpeOptions base = BaseOptions(64);
  base.cluster_options.join.incremental = true;
  const IcpeResult free_run = RunIcpe(dataset, base);
  ASSERT_FALSE(free_run.patterns.empty());

  flow::MemorySnapshotStore store;
  IcpeOptions crash_options = base;
  crash_options.checkpoint_interval = 3;
  crash_options.snapshot_store = &store;
  crash_options.fault =
      FaultSpec{"cluster", /*subtask=*/1, /*at_checkpoint=*/2};
  const IcpeResult crashed = RunIcpe(dataset, crash_options);
  EXPECT_TRUE(crashed.crashed);

  IcpeOptions recover_options = base;
  recover_options.checkpoint_interval = 3;
  recover_options.snapshot_store = &store;
  recover_options.recover = true;
  const IcpeResult recovered = RunIcpe(dataset, recover_options);
  EXPECT_FALSE(recovered.crashed);
  EXPECT_EQ(recovered.patterns, free_run.patterns);
}

TEST(IcpeIncremental, RecoveryAcrossTheIncrementalFlag) {
  // `incremental` is a pure performance knob excluded from the checkpoint
  // fingerprint: a checkpoint taken by a full-recompute run restores into
  // an incremental run (and the output still matches end to end).
  const Dataset& dataset = SlowWorkload();
  IcpeOptions base = BaseOptions(/*batch=*/64);
  const IcpeResult free_run = RunIcpe(dataset, base);

  flow::MemorySnapshotStore store;
  IcpeOptions crash_options = base;
  crash_options.checkpoint_interval = 3;
  crash_options.snapshot_store = &store;
  crash_options.fault =
      FaultSpec{"cluster", /*subtask=*/1, /*at_checkpoint=*/2};
  const IcpeResult crashed = RunIcpe(dataset, crash_options);
  EXPECT_TRUE(crashed.crashed);

  IcpeOptions recover_options = base;
  recover_options.cluster_options.join.incremental = true;
  recover_options.checkpoint_interval = 3;
  recover_options.snapshot_store = &store;
  recover_options.recover = true;
  const IcpeResult recovered = RunIcpe(dataset, recover_options);
  EXPECT_FALSE(recovered.crashed);
  EXPECT_EQ(recovered.patterns, free_run.patterns);
}

}  // namespace
}  // namespace comove::core
