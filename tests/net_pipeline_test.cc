#include "core/distributed.h"

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <numbers>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/icpe_engine.h"
#include "flow/checkpoint/snapshot_store.h"
#include "flow/stage_stats.h"
#include "trajgen/dataset.h"

/// End-to-end tests of the multi-process deployment: this binary is BOTH
/// the test driver and - via the MaybeNetWorker hook in its custom
/// main() below - the worker processes a distributed run spawns by
/// re-executing /proc/self/exe. Each test runs a real coordinator plus
/// real worker processes over real sockets and compares pattern
/// multisets bit-for-bit against the single-process run.

namespace comove::core {
namespace {

using trajgen::Dataset;
using trajgen::DatasetBuilder;

/// Deterministic stream with structure at several scales: three tight
/// groups whose members drift, one group that splinters mid-stream, and
/// background noise - enough objects that all four pipeline subtasks see
/// real work at parallelism 4.
Dataset ConvoyDataset() {
  DatasetBuilder b("convoys");
  const Timestamp duration = 30;
  for (Timestamp t = 0; t < duration; ++t) {
    for (int g = 0; g < 3; ++g) {
      for (TrajectoryId m = 0; m < 4; ++m) {
        const TrajectoryId id = g * 4 + m;
        double dy = 0.15 * static_cast<double>(m);
        // Group 2's last member wanders off for a third of the stream.
        if (g == 2 && m == 3 && t >= 10 && t < 20) dy += 40.0;
        b.Add(id, t,
              Point{200.0 * g + 0.7 * static_cast<double>(t),
                    10.0 * g + dy});
      }
    }
    for (TrajectoryId n = 12; n < 18; ++n) {
      const double phase = 0.4 * static_cast<double>(t + n);
      b.Add(n, t,
            Point{700.0 + 90.0 * static_cast<double>(n) + 25.0 * std::sin(phase),
                  600.0 + 25.0 * std::cos(phase)});
    }
  }
  return b.Finalize();
}

IcpeOptions BaseOptions() {
  IcpeOptions options;
  options.cluster_options.join =
      cluster::RangeJoinOptions{.grid_cell_width = 6.0, .eps = 1.2};
  options.cluster_options.dbscan = cluster::DbscanOptions{2};
  options.constraints = PatternConstraints{2, 6, 2, 2};
  options.parallelism = 4;
  return options;
}

DistributedOptions Deployment(std::int32_t workers,
                              const char* transport) {
  DistributedOptions dist;
  dist.workers = workers;
  dist.transport = transport;
  return dist;
}

TEST(NetPipeline, UnixTwoProcessesBitIdentical) {
  const Dataset dataset = ConvoyDataset();
  const IcpeOptions options = BaseOptions();
  const IcpeResult single = RunIcpe(dataset, options);
  const IcpeResult distributed =
      RunIcpeDistributed(dataset, options, Deployment(2, "unix"));
  EXPECT_FALSE(distributed.crashed);
  ASSERT_FALSE(single.patterns.empty());
  EXPECT_EQ(distributed.patterns, single.patterns);
  EXPECT_EQ(distributed.snapshot_count, single.snapshot_count);
  EXPECT_EQ(distributed.cluster_count, single.cluster_count);
}

TEST(NetPipeline, TcpThreeProcessesBitIdentical) {
  const Dataset dataset = ConvoyDataset();
  const IcpeOptions options = BaseOptions();
  const IcpeResult single = RunIcpe(dataset, options);
  const IcpeResult distributed =
      RunIcpeDistributed(dataset, options, Deployment(3, "tcp"));
  EXPECT_FALSE(distributed.crashed);
  EXPECT_EQ(distributed.patterns, single.patterns);
}

TEST(NetPipeline, SingleWorkerDegenerateDeployment) {
  // W=1 exercises the coordinator<->worker split with an empty worker
  // mesh - every partition-edge hop is worker-local.
  const Dataset dataset = ConvoyDataset();
  const IcpeOptions options = BaseOptions();
  const IcpeResult single = RunIcpe(dataset, options);
  const IcpeResult distributed =
      RunIcpeDistributed(dataset, options, Deployment(1, "unix"));
  EXPECT_FALSE(distributed.crashed);
  EXPECT_EQ(distributed.patterns, single.patterns);
}

TEST(NetPipeline, CheckpointsCompleteAcrossProcesses) {
  const Dataset dataset = ConvoyDataset();
  flow::MemorySnapshotStore store;
  IcpeOptions options = BaseOptions();
  options.checkpoint_interval = 5;
  options.snapshot_store = &store;
  const IcpeResult distributed =
      RunIcpeDistributed(dataset, options, Deployment(2, "unix"));
  EXPECT_FALSE(distributed.crashed);
  EXPECT_GT(distributed.checkpoints_completed, 0);
  EXPECT_EQ(distributed.checkpoints_failed, 0);
  EXPECT_EQ(RunIcpe(dataset, BaseOptions()).patterns,
            distributed.patterns);
}

/// A worker's pattern fold can outgrow any single frame: an 18-member
/// convoy makes every subset of at least M = 4 members a pattern
/// (261,156 of them, about 70 MiB encoded). The fold must reach the
/// coordinator in several chunks and match the in-process run exactly.
TEST(NetPipeline, LargePatternFoldShipsInChunks) {
  DatasetBuilder b("convoy18");
  const int members = 18;
  for (Timestamp t = 0; t < 24; ++t) {
    for (TrajectoryId id = 0; id < members; ++id) {
      const double angle =
          2.0 * std::numbers::pi * static_cast<double>(id) / members;
      b.Add(id, t,
            Point{0.5 * static_cast<double>(t) + 0.3 * std::cos(angle),
                  0.3 * std::sin(angle)});
    }
  }
  const Dataset dataset = b.Finalize();
  IcpeOptions options = BaseOptions();
  options.constraints = PatternConstraints{4, 18, 3, 3};
  options.collect_stats = true;
  const IcpeResult single = RunIcpe(dataset, options);
  ASSERT_EQ(single.patterns.size(), 261156u);

  const std::int32_t workers = 2;
  const IcpeResult distributed =
      RunIcpeDistributed(dataset, options, Deployment(workers, "unix"));
  EXPECT_FALSE(distributed.crashed);
  EXPECT_EQ(distributed.patterns, single.patterns);
  // Nearly all bytes the coordinator received are pattern chunks, each
  // closed at kResultChunkBytes: well over four budgets means the folds
  // crossed in many frames.
  std::int64_t received = 0;
  for (std::int32_t w = 0; w < workers; ++w) {
    for (const flow::StageStatsSnapshot& row : distributed.stage_stats) {
      if (row.stage == "link:w" + std::to_string(w)) {
        received += row.bytes_popped;
      }
    }
  }
  EXPECT_GT(received, 4 * static_cast<std::int64_t>(kResultChunkBytes));
}

const flow::StageStatsSnapshot* FindRow(
    const std::vector<flow::StageStatsSnapshot>& rows,
    const std::string& stage) {
  for (const flow::StageStatsSnapshot& row : rows) {
    if (row.stage == stage) return &row;
  }
  return nullptr;
}

/// Conservation invariants over the merged stats of a distributed run:
/// what the workers report entering their edges equals what a
/// single-process run at the same parallelism pushes through the same
/// edges, and the per-link frame/byte counters balance between the two
/// ends of every socket.
TEST(NetPipeline, MergedStatsConservationInvariants) {
  const Dataset dataset = ConvoyDataset();
  IcpeOptions options = BaseOptions();
  options.collect_stats = true;
  const std::int32_t workers = 2;
  const IcpeResult single = RunIcpe(dataset, options);
  const IcpeResult distributed =
      RunIcpeDistributed(dataset, options, Deployment(workers, "unix"));
  ASSERT_FALSE(distributed.crashed);
  EXPECT_EQ(distributed.patterns, single.patterns);
  const auto& rows = distributed.stage_stats;

  // Per remote edge: the sum of worker-side records-in equals the
  // single-process flow through the same logical edge.
  for (const char* edge : {"assembler->cluster", "cluster->enumerate"}) {
    const flow::StageStatsSnapshot* reference =
        FindRow(single.stage_stats, edge);
    ASSERT_NE(reference, nullptr) << edge;
    std::int64_t pushed = 0;
    std::int64_t popped = 0;
    for (std::int32_t w = 0; w < workers; ++w) {
      const flow::StageStatsSnapshot* row =
          FindRow(rows, "w" + std::to_string(w) + ":" + edge);
      ASSERT_NE(row, nullptr) << edge << " of worker " << w;
      pushed += row->records_pushed;
      popped += row->records_popped;
    }
    EXPECT_EQ(pushed, reference->records_pushed) << edge;
    EXPECT_EQ(popped, reference->records_popped) << edge;
  }

  // Per link: coordinator->worker is exactly symmetric (frames and
  // bytes). Worker->coordinator trails by exactly the frames a worker
  // sends after taking its final stats snapshot: that snapshot cannot
  // count itself (final STATS) or the RESULT that follows it.
  for (std::int32_t w = 0; w < workers; ++w) {
    const std::string wp = "w" + std::to_string(w) + ":";
    const flow::StageStatsSnapshot* coord_side =
        FindRow(rows, "link:w" + std::to_string(w));
    const flow::StageStatsSnapshot* worker_side =
        FindRow(rows, wp + "link:coord");
    ASSERT_NE(coord_side, nullptr);
    ASSERT_NE(worker_side, nullptr);
    EXPECT_EQ(coord_side->records_pushed, worker_side->records_popped);
    EXPECT_EQ(coord_side->bytes_pushed, worker_side->bytes_popped);
    EXPECT_EQ(coord_side->records_popped, worker_side->records_pushed + 2);
    EXPECT_GT(coord_side->bytes_popped, worker_side->bytes_pushed);
    EXPECT_GT(coord_side->records_pushed, 0);
    EXPECT_GT(coord_side->bytes_pushed, 0);
    EXPECT_EQ(coord_side->crc_rejects, 0);
    EXPECT_EQ(worker_side->crc_rejects, 0);
    // Worker-to-worker links quiesce before the final snapshot (the
    // last peer frames are the producer closes), so they balance
    // exactly in both directions.
    for (std::int32_t j = 0; j < workers; ++j) {
      if (j == w) continue;
      const flow::StageStatsSnapshot* ours =
          FindRow(rows, wp + "link:w" + std::to_string(j));
      const flow::StageStatsSnapshot* theirs = FindRow(
          rows, "w" + std::to_string(j) + ":link:w" + std::to_string(w));
      ASSERT_NE(ours, nullptr);
      ASSERT_NE(theirs, nullptr);
      EXPECT_EQ(ours->records_pushed, theirs->records_popped);
      EXPECT_EQ(ours->bytes_pushed, theirs->bytes_popped);
    }
  }

  // In-process stage rows never report transport bytes.
  const flow::StageStatsSnapshot* local =
      FindRow(rows, "source->assembler");
  ASSERT_NE(local, nullptr);
  EXPECT_EQ(local->bytes_pushed, 0);
  EXPECT_EQ(local->bytes_popped, 0);
}

/// A worker killed mid-run must not corrupt the merge: the coordinator
/// keeps whatever partial snapshots arrived (rows pre-registered for
/// every worker stay present, possibly zero) and the loud-fail
/// completeness check applies only to clean runs.
TEST(NetPipeline, WorkerCrashKeepsMergedStatsUsable) {
  const Dataset dataset = ConvoyDataset();
  flow::MemorySnapshotStore store;
  IcpeOptions options = BaseOptions();
  options.collect_stats = true;
  options.checkpoint_interval = 4;
  options.snapshot_store = &store;
  options.fault = FaultSpec{"enumerate", /*subtask=*/1, /*at_checkpoint=*/2};
  const IcpeResult crashed =
      RunIcpeDistributed(dataset, options, Deployment(2, "unix"));
  EXPECT_TRUE(crashed.crashed);
  ASSERT_FALSE(crashed.stage_stats.empty());
  for (std::int32_t w = 0; w < 2; ++w) {
    const std::string wp = "w" + std::to_string(w) + ":";
    EXPECT_NE(FindRow(crashed.stage_stats, wp + "assembler->cluster"),
              nullptr);
    EXPECT_NE(FindRow(crashed.stage_stats, wp + "link:coord"), nullptr);
  }
  // The periodic STATS cadence usually lands at least one snapshot
  // before the kill; whether or not it did, every counter must be
  // non-negative (OverwriteFrom never leaves a row half-written).
  for (const flow::StageStatsSnapshot& row : crashed.stage_stats) {
    EXPECT_GE(row.records_pushed, 0) << row.stage;
    EXPECT_GE(row.records_popped, 0) << row.stage;
    EXPECT_GE(row.bytes_pushed, 0) << row.stage;
    EXPECT_EQ(row.crc_rejects, 0) << row.stage;
  }
}

/// The headline guarantee across processes: kill a worker for real
/// (std::_Exit, sockets slammed shut, no destructors) while it
/// snapshots a checkpoint, then recover from the last completed
/// CheckpointBundle and produce the uninterrupted run's exact patterns.
void KillAndRecover(const char* stage, const char* transport) {
  const Dataset dataset = ConvoyDataset();
  const IcpeResult free_run = RunIcpe(dataset, BaseOptions());

  flow::MemorySnapshotStore store;
  IcpeOptions crash_options = BaseOptions();
  crash_options.checkpoint_interval = 4;
  crash_options.snapshot_store = &store;
  crash_options.fault = FaultSpec{stage, /*subtask=*/1, /*at_checkpoint=*/2};
  const IcpeResult crashed =
      RunIcpeDistributed(dataset, crash_options, Deployment(2, transport));
  EXPECT_TRUE(crashed.crashed);

  IcpeOptions recover_options = BaseOptions();
  recover_options.checkpoint_interval = 4;
  recover_options.snapshot_store = &store;
  recover_options.recover = true;
  const IcpeResult recovered = RunIcpeDistributed(
      dataset, recover_options, Deployment(2, transport));
  EXPECT_FALSE(recovered.crashed);
  EXPECT_GT(recovered.last_checkpoint_id, crashed.last_checkpoint_id);
  EXPECT_EQ(recovered.patterns, free_run.patterns);
}

/// Socket paths of this process's unix-transport runs still in /tmp. The
/// coordinator is this process, so its pid names every path of its runs
/// (see CoordinatorAddress), workers' listen paths included.
std::vector<std::string> LeftoverSocketPaths() {
  const std::string prefix =
      "comove-net-" + std::to_string(::getpid()) + "-";
  std::vector<std::string> left;
  for (const auto& entry : std::filesystem::directory_iterator("/tmp")) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0) left.push_back(entry.path().string());
  }
  return left;
}

TEST(NetPipeline, KillEnumerateWorkerAndRecoverUnix) {
  KillAndRecover("enumerate", "unix");
  // The killed worker removes its listen socket before it exits.
  EXPECT_EQ(LeftoverSocketPaths(), std::vector<std::string>{});
}

TEST(NetPipeline, KillClusterWorkerAndRecoverTcp) {
  KillAndRecover("cluster", "tcp");
}

/// A checkpoint written by a single-process run restores into a
/// distributed run (and would vice versa): the fingerprint deliberately
/// covers the logical pipeline, not the deployment.
TEST(NetPipeline, CheckpointsInterchangeableAcrossDeployments) {
  const Dataset dataset = ConvoyDataset();
  flow::MemorySnapshotStore store;
  IcpeOptions crash_options = BaseOptions();
  crash_options.checkpoint_interval = 4;
  crash_options.snapshot_store = &store;
  crash_options.fault =
      FaultSpec{"enumerate", /*subtask=*/1, /*at_checkpoint=*/2};
  const IcpeResult crashed = RunIcpe(dataset, crash_options);
  EXPECT_TRUE(crashed.crashed);

  IcpeOptions recover_options = BaseOptions();
  recover_options.checkpoint_interval = 4;
  recover_options.snapshot_store = &store;
  recover_options.recover = true;
  const IcpeResult recovered = RunIcpeDistributed(
      dataset, recover_options, Deployment(2, "unix"));
  EXPECT_FALSE(recovered.crashed);
  EXPECT_EQ(recovered.patterns, RunIcpe(dataset, BaseOptions()).patterns);
}

}  // namespace
}  // namespace comove::core

/// Custom main: a spawned worker re-enters here with the sentinel argv
/// and must never reach the gtest runner.
int main(int argc, char** argv) {
  if (const auto code = comove::core::MaybeNetWorker(argc, argv)) {
    return *code;
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
