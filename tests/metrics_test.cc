#include "flow/metrics.h"

#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/distributed.h"
#include "core/icpe_engine.h"
#include "trajgen/dataset.h"

/// The snapshot ledger on its own, and end to end: this binary is also
/// the worker process of the distributed case (see the custom main()).

namespace comove::flow {
namespace {

constexpr Timestamp kEnd = std::numeric_limits<Timestamp>::max();

TEST(SnapshotMetrics, EmptyRunCollectsZeros) {
  SnapshotLedger ledger(1);
  const RunMetrics m = ledger.Collect();
  EXPECT_EQ(m.snapshots, 0);
  EXPECT_DOUBLE_EQ(m.average_latency_ms, 0.0);
  EXPECT_DOUBLE_EQ(m.p99_latency_ms, 0.0);
  EXPECT_DOUBLE_EQ(m.throughput_tps, 0.0);
}

TEST(SnapshotMetrics, CountsCompletedSnapshots) {
  SnapshotLedger ledger(1);
  for (Timestamp t = 0; t < 5; ++t) ledger.Ingest(t);
  EXPECT_EQ(ledger.Update(0, 4), 5u);
  const RunMetrics m = ledger.Collect();
  EXPECT_EQ(m.snapshots, 5);
  EXPECT_EQ(ledger.ingested(), 5);
  EXPECT_EQ(ledger.in_flight(), 0u);
  EXPECT_GE(m.average_latency_ms, 0.0);
  EXPECT_GE(m.max_latency_ms, m.average_latency_ms);
}

TEST(SnapshotMetrics, LatencyReflectsElapsedTime) {
  SnapshotLedger ledger(1);
  ledger.Ingest(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ledger.Update(0, 1);
  const RunMetrics m = ledger.Collect();
  EXPECT_GE(m.average_latency_ms, 15.0);
  EXPECT_LT(m.average_latency_ms, 500.0);
}

TEST(SnapshotMetrics, ThroughputUsesWallSpan) {
  SnapshotLedger ledger(1);
  for (Timestamp t = 0; t < 10; ++t) ledger.Ingest(t);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ledger.Update(0, 9);
  const RunMetrics m = ledger.Collect();
  EXPECT_GE(m.wall_seconds, 0.009);
  EXPECT_NEAR(m.throughput_tps, 10.0 / m.wall_seconds, 1e-6);
}

TEST(SnapshotMetrics, DuplicateIngestAborts) {
  // A silent duplicate would measure latency from the FIRST ingest; fail
  // fast at the actual bug instead.
  SnapshotLedger ledger(1);
  ledger.Ingest(3);
  EXPECT_DEATH(ledger.Ingest(3), "ingested after");
}

TEST(SnapshotLedger, DescendingIngestAborts) {
  // The assembler emits snapshots in strictly ascending time; the FIFO
  // relies on it to complete a prefix per frontier advance.
  SnapshotLedger ledger(1);
  ledger.Ingest(5);
  EXPECT_DEATH(ledger.Ingest(4), "ingested after");
}

TEST(SnapshotMetrics, PercentilesAreOrderedAndBracketTheSamples) {
  SnapshotLedger ledger(1);
  for (Timestamp t = 0; t < 20; ++t) {
    ledger.Ingest(t);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ledger.Update(0, t);
  }
  const RunMetrics m = ledger.Collect();
  EXPECT_GT(m.p50_latency_ms, 0.0);
  EXPECT_LE(m.p50_latency_ms, m.p95_latency_ms);
  EXPECT_LE(m.p95_latency_ms, m.p99_latency_ms);
  // Order statistics are real samples: never beyond the maximum.
  EXPECT_LE(m.p99_latency_ms, m.max_latency_ms);
  EXPECT_GE(m.max_latency_ms, m.average_latency_ms);
}

TEST(SnapshotLedger, NearestRankPercentilesAreExact) {
  // 1..100 ms: the ceil(q * n)-th smallest is q * 100 exactly.
  std::vector<double> hundred;
  for (int ms = 1; ms <= 100; ++ms) hundred.push_back(ms);
  EXPECT_DOUBLE_EQ(NearestRank(hundred, 0.50), 50.0);
  EXPECT_DOUBLE_EQ(NearestRank(hundred, 0.95), 95.0);
  EXPECT_DOUBLE_EQ(NearestRank(hundred, 0.99), 99.0);
  EXPECT_DOUBLE_EQ(NearestRank(hundred, 1.00), 100.0);
  // Seven samples: ranks ceil(3.5) = 4, ceil(6.65) = 7, ceil(6.93) = 7.
  const std::vector<double> seven = {0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0};
  EXPECT_DOUBLE_EQ(NearestRank(seven, 0.50), 4.0);
  EXPECT_DOUBLE_EQ(NearestRank(seven, 0.95), 32.0);
  EXPECT_DOUBLE_EQ(NearestRank(seven, 0.99), 32.0);
  EXPECT_DOUBLE_EQ(NearestRank({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(NearestRank({7.0}, 0.01), 7.0);
}

TEST(SnapshotLedger, CollectReportsOrderStatisticsOfTheRetainedLatencies) {
  SnapshotLedger ledger(1);
  for (Timestamp t = 0; t < 30; ++t) {
    ledger.Ingest(t);
    if (t % 3 == 2) ledger.Update(0, t);  // completes in groups of three
  }
  const std::vector<std::pair<Timestamp, double>> latencies =
      ledger.Latencies();
  ASSERT_EQ(latencies.size(), 30u);
  std::vector<double> sorted;
  double total = 0.0;
  for (Timestamp t = 0; t < 30; ++t) {
    EXPECT_EQ(latencies[static_cast<std::size_t>(t)].first, t);
    sorted.push_back(latencies[static_cast<std::size_t>(t)].second);
    total += sorted.back();
  }
  std::sort(sorted.begin(), sorted.end());
  const RunMetrics m = ledger.Collect();
  EXPECT_EQ(m.snapshots, 30);
  EXPECT_DOUBLE_EQ(m.average_latency_ms, total / 30.0);
  EXPECT_DOUBLE_EQ(m.max_latency_ms, sorted.back());
  EXPECT_DOUBLE_EQ(m.p50_latency_ms, sorted[14]);  // rank 15
  EXPECT_DOUBLE_EQ(m.p95_latency_ms, sorted[28]);  // rank ceil(28.5)
  EXPECT_DOUBLE_EQ(m.p99_latency_ms, sorted[29]);  // rank ceil(29.7)
}

TEST(SnapshotLedger, CompletesAtMinSubtaskProgress) {
  SnapshotLedger ledger(3);
  ledger.Ingest(1);
  ledger.Ingest(2);
  ledger.Ingest(5);
  EXPECT_EQ(ledger.Update(0, 10), 0u);
  EXPECT_EQ(ledger.Update(1, 2), 0u);
  EXPECT_EQ(ledger.Update(2, 3), 2u);  // frontier 2 completes 1 and 2
  EXPECT_EQ(ledger.in_flight(), 1u);
  EXPECT_EQ(ledger.Update(1, 99), 0u);  // subtask 2 still at 3
  EXPECT_EQ(ledger.Update(2, 99), 1u);
  EXPECT_EQ(ledger.in_flight(), 0u);
  const std::vector<std::pair<Timestamp, double>> latencies =
      ledger.Latencies();
  ASSERT_EQ(latencies.size(), 3u);
  EXPECT_EQ(latencies[0].first, 1);
  EXPECT_EQ(latencies[1].first, 2);
  EXPECT_EQ(latencies[2].first, 5);
}

TEST(SnapshotLedger, ProgressNeverRegresses) {
  SnapshotLedger ledger(2);
  ledger.Ingest(4);
  ledger.Update(0, 10);
  EXPECT_EQ(ledger.Update(1, 10), 1u);  // completes 4
  ledger.Ingest(7);
  // A stale report must not regress progress: the frontier is still 10,
  // so 7 completes on the next report despite the lower through-value.
  EXPECT_EQ(ledger.Update(0, 3), 1u);
  EXPECT_EQ(ledger.Latencies().back().first, 7);
  EXPECT_EQ(ledger.in_flight(), 0u);
}

TEST(SnapshotMetrics, ConcurrentMarksAreSafe) {
  // Two subtasks report progress from their own threads over a fully
  // ingested run.
  SnapshotLedger ledger(2);
  constexpr Timestamp kCount = 2000;
  for (Timestamp t = 0; t < kCount; ++t) ledger.Ingest(t);
  auto report = [&](std::int32_t subtask) {
    for (Timestamp t = 0; t < kCount; ++t) ledger.Update(subtask, t);
  };
  std::thread a(report, 0);
  std::thread b(report, 1);
  a.join();
  b.join();
  EXPECT_EQ(ledger.Collect().snapshots, kCount);
  EXPECT_EQ(ledger.in_flight(), 0u);
}

TEST(SnapshotLedger, ConcurrentIngestAndUpdate) {
  // The assembler ingests while subtasks race ahead with frontiers that
  // may run past what has been ingested so far; every snapshot still
  // completes exactly once, in time order.
  SnapshotLedger ledger(2);
  constexpr Timestamp kCount = 3000;
  std::thread ingest([&] {
    for (Timestamp t = 0; t < kCount; ++t) ledger.Ingest(t);
  });
  auto report = [&](std::int32_t subtask) {
    for (Timestamp t = 0; t < kCount; t += 7) ledger.Update(subtask, t);
  };
  std::thread a(report, 0);
  std::thread b(report, 1);
  ingest.join();
  a.join();
  b.join();
  ledger.Update(0, kEnd);
  ledger.Update(1, kEnd);
  EXPECT_EQ(ledger.ingested(), kCount);
  EXPECT_EQ(ledger.in_flight(), 0u);
  const std::vector<std::pair<Timestamp, double>> latencies =
      ledger.Latencies();
  ASSERT_EQ(latencies.size(), static_cast<std::size_t>(kCount));
  for (Timestamp t = 0; t < kCount; ++t) {
    EXPECT_EQ(latencies[static_cast<std::size_t>(t)].first, t);
    EXPECT_GE(latencies[static_cast<std::size_t>(t)].second, 0.0);
  }
}

/// Three groups and a straggler over 24 ticks: every tick is a snapshot.
trajgen::Dataset LedgerDataset() {
  trajgen::DatasetBuilder b("ledger");
  for (Timestamp t = 0; t < 24; ++t) {
    for (TrajectoryId id = 0; id < 9; ++id) {
      const double group = static_cast<double>(id / 3);
      b.Add(id, t,
            Point{100.0 * group + static_cast<double>(t),
                  0.2 * static_cast<double>(id % 3)});
    }
    b.Add(9, t, Point{900.0 - 20.0 * t, 700.0});
  }
  return b.Finalize();
}

core::IcpeOptions LedgerOptions() {
  core::IcpeOptions options;
  options.cluster_options.join =
      cluster::RangeJoinOptions{.grid_cell_width = 5.0, .eps = 1.0};
  options.cluster_options.dbscan = cluster::DbscanOptions{2};
  options.constraints = PatternConstraints{2, 4, 2, 2};
  options.parallelism = 2;
  return options;
}

/// On a clean run every ingested snapshot completes, the counts agree,
/// and tracing fills the worst-k breakdown from the ledger.
void ExpectLedgerAccountsEverySnapshot(std::int32_t workers) {
  const trajgen::Dataset dataset = LedgerDataset();
  const auto run = [&](const core::IcpeOptions& options) {
    return workers == 0
               ? core::RunIcpe(dataset, options)
               : core::RunIcpeDistributed(
                     dataset, options,
                     core::DistributedOptions{.workers = workers});
  };
  const core::IcpeResult plain = run(LedgerOptions());
  ASSERT_FALSE(plain.crashed);
  EXPECT_EQ(plain.snapshot_count, 24);
  EXPECT_EQ(plain.snapshots.snapshots, plain.snapshot_count);
  EXPECT_GT(plain.avg_cluster_ms, 0.0);
  EXPECT_GT(plain.avg_enum_ms, 0.0);
  EXPECT_TRUE(plain.worst_snapshots.empty());

  core::IcpeOptions traced_options = LedgerOptions();
  traced_options.trace_path =
      (std::filesystem::temp_directory_path() /
       ("comove-ledger-" + std::to_string(::getpid()) + "-" +
        std::to_string(workers) + ".json"))
          .string();
  const core::IcpeResult traced = run(traced_options);
  std::filesystem::remove(traced_options.trace_path);
  ASSERT_FALSE(traced.crashed);
  EXPECT_EQ(traced.snapshot_count, 24);
  EXPECT_EQ(traced.snapshots.snapshots, traced.snapshot_count);
  EXPECT_EQ(traced.patterns, plain.patterns);
  ASSERT_FALSE(traced.worst_snapshots.empty());
  // Ranked worst first, each latency one the ledger measured.
  for (std::size_t i = 0; i < traced.worst_snapshots.size(); ++i) {
    const SnapshotStageBreakdown& row = traced.worst_snapshots[i];
    EXPECT_LE(row.latency_ms, traced.snapshots.max_latency_ms);
    if (i > 0) {
      EXPECT_LE(row.latency_ms, traced.worst_snapshots[i - 1].latency_ms);
    }
  }
  EXPECT_DOUBLE_EQ(traced.worst_snapshots.front().latency_ms,
                   traced.snapshots.max_latency_ms);
}

TEST(SnapshotLedger, EngineRunInProcessAccountsEverySnapshot) {
  ExpectLedgerAccountsEverySnapshot(0);
}

TEST(SnapshotLedger, EngineRunWithTwoWorkersAccountsEverySnapshot) {
  ExpectLedgerAccountsEverySnapshot(2);
}

}  // namespace
}  // namespace comove::flow

/// Custom main: a spawned worker re-enters here with the sentinel argv
/// and must never reach the gtest runner.
int main(int argc, char** argv) {
  if (const auto code = comove::core::MaybeNetWorker(argc, argv)) {
    return *code;
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
