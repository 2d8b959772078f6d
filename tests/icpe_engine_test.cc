#include "core/icpe_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "cluster/clustering.h"
#include "pattern/reference_enumerator.h"
#include "trajgen/brinkhoff_generator.h"
#include "trajgen/dataset.h"

namespace comove::core {
namespace {

using trajgen::Dataset;
using trajgen::DatasetBuilder;

std::set<std::vector<TrajectoryId>> ObjectSets(
    const std::vector<CoMovementPattern>& patterns) {
  std::set<std::vector<TrajectoryId>> out;
  for (const auto& p : patterns) out.insert(p.objects);
  return out;
}

/// Offline oracle: cluster every snapshot with the brute-force join, then
/// exhaustively enumerate patterns.
std::set<std::vector<TrajectoryId>> OfflineOracle(
    const Dataset& dataset, const IcpeOptions& options) {
  std::vector<ClusterSnapshot> clustered;
  for (const Snapshot& s : dataset.ToSnapshots()) {
    clustered.push_back(cluster::DbscanFromNeighbors(
        s, cluster::RangeJoinBrute(s, options.cluster_options.join.eps),
        options.cluster_options.dbscan));
  }
  return ObjectSets(
      pattern::ReferenceEnumerate(clustered, options.constraints));
}

/// A deterministic hand-built dataset with two groups that move together,
/// split briefly, and rejoin - plus noise objects.
Dataset TwoGroupDataset() {
  DatasetBuilder b("two-groups");
  const Timestamp duration = 14;
  for (Timestamp t = 0; t < duration; ++t) {
    // Group A: ids 0..2 around (t, 0); breaks apart at t in [6, 7].
    for (TrajectoryId id = 0; id < 3; ++id) {
      double dy = 0.1 * id;
      if ((t == 6 || t == 7) && id == 2) dy += 50.0;  // straggler
      b.Add(id, t, Point{static_cast<double>(t), dy});
    }
    // Group B: ids 3..5 around (0, t).
    for (TrajectoryId id = 3; id < 6; ++id) {
      b.Add(id, t, Point{100.0 + 0.1 * id, static_cast<double>(t)});
    }
    // Noise: ids 6..7 far away, moving apart.
    b.Add(6, t, Point{500.0 + 30.0 * t, 500.0});
    b.Add(7, t, Point{500.0, 900.0 - 30.0 * t});
  }
  return b.Finalize();
}

IcpeOptions BaseOptions() {
  IcpeOptions options;
  options.cluster_options.join =
      cluster::RangeJoinOptions{.grid_cell_width = 5.0, .eps = 1.0};
  options.cluster_options.dbscan = cluster::DbscanOptions{2};
  options.constraints = PatternConstraints{2, 4, 2, 2};
  options.parallelism = 3;
  return options;
}

TEST(IcpeEngine, FindsGroupPatternsEndToEnd) {
  const Dataset dataset = TwoGroupDataset();
  IcpeOptions options = BaseOptions();
  options.constraints = PatternConstraints{3, 4, 2, 2};
  const IcpeResult result = RunIcpe(dataset, options);
  const auto sets = ObjectSets(result.patterns);
  EXPECT_TRUE(sets.count({0, 1, 2}));
  EXPECT_TRUE(sets.count({3, 4, 5}));
  // Noise objects never pattern.
  for (const auto& objects : sets) {
    EXPECT_FALSE(std::binary_search(objects.begin(), objects.end(), 6));
    EXPECT_FALSE(std::binary_search(objects.begin(), objects.end(), 7));
  }
  EXPECT_EQ(result.snapshot_count, 14);
  EXPECT_EQ(result.snapshots.snapshots, 14);
  EXPECT_GT(result.snapshots.throughput_tps, 0.0);
}

struct EngineConfig {
  EnumeratorKind enumerator;
  cluster::ClusteringMethod clustering;
  std::int32_t parallelism;
};

class IcpeEngineMatrix : public ::testing::TestWithParam<EngineConfig> {};

TEST_P(IcpeEngineMatrix, MatchesOfflineOracle) {
  const EngineConfig config = GetParam();
  const Dataset dataset = TwoGroupDataset();
  IcpeOptions options = BaseOptions();
  options.enumerator = config.enumerator;
  options.clustering = config.clustering;
  options.parallelism = config.parallelism;
  const IcpeResult result = RunIcpe(dataset, options);
  EXPECT_EQ(ObjectSets(result.patterns), OfflineOracle(dataset, options));
  // The merge of the per-subtask folds yields each object set once, in
  // ascending order, whatever the parallelism.
  for (std::size_t i = 1; i < result.patterns.size(); ++i) {
    EXPECT_LT(result.patterns[i - 1].objects, result.patterns[i].objects);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, IcpeEngineMatrix,
    ::testing::Values(
        EngineConfig{EnumeratorKind::kBA, cluster::ClusteringMethod::kRJC,
                     1},
        EngineConfig{EnumeratorKind::kFBA, cluster::ClusteringMethod::kRJC,
                     1},
        EngineConfig{EnumeratorKind::kVBA, cluster::ClusteringMethod::kRJC,
                     1},
        EngineConfig{EnumeratorKind::kFBA, cluster::ClusteringMethod::kSRJ,
                     2},
        EngineConfig{EnumeratorKind::kFBA, cluster::ClusteringMethod::kGDC,
                     3},
        EngineConfig{EnumeratorKind::kVBA, cluster::ClusteringMethod::kRJC,
                     4},
        EngineConfig{EnumeratorKind::kBA, cluster::ClusteringMethod::kRJC,
                     4}));

TEST(IcpeEngine, GeneratedWorkloadConsistentAcrossParallelism) {
  trajgen::BrinkhoffOptions gen;
  gen.object_count = 60;
  gen.duration = 40;
  gen.group_count = 5;
  gen.group_size = 5;
  gen.group_jitter = 2.0;
  const Dataset dataset = GenerateBrinkhoff(gen, 99);

  IcpeOptions options;
  options.cluster_options.join =
      cluster::RangeJoinOptions{.grid_cell_width = 60.0, .eps = 12.0};
  options.cluster_options.dbscan = cluster::DbscanOptions{3};
  options.constraints = PatternConstraints{3, 6, 3, 2};
  options.enumerator = EnumeratorKind::kFBA;

  options.parallelism = 1;
  const auto p1 = ObjectSets(RunIcpe(dataset, options).patterns);
  options.parallelism = 4;
  const auto p4 = ObjectSets(RunIcpe(dataset, options).patterns);
  options.enumerator = EnumeratorKind::kVBA;
  const auto v4 = ObjectSets(RunIcpe(dataset, options).patterns);

  EXPECT_EQ(p1, p4);
  EXPECT_EQ(p1, v4);
  EXPECT_FALSE(p1.empty());  // seeded groups must surface as patterns
}

TEST(IcpeEngine, CollectStatsExposesPerStageCounters) {
  const Dataset dataset = TwoGroupDataset();
  IcpeOptions options = BaseOptions();
  options.collect_stats = true;
  const IcpeResult result = RunIcpe(dataset, options);

  ASSERT_EQ(result.stage_stats.size(), 3u);
  EXPECT_EQ(result.stage_stats[0].stage, "source->assembler");
  EXPECT_EQ(result.stage_stats[1].stage, "assembler->cluster");
  EXPECT_EQ(result.stage_stats[2].stage, "cluster->enumerate");
  // Every record the source replayed crossed the first exchange.
  EXPECT_EQ(result.stage_stats[0].records_pushed,
            static_cast<std::int64_t>(dataset.records.size()));
  // All 14 snapshots crossed the assembler->cluster exchange.
  EXPECT_EQ(result.stage_stats[1].records_pushed, 14);
  for (const flow::StageStatsSnapshot& s : result.stage_stats) {
    EXPECT_EQ(s.records_pushed, s.records_popped) << s.stage;
    EXPECT_EQ(s.watermarks_pushed, s.watermarks_popped) << s.stage;
    EXPECT_EQ(s.queue_depth, 0) << s.stage;
    EXPECT_GT(s.max_queue_depth, 0) << s.stage;
  }
  // Percentile latencies accompany the paper's average/max.
  EXPECT_GT(result.snapshots.p50_latency_ms, 0.0);
  EXPECT_LE(result.snapshots.p50_latency_ms,
            result.snapshots.p99_latency_ms);
}

TEST(IcpeEngine, StatsOffByDefaultLeavesTableEmpty) {
  const Dataset dataset = TwoGroupDataset();
  const IcpeResult result = RunIcpe(dataset, BaseOptions());
  EXPECT_TRUE(result.stage_stats.empty());
}

TEST(IcpeEngine, ClusteringOnlyModeReportsMetrics) {
  const Dataset dataset = TwoGroupDataset();
  IcpeOptions options = BaseOptions();
  options.enumerator = EnumeratorKind::kNone;
  const IcpeResult result = RunIcpe(dataset, options);
  EXPECT_TRUE(result.patterns.empty());
  EXPECT_EQ(result.snapshots.snapshots, 14);
  EXPECT_GT(result.avg_cluster_ms, 0.0);
  EXPECT_GT(result.cluster_count, 0);
  EXPECT_GE(result.avg_cluster_size, 2.0);
}

TEST(IcpeEngine, EmptyDatasetRunsClean) {
  Dataset dataset;
  dataset.name = "empty";
  const IcpeResult result = RunIcpe(dataset, BaseOptions());
  EXPECT_TRUE(result.patterns.empty());
  EXPECT_EQ(result.snapshot_count, 0);
}

/// A 70-object Brinkhoff stream with six seeded groups, dense enough for
/// real batches on every exchange at parallelism 3.
Dataset BatchWorkload(std::uint64_t seed) {
  trajgen::BrinkhoffOptions gen;
  gen.object_count = 70;
  gen.duration = 45;
  gen.group_count = 6;
  gen.group_size = 5;
  return GenerateBrinkhoff(gen, seed);
}

IcpeOptions BatchOptions() {
  IcpeOptions options;
  options.cluster_options.join =
      cluster::RangeJoinOptions{.grid_cell_width = 70.0, .eps = 14.0};
  options.cluster_options.dbscan = cluster::DbscanOptions{3};
  options.constraints = PatternConstraints{3, 6, 2, 2};
  options.parallelism = 3;
  return options;
}

TEST(IcpeEngine, BatchSizeIsSemanticallyInvisible) {
  // Batched transfer must be a pure performance knob: identical pattern
  // sets, snapshot counts, and cluster counts for every batch size.
  // batch 1 is the true per-element path (BatchingSender forwards
  // straight to Exchange::Send).
  const Dataset dataset = BatchWorkload(43);
  IcpeOptions options = BatchOptions();
  options.exchange_batch_size = 1;
  const IcpeResult reference = RunIcpe(dataset, options);
  EXPECT_FALSE(reference.patterns.empty());
  for (const std::size_t batch : {std::size_t{2}, std::size_t{64},
                                  std::size_t{1024}}) {
    options.exchange_batch_size = batch;
    const IcpeResult batched = RunIcpe(dataset, options);
    EXPECT_EQ(ObjectSets(batched.patterns), ObjectSets(reference.patterns))
        << "batch=" << batch;
    EXPECT_EQ(batched.snapshot_count, reference.snapshot_count);
    EXPECT_EQ(batched.cluster_count, reference.cluster_count);
  }
}

TEST(IcpeEngine, BatchHistogramShowsAmortisedTransfers) {
  // With stats on and a real batch size, the hot exchanges must report
  // fewer lock round-trips than elements - and the histogram must account
  // for every batch.
  const Dataset dataset = BatchWorkload(47);
  IcpeOptions options = BatchOptions();
  options.collect_stats = true;
  options.exchange_batch_size = 64;
  const IcpeResult result = RunIcpe(dataset, options);
  ASSERT_FALSE(result.stage_stats.empty());
  bool saw_amortised = false;
  for (const flow::StageStatsSnapshot& s : result.stage_stats) {
    std::int64_t histogram_total = 0;
    for (const std::int64_t count : s.batch_size_histogram) {
      histogram_total += count;
    }
    EXPECT_EQ(histogram_total, s.batches_pushed) << s.stage;
    if (s.avg_batch_size > 1.5) saw_amortised = true;
  }
  EXPECT_TRUE(saw_amortised);
  // The source replays records in bulk: its exchange must see real
  // batches, not degenerate singletons.
  EXPECT_EQ(result.stage_stats[0].stage, "source->assembler");
  EXPECT_GT(result.stage_stats[0].avg_batch_size, 1.5);
}

}  // namespace
}  // namespace comove::core
