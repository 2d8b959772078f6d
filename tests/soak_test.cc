/// End-to-end soak: the full pipeline over all three standard datasets
/// (small scale), cross-checked against the brute-force oracle, across
/// ordered and shuffled replay and both bit-compressed enumerators. Heavier
/// than the unit suites but still a few seconds in total.

#include <gtest/gtest.h>

#include <set>

#include "cluster/clustering.h"
#include "core/icpe_engine.h"
#include "flow/stage_stats.h"
#include "pattern/reference_enumerator.h"
#include "trajgen/standard_datasets.h"

namespace comove::core {
namespace {

std::set<std::vector<TrajectoryId>> ObjectSets(
    const std::vector<CoMovementPattern>& patterns) {
  std::set<std::vector<TrajectoryId>> out;
  for (const auto& p : patterns) out.insert(p.objects);
  return out;
}

class SoakAllDatasets
    : public ::testing::TestWithParam<trajgen::StandardDataset> {};

TEST_P(SoakAllDatasets, PipelineMatchesOracleInAllModes) {
  const trajgen::Dataset dataset =
      MakeStandardDataset(GetParam(), /*scale=*/0.05);
  const auto stats = dataset.ComputeStats();

  IcpeOptions options;
  options.cluster_options.join.eps = stats.MaxDistance() * 0.006;
  options.cluster_options.join.grid_cell_width =
      stats.MaxDistance() * 0.016;
  options.cluster_options.dbscan.min_pts = 4;
  options.constraints = PatternConstraints{3, 8, 2, 2};
  options.parallelism = 3;

  // Oracle: brute-force join + exhaustive enumeration.
  std::vector<ClusterSnapshot> clustered;
  for (const Snapshot& s : dataset.ToSnapshots()) {
    clustered.push_back(cluster::DbscanFromNeighbors(
        s, cluster::RangeJoinBrute(s, options.cluster_options.join.eps),
        options.cluster_options.dbscan));
  }
  const auto oracle = ObjectSets(
      pattern::ReferenceEnumerate(clustered, options.constraints));

  for (const auto kind :
       {EnumeratorKind::kFBA, EnumeratorKind::kVBA}) {
    for (const Timestamp shuffle : {Timestamp{0}, Timestamp{3}}) {
      options.enumerator = kind;
      options.replay_shuffle_window = shuffle;
      options.collect_stats = true;
      const IcpeResult result = RunIcpe(dataset, options);
      EXPECT_EQ(ObjectSets(result.patterns), oracle)
          << trajgen::StandardDatasetName(GetParam()) << " "
          << EnumeratorKindName(kind) << " shuffle=" << shuffle;
      // A drained pipeline leaves nothing queued: every depth gauge is
      // zero and every pushed element was popped, on every stage.
      EXPECT_EQ(result.stage_stats.size(), 3u);
      for (const flow::StageStatsSnapshot& s : result.stage_stats) {
        EXPECT_EQ(s.queue_depth, 0) << s.stage;
        EXPECT_EQ(s.records_pushed, s.records_popped) << s.stage;
        EXPECT_EQ(s.watermarks_pushed, s.watermarks_popped) << s.stage;
        EXPECT_GE(s.max_queue_depth, 0) << s.stage;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Datasets, SoakAllDatasets,
    ::testing::Values(trajgen::StandardDataset::kGeoLife,
                      trajgen::StandardDataset::kTaxi,
                      trajgen::StandardDataset::kBrinkhoff),
    [](const ::testing::TestParamInfo<trajgen::StandardDataset>& info) {
      return trajgen::StandardDatasetName(info.param);
    });

}  // namespace
}  // namespace comove::core
