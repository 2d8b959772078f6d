#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <vector>

#include "common/rng.h"
#include "common/time_sequence.h"
#include "pattern/baseline_enumerator.h"
#include "pattern/fixed_bit_enumerator.h"
#include "pattern/reference_enumerator.h"
#include "pattern/variable_bit_enumerator.h"

namespace comove::pattern {
namespace {

ClusterSnapshot Snap(Timestamp t,
                     std::vector<std::vector<TrajectoryId>> clusters) {
  ClusterSnapshot s;
  s.time = t;
  std::int32_t id = 0;
  for (auto& members : clusters) {
    std::sort(members.begin(), members.end());
    s.clusters.push_back(Cluster{id++, std::move(members)});
  }
  return s;
}

std::set<std::vector<TrajectoryId>> ObjectSets(
    const std::vector<CoMovementPattern>& patterns) {
  std::set<std::vector<TrajectoryId>> out;
  for (const auto& p : patterns) out.insert(p.objects);
  return out;
}

/// Runs one enumerator over the snapshots and returns deduplicated output.
template <typename Enumerator>
std::vector<CoMovementPattern> RunEnumerator(
    const std::vector<ClusterSnapshot>& snapshots,
    const PatternConstraints& c) {
  PatternCollector collector;
  Enumerator e(c, collector.AsSink());
  for (const ClusterSnapshot& s : snapshots) e.OnClusterSnapshot(s);
  e.Finish();
  return collector.Patterns();
}

/// Witness validation: every emitted time sequence must satisfy the
/// constraints and the object set must share a cluster at each time.
void CheckWitnesses(const std::vector<CoMovementPattern>& patterns,
                    const std::vector<ClusterSnapshot>& snapshots,
                    const PatternConstraints& c) {
  std::map<Timestamp, const ClusterSnapshot*> by_time;
  for (const auto& s : snapshots) by_time[s.time] = &s;
  for (const CoMovementPattern& p : patterns) {
    EXPECT_GE(static_cast<std::int32_t>(p.objects.size()), c.m);
    EXPECT_TRUE(SatisfiesKLG(p.times, c))
        << "invalid witness for a pattern of " << p.objects.size()
        << " objects";
    for (const Timestamp t : p.times) {
      auto it = by_time.find(t);
      ASSERT_NE(it, by_time.end());
      bool covered = false;
      for (const Cluster& cl : it->second->clusters) {
        if (std::includes(cl.members.begin(), cl.members.end(),
                          p.objects.begin(), p.objects.end())) {
          covered = true;
          break;
        }
      }
      EXPECT_TRUE(covered) << "objects not co-clustered at time " << t;
    }
  }
}

std::vector<ClusterSnapshot> PaperExampleStream() {
  // Reconstruction of the §3.1 running example: {o4,o5} and {o6,o7} are
  // CP(2,4,2,2) with T = <2..5>; {o4,o5,o6} is CP(3,4,2,2) with
  // T = <3,4,6,7> only.
  return {
      Snap(1, {{4, 5}, {6, 7}}),
      Snap(2, {{4, 5}, {6, 7}}),
      Snap(3, {{4, 5, 6, 7}}),
      Snap(4, {{4, 5, 6, 7}}),
      Snap(5, {{4, 5}, {6, 7}}),
      Snap(6, {{4, 5, 6, 7}}),
      Snap(7, {{4, 5, 6, 7}}),
  };
}

using EnumeratorFactory = std::unique_ptr<PatternEnumerator> (*)(
    const PatternConstraints&, PatternSink);

template <typename T>
std::unique_ptr<PatternEnumerator> Make(const PatternConstraints& c,
                                        PatternSink sink) {
  return std::make_unique<T>(c, std::move(sink));
}

struct NamedFactory {
  const char* name;
  EnumeratorFactory make;
};

/// gtest puts the printed parameter into the test ID; print the label
/// only, not the addresses of the label and the factory, so the IDs are
/// the same on every run.
void PrintTo(const NamedFactory& f, std::ostream* os) { *os << f.name; }

class AllEnumerators : public ::testing::TestWithParam<NamedFactory> {};

TEST_P(AllEnumerators, PaperExampleSizeTwoPatterns) {
  const PatternConstraints c{2, 4, 2, 2};
  PatternCollector collector;
  auto e = GetParam().make(c, collector.AsSink());
  for (const auto& s : PaperExampleStream()) e->OnClusterSnapshot(s);
  e->Finish();
  const auto sets = ObjectSets(collector.Patterns());
  EXPECT_TRUE(sets.count({4, 5}));
  EXPECT_TRUE(sets.count({6, 7}));
  // Reference agreement on the complete output.
  EXPECT_EQ(sets, ObjectSets(ReferenceEnumerate(PaperExampleStream(), c)));
  CheckWitnesses(collector.Patterns(), PaperExampleStream(), c);
}

TEST_P(AllEnumerators, PaperExampleSizeThreePattern) {
  const PatternConstraints c{3, 4, 2, 2};
  PatternCollector collector;
  auto e = GetParam().make(c, collector.AsSink());
  for (const auto& s : PaperExampleStream()) e->OnClusterSnapshot(s);
  e->Finish();
  const auto sets = ObjectSets(collector.Patterns());
  EXPECT_TRUE(sets.count({4, 5, 6}));
  EXPECT_EQ(sets, ObjectSets(ReferenceEnumerate(PaperExampleStream(), c)));
  CheckWitnesses(collector.Patterns(), PaperExampleStream(), c);
}

TEST_P(AllEnumerators, EmptyStream) {
  const PatternConstraints c{2, 2, 1, 1};
  PatternCollector collector;
  auto e = GetParam().make(c, collector.AsSink());
  e->Finish();
  EXPECT_EQ(collector.size(), 0u);
}

TEST_P(AllEnumerators, NoPatternWhenDurationTooShort) {
  const PatternConstraints c{2, 10, 2, 2};
  PatternCollector collector;
  auto e = GetParam().make(c, collector.AsSink());
  for (Timestamp t = 0; t < 5; ++t) {
    e->OnClusterSnapshot(Snap(t, {{1, 2, 3}}));
  }
  e->Finish();
  EXPECT_EQ(collector.size(), 0u);
}

TEST_P(AllEnumerators, GapLargerThanGSplitsPattern) {
  const PatternConstraints c{2, 4, 2, 2};
  std::vector<ClusterSnapshot> snaps;
  // Times 0,1 and 5,6: gap of 4 > G = 2 -> only 2+2 times per side < K.
  for (const Timestamp t : {0, 1, 5, 6}) {
    snaps.push_back(Snap(t, {{1, 2}}));
  }
  PatternCollector collector;
  auto e = GetParam().make(c, collector.AsSink());
  for (const auto& s : snaps) e->OnClusterSnapshot(s);
  e->Finish();
  EXPECT_EQ(collector.size(), 0u);
}

TEST_P(AllEnumerators, TimeGapsInClusterStreamHandled) {
  // The stream skips times entirely (no snapshot); enumerators must
  // synthesize the empties.
  const PatternConstraints c{2, 4, 2, 2};
  std::vector<ClusterSnapshot> snaps = {
      Snap(0, {{1, 2}}), Snap(1, {{1, 2}}),
      Snap(3, {{1, 2}}), Snap(4, {{1, 2}}),
  };
  PatternCollector collector;
  auto e = GetParam().make(c, collector.AsSink());
  for (const auto& s : snaps) e->OnClusterSnapshot(s);
  e->Finish();
  const auto sets = ObjectSets(collector.Patterns());
  EXPECT_EQ(sets, ObjectSets(ReferenceEnumerate(snaps, c)));
  EXPECT_TRUE(sets.count({1, 2}));  // T = {0,1,3,4} is 2-consecutive
}

INSTANTIATE_TEST_SUITE_P(
    Methods, AllEnumerators,
    ::testing::Values(
        NamedFactory{"BA", &Make<BaselineEnumerator>},
        NamedFactory{"FBA", &Make<FixedBitEnumerator>},
        NamedFactory{"VBA", &Make<VariableBitEnumerator>}),
    [](const ::testing::TestParamInfo<NamedFactory>& info) {
      return info.param.name;
    });

/// Random cluster streams with group churn, swept across constraint
/// combinations; all three enumerators must agree with the exhaustive
/// reference.
struct FuzzCase {
  std::uint64_t seed;
  std::int32_t m, k, l, g;
  int objects;
  int times;
  double presence;  ///< probability a group member is present at a time
};

class EnumeratorFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(EnumeratorFuzz, AllMethodsMatchReference) {
  const FuzzCase fc = GetParam();
  const PatternConstraints c{fc.m, fc.k, fc.l, fc.g};
  Rng rng(fc.seed);

  // Objects are statically split into 3 groups; at each time each group
  // member is present with probability `presence`, and present members of
  // a group form one cluster. This creates patterns with realistic churn.
  std::vector<ClusterSnapshot> snaps;
  for (Timestamp t = 0; t < fc.times; ++t) {
    std::vector<std::vector<TrajectoryId>> clusters(3);
    for (TrajectoryId id = 0; id < fc.objects; ++id) {
      if (rng.Bernoulli(fc.presence)) {
        clusters[static_cast<std::size_t>(id) % 3].push_back(id);
      }
    }
    std::vector<std::vector<TrajectoryId>> nonempty;
    for (auto& members : clusters) {
      if (!members.empty()) nonempty.push_back(std::move(members));
    }
    snaps.push_back(Snap(t, std::move(nonempty)));
  }

  const auto reference = ObjectSets(ReferenceEnumerate(snaps, c));
  const auto ba = RunEnumerator<BaselineEnumerator>(snaps, c);
  const auto fba = RunEnumerator<FixedBitEnumerator>(snaps, c);
  const auto vba = RunEnumerator<VariableBitEnumerator>(snaps, c);
  EXPECT_EQ(ObjectSets(ba), reference) << "BA";
  EXPECT_EQ(ObjectSets(fba), reference) << "FBA";
  EXPECT_EQ(ObjectSets(vba), reference) << "VBA";
  CheckWitnesses(ba, snaps, c);
  CheckWitnesses(fba, snaps, c);
  CheckWitnesses(vba, snaps, c);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EnumeratorFuzz,
    ::testing::Values(FuzzCase{101, 2, 3, 1, 1, 9, 20, 0.8},
                      FuzzCase{102, 2, 4, 2, 2, 9, 24, 0.85},
                      FuzzCase{103, 3, 4, 2, 2, 12, 24, 0.9},
                      FuzzCase{104, 3, 5, 2, 3, 12, 30, 0.8},
                      FuzzCase{105, 4, 6, 3, 2, 12, 30, 0.92},
                      FuzzCase{106, 2, 6, 2, 3, 9, 40, 0.75},
                      FuzzCase{107, 3, 8, 4, 2, 12, 40, 0.9},
                      FuzzCase{108, 2, 2, 2, 1, 6, 15, 0.7},
                      FuzzCase{109, 5, 4, 2, 2, 15, 25, 0.9},
                      FuzzCase{110, 2, 5, 5, 3, 9, 30, 0.85},
                      FuzzCase{111, 2, 3, 1, 3, 9, 50, 0.6},
                      FuzzCase{112, 4, 4, 4, 1, 12, 30, 0.95},
                      FuzzCase{113, 3, 6, 2, 4, 12, 45, 0.8},
                      FuzzCase{114, 2, 8, 2, 2, 6, 60, 0.9},
                      FuzzCase{115, 6, 4, 2, 2, 15, 25, 0.95}));

TEST(BaselineEnumerator, TracksLiveCandidateCount) {
  const PatternConstraints c{2, 4, 2, 2};
  PatternCollector collector;
  BaselineEnumerator e(c, collector.AsSink());
  e.OnClusterSnapshot(Snap(0, {{1, 2, 3, 4}}));
  // Partitions: P(1)={2,3,4}, P(2)={3,4}, P(3)={4} -> 7 + 3 + 1 subsets.
  EXPECT_EQ(e.live_candidates(), 11u);
  e.Finish();
  EXPECT_EQ(e.live_candidates(), 0u);
}

TEST(VariableBitEnumerator, CandidateCountGrowsAndResets) {
  const PatternConstraints c{2, 2, 1, 1};
  PatternCollector collector;
  VariableBitEnumerator e(c, collector.AsSink());
  for (Timestamp t = 0; t < 3; ++t) {
    e.OnClusterSnapshot(Snap(t, {{1, 2}}));
  }
  // Separate the episode by more than G so the string closes mid-stream.
  for (Timestamp t = 5; t < 8; ++t) {
    e.OnClusterSnapshot(Snap(t, {{7, 8}}));
  }
  EXPECT_GE(e.candidate_count(), 1u);
  e.Finish();
  EXPECT_TRUE(ObjectSets(collector.Patterns()).count({1, 2}));
  EXPECT_TRUE(ObjectSets(collector.Patterns()).count({7, 8}));
}

}  // namespace
}  // namespace comove::pattern
