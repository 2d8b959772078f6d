#ifndef COMOVE_CLUSTER_RANGE_JOIN_H_
#define COMOVE_CLUSTER_RANGE_JOIN_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "cluster/grid_object.h"
#include "cluster/join_kernel.h"
#include "common/types.h"
#include "index/grid_index.h"

/// \file
/// GR-index based range join (§5.2), decomposed into the paper's three
/// steps; each cluster subtask runs all three on its snapshot:
///
///   GridAllocate  - computes GridObjects (replication plan). With Lemma 1
///                   a location is only replicated to cells intersecting
///                   the *upper half* of its range region.
///   per-cell query (Algorithm 2) - SweepCellJoin (join_kernel.h) on each
///                   occupied cell. With Lemma 2 each data object is
///                   paired only with data before it, which yields every
///                   within-cell pair exactly once without building an
///                   index up front.
///   GridSync      - merges per-cell outputs (plus canonicalisation); here
///                   SortUniquePairs over the appended per-cell pairs.
///
/// The paper holds a local R-tree per cell; the plane sweep emits the
/// same pair set faster, so it is the only per-cell path (DESIGN.md §9).
///
/// All functions report each unordered neighbour pair {a, b} (a < b)
/// exactly once, excluding self pairs.

namespace comove::cluster {

/// Knobs of the range join.
struct RangeJoinOptions {
  double grid_cell_width = 1.0;  ///< lg
  double eps = 0.1;              ///< distance threshold
  DistanceMetric metric = DistanceMetric::kL1;  ///< refinement metric
  /// SIMD dispatch of the sweep kernel and the radix sort (see
  /// ResolveSimdLevel): the best available level by default, or pinned
  /// scalar. Pure performance knob - every level emits the identical pair
  /// set - so it is excluded from checkpoint fingerprints.
  SimdLevel simd = SimdLevel::kAvx2;
};

/// Ablation switches; production RJC uses both lemmas.
struct RangeJoinVariant {
  bool use_lemma1 = true;  ///< upper-half replication
  bool use_lemma2 = true;  ///< query-before-insert during build
};

/// Open-addressing map from grid cell to its persistent GridObject
/// bucket, used by RunJoin's bucketing pass. One linear-probe lookup per
/// object on the hot path - measurably faster than the node-based
/// std::unordered_map it replaces (one hash + pointer chase + possible
/// allocation per object). Entries are never removed and bucket storage
/// is stable, so buckets keep their capacity across snapshots exactly
/// like the map-based form did. The reference returned by BucketFor is
/// invalidated by the next BucketFor call that inserts a new cell.
class CellBucketMap {
 public:
  std::vector<GridObject>& BucketFor(const GridKey& key) {
    if ((occupied_ + 1) * 4 > slots_.size() * 3) Grow();
    Slot* s = Probe(key);
    if (s->bucket < 0) {
      s->key = key;
      s->bucket = static_cast<std::int32_t>(buckets_.size());
      buckets_.emplace_back();
      ++occupied_;
    }
    return buckets_[static_cast<std::size_t>(s->bucket)];
  }

 private:
  struct Slot {
    GridKey key;
    std::int32_t bucket = -1;  ///< index into buckets_; -1 = empty
  };

  Slot* Probe(const GridKey& key) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = GridKeyHash{}(key) & mask;
    while (slots_[i].bucket >= 0 && !(slots_[i].key == key)) {
      i = (i + 1) & mask;
    }
    return &slots_[i];
  }

  void Grow() {
    const std::size_t cap = slots_.empty() ? 512 : slots_.size() * 2;
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(cap, Slot{});
    for (const Slot& s : old) {
      if (s.bucket >= 0) *Probe(s.key) = s;
    }
  }

  std::vector<Slot> slots_;  ///< power-of-two table, load factor <= 3/4
  std::vector<std::vector<GridObject>> buckets_;
  std::size_t occupied_ = 0;
};

/// Reusable working memory for the per-snapshot range join. A streaming
/// pipeline joins one snapshot after another with the same options; a
/// fresh join allocates a GridObject vector, one bucket vector per touched
/// cell, the sweep kernel's columns, and the result vector - every
/// snapshot. A worker that keeps a JoinScratch across snapshots instead
/// reuses all of that capacity: vectors are cleared but not freed, the
/// cell map keeps its buckets (trajectories revisit the same cells), the
/// sweep columns rewind their arena, and the grid geometry is validated
/// and derived once. Owned by one worker thread; not thread-safe. Assumes
/// stable RangeJoinOptions across calls.
struct JoinScratch {
  std::optional<GridIndex> grid;  ///< derived once from the options
  /// Cell buckets, filled straight from the snapshot (fused GridAllocate
  /// + bucketing). Entries persist across snapshots with cleared vectors;
  /// `active_cells` lists the keys actually occupied by the current call.
  CellBucketMap cells;
  std::vector<GridKey> active_cells;
  std::vector<NeighborPair> pairs;  ///< join result of the last call
  PairSortScratch sort;             ///< radix sort keys + histograms
  SweepCell sweep;                  ///< per-cell kernel working memory
};

/// GridAllocate (Algorithm 1): emits the GridObjects of `snapshot`. With
/// `use_lemma1` the query replication covers only the upper half of each
/// range region; otherwise the full region (the SRJ scheme). The join
/// itself (RunJoin) fuses this pass with the bucketing by cell.
std::vector<GridObject> GridAllocate(const Snapshot& snapshot,
                                     const RangeJoinOptions& options,
                                     bool use_lemma1 = true);

/// The complete range join RJ(snapshot, eps) over the GR-index: the
/// production path with both lemmas, or an ablation variant.
std::vector<NeighborPair> RangeJoinRJC(const Snapshot& snapshot,
                                       const RangeJoinOptions& options,
                                       const RangeJoinVariant& variant = {});

/// RangeJoinRJC reusing `scratch` across snapshots. Returns the result in
/// scratch.pairs (valid until the next call on the same scratch).
const std::vector<NeighborPair>& RangeJoinRJC(const Snapshot& snapshot,
                                              const RangeJoinOptions& options,
                                              const RangeJoinVariant& variant,
                                              JoinScratch& scratch);

/// SRJ baseline [36]: full range-region replication, index-then-query,
/// deduplication at sync. No Lemma 1 / Lemma 2 savings.
std::vector<NeighborPair> RangeJoinSRJ(const Snapshot& snapshot,
                                       const RangeJoinOptions& options);

/// RangeJoinSRJ reusing `scratch`; same contract as the RJC overload.
const std::vector<NeighborPair>& RangeJoinSRJ(const Snapshot& snapshot,
                                              const RangeJoinOptions& options,
                                              JoinScratch& scratch);

/// O(n^2) reference join used by tests and tiny snapshots.
std::vector<NeighborPair> RangeJoinBrute(
    const Snapshot& snapshot, double eps,
    DistanceMetric metric = DistanceMetric::kL1);

}  // namespace comove::cluster

#endif  // COMOVE_CLUSTER_RANGE_JOIN_H_
