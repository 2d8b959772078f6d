#ifndef COMOVE_CLUSTER_RANGE_JOIN_H_
#define COMOVE_CLUSTER_RANGE_JOIN_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cluster/grid_object.h"
#include "cluster/join_kernel.h"
#include "common/types.h"
#include "index/grid_index.h"
#include "index/rtree.h"

/// \file
/// GR-index based range join (§5.2), decomposed into the paper's three
/// steps; each cluster subtask runs all three on its snapshot:
///
///   GridAllocate  - computes GridObjects (replication plan). With Lemma 1
///                   a location is only replicated to cells intersecting
///                   the *upper half* of its range region.
///   GridQuery     - per-cell processing. With Lemma 2 each data object is
///                   queried against the index *before* insertion, which
///                   yields every within-cell pair exactly once without
///                   building the index up front.
///   GridSync      - merges per-cell outputs (plus canonicalisation); here
///                   SortUniquePairs over the appended per-cell pairs.
///
/// GridQuery runs one of two kernels (RangeJoinOptions::kernel): the
/// default flat plane sweep over sorted SoA columns (join_kernel.h), or
/// the literal per-object R-tree probes. Both produce the same pair set;
/// the R-tree path stays selectable for the lemma ablation benches.
///
/// All functions report each unordered neighbour pair {a, b} (a < b)
/// exactly once, excluding self pairs.

namespace comove::cluster {

/// Knobs of the range join.
struct RangeJoinOptions {
  double grid_cell_width = 1.0;  ///< lg
  double eps = 0.1;              ///< distance threshold
  DistanceMetric metric = DistanceMetric::kL1;  ///< refinement metric
  JoinKernel kernel = JoinKernel::kSweep;  ///< per-cell execution kernel
  /// SIMD dispatch of the sweep kernel and the radix sort (see
  /// ResolveSimdLevel). Pure performance knob - every level emits the
  /// identical pair set - so it is excluded from checkpoint fingerprints
  /// like the other tuning fields.
  SimdLevel simd = SimdLevel::kAuto;
  RTreeOptions rtree;            ///< local index tuning (kRTree kernel)
  /// Snapshot-to-snapshot delta path: per-cell memoisation keyed on the
  /// cell's exact GridObject bucket (see CellDeltaCache). Pure performance
  /// knob - the pair set is bit-identical either way - so it is excluded
  /// from checkpoint fingerprints like the other tuning fields.
  bool incremental = false;
};

/// Ablation switches; production RJC uses both lemmas.
struct RangeJoinVariant {
  bool use_lemma1 = true;  ///< upper-half replication
  bool use_lemma2 = true;  ///< query-before-insert during build
};

/// Per-cell working memory of GridQuery, covering both kernels: the
/// R-tree (constructed lazily, pages recycled via RTree::Clear) and the
/// sweep kernel's SoA buffers. One instance serves every cell a worker
/// processes; not thread-safe.
struct CellQueryScratch {
  std::optional<RTree> tree;  ///< kRTree kernel; lazily built from options
  SweepCell sweep;            ///< kSweep kernel SoA columns
};

/// Per-cell memo of the incremental delta path. For every grid cell the
/// cache keeps the exact GridObject bucket GridQuery last consumed and
/// the pairs it produced. A cell's bucket is the COMPLETE input of
/// GridQuery - data objects plus the Lemma 1 query replicas shipped in
/// from neighbouring cells - so bucket equality implies the cached pairs
/// are exactly what a re-sweep would emit, and a moved object dirties its
/// home cell and every cell it replicates into, which is precisely the
/// Lemma-1 neighbourhood that must be re-swept. Comparison is
/// order-sensitive and bitwise on coordinates: conservative (a reordered
/// but equal bucket just re-sweeps), never unsound.
///
/// Entries untouched for kEvictAfterEpochs join calls are dropped, so a
/// trajectory fleet drifting across the plane cannot grow the cache
/// without bound. The cache is pure derived state: it is never
/// checkpointed, and a worker restored from a snapshot simply starts
/// cold (see IcpeEngine recovery).
struct CellDeltaCache {
  /// A cached entry survives this many snapshots without its cell being
  /// occupied before eviction: long enough that a cell briefly emptying
  /// (a fleet passing through) keeps its memo, short enough that a fleet
  /// drifting across the plane leaves no unbounded trail.
  static constexpr std::uint64_t kEvictAfterEpochs = 64;

  struct Entry {
    std::vector<GridObject> bucket;   ///< input of the last real sweep
    std::vector<NeighborPair> pairs;  ///< output of that sweep
    std::uint64_t last_used = 0;      ///< epoch stamp for eviction
  };
  std::unordered_map<GridKey, Entry, GridKeyHash> entries;
  /// Evicted entries parked for reuse: their bucket/pair capacity goes to
  /// the next cell that enters the cache instead of back to the heap, so
  /// a fleet drifting across the grid churns no per-cell allocations.
  std::vector<Entry> pool;
  /// Pool size cap; beyond this, evicted entries really are freed.
  static constexpr std::size_t kMaxPooledEntries = 256;
  std::uint64_t epoch = 0;  ///< one tick per join call on this scratch

  // Lifetime counters (monotonic; read by IcpeResult / benches).
  std::uint64_t cells_seen = 0;      ///< occupied cells across all calls
  std::uint64_t cells_replayed = 0;  ///< of those, served from the cache

  /// Ticks the epoch; call once per snapshot before the QueryCell calls.
  void BeginSnapshot() { ++epoch; }

  /// Per-cell cached GridQuery: appends the cell's pairs to `out`,
  /// replaying the cached list when the bucket is unchanged since the
  /// last real sweep and re-sweeping (re-memoising) otherwise.
  /// `cell_objects` is consumed (left cleared-or-swapped; the caller
  /// clears it afterwards either way).
  void QueryCell(std::vector<GridObject>& cell_objects, const GridKey& key,
                 const RangeJoinOptions& options, bool use_lemma2,
                 CellQueryScratch& kernel, std::vector<NeighborPair>& out);

  /// Evicts entries whose cell has been unoccupied for kEvictAfterEpochs
  /// snapshots; amortised (the scan runs once per eviction period). Call
  /// once per snapshot after the QueryCell calls.
  void EndSnapshot();
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
/// cell, per-cell kernel state, and the result vector - every snapshot. A
/// worker that keeps a JoinScratch across snapshots instead reuses all of
/// that capacity: vectors are cleared but not freed, the cell map keeps
/// its buckets (trajectories revisit the same cells), the R-tree recycles
/// its pages (RTree::Clear), and the grid geometry is validated and
/// derived once. Owned by one worker thread; not thread-safe. Assumes
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
  CellQueryScratch cell;                ///< per-cell kernel working memory
  CellDeltaCache delta;  ///< per-cell memo (options.incremental only)
};

/// GridAllocate (Algorithm 1): emits the GridObjects of `snapshot`. With
/// `use_lemma1` the query replication covers only the upper half of each
/// range region; otherwise the full region (the SRJ scheme). The join
/// itself (RunJoin) fuses this pass with the bucketing by cell.
std::vector<GridObject> GridAllocate(const Snapshot& snapshot,
                                     const RangeJoinOptions& options,
                                     bool use_lemma1 = true);

/// GridQuery (Algorithm 2) for the GridObjects of ONE grid cell, run with
/// the kernel selected by `options.kernel`.
///
/// With `use_lemma2`, data objects are processed query-then-insert; query
/// objects are answered against the finished data set with the Lemma 1
/// half-space predicate (strictly-above, or same-y right-of tiebreak) so
/// cross-cell pairs appear exactly once. Without `use_lemma2` every
/// object runs its full-region query against all data; the caller must
/// then deduplicate (SortUniquePairs does).
///
/// `cell_objects` may interleave data and query objects in any order.
/// `scratch` holds the selected kernel's state across cells (recycled
/// R-tree pages or SoA buffers), and pairs are APPENDED to `out` - callers
/// chain all cells of a snapshot into one result vector without a
/// per-cell allocation.
void GridQuery(const std::vector<GridObject>& cell_objects,
               const RangeJoinOptions& options, bool use_lemma2,
               CellQueryScratch& scratch, std::vector<NeighborPair>& out);

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
