#ifndef COMOVE_CLUSTER_JOIN_KERNEL_H_
#define COMOVE_CLUSTER_JOIN_KERNEL_H_

#include <cstdint>
#include <vector>

#include "cluster/grid_object.h"
#include "common/arena.h"
#include "common/cpu_features.h"
#include "common/geometry.h"
#include "common/types.h"

/// \file
/// Flat plane-sweep join kernel: the per-cell execution path of the
/// GR-index range join (Algorithm 2). The paper probes a local R-tree
/// once per object; here the cell's objects are laid out in
/// structure-of-arrays form (separate x[] / y[] / id[] columns, data and
/// query roles split so the hot loops carry no role branch), sorted by y,
/// and joined with a plane sweep: advance a window while y_j - y_i <= eps,
/// refine candidates on the x band and the exact metric (WithinDistance).
/// The emitted pair SET equals the R-tree form's - closed-rect filter,
/// then the same refinement predicate - and RangeJoinBrute pins it.
///
/// Lemma semantics are reproduced exactly:
///  - Lemma 2 (query-before-insert): the data-data sweep pairs each data
///    object only with data objects earlier in the sorted order - the
///    sweep analogue of querying the partially built tree - yielding
///    every within-cell pair exactly once.
///  - Lemma 1 (half-space claim): query objects scan only data at
///    y >= their own y and keep the InUpperHalf tie-breaks, so each
///    cross-cell pair is claimed by exactly one side.
/// Without Lemma 2 the kernel mirrors the SRJ scheme: full-window scans
/// whose duplicates GridSync removes.
///
/// The refinement runs either as the scalar reference loops below or as
/// AVX2 kernels (simd_kernels.h) that apply the identical filter chain
/// four lanes at a time and mask-compress the survivors - same pair set
/// bit for bit, selected per call through ResolveSimdLevel. The SoA
/// columns live in a per-cell Arena (32-byte aligned, reset once per
/// snapshot), so the vector loads never split cache lines and the steady
/// state allocates nothing.

namespace comove::cluster {

/// True when the AVX2 kernels are usable here: compiled into the binary
/// AND supported by this CPU (with OS YMM state).
bool SimdKernelsAvailable();

/// Resolves a requested SimdLevel to the level that will actually run:
/// kScalar stays scalar; kAvx2 picks AVX2 when available and degrades to
/// scalar otherwise (so test matrices run anywhere).
SimdLevel ResolveSimdLevel(SimdLevel requested);

/// Canonicalises an unordered neighbour pair to a < b.
inline NeighborPair CanonicalPair(TrajectoryId a, TrajectoryId b) {
  return a < b ? NeighborPair{a, b} : NeighborPair{b, a};
}

/// Lemma 1 half-space predicate: `v` lies in the half of `q`'s range
/// region that q is responsible for. Strictly above; ties on y broken by
/// x, ties on both by id, so every cross-cell pair is claimed by exactly
/// one side even for coincident coordinates.
inline bool InUpperHalf(const Point& q, TrajectoryId q_id, const Point& v,
                        TrajectoryId v_id) {
  if (v.y != q.y) return v.y > q.y;
  if (v.x != q.x) return v.x > q.x;
  return v_id > q_id;
}

/// One object while sorting into SoA columns, held contiguously so the
/// sort touches no other memory (sorting these beats sorting indices
/// into the GridObject vector).
struct SweepSortRec {
  double y;
  double x;
  TrajectoryId id;
};

/// Reusable SoA buffers of the sweep kernel, carved from one Arena so
/// every column is 32-byte aligned for the AVX2 loads. One instance
/// serves every cell of every snapshot; BeginSnapshot() (called once per
/// snapshot by RunJoin) rewinds the arena and the high-water marks
/// re-reserve the full footprint in one bump each, so steady state
/// touches the same addresses every snapshot and allocates nothing.
/// Owned by one worker thread; not thread-safe.
struct SweepCell {
  Arena arena;
  // Data objects of the cell, sorted by y.
  ArenaVector<double> data_x;
  ArenaVector<double> data_y;
  ArenaVector<TrajectoryId> data_id;
  // Query objects of the cell, sorted by y.
  ArenaVector<double> query_x;
  ArenaVector<double> query_y;
  ArenaVector<TrajectoryId> query_id;
  // Sort scratch: one record per object of the role being built.
  ArenaVector<SweepSortRec> sort_recs;
  // Mask-compressed survivor indices of one sweep window (AVX2 path).
  ArenaVector<std::uint32_t> cand;
  // Fixed-size pair staging buffer of the AVX2 PairSink.
  ArenaVector<NeighborPair> pair_buf;

  /// Rewinds the arena; every vector above is re-reserved on next use.
  void BeginSnapshot() {
    arena.Reset();
    data_x.Release();
    data_y.Release();
    data_id.Release();
    query_x.Release();
    query_y.Release();
    query_id.Release();
    sort_recs.Release();
    cand.Release();
    pair_buf.Release();
  }
};

/// The per-cell query step of the range join (Algorithm 2) for ONE grid
/// cell: joins the cell's objects with the plane sweep, appending pairs to
/// `out` (callers chain all cells of a snapshot into one vector). With
/// `use_lemma2` emits every within-cell data pair exactly once plus each
/// query object's Lemma 1 half-space matches; without it emits
/// full-region matches from both sides (the SRJ scheme - GridSync
/// deduplicates). `cell_objects` may interleave data and query objects in
/// any order. `simd` selects the refinement implementation (resolved via
/// ResolveSimdLevel); the emitted pair set is identical at every level.
void SweepCellJoin(const std::vector<GridObject>& cell_objects, double eps,
                   DistanceMetric metric, bool use_lemma2, SimdLevel simd,
                   SweepCell& scratch, std::vector<NeighborPair>& out);

/// Reusable buffers of SortUniquePairs' radix sort: the digit histograms
/// (24 KiB for the narrow tier, grown to 1 MiB - 4 x 2^16 counters - the
/// first time the wide tier runs) and the two packed-key ping-pong
/// buffers of whichever tiers have run. Without it every call
/// re-allocates them; a worker keeps one across snapshots.
struct PairSortScratch {
  std::vector<std::uint32_t> counts;
  std::vector<std::uint32_t> keys32, keys32_tmp;  ///< narrow-tier keys
  std::vector<std::uint64_t> keys64, keys64_tmp;  ///< wide-tier keys
};

/// Canonical GridSync finalisation: sorts `pairs` lexicographically and
/// removes duplicates, exactly like `std::sort` + `std::unique` but fast
/// on large pair streams. The pairs are packed into integer keys, the
/// KEYS are radix-sorted (a quarter to half the scatter traffic of
/// moving 16-byte pairs), and the sorted keys are unpacked back into
/// `pairs` with duplicates dropped in the same pass. Two LSD tiers,
/// picked by the id range: ids below 2^16 (the common case) pack into
/// 32-bit keys sorted in three 11-bit passes whose count tables stay L1
/// resident; ids below 2^32 pack into 64-bit keys sorted in four 16-bit
/// passes. Constant-digit passes are skipped. Comparison sort remains the
/// fallback for small inputs, for negative ids, and for ids of 32+ bits
/// (the packed key would not preserve order). The wide tier's
/// pack-and-histogram pass runs vectorized when `simd` resolves to AVX2
/// (the narrow tier's L1-resident tables are faster scalar); the
/// resulting order is identical either way.
void SortUniquePairs(std::vector<NeighborPair>& pairs,
                     PairSortScratch& scratch,
                     SimdLevel simd = SimdLevel::kAvx2);

/// SortUniquePairs for callers that already hold an OR-fold of every id
/// that can appear in `pairs` (RunJoin folds the snapshot's ids while
/// bucketing - far fewer than the pair stream's). The fold picks the
/// radix tier, so it may be any conservative superset of the pair ids'
/// fold: extra high bits only demote to a wider (still correct) tier.
void SortUniquePairs(std::vector<NeighborPair>& pairs, TrajectoryId id_fold,
                     PairSortScratch& scratch, SimdLevel simd);

/// SortUniquePairs with call-local scratch (cold paths, tests).
void SortUniquePairs(std::vector<NeighborPair>& pairs);

}  // namespace comove::cluster

#endif  // COMOVE_CLUSTER_JOIN_KERNEL_H_
