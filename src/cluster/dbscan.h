#ifndef COMOVE_CLUSTER_DBSCAN_H_
#define COMOVE_CLUSTER_DBSCAN_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/types.h"

/// \file
/// DBSCAN (§3.2 / §5.3) evaluated on the output of a range join: once the
/// eps-neighbour pairs of a snapshot are known, cores, density
/// reachability and clusters follow in a single O(n + |pairs|) pass -
/// which is why the paper concentrates all indexing effort on the join.
///
/// The evaluation runs over flat arrays end to end: trajectory ids are
/// interned into dense indices with a sorted table (no per-snapshot hash
/// map), the adjacency is CSR (degree count -> prefix sum -> fill, a
/// two-pass counting sort over the pair list - no per-node vectors), and
/// the BFS walks the CSR arrays. All working memory lives in a reusable
/// DbscanScratch so the streaming hot path allocates nothing per snapshot
/// beyond the returned ClusterSnapshot.

namespace comove::cluster {

/// DBSCAN density parameters. A location is a core point when its
/// eps-neighbourhood (including itself, as in the reference algorithm)
/// contains at least min_pts locations.
struct DbscanOptions {
  std::int32_t min_pts = 10;
};

/// One interner row: a trajectory id and its index in the snapshot's
/// entry order. A plain struct (not std::pair) so it is trivially
/// copyable for the arena-backed buffers below.
struct DbscanIdIndex {
  TrajectoryId id;
  std::int32_t index;
};

/// One join pair re-expressed in dense snapshot indices.
struct DbscanEdge {
  std::int32_t a;
  std::int32_t b;
};

/// Reusable working memory for DbscanFromNeighbors, carved from one
/// Arena. Every buffer's size is known up front (n or |pairs|), so each
/// call rewinds the arena once and re-reserves every buffer in a single
/// bump - the steady state touches the same addresses every snapshot and
/// allocates nothing. Owned by one worker thread; not thread-safe.
struct DbscanScratch {
  Arena arena;
  /// Dense id interning: (trajectory id, snapshot index), sorted by id.
  /// Computed once per snapshot; lookups are binary searches over a flat
  /// array instead of hash probes.
  ArenaVector<DbscanIdIndex> interner;
  /// The join pairs re-expressed in dense indices (interned once, used by
  /// both CSR passes).
  ArenaVector<DbscanEdge> edges;
  ArenaVector<std::int32_t> offsets;    ///< CSR row offsets (n + 1)
  ArenaVector<std::int32_t> cursor;     ///< CSR fill cursors
  ArenaVector<std::int32_t> adjacency;  ///< CSR column indices (2 |pairs|)
  ArenaVector<std::int32_t> cluster_of;
  ArenaVector<std::int32_t> frontier;
  ArenaVector<std::uint8_t> core;

  /// Rewinds the arena (called once per DbscanFromNeighbors call = once
  /// per snapshot on a streaming worker).
  void BeginSnapshot() {
    arena.Reset();
    interner.Release();
    edges.Release();
    offsets.Release();
    cursor.Release();
    adjacency.Release();
    cluster_of.Release();
    frontier.Release();
    core.Release();
  }
};

/// Runs DBSCAN over one snapshot given its range-join result.
///
/// `pairs` must contain each unordered eps-neighbour pair exactly once
/// (the contract of RangeJoinRJC/SRJ/Brute). Clusters are connected
/// components of core points plus their density-reachable border points;
/// a border point reachable from several clusters is assigned to the one
/// with the smallest cluster id, matching the deterministic single-
/// assignment of classic DBSCAN. Noise points appear in no cluster.
/// Cluster members are sorted ascending; clusters are ordered by their
/// smallest member and numbered 0, 1, ... within the snapshot.
ClusterSnapshot DbscanFromNeighbors(const Snapshot& snapshot,
                                    const std::vector<NeighborPair>& pairs,
                                    const DbscanOptions& options);

/// DbscanFromNeighbors reusing `scratch` across snapshots (the streaming
/// hot-path form); identical output to the allocating overload.
ClusterSnapshot DbscanFromNeighbors(const Snapshot& snapshot,
                                    const std::vector<NeighborPair>& pairs,
                                    const DbscanOptions& options,
                                    DbscanScratch& scratch);

}  // namespace comove::cluster

#endif  // COMOVE_CLUSTER_DBSCAN_H_
