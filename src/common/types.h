#ifndef COMOVE_COMMON_TYPES_H_
#define COMOVE_COMMON_TYPES_H_

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/geometry.h"

/// \file
/// Core value types shared across the library: trajectory ids, discretised
/// time, GPS records, and snapshots (Definitions 1, 5, 6 of the paper).

namespace comove {

/// Identifier of a streaming trajectory (a moving object). 64-bit so
/// production id spaces (device ids, account ids) pass through without a
/// remapping layer; hot-path structures that want 32-bit keys (the radix
/// pair sort's packed key) check the actual range and fall back when an
/// id needs more than 32 bits.
using TrajectoryId = std::int64_t;

/// Discretised time index (Definition 1). Real clock times are mapped to
/// indices of fixed-duration intervals before any processing.
using Timestamp = std::int32_t;

/// Sentinel for "no previous report" in last-time synchronisation (§4).
inline constexpr Timestamp kNoTime = -1;

/// Sentinel watermark closing the stream ("no more snapshots ever"). It
/// is no valid record time: data times lie in [0, kEndOfStreamTime).
inline constexpr Timestamp kEndOfStreamTime =
    std::numeric_limits<Timestamp>::max();

/// A GPS record of one trajectory after discretisation, augmented with the
/// "last time" pointer of §4: the time of this trajectory's most recent
/// earlier report, or kNoTime for its first record. The pointer lets the
/// snapshot assembler decide whether the system must wait for a missing
/// report at an intermediate time.
struct GpsRecord {
  TrajectoryId id = 0;
  Point location;
  Timestamp time = 0;
  Timestamp last_time = kNoTime;
};

/// One trajectory's position within a single snapshot.
struct SnapshotEntry {
  TrajectoryId id = 0;
  Point location;
};

/// A snapshot S_t: the locations of all trajectories that reported at the
/// discretised time `time` (Definition 6).
struct Snapshot {
  Timestamp time = 0;
  std::vector<SnapshotEntry> entries;

  std::size_t size() const { return entries.size(); }
};

/// A pair of trajectories found within distance eps of each other at one
/// snapshot; the output unit of the range join (Definition 11).
struct NeighborPair {
  TrajectoryId a = 0;
  TrajectoryId b = 0;

  friend bool operator==(const NeighborPair& x, const NeighborPair& y) {
    return x.a == y.a && x.b == y.b;
  }
  friend bool operator<(const NeighborPair& x, const NeighborPair& y) {
    return x.a != y.a ? x.a < y.a : x.b < y.b;
  }
};

/// A cluster discovered by DBSCAN at one snapshot: member trajectory ids,
/// sorted ascending. Cluster ids are local to their snapshot.
struct Cluster {
  std::int32_t cluster_id = 0;
  std::vector<TrajectoryId> members;
};

/// All clusters of one snapshot (the "cluster snapshot" of Fig. 3).
struct ClusterSnapshot {
  Timestamp time = 0;
  std::vector<Cluster> clusters;
};

/// A detected co-movement pattern: object set plus the qualifying time
/// sequence (Definition 4). `objects` is sorted ascending.
struct CoMovementPattern {
  std::vector<TrajectoryId> objects;
  std::vector<Timestamp> times;

  friend bool operator==(const CoMovementPattern& x,
                         const CoMovementPattern& y) {
    return x.objects == y.objects && x.times == y.times;
  }
};

}  // namespace comove

#endif  // COMOVE_COMMON_TYPES_H_
