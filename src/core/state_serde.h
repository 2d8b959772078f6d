#ifndef COMOVE_CORE_STATE_SERDE_H_
#define COMOVE_CORE_STATE_SERDE_H_

#include <cstdint>

#include "common/serde.h"
#include "common/types.h"
#include "pattern/partition.h"

/// \file
/// Binary encodings of the pipeline value types that live inside operator
/// state at a checkpoint cut or cross a process boundary: snapshots,
/// partitions held in the enumerate stage's reorder buffer, and patterns.
/// Readers report corruption through the BinaryReader ok() flag - a
/// failed read yields a zero-valued object, never undefined behaviour.

namespace comove::core {

inline void WritePoint(BinaryWriter* w, const Point& p) {
  w->WriteDouble(p.x);
  w->WriteDouble(p.y);
}

inline Point ReadPoint(BinaryReader* r) {
  Point p;
  p.x = r->ReadDouble();
  p.y = r->ReadDouble();
  return p;
}

inline void WriteSnapshot(BinaryWriter* w, const Snapshot& s) {
  w->WriteI32(s.time);
  w->WriteU64(s.entries.size());
  for (const SnapshotEntry& e : s.entries) {
    w->WriteI64(e.id);
    WritePoint(w, e.location);
  }
}

inline Snapshot ReadSnapshot(BinaryReader* r) {
  Snapshot s;
  s.time = r->ReadI32();
  const std::uint64_t count = r->ReadU64();
  if (!r->ok() || count > r->remaining()) {
    // An entry count beyond the remaining bytes is corruption, and must
    // FAIL the reader - returning an empty snapshot with the reader
    // still ok would let a truncated wire element decode silently.
    r->MarkCorrupt();
    return {};
  }
  s.entries.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count && r->ok(); ++i) {
    SnapshotEntry e;
    e.id = r->ReadI64();
    e.location = ReadPoint(r);
    s.entries.push_back(e);
  }
  return r->ok() ? s : Snapshot{};
}

inline void WritePartition(BinaryWriter* w, const pattern::Partition& p) {
  w->WriteI64(p.owner);
  w->WriteI32(p.time);
  w->WriteIntVector(p.members);
}

inline pattern::Partition ReadPartition(BinaryReader* r) {
  pattern::Partition p;
  p.owner = r->ReadI64();
  p.time = r->ReadI32();
  p.members = r->ReadIntVector<TrajectoryId>();
  return p;
}

inline void WritePattern(BinaryWriter* w, const CoMovementPattern& p) {
  w->WriteIntVector(p.objects);
  w->WriteIntVector(p.times);
}

inline CoMovementPattern ReadPattern(BinaryReader* r) {
  CoMovementPattern p;
  p.objects = r->ReadIntVector<TrajectoryId>();
  p.times = r->ReadIntVector<Timestamp>();
  return p;
}

}  // namespace comove::core

#endif  // COMOVE_CORE_STATE_SERDE_H_
