#ifndef COMOVE_CORE_WIRE_CODECS_H_
#define COMOVE_CORE_WIRE_CODECS_H_

#include "core/state_serde.h"

/// \file
/// Codec policies plugging the pipeline's value types into the
/// payload-agnostic net transport (flow/net/wire.h expects
/// `Codec::Write(BinaryWriter*, const T&)` and
/// `bool Codec::Read(BinaryReader*, T*)`). They reuse the exact
/// state_serde encodings, so an element's bytes on the wire match its
/// bytes inside a checkpoint - one format to fuzz, one to version.
/// flow/ stays ignorant of core types; this header is the one place the
/// two meet.

namespace comove::core {

struct SnapshotCodec {
  static void Write(BinaryWriter* w, const Snapshot& s) {
    WriteSnapshot(w, s);
  }
  static bool Read(BinaryReader* r, Snapshot* out) {
    *out = ReadSnapshot(r);
    return r->ok();
  }
};

struct PartitionCodec {
  static void Write(BinaryWriter* w, const pattern::Partition& p) {
    WritePartition(w, p);
  }
  static bool Read(BinaryReader* r, pattern::Partition* out) {
    *out = ReadPartition(r);
    return r->ok();
  }
};

}  // namespace comove::core

#endif  // COMOVE_CORE_WIRE_CODECS_H_
