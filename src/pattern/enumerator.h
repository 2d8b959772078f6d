#ifndef COMOVE_PATTERN_ENUMERATOR_H_
#define COMOVE_PATTERN_ENUMERATOR_H_

#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "common/constraints.h"
#include "common/types.h"

/// \file
/// Common interface of the three pattern-enumeration algorithms (§6):
/// BA (baseline), FBA (fixed-length bit compression) and VBA
/// (variable-length bit compression). An enumerator consumes cluster
/// snapshots in ascending time order and emits co-movement patterns to a
/// sink callback as soon as the algorithm can prove them.

namespace comove::pattern {

/// Receives detected patterns. May be called multiple times for the same
/// object set (different start times can re-discover a pattern); use
/// PatternCollector when a deduplicated result set is wanted.
using PatternSink = std::function<void(const CoMovementPattern&)>;

/// Streaming pattern enumerator. Implementations are single-threaded;
/// the engine runs one instance per subtask (per id-hash slice).
class PatternEnumerator {
 public:
  virtual ~PatternEnumerator() = default;

  /// Feeds the cluster snapshot of the next time. Calls must be in
  /// strictly ascending time order; skipped times are treated as empty
  /// snapshots internally.
  virtual void OnClusterSnapshot(const ClusterSnapshot& snapshot) = 0;

  /// Signals end of stream; flushes every still-open verification.
  virtual void Finish() = 0;
};

/// Convenience sink that deduplicates by object set, keeping the longest
/// witness time sequence seen for each set.
class PatternCollector {
 public:
  PatternSink AsSink() {
    return [this](const CoMovementPattern& p) { Add(p); };
  }

  void Add(const CoMovementPattern& p) {
    auto [it, inserted] = patterns_.try_emplace(p.objects, p);
    if (!inserted && p.times.size() > it->second.times.size()) {
      it->second = p;
    }
  }

  /// Deduplicated patterns ordered by object set.
  std::vector<CoMovementPattern> Patterns() const {
    std::vector<CoMovementPattern> out;
    out.reserve(patterns_.size());
    for (const auto& [objects, p] : patterns_) out.push_back(p);
    return out;
  }

  /// In-place view of the deduplicated patterns, ordered by object set —
  /// for callers (checkpoint serialisation) that must not pay Patterns()'s
  /// deep copy.
  const std::map<std::vector<TrajectoryId>, CoMovementPattern>& entries()
      const {
    return patterns_;
  }

  std::size_t size() const { return patterns_.size(); }

  /// Moves the deduplicated patterns out, ordered by object set, and
  /// leaves the collector empty.
  std::map<std::vector<TrajectoryId>, CoMovementPattern> TakeEntries() {
    return std::exchange(patterns_, {});
  }

 private:
  std::map<std::vector<TrajectoryId>, CoMovementPattern> patterns_;
};

}  // namespace comove::pattern

#endif  // COMOVE_PATTERN_ENUMERATOR_H_
