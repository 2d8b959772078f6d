#ifndef COMOVE_INDEX_RTREE_H_
#define COMOVE_INDEX_RTREE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/geometry.h"
#include "common/types.h"

/// \file
/// An in-memory R-tree over points with R*-style insertion heuristics
/// (Beckmann et al. [3] in the paper): ChooseSubtree by minimal overlap /
/// area enlargement, axis-and-distribution split selection, and forced
/// reinsertion on the first overflow of each level. The GR-index builds
/// one R-tree per grid cell per snapshot (§5.1); trees are insert-and-query
/// only and are discarded with the snapshot, so deletion is not provided.

namespace comove {

/// Tuning knobs for the R-tree. Defaults follow the R*-paper conventions
/// (40% minimum fill, 30% forced-reinsert share).
struct RTreeOptions {
  std::int32_t max_entries = 16;  ///< node capacity (>= 4)
  std::int32_t min_entries = 6;   ///< minimum fill after split (>= 2)
  bool enable_reinsert = true;    ///< R* forced reinsertion on overflow

  bool IsValid() const {
    return max_entries >= 4 && min_entries >= 2 &&
           min_entries <= max_entries / 2;
  }
};

/// Point R-tree keyed by TrajectoryId payloads.
class RTree {
 public:
  /// Opaque page type (defined in rtree.cc).
  struct Node;

  explicit RTree(RTreeOptions options = {});
  ~RTree();

  RTree(const RTree&) = delete;
  RTree& operator=(const RTree&) = delete;
  RTree(RTree&&) noexcept;
  RTree& operator=(RTree&&) noexcept;

  /// Inserts a point with its payload id.
  void Insert(const Point& p, TrajectoryId id);

  /// Removes every point but RETAINS the allocated pages (and their entry
  /// arrays) in an internal pool that subsequent Inserts draw from. The
  /// GR-index hot path builds one tree per cell per snapshot; a worker
  /// that Clear()s and refills a single RTree instead of constructing a
  /// fresh one reaches steady state with zero page allocations.
  void Clear();

  /// Collects payloads of all points inside the closed rectangle `region`.
  void QueryRect(const Rect& region,
                 std::vector<TrajectoryId>* out) const;

  /// Invokes `fn(id, point)` for every point inside `region`.
  void QueryRect(const Rect& region,
                 const std::function<void(TrajectoryId, const Point&)>& fn)
      const;

  /// Range query of Definition 10: payloads of all points with L1 distance
  /// to `center` at most `eps` (rectangle filter + exact L1 refinement).
  void QueryRange(const Point& center, double eps,
                  std::vector<TrajectoryId>* out) const;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Height of the tree; 0 for an empty tree, 1 for a single leaf root.
  std::int32_t Height() const;

  /// MBR of all indexed points (Rect::Empty() when empty).
  Rect BoundingBox() const;

  /// Verifies structural invariants (MBR containment, fill factors, uniform
  /// leaf depth). Returns false and stops at the first violation. Intended
  /// for tests.
  bool CheckInvariants() const;

 private:
  Node* ChooseSubtree(const Rect& mbr, std::int32_t target_level);
  void HandleOverflow(Node* node, bool allow_reinsert);
  void SplitNode(Node* node);
  void ReinsertEntries(Node* node);
  void AdjustUpward(Node* node);
  std::unique_ptr<Node> AcquireNode(std::int32_t level);
  void ReleaseSubtree(std::unique_ptr<Node> node);

  RTreeOptions options_;
  std::unique_ptr<Node> root_;
  std::size_t size_ = 0;
  std::vector<std::unique_ptr<Node>> page_pool_;  ///< recycled by Clear()
};

}  // namespace comove

#endif  // COMOVE_INDEX_RTREE_H_
