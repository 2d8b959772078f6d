#include "index/rtree.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.h"

namespace comove {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

/// One R-tree page. Leaf pages (level 0) store points and payload ids;
/// internal pages store child pages. `mbr` always covers the subtree.
struct RTree::Node {
  Rect mbr = Rect::Empty();
  Node* parent = nullptr;
  std::int32_t level = 0;  // 0 = leaf

  std::vector<Point> points;
  std::vector<TrajectoryId> ids;
  std::vector<std::unique_ptr<Node>> children;

  bool is_leaf() const { return level == 0; }

  std::size_t entry_count() const {
    return is_leaf() ? points.size() : children.size();
  }

  Rect EntryMbr(std::size_t i) const {
    return is_leaf() ? Rect::FromPoint(points[i]) : children[i]->mbr;
  }

  void RecomputeMbr() {
    mbr = Rect::Empty();
    for (std::size_t i = 0; i < entry_count(); ++i) {
      mbr.ExpandToInclude(EntryMbr(i));
    }
  }
};

RTree::RTree(RTreeOptions options) : options_(options) {
  COMOVE_CHECK(options_.IsValid());
}

RTree::~RTree() = default;
RTree::RTree(RTree&&) noexcept = default;
RTree& RTree::operator=(RTree&&) noexcept = default;

std::unique_ptr<RTree::Node> RTree::AcquireNode(std::int32_t level) {
  std::unique_ptr<Node> node;
  if (!page_pool_.empty()) {
    node = std::move(page_pool_.back());
    page_pool_.pop_back();
    // Recycled pages keep the capacity of their entry arrays - that is
    // the point of the pool - but start logically empty.
    node->mbr = Rect::Empty();
    node->parent = nullptr;
    node->points.clear();
    node->ids.clear();
  } else {
    node = std::make_unique<Node>();
  }
  node->level = level;
  return node;
}

void RTree::ReleaseSubtree(std::unique_ptr<Node> node) {
  std::vector<std::unique_ptr<Node>> stack;
  stack.push_back(std::move(node));
  while (!stack.empty()) {
    std::unique_ptr<Node> page = std::move(stack.back());
    stack.pop_back();
    for (auto& child : page->children) stack.push_back(std::move(child));
    page->children.clear();
    page_pool_.push_back(std::move(page));
  }
}

void RTree::Clear() {
  if (root_ != nullptr) ReleaseSubtree(std::move(root_));
  size_ = 0;
}

RTree::Node* RTree::ChooseSubtree(const Rect& mbr, std::int32_t target_level) {
  Node* node = root_.get();
  while (node->level > target_level) {
    // R* heuristic: when the children are leaves, minimise overlap
    // enlargement; higher up, minimise area enlargement.
    const bool children_are_leaves = node->level == 1;
    std::size_t best = 0;
    double best_primary = kInf;
    double best_secondary = kInf;
    double best_area = kInf;
    for (std::size_t i = 0; i < node->children.size(); ++i) {
      const Node& child = *node->children[i];
      Rect enlarged = child.mbr;
      enlarged.ExpandToInclude(mbr);
      const double area = child.mbr.Area();
      const double area_enlargement = enlarged.Area() - area;
      double primary;
      if (children_are_leaves) {
        double overlap_before = 0.0;
        double overlap_after = 0.0;
        for (std::size_t j = 0; j < node->children.size(); ++j) {
          if (j == i) continue;
          overlap_before += child.mbr.OverlapArea(node->children[j]->mbr);
          overlap_after += enlarged.OverlapArea(node->children[j]->mbr);
        }
        primary = overlap_after - overlap_before;
      } else {
        primary = area_enlargement;
      }
      const double secondary = children_are_leaves ? area_enlargement : area;
      if (primary < best_primary ||
          (primary == best_primary && secondary < best_secondary) ||
          (primary == best_primary && secondary == best_secondary &&
           area < best_area)) {
        best = i;
        best_primary = primary;
        best_secondary = secondary;
        best_area = area;
      }
    }
    node = node->children[best].get();
  }
  return node;
}

void RTree::Insert(const Point& p, TrajectoryId id) {
  if (root_ == nullptr) {
    root_ = AcquireNode(/*level=*/0);
  }
  Node* leaf = ChooseSubtree(Rect::FromPoint(p), /*target_level=*/0);
  leaf->points.push_back(p);
  leaf->ids.push_back(id);
  leaf->mbr.ExpandToInclude(p);
  AdjustUpward(leaf->parent);
  ++size_;
  if (leaf->entry_count() > static_cast<std::size_t>(options_.max_entries)) {
    HandleOverflow(leaf, options_.enable_reinsert);
  }
}

void RTree::HandleOverflow(Node* node, bool allow_reinsert) {
  // R* forced reinsertion: on the first overflow of a leaf (and only once
  // per Insert), evict the entries farthest from the node centre and
  // reinsert them; this defers splits and improves clustering. Internal
  // overflows always split (a common leaf-only-reinsert simplification).
  if (allow_reinsert && node->is_leaf() && node->parent != nullptr) {
    ReinsertEntries(node);
    return;
  }
  SplitNode(node);
}

void RTree::ReinsertEntries(Node* node) {
  const Point center = node->mbr.Center();
  const std::size_t n = node->points.size();
  const std::size_t reinsert_count = std::max<std::size_t>(1, (n * 3) / 10);

  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return L2Distance(node->points[a], center) >
           L2Distance(node->points[b], center);
  });

  std::vector<Point> evicted_points;
  std::vector<TrajectoryId> evicted_ids;
  std::vector<bool> evict(n, false);
  for (std::size_t i = 0; i < reinsert_count; ++i) {
    evict[order[i]] = true;
    evicted_points.push_back(node->points[order[i]]);
    evicted_ids.push_back(node->ids[order[i]]);
  }
  std::vector<Point> kept_points;
  std::vector<TrajectoryId> kept_ids;
  for (std::size_t i = 0; i < n; ++i) {
    if (!evict[i]) {
      kept_points.push_back(node->points[i]);
      kept_ids.push_back(node->ids[i]);
    }
  }
  node->points = std::move(kept_points);
  node->ids = std::move(kept_ids);
  node->RecomputeMbr();
  AdjustUpward(node->parent);

  // Close reinsertion (farthest first already ordered): entries re-enter
  // through the normal path, but further overflows split immediately.
  for (std::size_t i = 0; i < evicted_points.size(); ++i) {
    Node* leaf = ChooseSubtree(Rect::FromPoint(evicted_points[i]), 0);
    leaf->points.push_back(evicted_points[i]);
    leaf->ids.push_back(evicted_ids[i]);
    leaf->mbr.ExpandToInclude(evicted_points[i]);
    AdjustUpward(leaf->parent);
    if (leaf->entry_count() >
        static_cast<std::size_t>(options_.max_entries)) {
      HandleOverflow(leaf, /*allow_reinsert=*/false);
    }
  }
}

namespace {

/// A detachable node entry used during splits, covering both leaf entries
/// (point + id) and internal entries (child page).
struct SplitEntry {
  Rect mbr;
  Point point;
  TrajectoryId id = 0;
  std::unique_ptr<RTree::Node> child;
};

double MarginOfPrefix(const std::vector<SplitEntry>& entries,
                      std::size_t begin, std::size_t end) {
  Rect r = Rect::Empty();
  for (std::size_t i = begin; i < end; ++i) r.ExpandToInclude(entries[i].mbr);
  return r.Perimeter();
}

Rect MbrOfRange(const std::vector<SplitEntry>& entries, std::size_t begin,
                std::size_t end) {
  Rect r = Rect::Empty();
  for (std::size_t i = begin; i < end; ++i) r.ExpandToInclude(entries[i].mbr);
  return r;
}

}  // namespace

void RTree::SplitNode(Node* node) {
  const std::size_t total = node->entry_count();
  const std::size_t min_fill = static_cast<std::size_t>(options_.min_entries);
  COMOVE_CHECK(total > static_cast<std::size_t>(options_.max_entries));

  // Detach all entries.
  std::vector<SplitEntry> entries;
  entries.reserve(total);
  if (node->is_leaf()) {
    for (std::size_t i = 0; i < total; ++i) {
      SplitEntry e;
      e.mbr = Rect::FromPoint(node->points[i]);
      e.point = node->points[i];
      e.id = node->ids[i];
      entries.push_back(std::move(e));
    }
    node->points.clear();
    node->ids.clear();
  } else {
    for (auto& child : node->children) {
      SplitEntry e;
      e.mbr = child->mbr;
      e.child = std::move(child);
      entries.push_back(std::move(e));
    }
    node->children.clear();
  }

  // R* split: choose the axis with minimal total margin over all valid
  // distributions (entries sorted by MBR centre along the axis), then the
  // distribution with minimal overlap (ties: minimal total area).
  double best_axis_margin = kInf;
  int best_axis = 0;
  for (int axis = 0; axis < 2; ++axis) {
    std::sort(entries.begin(), entries.end(),
              [axis](const SplitEntry& a, const SplitEntry& b) {
                const Point ca = a.mbr.Center();
                const Point cb = b.mbr.Center();
                return axis == 0 ? ca.x < cb.x : ca.y < cb.y;
              });
    double margin_sum = 0.0;
    for (std::size_t k = min_fill; k + min_fill <= total; ++k) {
      margin_sum += MarginOfPrefix(entries, 0, k) +
                    MarginOfPrefix(entries, k, total);
    }
    if (margin_sum < best_axis_margin) {
      best_axis_margin = margin_sum;
      best_axis = axis;
    }
  }
  std::sort(entries.begin(), entries.end(),
            [best_axis](const SplitEntry& a, const SplitEntry& b) {
              const Point ca = a.mbr.Center();
              const Point cb = b.mbr.Center();
              return best_axis == 0 ? ca.x < cb.x : ca.y < cb.y;
            });

  std::size_t best_k = min_fill;
  double best_overlap = kInf;
  double best_area = kInf;
  for (std::size_t k = min_fill; k + min_fill <= total; ++k) {
    const Rect left = MbrOfRange(entries, 0, k);
    const Rect right = MbrOfRange(entries, k, total);
    const double overlap = left.OverlapArea(right);
    const double area = left.Area() + right.Area();
    if (overlap < best_overlap ||
        (overlap == best_overlap && area < best_area)) {
      best_overlap = overlap;
      best_area = area;
      best_k = k;
    }
  }

  // Build the sibling and refill both nodes.
  std::unique_ptr<Node> sibling = AcquireNode(node->level);
  auto refill = [](Node* dst, std::vector<SplitEntry>& src, std::size_t begin,
                   std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      if (dst->is_leaf()) {
        dst->points.push_back(src[i].point);
        dst->ids.push_back(src[i].id);
      } else {
        src[i].child->parent = dst;
        dst->children.push_back(std::move(src[i].child));
      }
    }
    dst->RecomputeMbr();
  };
  refill(node, entries, 0, best_k);
  refill(sibling.get(), entries, best_k, total);

  if (node->parent == nullptr) {
    // Split of the root: grow the tree by one level.
    std::unique_ptr<Node> new_root = AcquireNode(node->level + 1);
    std::unique_ptr<Node> old_root = std::move(root_);
    old_root->parent = new_root.get();
    sibling->parent = new_root.get();
    new_root->children.push_back(std::move(old_root));
    new_root->children.push_back(std::move(sibling));
    new_root->RecomputeMbr();
    root_ = std::move(new_root);
    return;
  }

  Node* parent = node->parent;
  sibling->parent = parent;
  parent->children.push_back(std::move(sibling));
  AdjustUpward(parent);
  if (parent->entry_count() >
      static_cast<std::size_t>(options_.max_entries)) {
    SplitNode(parent);
  }
}

void RTree::AdjustUpward(Node* node) {
  while (node != nullptr) {
    node->RecomputeMbr();
    node = node->parent;
  }
}

void RTree::QueryRect(const Rect& region,
                      std::vector<TrajectoryId>* out) const {
  QueryRect(region,
            [out](TrajectoryId id, const Point&) { out->push_back(id); });
}

void RTree::QueryRect(
    const Rect& region,
    const std::function<void(TrajectoryId, const Point&)>& fn) const {
  if (root_ == nullptr) return;
  std::vector<const Node*> stack = {root_.get()};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    if (!node->mbr.Intersects(region)) continue;
    if (node->is_leaf()) {
      for (std::size_t i = 0; i < node->points.size(); ++i) {
        if (region.Contains(node->points[i])) {
          fn(node->ids[i], node->points[i]);
        }
      }
    } else {
      for (const auto& child : node->children) {
        if (child->mbr.Intersects(region)) stack.push_back(child.get());
      }
    }
  }
}

void RTree::QueryRange(const Point& center, double eps,
                       std::vector<TrajectoryId>* out) const {
  QueryRect(Rect::RangeRegion(center, eps),
            [&](TrajectoryId id, const Point& p) {
              if (L1Distance(center, p) <= eps) out->push_back(id);
            });
}

std::int32_t RTree::Height() const {
  return root_ == nullptr ? 0 : root_->level + 1;
}

Rect RTree::BoundingBox() const {
  return root_ == nullptr ? Rect::Empty() : root_->mbr;
}

bool RTree::CheckInvariants() const {
  if (root_ == nullptr) return size_ == 0;
  std::size_t leaf_entries = 0;
  bool ok = true;
  std::vector<const Node*> stack = {root_.get()};
  while (!stack.empty() && ok) {
    const Node* node = stack.back();
    stack.pop_back();
    const std::size_t count = node->entry_count();
    if (count > static_cast<std::size_t>(options_.max_entries)) ok = false;
    // Non-root nodes must respect the minimum fill factor.
    if (node->parent != nullptr &&
        count < static_cast<std::size_t>(options_.min_entries)) {
      ok = false;
    }
    Rect computed = Rect::Empty();
    for (std::size_t i = 0; i < count; ++i) {
      computed.ExpandToInclude(node->EntryMbr(i));
    }
    if (!(computed == node->mbr)) ok = false;
    if (node->is_leaf()) {
      leaf_entries += count;
    } else {
      for (const auto& child : node->children) {
        if (child->parent != node) ok = false;
        if (child->level != node->level - 1) ok = false;
        stack.push_back(child.get());
      }
    }
  }
  return ok && leaf_entries == size_;
}

}  // namespace comove
