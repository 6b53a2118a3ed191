// A sorted, duplicate-free set of node ids over which a scoped
// ResourcePool allocates its dense per-node state. Domain controllers
// share one immutable cluster Topology and keep occupancy/version
// arrays only for the nodes they own, so creating or resizing a domain
// costs O(|footprint|), never O(cluster).
//
// Slot numbering: nodes().at(slot) ascends with NodeId, i.e. slots
// preserve topology order — iterating a scope visits nodes in exactly
// the order an unscoped scan of Topology::nodes() would, which is what
// keeps scoped and full-cluster decision sequences bit-identical.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "cluster/topology.h"

namespace harmony::cluster {

class NodeScope {
 public:
  static constexpr size_t kNoSlot = static_cast<size_t>(-1);

  NodeScope() = default;
  // Takes any node list; sorts and de-duplicates.
  explicit NodeScope(std::vector<NodeId> nodes);

  size_t size() const { return nodes_.size(); }
  bool empty() const { return nodes_.empty(); }
  const std::vector<NodeId>& nodes() const { return nodes_; }
  NodeId node_at(size_t slot) const { return nodes_[slot]; }

  // Dense index of `node`, or kNoSlot when outside the scope. Inline:
  // every scoped pool accessor on the decision path goes through it.
  size_t slot(NodeId node) const {
    auto it = std::lower_bound(nodes_.begin(), nodes_.end(), node);
    if (it == nodes_.end() || *it != node) return kNoSlot;
    return static_cast<size_t>(it - nodes_.begin());
  }
  bool contains(NodeId node) const { return slot(node) != kNoSlot; }

  // Union with `nodes`. Returns true when anything was added; slots of
  // pre-existing nodes may shift, so owners of slot-indexed arrays must
  // re-lay them out (ResourcePool::extend_scope does).
  bool extend(const std::vector<NodeId>& nodes);

 private:
  std::vector<NodeId> nodes_;
};

}  // namespace harmony::cluster
