// Cluster model: nodes with a speed scaling factor relative to the
// paper's reference machine (a 400 MHz Pentium II), memory, an OS tag,
// and links with bandwidth/latency. The topology graph answers
// widest-path bandwidth queries between any two nodes (the matcher and
// the default performance model) and routes flows along the widest path
// (the simulator's network model).
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"

namespace harmony::cluster {

using NodeId = uint32_t;
inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();

struct NodeInfo {
  NodeId id = kInvalidNode;
  std::string hostname;
  std::string os;
  double speed = 1.0;      // relative to the 400 MHz PII reference machine
  double memory_mb = 0.0;  // physical memory
};

struct LinkInfo {
  NodeId a = kInvalidNode;
  NodeId b = kInvalidNode;
  double bandwidth_mbps = 0.0;
  double latency_ms = 0.0;
};

class Topology {
 public:
  // Hostname must be unique; speed and memory must be finite. Returns
  // the new node's id.
  Result<NodeId> add_node(std::string hostname, double speed, double memory_mb,
                          std::string os = "");
  // Undirected; replaces any existing a<->b link. Bandwidth and latency
  // must be finite.
  Status add_link(NodeId a, NodeId b, double bandwidth_mbps,
                  double latency_ms = 0.0);

  size_t node_count() const { return nodes_.size(); }
  const std::vector<NodeInfo>& nodes() const { return nodes_; }
  const NodeInfo& node(NodeId id) const;
  Result<NodeId> find_by_hostname(const std::string& hostname) const;

  // Node ids whose hostname matches `hostname_glob` (and whose OS tag
  // equals `os` when non-empty), ascending by id — the same set and
  // order a filtered scan of nodes() yields. Globs of the form
  // "prefix*" (literal prefix, the only wildcard a trailing star) take
  // an indexed path over the ordered hostname map, O(log n + matches),
  // which keeps admissible-set probes on huge clusters proportional to
  // the footprint they select.
  std::vector<NodeId> match_nodes(const std::string& hostname_glob,
                                  const std::string& os = "") const;

  // The direct link between a and b, or nullptr if none.
  const LinkInfo* link(NodeId a, NodeId b) const;
  const std::vector<LinkInfo>& links() const { return links_; }

  // Bandwidth of the widest path a->b (bottleneck bandwidth), 0 if
  // disconnected. a == b yields +infinity (local communication).
  // Answered from a maximum spanning forest: the forest path between
  // two nodes has the largest bottleneck of any path (the minimax-path
  // property), so the result is the same double a widest-path search
  // returns. O(depth of the forest), no allocation.
  double path_bandwidth(NodeId a, NodeId b) const;
  bool connected(NodeId a, NodeId b) const {
    return a == b || path_bandwidth(a, b) > 0.0;
  }
  // Builds the forest behind path_bandwidth() now. Otherwise the first
  // query after a mutation builds it; concurrent readers may race to
  // that build safely, but a topology about to be shared should be
  // indexed up front so no query pays for it.
  void build_path_index() const;

  // The widest path a->b, ties broken by lower total latency: its
  // summed per-hop latency and link indices (into links()) in order.
  // Empty when a == b or disconnected. The network simulator routes
  // flows along it.
  struct Route {
    double latency_ms = 0.0;
    std::vector<size_t> links;
  };
  Route route(NodeId a, NodeId b) const;

 private:
  // One node of the maximum spanning forest.
  struct ForestNode {
    NodeId parent = kInvalidNode;  // kInvalidNode at a root
    NodeId root = kInvalidNode;    // identifies the component
    uint32_t depth = 0;
    double up_bandwidth = 0.0;  // of the link to parent
  };
  // The forest, built on demand. The mutex serializes the build and
  // `ready` publishes it to lock-free readers; mutations clear `ready`
  // (they never run concurrently with queries). A copy starts unbuilt.
  struct PathIndex {
    PathIndex() = default;
    PathIndex(const PathIndex&) {}
    PathIndex& operator=(const PathIndex&) {
      ready.store(false, std::memory_order_relaxed);
      return *this;
    }
    std::mutex mu;
    std::atomic<bool> ready{false};
    std::vector<ForestNode> nodes;
  };
  const std::vector<ForestNode>& forest() const;
  void invalidate_path_index() {
    index_.ready.store(false, std::memory_order_relaxed);
  }

  std::vector<NodeInfo> nodes_;
  std::vector<LinkInfo> links_;
  // Ordered so prefix globs can range-scan instead of visiting every
  // hostname.
  std::map<std::string, NodeId> by_hostname_;
  // adjacency: node -> list of link indices
  std::vector<std::vector<size_t>> adjacency_;
  mutable PathIndex index_;
};

}  // namespace harmony::cluster
