// Matches application node/link requirements onto cluster nodes,
// reserving their memory and recording one placement (process) per
// matched requirement. Under the classic policies candidates are
// ordered least-loaded first — "as nodes and links are matched, we
// decrease the available resources" (§4.1) — with the configured policy
// breaking ties: the paper's simple first-fit by default; best-fit and
// worst-fit exist for the fragmentation ablation study.
//
// The vector policies treat placement as multi-capacity bin packing
// (Stillwell et al., "Resource Allocation using Virtual Clusters"):
// each node is a bin with two packed dimensions — exclusively reserved
// memory and time-shared CPU load — and candidates are ordered by the
// weighted norm of the node's utilization vector *after* hosting the
// requirement. kVectorBestFit packs tight (highest post-placement
// utilization first), consolidating load so large contiguous holes stay
// open for wide options; kVectorWorstFit spreads (lowest first). Both
// place requirements in decreasing-demand order (best-fit decreasing).
#pragma once

#include <string>
#include <vector>

#include "cluster/pool.h"
#include "cluster/topology.h"
#include "common/result.h"

namespace harmony::cluster {

struct NodeRequirement {
  std::string role;            // option-namespace name ("client", "worker")
  int index = 0;               // replica index within the role
  std::string hostname_glob = "*";
  std::string os;              // empty = any
  double memory_mb = 0.0;      // reserved exclusively when matched
};

// Connectivity requirement between two placed requirements (indices into
// the requirement vector). Bandwidth is a minimum path bandwidth; 0
// means "any connectivity".
struct LinkRequirement {
  size_t from = 0;
  size_t to = 0;
  double min_bandwidth_mbps = 0.0;
};

enum class MatchPolicy {
  kFirstFit,
  kBestFit,
  kWorstFit,
  kVectorBestFit,
  kVectorWorstFit,
};

const char* match_policy_name(MatchPolicy policy);

struct Allocation {
  struct Entry {
    NodeRequirement requirement;
    NodeId node = kInvalidNode;
  };
  std::vector<Entry> entries;

  // Node placed for (role, index), or kInvalidNode.
  NodeId find(const std::string& role, int index = 0) const;
  // All nodes assigned to a role, in replica order.
  std::vector<NodeId> nodes_for(const std::string& role) const;
  bool empty() const { return entries.empty(); }
  // True when both allocations place the same (role, index) on the same
  // node — i.e. no migration happened.
  bool same_placement(const Allocation& other) const;
};

class Matcher {
 public:
  explicit Matcher(MatchPolicy policy = MatchPolicy::kFirstFit)
      : policy_(policy) {}

  MatchPolicy policy() const { return policy_; }

  // Finds a placement satisfying every requirement and link constraint,
  // reserving memory in the pool. On failure nothing is reserved.
  // Replicas of the same role are placed on distinct nodes (the paper's
  // "replicate" semantics); different roles may share a node if memory
  // allows.
  Result<Allocation> match(const std::vector<NodeRequirement>& requirements,
                           const std::vector<LinkRequirement>& links,
                           ResourceView& pool) const;

  // Releases the memory held by a previous successful match.
  static Status release(const Allocation& allocation, ResourceView& pool);

 private:
  MatchPolicy policy_;
};

}  // namespace harmony::cluster
