#include "cluster/matcher.h"

#include <algorithm>

#include "common/strings.h"

namespace harmony::cluster {

const char* match_policy_name(MatchPolicy policy) {
  switch (policy) {
    case MatchPolicy::kFirstFit: return "first-fit";
    case MatchPolicy::kBestFit: return "best-fit";
    case MatchPolicy::kWorstFit: return "worst-fit";
    case MatchPolicy::kVectorBestFit: return "vector-best-fit";
    case MatchPolicy::kVectorWorstFit: return "vector-worst-fit";
  }
  return "unknown";
}

NodeId Allocation::find(const std::string& role, int index) const {
  for (const auto& entry : entries) {
    if (entry.requirement.role == role && entry.requirement.index == index) {
      return entry.node;
    }
  }
  return kInvalidNode;
}

std::vector<NodeId> Allocation::nodes_for(const std::string& role) const {
  std::vector<std::pair<int, NodeId>> hits;
  for (const auto& entry : entries) {
    if (entry.requirement.role == role) {
      hits.emplace_back(entry.requirement.index, entry.node);
    }
  }
  std::sort(hits.begin(), hits.end());
  std::vector<NodeId> nodes;
  nodes.reserve(hits.size());
  for (const auto& [index, node] : hits) nodes.push_back(node);
  return nodes;
}

bool Allocation::same_placement(const Allocation& other) const {
  if (entries.size() != other.entries.size()) return false;
  for (const auto& entry : entries) {
    if (other.find(entry.requirement.role, entry.requirement.index) !=
        entry.node) {
      return false;
    }
  }
  return true;
}

namespace {

// Backtracking placement. Clusters are small (the paper's testbed was an
// SP-2 partition), so exhaustive backtracking with policy-ordered
// candidates is affordable and strictly more capable than pure greedy:
// it still *prefers* the policy's choice but can recover from dead ends.
class Search {
 public:
  Search(const std::vector<NodeRequirement>& requirements,
         const std::vector<LinkRequirement>& links, ResourceView& pool,
         MatchPolicy policy)
      : requirements_(requirements),
        links_(links),
        pool_(pool),
        policy_(policy),
        placed_(requirements.size(), kInvalidNode),
        order_(requirements.size()) {
    for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    if (policy_ == MatchPolicy::kVectorBestFit ||
        policy_ == MatchPolicy::kVectorWorstFit) {
      // Best-fit *decreasing*: place the largest demands first so small
      // ones fill the remaining gaps. Ties keep requirement order.
      std::sort(order_.begin(), order_.end(), [&](size_t a, size_t b) {
        if (requirements_[a].memory_mb != requirements_[b].memory_mb) {
          return requirements_[a].memory_mb > requirements_[b].memory_mb;
        }
        return a < b;
      });
    }
  }

  bool run() { return place(0); }

  Allocation take_allocation() {
    Allocation allocation;
    for (size_t i = 0; i < requirements_.size(); ++i) {
      allocation.entries.push_back({requirements_[i], placed_[i]});
    }
    return allocation;
  }

 private:
  bool node_admissible(const NodeRequirement& req, const NodeInfo& node) const {
    if (!glob_match(req.hostname_glob, node.hostname)) return false;
    if (!req.os.empty() && node.os != req.os) return false;
    return true;
  }

  bool links_satisfied(size_t placed_index) const {
    const Topology& topo = pool_.topology();
    for (const auto& link : links_) {
      if (link.from >= placed_.size() || link.to >= placed_.size()) continue;
      NodeId a = placed_[link.from];
      NodeId b = placed_[link.to];
      if (a == kInvalidNode || b == kInvalidNode) continue;
      // Only re-check constraints involving the node just placed.
      if (link.from != placed_index && link.to != placed_index) continue;
      // 0 when disconnected, +infinity on a shared node.
      double bandwidth = topo.path_bandwidth(a, b);
      if (bandwidth <= 0.0 || bandwidth < link.min_bandwidth_mbps) {
        return false;
      }
    }
    return true;
  }

  bool role_conflict(size_t req_index, NodeId candidate) const {
    const auto& req = requirements_[req_index];
    // Placement order may be a permutation of requirement order, so any
    // already-placed replica of the role conflicts, not just earlier
    // indices.
    for (size_t i = 0; i < requirements_.size(); ++i) {
      if (i == req_index) continue;
      if (requirements_[i].role == req.role && placed_[i] == candidate) {
        return true;  // replicas of a role need distinct nodes
      }
    }
    return false;
  }

  // Utilization of `node` after hosting `req`, memory and load weighted
  // equally: the vector bin-packing score. Memory is a hard capacity;
  // load is time-shared and has none, so it is normalized by
  // speed * kReferenceLoad, the number of unit-speed processes that
  // count as a "full" CPU bin.
  double vector_score(const NodeRequirement& req, const NodeInfo& node) const {
    double total = pool_.total_memory(node.id);
    double used = total - pool_.available_memory(node.id) + req.memory_mb;
    double memory_term = total > 0 ? used / total : 0.0;
    double speed = node.speed > 0 ? node.speed : 1.0;
    double load_term = (pool_.effective_load(node.id) + 1.0) /
                       (speed * kReferenceLoad);
    return memory_term + load_term;
  }

  // An admissible node with its ordering key, read from the pool once.
  struct Candidate {
    double primary = 0.0;
    double secondary = 0.0;
    NodeId id = kInvalidNode;
  };

  // Vector policies order by post-placement utilization norm; classic
  // policies go least-loaded first with the policy breaking ties. Any
  // remaining tie goes to the lower NodeId, which is the scan order
  // (scope order is topology order), so the result is what a stable
  // sort by the policy's key alone would give, without its buffer.
  Candidate rank(const NodeRequirement& req, const NodeInfo& node) const {
    switch (policy_) {
      case MatchPolicy::kVectorBestFit:  // tightest pack first
        return {-vector_score(req, node), 0.0, node.id};
      case MatchPolicy::kVectorWorstFit:
        return {vector_score(req, node), 0.0, node.id};
      case MatchPolicy::kFirstFit:
        return {static_cast<double>(pool_.effective_load(node.id)), 0.0,
                node.id};
      case MatchPolicy::kBestFit:
        return {static_cast<double>(pool_.effective_load(node.id)),
                pool_.available_memory(node.id), node.id};
      case MatchPolicy::kWorstFit:
        return {static_cast<double>(pool_.effective_load(node.id)),
                -pool_.available_memory(node.id), node.id};
    }
    return {0.0, 0.0, node.id};
  }

  std::vector<Candidate> candidates(const NodeRequirement& req) const {
    std::vector<Candidate> out;
    // A scoped pool (domain controller) covers a superset of every
    // member bundle's admissible nodes, and scope order is topology
    // order — so iterating the scope filters to the same candidate
    // list, in the same order, as a full-cluster scan.
    const Topology& topo = pool_.topology();
    const NodeScope* scope = pool_.scope();
    const size_t limit = scope ? scope->size() : topo.node_count();
    for (size_t i = 0; i < limit; ++i) {
      const NodeInfo& node =
          topo.node(scope ? scope->node_at(i) : static_cast<NodeId>(i));
      if (!node_admissible(req, node)) continue;
      if (!pool_.is_online(node.id)) continue;
      if (pool_.available_memory(node.id) + 1e-9 < req.memory_mb) continue;
      out.push_back(rank(req, node));
    }
    std::sort(out.begin(), out.end(),
              [](const Candidate& a, const Candidate& b) {
                if (a.primary != b.primary) return a.primary < b.primary;
                if (a.secondary != b.secondary) {
                  return a.secondary < b.secondary;
                }
                return a.id < b.id;
              });
    return out;
  }

  bool place(size_t pos) {
    if (pos == requirements_.size()) return true;
    size_t index = order_[pos];
    const auto& req = requirements_[index];
    for (const Candidate& ranked : candidates(req)) {
      const NodeId candidate = ranked.id;
      if (role_conflict(index, candidate)) continue;
      if (!pool_.reserve_memory(candidate, req.memory_mb).ok()) continue;
      pool_.add_process(candidate);
      placed_[index] = candidate;
      if (links_satisfied(index) && place(pos + 1)) return true;
      placed_[index] = kInvalidNode;
      auto removed = pool_.remove_process(candidate);
      HARMONY_ASSERT(removed.ok());
      auto status = pool_.release_memory(candidate, req.memory_mb);
      HARMONY_ASSERT(status.ok());
    }
    return false;
  }

  static constexpr double kReferenceLoad = 4.0;

  const std::vector<NodeRequirement>& requirements_;
  const std::vector<LinkRequirement>& links_;
  ResourceView& pool_;
  MatchPolicy policy_;
  std::vector<NodeId> placed_;
  std::vector<size_t> order_;
};

}  // namespace

Result<Allocation> Matcher::match(
    const std::vector<NodeRequirement>& requirements,
    const std::vector<LinkRequirement>& links, ResourceView& pool) const {
  for (const auto& link : links) {
    if (link.from >= requirements.size() || link.to >= requirements.size()) {
      return Err<Allocation>(ErrorCode::kInvalidArgument,
                             "link requirement references missing node");
    }
  }
  for (const auto& req : requirements) {
    if (req.memory_mb < 0) {
      return Err<Allocation>(ErrorCode::kInvalidArgument,
                             "negative memory requirement for role " + req.role);
    }
  }
  Search search(requirements, links, pool, policy_);
  if (!search.run()) {
    return Err<Allocation>(
        ErrorCode::kNoMatch,
        str_format("no placement for %zu requirements under %s",
                   requirements.size(), match_policy_name(policy_)));
  }
  return search.take_allocation();
}

Status Matcher::release(const Allocation& allocation, ResourceView& pool) {
  for (const auto& entry : allocation.entries) {
    auto status = pool.release_memory(entry.node, entry.requirement.memory_mb);
    if (!status.ok()) return status;
    status = pool.remove_process(entry.node);
    if (!status.ok()) return status;
  }
  return Status::Ok();
}

}  // namespace harmony::cluster
