#include "cluster/topology.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <queue>

#include "common/assert.h"
#include "common/strings.h"

namespace harmony::cluster {

Result<NodeId> Topology::add_node(std::string hostname, double speed,
                                  double memory_mb, std::string os) {
  if (hostname.empty()) {
    return Err<NodeId>(ErrorCode::kInvalidArgument, "hostname must not be empty");
  }
  if (!std::isfinite(speed) || speed <= 0) {
    return Err<NodeId>(ErrorCode::kInvalidArgument,
                       "node speed must be positive and finite: " + hostname);
  }
  if (!std::isfinite(memory_mb) || memory_mb < 0) {
    return Err<NodeId>(ErrorCode::kInvalidArgument,
                       "node memory must be non-negative and finite: " +
                           hostname);
  }
  if (by_hostname_.count(hostname)) {
    return Err<NodeId>(ErrorCode::kAlreadyExists,
                       "duplicate hostname: " + hostname);
  }
  NodeId id = static_cast<NodeId>(nodes_.size());
  by_hostname_[hostname] = id;
  nodes_.push_back(NodeInfo{id, std::move(hostname), std::move(os), speed,
                            memory_mb});
  adjacency_.emplace_back();
  invalidate_path_index();
  return id;
}

Status Topology::add_link(NodeId a, NodeId b, double bandwidth_mbps,
                          double latency_ms) {
  if (a >= nodes_.size() || b >= nodes_.size()) {
    return Status(ErrorCode::kNotFound, "link endpoint does not exist");
  }
  if (a == b) {
    return Status(ErrorCode::kInvalidArgument, "self-links are implicit");
  }
  if (!std::isfinite(bandwidth_mbps) || bandwidth_mbps <= 0) {
    return Status(ErrorCode::kInvalidArgument,
                  "bandwidth must be positive and finite");
  }
  if (!std::isfinite(latency_ms) || latency_ms < 0) {
    return Status(ErrorCode::kInvalidArgument,
                  "latency must be non-negative and finite");
  }
  invalidate_path_index();
  // Replace an existing link in place.
  for (size_t idx : adjacency_[a]) {
    LinkInfo& l = links_[idx];
    if ((l.a == a && l.b == b) || (l.a == b && l.b == a)) {
      l.bandwidth_mbps = bandwidth_mbps;
      l.latency_ms = latency_ms;
      return Status::Ok();
    }
  }
  links_.push_back(LinkInfo{a, b, bandwidth_mbps, latency_ms});
  adjacency_[a].push_back(links_.size() - 1);
  adjacency_[b].push_back(links_.size() - 1);
  return Status::Ok();
}

const NodeInfo& Topology::node(NodeId id) const {
  HARMONY_ASSERT(id < nodes_.size());
  return nodes_[id];
}

Result<NodeId> Topology::find_by_hostname(const std::string& hostname) const {
  auto it = by_hostname_.find(hostname);
  if (it == by_hostname_.end()) {
    return Err<NodeId>(ErrorCode::kNotFound, "no such host: " + hostname);
  }
  return it->second;
}

std::vector<NodeId> Topology::match_nodes(const std::string& hostname_glob,
                                          const std::string& os) const {
  std::vector<NodeId> out;
  auto admit = [&](const NodeInfo& node) {
    if (!os.empty() && node.os != os) return;
    out.push_back(node.id);
  };
  size_t star = hostname_glob.find_first_of("*?[");
  // No wildcard at all: an exact hostname lookup.
  if (star == std::string::npos) {
    auto it = by_hostname_.find(hostname_glob);
    if (it != by_hostname_.end()) admit(nodes_[it->second]);
    return out;
  }
  // "prefix*": every hostname in [prefix, prefix+1) of the ordered map.
  if (star + 1 == hostname_glob.size() &&
      hostname_glob[star] == '*') {
    std::string prefix = hostname_glob.substr(0, star);
    for (auto it = by_hostname_.lower_bound(prefix);
         it != by_hostname_.end() && starts_with(it->first, prefix); ++it) {
      admit(nodes_[it->second]);
    }
    std::sort(out.begin(), out.end());
    return out;
  }
  for (const NodeInfo& node : nodes_) {
    if (glob_match(hostname_glob, node.hostname)) admit(node);
  }
  return out;
}

const LinkInfo* Topology::link(NodeId a, NodeId b) const {
  if (a >= nodes_.size() || b >= nodes_.size()) return nullptr;
  for (size_t idx : adjacency_[a]) {
    const LinkInfo& l = links_[idx];
    if ((l.a == a && l.b == b) || (l.a == b && l.b == a)) return &l;
  }
  return nullptr;
}

double Topology::path_bandwidth(NodeId a, NodeId b) const {
  if (a == b) return std::numeric_limits<double>::infinity();
  if (a >= nodes_.size() || b >= nodes_.size()) return 0.0;
  const std::vector<ForestNode>& forest = this->forest();
  if (forest[a].root != forest[b].root) return 0.0;
  // Climb to the lowest common ancestor, keeping the narrowest link.
  double bandwidth = std::numeric_limits<double>::infinity();
  auto climb = [&](NodeId& node) {
    bandwidth = std::min(bandwidth, forest[node].up_bandwidth);
    node = forest[node].parent;
  };
  while (forest[a].depth > forest[b].depth) climb(a);
  while (forest[b].depth > forest[a].depth) climb(b);
  while (a != b) {
    climb(a);
    climb(b);
  }
  return bandwidth;
}

void Topology::build_path_index() const { (void)forest(); }

const std::vector<Topology::ForestNode>& Topology::forest() const {
  if (index_.ready.load(std::memory_order_acquire)) return index_.nodes;
  std::lock_guard<std::mutex> lock(index_.mu);
  if (index_.ready.load(std::memory_order_relaxed)) return index_.nodes;
  // Kruskal: widest links first, each kept when it joins two trees.
  const size_t n = nodes_.size();
  std::vector<size_t> order(links_.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    if (links_[x].bandwidth_mbps != links_[y].bandwidth_mbps) {
      return links_[x].bandwidth_mbps > links_[y].bandwidth_mbps;
    }
    return x < y;
  });
  std::vector<NodeId> set(n);
  std::iota(set.begin(), set.end(), NodeId{0});
  auto find = [&](NodeId v) {
    while (set[v] != v) v = set[v] = set[set[v]];
    return v;
  };
  std::vector<std::vector<size_t>> tree(n);  // node -> kept link indices
  for (size_t idx : order) {
    NodeId ra = find(links_[idx].a);
    NodeId rb = find(links_[idx].b);
    if (ra == rb) continue;
    set[ra] = rb;
    tree[links_[idx].a].push_back(idx);
    tree[links_[idx].b].push_back(idx);
  }
  // Root every tree at its lowest id and record parents breadth-first.
  std::vector<ForestNode>& out = index_.nodes;
  out.assign(n, ForestNode{});
  std::vector<NodeId> queue;
  queue.reserve(n);
  for (NodeId root = 0; root < n; ++root) {
    if (out[root].root != kInvalidNode) continue;
    out[root].root = root;
    queue.assign(1, root);
    for (size_t head = 0; head < queue.size(); ++head) {
      NodeId u = queue[head];
      for (size_t idx : tree[u]) {
        const LinkInfo& l = links_[idx];
        NodeId v = l.a == u ? l.b : l.a;
        if (out[v].root != kInvalidNode) continue;
        out[v] = ForestNode{u, root, out[u].depth + 1, l.bandwidth_mbps};
        queue.push_back(v);
      }
    }
  }
  index_.ready.store(true, std::memory_order_release);
  return index_.nodes;
}

// Dijkstra variant maximizing the bottleneck bandwidth; ties broken by
// lower total latency.
Topology::Route Topology::route(NodeId a, NodeId b) const {
  if (a == b || a >= nodes_.size() || b >= nodes_.size()) return {};
  std::vector<double> best_bw(nodes_.size(), 0.0);
  std::vector<double> best_lat(nodes_.size(),
                               std::numeric_limits<double>::infinity());
  std::vector<size_t> via_link(nodes_.size(), SIZE_MAX);
  std::vector<NodeId> via_node(nodes_.size(), kInvalidNode);
  using Entry = std::tuple<double, double, NodeId>;  // -bw, lat, node
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
  best_bw[a] = std::numeric_limits<double>::infinity();
  best_lat[a] = 0.0;
  queue.emplace(-best_bw[a], 0.0, a);
  while (!queue.empty()) {
    auto [neg_bw, lat, u] = queue.top();
    queue.pop();
    double bw = -neg_bw;
    if (bw < best_bw[u] || (bw == best_bw[u] && lat > best_lat[u])) continue;
    if (u == b) break;
    for (size_t idx : adjacency_[u]) {
      const LinkInfo& l = links_[idx];
      NodeId v = l.a == u ? l.b : l.a;
      double nbw = std::min(bw, l.bandwidth_mbps);
      double nlat = lat + l.latency_ms;
      if (nbw > best_bw[v] || (nbw == best_bw[v] && nlat < best_lat[v])) {
        best_bw[v] = nbw;
        best_lat[v] = nlat;
        via_link[v] = idx;
        via_node[v] = u;
        queue.emplace(-nbw, nlat, v);
      }
    }
  }
  if (best_bw[b] == 0.0) return {};
  Route result;
  result.latency_ms = best_lat[b];
  for (NodeId cur = b; cur != a; cur = via_node[cur]) {
    HARMONY_ASSERT(via_link[cur] != SIZE_MAX);
    result.links.push_back(via_link[cur]);
  }
  std::reverse(result.links.begin(), result.links.end());
  return result;
}

}  // namespace harmony::cluster
