#include "sim/network.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/assert.h"

namespace harmony::sim {

namespace {
constexpr double kEps = 1e-9;
// Mbps (megabits/s) -> MB/s (megabytes/s).
double mbps_to_mbs(double mbps) { return mbps / 8.0; }
}  // namespace

NetworkModel::NetworkModel(SimEngine* engine,
                           const cluster::Topology* topology,
                           double local_bandwidth_mbps)
    : engine_(engine),
      topology_(topology),
      local_rate_mbs_(mbps_to_mbs(local_bandwidth_mbps)) {
  HARMONY_ASSERT(engine != nullptr && topology != nullptr);
  HARMONY_ASSERT(local_bandwidth_mbps > 0);
}

Result<FlowId> NetworkModel::transfer(cluster::NodeId from,
                                      cluster::NodeId to, double megabytes,
                                      std::function<void()> on_done) {
  if (megabytes < 0) {
    return Err<FlowId>(ErrorCode::kInvalidArgument, "negative transfer size");
  }
  std::vector<size_t> path;
  double latency_s = 0.0;
  if (from != to) {
    cluster::Topology::Route route = topology_->route(from, to);
    if (route.links.empty()) {
      return Err<FlowId>(ErrorCode::kNoMatch, "nodes are disconnected");
    }
    path = std::move(route.links);
    latency_s = route.latency_ms / 1000.0;
  }
  update(engine_->now());
  FlowId id = next_id_++;
  Flow flow;
  flow.links = std::move(path);
  flow.remaining_mb = megabytes;
  flow.on_done = std::move(on_done);
  flow.started = latency_s <= 0.0;
  flows_[id] = std::move(flow);
  if (latency_s > 0.0) {
    engine_->schedule(latency_s, [this, id] {
      auto it = flows_.find(id);
      if (it == flows_.end()) return;  // cancelled during latency phase
      update(engine_->now());
      it->second.started = true;
      recompute_rates();
      schedule_next_completion();
    });
  }
  recompute_rates();
  schedule_next_completion();
  return id;
}

Status NetworkModel::cancel(FlowId id) {
  auto it = flows_.find(id);
  if (it == flows_.end()) return Status(ErrorCode::kNotFound, "no such flow");
  update(engine_->now());
  flows_.erase(it);
  recompute_rates();
  schedule_next_completion();
  return Status::Ok();
}

Result<double> NetworkModel::current_rate(FlowId id) const {
  auto it = flows_.find(id);
  if (it == flows_.end()) return Err<double>(ErrorCode::kNotFound, "no such flow");
  return it->second.rate_mbs;
}

void NetworkModel::update(double now) {
  double elapsed = now - last_update_;
  if (elapsed > 0) {
    for (auto& [id, flow] : flows_) {
      if (!flow.started) continue;
      flow.remaining_mb =
          std::max(0.0, flow.remaining_mb - flow.rate_mbs * elapsed);
    }
  }
  last_update_ = now;
}

// Progressive filling: repeatedly find the most constrained link, give
// its flows their fair share, freeze them, and subtract the capacity.
void NetworkModel::recompute_rates() {
  // Local flows always run at the local rate.
  std::vector<FlowId> active;
  for (auto& [id, flow] : flows_) {
    if (!flow.started) {
      flow.rate_mbs = 0.0;
      continue;
    }
    if (flow.links.empty()) {
      flow.rate_mbs = local_rate_mbs_;
      continue;
    }
    flow.rate_mbs = 0.0;
    active.push_back(id);
  }
  if (active.empty()) return;
  std::sort(active.begin(), active.end());  // deterministic fill order

  std::unordered_map<size_t, double> capacity;   // link -> remaining MB/s
  std::unordered_map<size_t, int> load;          // link -> unfrozen flows
  for (FlowId id : active) {
    for (size_t link : flows_[id].links) {
      capacity.emplace(link, mbps_to_mbs(topology_->links()[link].bandwidth_mbps));
      ++load[link];
    }
  }
  std::unordered_map<FlowId, bool> frozen;
  size_t remaining = active.size();
  while (remaining > 0) {
    // Most constrained link: minimal capacity / load.
    double min_share = std::numeric_limits<double>::infinity();
    size_t min_link = SIZE_MAX;
    for (const auto& [link, flows_on_link] : load) {
      if (flows_on_link <= 0) continue;
      double share = capacity[link] / flows_on_link;
      if (share < min_share) {
        min_share = share;
        min_link = link;
      }
    }
    if (min_link == SIZE_MAX) break;  // all remaining flows unconstrained
    for (FlowId id : active) {
      if (frozen[id]) continue;
      auto& flow = flows_[id];
      bool uses = std::find(flow.links.begin(), flow.links.end(), min_link) !=
                  flow.links.end();
      if (!uses) continue;
      flow.rate_mbs = min_share;
      frozen[id] = true;
      --remaining;
      for (size_t link : flow.links) {
        capacity[link] -= min_share;
        --load[link];
      }
    }
    load.erase(min_link);
  }
}

void NetworkModel::schedule_next_completion() {
  if (completion_event_ != 0) {
    engine_->cancel(completion_event_);
    completion_event_ = 0;
  }
  double min_delay = std::numeric_limits<double>::infinity();
  for (const auto& [id, flow] : flows_) {
    if (!flow.started) continue;
    if (flow.remaining_mb <= kEps) {
      min_delay = 0.0;
      break;
    }
    if (flow.rate_mbs <= 0) continue;
    min_delay = std::min(min_delay, flow.remaining_mb / flow.rate_mbs);
  }
  if (!std::isfinite(min_delay)) return;
  completion_event_ =
      engine_->schedule(min_delay, [this] { on_completion_event(); });
}

void NetworkModel::on_completion_event() {
  completion_event_ = 0;
  update(engine_->now());
  // Complete in FlowId order so callback sequence is deterministic.
  std::vector<FlowId> done;
  for (const auto& [id, flow] : flows_) {
    if (flow.started && flow.remaining_mb <= kEps) done.push_back(id);
  }
  std::sort(done.begin(), done.end());
  std::vector<std::function<void()>> callbacks;
  for (FlowId id : done) {
    callbacks.push_back(std::move(flows_[id].on_done));
    flows_.erase(id);
  }
  recompute_rates();
  schedule_next_completion();
  for (auto& fn : callbacks) {
    if (fn) fn();
  }
}

}  // namespace harmony::sim
