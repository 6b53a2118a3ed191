#include "core/domain.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <utility>

#include "common/assert.h"
#include "common/strings.h"
#include "metric/telemetry.h"
#include "rsl/rsl.h"
#include "rsl/value.h"

namespace harmony::core {

namespace {

uint64_t steady_us() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::mutex g_publish_mutex;
DomainRouter* g_published_router = nullptr;

}  // namespace

void publish_domain_router(DomainRouter* router) {
  std::lock_guard<std::mutex> lock(g_publish_mutex);
  g_published_router = router;
}

std::string published_domains(bool* published) {
  std::vector<DomainRouter::DomainInfo> domains;
  {
    // Held across snapshot(): ~DomainRouter unpublishes under this lock,
    // so the router cannot die mid-read.
    std::lock_guard<std::mutex> lock(g_publish_mutex);
    if (published != nullptr) *published = g_published_router != nullptr;
    if (g_published_router == nullptr) return "";
    domains = g_published_router->snapshot();
  }
  std::vector<std::string> rows;
  for (const auto& domain : domains) {
    rows.push_back(rsl::list_build(
        {str_format("%u", domain.id), rsl::list_build(domain.members),
         str_format("%llu", static_cast<unsigned long long>(domain.epochs)),
         format_number(domain.last_decision_ms),
         rsl::list_build(
             {str_format("%llu",
                         static_cast<unsigned long long>(domain.solver_passes)),
              str_format("%llu",
                         static_cast<unsigned long long>(domain.solver_moves)),
              format_number(domain.solver_improvement)})}));
  }
  return rsl::list_build(rows);
}

// --- per-domain state ------------------------------------------------------

// Forwards a domain controller's events into the shared WAL, tagged
// with the domain id and the next per-domain sequence number. Runs on
// the router's caller thread.
class DomainRouter::Tap final : public EventSink {
 public:
  Tap(DomainRouter* router, Domain* domain)
      : router_(router), domain_(domain) {}

  void on_controller_event(const ControllerEvent& event) override;
  void on_epoch_commit() override;

 private:
  DomainRouter* router_;
  Domain* domain_;
};

struct DomainRouter::Domain {
  uint32_t id = 0;
  // Journal sequence number of this domain's event stream.
  uint64_t dseq = 0;
  // Controller time, sampled by the router when each op was issued and
  // installed just before applying it.
  double now = 0;
  uint64_t epochs = 0;  // ops applied
  std::unique_ptr<Tap> tap;
  std::unique_ptr<Controller> controller;
  std::vector<InstanceId> instances;       // sorted
  std::vector<cluster::NodeId> footprint;  // sorted, unique
  metric::Counter* epochs_total = nullptr;
  metric::Histogram* epoch_us = nullptr;

  // A domain dies only between ops (retire, merge, split, router
  // shutdown), so nothing records into its series any more: release
  // them, or every dead id stays in the registry and in every scrape.
  ~Domain() {
    if (epochs_total == nullptr) return;
    metric::Telemetry::instance().release_counter(
        str_format("domain.%u.epochs_total", id));
    metric::Telemetry::instance().release_histogram(
        str_format("domain.%u.epoch_us", id));
  }
};

void DomainRouter::Tap::on_controller_event(const ControllerEvent& event) {
  if (router_->journal_ == nullptr) return;
  router_->journal_->on_domain_event(domain_->id, ++domain_->dseq, event);
}

void DomainRouter::Tap::on_epoch_commit() {
  if (router_->journal_ == nullptr) return;
  router_->journal_->on_domain_epoch_commit(domain_->id);
}

// --- construction ----------------------------------------------------------

DomainRouter::DomainRouter(DomainRouterConfig config)
    : config_(std::move(config)),
      objective_(make_objective(config_.controller.objective)) {
  partitioned_ = !config_.single_domain && objective_ != nullptr &&
                 objective_->separable();
}

DomainRouter::~DomainRouter() {
  std::lock_guard<std::mutex> lock(g_publish_mutex);
  if (g_published_router == this) g_published_router = nullptr;
}

// --- cluster setup ---------------------------------------------------------

Status DomainRouter::add_node(const rsl::NodeAd& ad) {
  return template_.add_node(ad);
}

Status DomainRouter::add_nodes_script(const std::string& rsl_script) {
  rsl::RslHost host;
  host.on_node([this](const rsl::NodeAd& ad) { return add_node(ad); });
  return host.eval_script(rsl_script);
}

Status DomainRouter::link_hosts(const std::string& host_a,
                                const std::string& host_b,
                                double bandwidth_mbps, double latency_ms) {
  return template_.link_hosts(host_a, host_b, bandwidth_mbps, latency_ms);
}

Status DomainRouter::finalize_cluster() {
  auto status = template_.finalize_cluster();
  // Idempotent like the controller's — registration calls in every
  // time. Size the ownership index only once: re-assigning would wipe
  // which domain owns which node.
  if (status.ok() &&
      node_domain_.size() != template_.topology().nodes().size()) {
    node_domain_.assign(template_.topology().nodes().size(), 0);
  }
  return status;
}

bool DomainRouter::cluster_finalized() const {
  return template_.cluster_finalized();
}

const cluster::Topology& DomainRouter::topology() const {
  return template_.topology();
}

void DomainRouter::set_time_source(std::function<double()> source) {
  time_source_ = std::move(source);
}

void DomainRouter::attach_journal(DomainJournal* journal) {
  HARMONY_ASSERT_MSG(domains_.empty(),
                     "attach_journal before the first registration");
  journal_ = journal;
}

double DomainRouter::sample_now() {
  return time_source_ ? time_source_() : 0.0;
}

// --- domain dispatch -------------------------------------------------------

template <typename R, typename Op>
R DomainRouter::run_on_domain(Domain& domain, double time, Op&& op) {
  const uint64_t start_us = steady_us();
  domain.now = time;
  domain.controller->bind_owner_thread();
  R result = op(*domain.controller);
  domain.controller->unbind_owner_thread();
  note_op_applied(domain, start_us);
  return result;
}

void DomainRouter::note_op_applied(Domain& domain, uint64_t start_us) {
  const uint64_t end_us = steady_us();
  ++domain.epochs;
  domain.epochs_total->increment();
  domain.epoch_us->record(end_us - start_us);
  if (metric::TraceBuffer::instance().enabled()) {
    metric::TraceBuffer::instance().record("domain.reevaluate", start_us,
                                           end_us - start_us);
  }
  std::lock_guard<std::mutex> lock(stats_mutex_);
  auto it = info_.find(domain.id);
  if (it != info_.end()) {
    it->second.epochs = domain.epochs;
    it->second.last_decision_ms =
        static_cast<double>(end_us - start_us) / 1000.0;
    if (const SolverStats* stats = domain.controller->solver_stats()) {
      it->second.solver_passes = stats->passes;
      it->second.solver_moves = stats->moves_accepted;
      it->second.solver_improvement = stats->total_improvement;
    }
  }
}

// --- domain lifecycle ------------------------------------------------------

void DomainRouter::sync_node_state(
    Controller& controller,
    const std::vector<cluster::NodeId>& annexed) const {
  // Reconcile the controller's pool with the master node state for
  // exactly the annexed nodes: a domain only sees events for nodes it
  // owns, so nodes annexed by a merge or a widening registration may be
  // stale — owned nodes never are. The master maps hold only dirty
  // entries (load != 0, offline), so a lockstep walk of the sorted
  // annexed list against them costs O(|annexed| + dirty-in-range),
  // never O(cluster). Restores touch no allocations and emit no events,
  // so reconciliation cannot change a decision the reference path would
  // not also make.
  if (annexed.empty()) return;
  const auto& pool = *controller.state().pool;
  const cluster::Topology& topo = controller.topology();
  auto load_it = external_load_.lower_bound(annexed.front());
  auto offline_it = node_offline_.lower_bound(annexed.front());
  for (cluster::NodeId node : annexed) {
    while (load_it != external_load_.end() && load_it->first < node) {
      ++load_it;
    }
    const int desired_load =
        (load_it != external_load_.end() && load_it->first == node)
            ? load_it->second
            : 0;
    if (pool.external_load(node) != desired_load) {
      auto status = controller.restore_external_load(topo.node(node).hostname,
                                                     desired_load);
      HARMONY_ASSERT_MSG(status.ok(), "node-state reconciliation failed");
    }
    while (offline_it != node_offline_.end() && offline_it->first < node) {
      ++offline_it;
    }
    const bool desired_online =
        !(offline_it != node_offline_.end() && offline_it->first == node);
    if (pool.is_online(node) != desired_online) {
      auto status = controller.restore_node_online(topo.node(node).hostname,
                                                   desired_online);
      HARMONY_ASSERT_MSG(status.ok(), "node-state reconciliation failed");
    }
  }
}

DomainRouter::Domain& DomainRouter::create_domain(
    uint32_t id, std::vector<cluster::NodeId> scope) {
  auto domain = std::make_unique<Domain>();
  domain->id = id;
  domain->controller = std::make_unique<Controller>(config_.controller);
  // Share the template's finalized topology instead of replaying the
  // cluster definition: pool and version state are allocated over the
  // scope (the domain footprint) only, making creation O(|scope|).
  std::sort(scope.begin(), scope.end());
  scope.erase(std::unique(scope.begin(), scope.end()), scope.end());
  auto adopted = domain->controller->adopt_cluster(
      template_.shared_topology(), scope, &template_.names());
  HARMONY_ASSERT_MSG(adopted.ok(), "adopting shared cluster into domain failed");
  Domain* raw = domain.get();
  domain->controller->set_time_source([raw] { return raw->now; });
  sync_node_state(*domain->controller, scope);
  domain->tap = std::make_unique<Tap>(this, raw);
  domain->controller->set_event_sink(domain->tap.get());
  domain->epochs_total = &metric::telemetry_counter(
      str_format("domain.%u.epochs_total", id));
  domain->epoch_us = &metric::telemetry_histogram(
      str_format("domain.%u.epoch_us", id));
  auto [it, inserted] = domains_.emplace(id, std::move(domain));
  HARMONY_ASSERT(inserted);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    info_[id].id = id;
  }
  return *it->second;
}

void DomainRouter::retire_domain(uint32_t domain_id) {
  auto it = domains_.find(domain_id);
  HARMONY_ASSERT(it != domains_.end());
  retired_reconfigurations_ += it->second->controller->reconfigurations();
  for (cluster::NodeId node : it->second->footprint) {
    if (node < node_domain_.size() && node_domain_[node] == domain_id) {
      node_domain_[node] = 0;
    }
  }
  domains_.erase(it);
  drop_info(domain_id);
}

void DomainRouter::index_instance(InstanceId id, uint32_t domain_id,
                                  std::vector<cluster::NodeId> nodes) {
  Domain& domain = *domains_.at(domain_id);
  instance_domain_[id] = domain_id;
  domain.instances.insert(
      std::lower_bound(domain.instances.begin(), domain.instances.end(), id),
      id);
  for (cluster::NodeId node : nodes) {
    if (node < node_domain_.size()) node_domain_[node] = domain_id;
    auto pos = std::lower_bound(domain.footprint.begin(),
                                domain.footprint.end(), node);
    if (pos == domain.footprint.end() || *pos != node) {
      domain.footprint.insert(pos, node);
    }
  }
  instance_nodes_[id] = std::move(nodes);
  refresh_info(domain);
}

void DomainRouter::refresh_info(const Domain& domain) {
  std::vector<std::string> members;
  members.reserve(domain.instances.size());
  for (InstanceId id : domain.instances) {
    const InstanceState* instance = domain.controller->state().find_instance(
        id);
    if (instance != nullptr) members.push_back(instance->path());
  }
  std::lock_guard<std::mutex> lock(stats_mutex_);
  DomainInfo& info = info_[domain.id];
  info.id = domain.id;
  info.instances = domain.instances.size();
  info.members = std::move(members);
  info.epochs = domain.epochs;
  if (const SolverStats* stats = domain.controller->solver_stats()) {
    info.solver_passes = stats->passes;
    info.solver_moves = stats->moves_accepted;
    info.solver_improvement = stats->total_improvement;
  }
}

void DomainRouter::drop_info(uint32_t domain_id) {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  info_.erase(domain_id);
}

// Moves one instance between controllers via the restore path: the
// captured state reinstalls bit-for-bit (same choices, placements,
// switch times), no events are emitted and no optimization pass runs,
// so decision identity is untouched. A retained subscription is
// re-attached, which replays the current configuration to the client —
// the same contract RESUME already has.
void DomainRouter::restore_into(Domain& target, const Controller& source,
                                InstanceId id) {
  const InstanceState* instance = source.state().find_instance(id);
  HARMONY_ASSERT(instance != nullptr);
  std::vector<Controller::RestoredBundle> bundles;
  bundles.reserve(instance->bundles.size());
  for (const auto& bundle : instance->bundles) {
    Controller::RestoredBundle restored;
    restored.bundle = bundle.spec.bundle;
    restored.configured = bundle.configured;
    restored.choice = bundle.choice;
    restored.last_switch_time = bundle.last_switch_time;
    for (const auto& entry : bundle.allocation.entries) {
      Controller::RestoredAllocationEntry allocation;
      allocation.role = entry.requirement.role;
      allocation.index = entry.requirement.index;
      allocation.hostname_glob = entry.requirement.hostname_glob;
      allocation.os = entry.requirement.os;
      allocation.memory_mb = entry.requirement.memory_mb;
      allocation.hostname = source.topology().node(entry.node).hostname;
      restored.entries.push_back(std::move(allocation));
    }
    bundles.push_back(std::move(restored));
  }
  auto status = target.controller->restore_instance(
      instance->script, id, instance->arrival_time, bundles);
  HARMONY_ASSERT_MSG(status.ok(), "moving instance between domains failed");
  auto subscription = subscriptions_.find(id);
  if (subscription != subscriptions_.end()) {
    auto subscribed = target.controller->subscribe(id, subscription->second);
    HARMONY_ASSERT(subscribed.ok());
  }
}

uint32_t DomainRouter::domain_for_footprint(
    const std::vector<cluster::NodeId>& nodes) {
  std::vector<uint32_t> overlapping;
  for (cluster::NodeId node : nodes) {
    if (node >= node_domain_.size()) continue;
    const uint32_t owner = node_domain_[node];
    if (owner == 0) continue;
    if (std::find(overlapping.begin(), overlapping.end(), owner) ==
        overlapping.end()) {
      overlapping.push_back(owner);
    }
  }
  if (overlapping.empty()) return 0;
  std::sort(overlapping.begin(), overlapping.end());
  if (overlapping.size() == 1) return overlapping[0];
  return merge_domains(std::move(overlapping));
}

uint32_t DomainRouter::merge_domains(std::vector<uint32_t> ids) {
  // Deterministic escalation path: keep the lowest id as the survivor
  // and move the absorbed domains' instances across in ascending id
  // order via the restore path.
  HARMONY_ASSERT(ids.size() > 1);
  Domain& survivor = *domains_.at(ids[0]);
  // The survivor annexes the absorbed footprints: widen its scoped pool
  // by exactly those nodes and reconcile them against the master state
  // before any instance is restored onto them. Nodes the survivor
  // already owns have seen every event and are never stale.
  std::vector<cluster::NodeId> annexed;
  for (size_t i = 1; i < ids.size(); ++i) {
    for (cluster::NodeId node : domains_.at(ids[i])->footprint) {
      if (!std::binary_search(survivor.footprint.begin(),
                              survivor.footprint.end(), node)) {
        annexed.push_back(node);
      }
    }
  }
  std::sort(annexed.begin(), annexed.end());
  annexed.erase(std::unique(annexed.begin(), annexed.end()), annexed.end());
  survivor.controller->extend_scope(annexed);
  sync_node_state(*survivor.controller, annexed);
  for (size_t i = 1; i < ids.size(); ++i) {
    auto node = domains_.extract(ids[i]);
    HARMONY_ASSERT(!node.empty());
    std::unique_ptr<Domain> absorbed = std::move(node.mapped());
    retired_reconfigurations_ += absorbed->controller->reconfigurations();
    for (InstanceId id : absorbed->instances) {
      restore_into(survivor, *absorbed->controller, id);
      instance_domain_[id] = survivor.id;
      survivor.instances.insert(std::lower_bound(survivor.instances.begin(),
                                                 survivor.instances.end(),
                                                 id),
                                id);
    }
    for (cluster::NodeId node_id : absorbed->footprint) {
      if (node_id < node_domain_.size()) node_domain_[node_id] = survivor.id;
      auto pos = std::lower_bound(survivor.footprint.begin(),
                                  survivor.footprint.end(), node_id);
      if (pos == survivor.footprint.end() || *pos != node_id) {
        survivor.footprint.insert(pos, node_id);
      }
    }
    drop_info(absorbed->id);
  }
  refresh_info(survivor);
  return survivor.id;
}

void DomainRouter::rebalance_after_departure(uint32_t domain_id) {
  Domain& domain = *domains_.at(domain_id);
  if (domain.instances.empty()) {
    retire_domain(domain_id);
    return;
  }
  // Connected components of the remaining instances over shared nodes.
  std::map<InstanceId, InstanceId> parent;
  for (InstanceId id : domain.instances) parent[id] = id;
  std::function<InstanceId(InstanceId)> find = [&](InstanceId id) {
    while (parent[id] != id) {
      parent[id] = parent[parent[id]];
      id = parent[id];
    }
    return id;
  };
  std::map<cluster::NodeId, InstanceId> node_owner;
  for (InstanceId id : domain.instances) {
    for (cluster::NodeId node : instance_nodes_[id]) {
      auto [it, inserted] = node_owner.emplace(node, id);
      if (inserted) continue;
      InstanceId a = find(it->second), b = find(id);
      if (a != b) parent[std::max(a, b)] = std::min(a, b);
    }
  }
  std::map<InstanceId, std::vector<InstanceId>> components;
  for (InstanceId id : domain.instances) components[find(id)].push_back(id);

  if (components.size() == 1) {
    // Still connected; shrink the footprint so departed-only nodes stop
    // attracting future registrations into this domain.
    std::vector<cluster::NodeId> footprint;
    for (InstanceId id : domain.instances) {
      footprint.insert(footprint.end(), instance_nodes_[id].begin(),
                       instance_nodes_[id].end());
    }
    std::sort(footprint.begin(), footprint.end());
    footprint.erase(std::unique(footprint.begin(), footprint.end()),
                    footprint.end());
    for (cluster::NodeId node : domain.footprint) {
      if (node < node_domain_.size() && node_domain_[node] == domain_id &&
          !std::binary_search(footprint.begin(), footprint.end(), node)) {
        node_domain_[node] = 0;
      }
    }
    domain.footprint = std::move(footprint);
    refresh_info(domain);
    return;
  }

  // The departure disconnected the domain: rebuild each component into
  // its own controller. The component holding the lowest instance id
  // keeps the domain id and continues its journal sequence; the others
  // open fresh streams under fresh ids.
  auto extracted = domains_.extract(domain_id);
  std::unique_ptr<Domain> old = std::move(extracted.mapped());
  retired_reconfigurations_ += old->controller->reconfigurations();
  for (cluster::NodeId node : old->footprint) {
    if (node < node_domain_.size() && node_domain_[node] == domain_id) {
      node_domain_[node] = 0;
    }
  }
  drop_info(domain_id);

  bool first = true;
  for (auto& [rep, members] : components) {
    const uint32_t new_id = first ? domain_id : next_domain_id_++;
    // Each component's controller is scoped to the union of its
    // members' footprints — split cost is O(|component|).
    std::vector<cluster::NodeId> scope;
    for (InstanceId id : members) {
      scope.insert(scope.end(), instance_nodes_[id].begin(),
                   instance_nodes_[id].end());
    }
    Domain& fresh = create_domain(new_id, std::move(scope));
    if (first) {
      fresh.dseq = old->dseq;    // the stream continues gap-free
      fresh.epochs = old->epochs;
    }
    first = false;
    fresh.controller->restore_counters(next_instance_id_, 0);
    for (InstanceId id : members) {
      restore_into(fresh, *old->controller, id);
      index_instance(id, new_id, instance_nodes_[id]);
    }
  }
  // `old` (its controller, tap and journal stream) dies here; its
  // reconfiguration history lives on in retired_reconfigurations_.
}

// --- decision operations ---------------------------------------------------

Result<InstanceId> DomainRouter::register_script(
    const std::string& rsl_script) {
  // Parse first (mirrors Controller::register_script): a parse failure
  // must not burn an instance id or touch any domain.
  std::vector<rsl::BundleSpec> bundles;
  rsl::RslHost host;
  host.on_bundle([&bundles](const rsl::BundleSpec& bundle) {
    bundles.push_back(bundle);
    return Status::Ok();
  });
  auto parsed = host.eval_script(rsl_script);
  if (!parsed.ok()) {
    return Err<InstanceId>(parsed.error().code, parsed.error().message);
  }
  auto finalized = finalize_cluster();
  if (!finalized.ok()) {
    return Err<InstanceId>(finalized.error().code, finalized.error().message);
  }
  const double time = sample_now();

  // The instance's footprint — the union of its bundles' admissible
  // node sets — decides the owning domain. In single-domain (or
  // non-separable-objective) mode every instance shares all nodes, so
  // everything collapses into one component by construction.
  std::vector<cluster::NodeId> nodes;
  if (partitioned_) {
    for (const auto& spec : bundles) {
      BundleState probe;
      probe.spec = spec;
      const auto& admissible = probe.admissible(template_.topology());
      nodes.insert(nodes.end(), admissible.begin(), admissible.end());
    }
    std::sort(nodes.begin(), nodes.end());
    nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  } else {
    for (const auto& node : template_.topology().nodes()) {
      nodes.push_back(node.id);
    }
  }

  uint32_t domain_id = domain_for_footprint(nodes);
  const bool fresh_domain = domain_id == 0;
  if (fresh_domain) {
    domain_id = next_domain_id_++;
    create_domain(domain_id, nodes);
  }
  Domain& domain = *domains_.at(domain_id);

  // Footprint extensions this registration brings into an existing
  // domain: widen its scoped pool by exactly those nodes and reconcile
  // them against the master state before matching. A fresh domain was
  // just created with `nodes` as its scope and is already reconciled.
  std::vector<cluster::NodeId> annexed;
  if (!fresh_domain) {
    for (cluster::NodeId node : nodes) {
      if (!std::binary_search(domain.footprint.begin(), domain.footprint.end(),
                              node)) {
        annexed.push_back(node);
      }
    }
  }

  const InstanceId expected_id = next_instance_id_;
  auto result = run_on_domain<Result<InstanceId>>(
      domain, time,
      [this, &bundles, &rsl_script, expected_id, &annexed](Controller& c) {
        if (!annexed.empty()) {
          c.extend_scope(annexed);
          sync_node_state(c, annexed);
        }
        c.restore_counters(expected_id, c.reconfigurations());
        return c.register_application(bundles, rsl_script);
      });
  // The controller burns an id on most failures (exactly like the
  // single-controller path); stay in lockstep so ids remain globally
  // sequential and journal replay reproduces them.
  next_instance_id_ = std::max(next_instance_id_,
                               domain.controller->next_instance_id());
  if (!result.ok()) {
    if (fresh_domain) retire_domain(domain_id);
    return result;
  }
  HARMONY_ASSERT(result.value() == expected_id);
  index_instance(expected_id, domain_id, std::move(nodes));
  return result;
}

Status DomainRouter::unregister(InstanceId id) {
  auto it = instance_domain_.find(id);
  if (it == instance_domain_.end()) {
    return Status(ErrorCode::kNotFound, "no such instance");
  }
  const uint32_t domain_id = it->second;
  Domain& domain = *domains_.at(domain_id);
  const double time = sample_now();
  auto status = run_on_domain<Status>(
      domain, time, [id](Controller& c) { return c.unregister(id); });
  if (domain.controller->state().find_instance(id) != nullptr) {
    return status;  // departure did not take effect
  }
  instance_domain_.erase(id);
  subscriptions_.erase(id);
  domain.instances.erase(std::remove(domain.instances.begin(),
                                     domain.instances.end(), id),
                         domain.instances.end());
  rebalance_after_departure(domain_id);
  instance_nodes_.erase(id);
  return status;
}

Status DomainRouter::report_external_load(const std::string& hostname,
                                          int concurrent_tasks) {
  return node_event(ControllerEvent::Kind::kExternalLoad, hostname,
                    concurrent_tasks);
}

Status DomainRouter::set_node_online(const std::string& hostname,
                                     bool online) {
  return node_event(ControllerEvent::Kind::kNodeOnline, hostname,
                    online ? 1 : 0);
}

Status DomainRouter::node_event(ControllerEvent::Kind kind,
                                const std::string& hostname, int value) {
  const bool load = kind == ControllerEvent::Kind::kExternalLoad;
  // Mirrors the Controller's validation order so callers see identical
  // errors.
  if (!cluster_finalized()) {
    return Status(ErrorCode::kInvalidArgument, "cluster not finalized");
  }
  if (load && value < 0) {
    return Status(ErrorCode::kInvalidArgument, "load must be non-negative");
  }
  auto found = template_.topology().find_by_hostname(hostname);
  if (!found.ok()) return Status(found.error().code, found.error().message);
  const cluster::NodeId node = found.value();
  const double time = sample_now();
  // Master state: the load (absent = 0) or the online flag (absent =
  // online).
  auto record = [this, load, node, value] {
    if (load) {
      if (value == 0) {
        external_load_.erase(node);
      } else {
        external_load_[node] = value;
      }
    } else if (value != 0) {
      node_offline_.erase(node);
    } else {
      node_offline_[node] = true;
    }
  };
  const uint32_t owner = node < node_domain_.size() ? node_domain_[node] : 0;
  if (owner == 0) {
    // No domain owns the node: record in the master state and journal a
    // router-level event, so recovery replays the same input sequence
    // the single-controller path would have journaled.
    auto load_it = external_load_.find(node);
    const int current =
        load ? (load_it == external_load_.end() ? 0 : load_it->second)
             : (node_offline_.count(node) == 0 ? 1 : 0);
    if (current == value) return Status::Ok();
    record();
    ControllerEvent event;
    event.kind = kind;
    event.text = hostname;
    event.value = value;
    journal_router_event(std::move(event), time);
    return Status::Ok();
  }
  auto status = run_on_domain<Status>(
      *domains_.at(owner), time, [&](Controller& c) {
        return load ? c.report_external_load(hostname, value)
                    : c.set_node_online(hostname, value != 0);
      });
  if (status.ok()) record();
  return status;
}

Status DomainRouter::reevaluate() {
  if (!cluster_finalized()) {
    return Status(ErrorCode::kInvalidArgument, "cluster not finalized");
  }
  const double time = sample_now();
  if (domains_.empty()) {
    // Journal parity with the empty single controller, whose pass still
    // records a REEVAL event.
    journal_router_event(ControllerEvent{}, time);
    return Status::Ok();
  }
  for (auto& [id, domain] : domains_) {
    auto status = run_on_domain<Status>(
        *domain, time, [](Controller& c) { return c.reevaluate(); });
    if (!status.ok()) return status;
  }
  return Status::Ok();
}

Status DomainRouter::set_option(InstanceId id, const std::string& bundle,
                                const OptionChoice& choice) {
  if (!cluster_finalized()) {
    return Status(ErrorCode::kInvalidArgument, "cluster not finalized");
  }
  auto it = instance_domain_.find(id);
  if (it == instance_domain_.end()) {
    return Status(ErrorCode::kNotFound, "no such instance");
  }
  Domain& domain = *domains_.at(it->second);
  const double time = sample_now();
  return run_on_domain<Status>(
      domain, time, [id, &bundle, &choice](Controller& c) {
        return c.set_option(id, bundle, choice);
      });
}

Status DomainRouter::resize(InstanceId id, const std::string& bundle,
                            double workers) {
  if (!cluster_finalized()) {
    return Status(ErrorCode::kInvalidArgument, "cluster not finalized");
  }
  auto it = instance_domain_.find(id);
  if (it == instance_domain_.end()) {
    return Status(ErrorCode::kNotFound, "no such instance");
  }
  Domain& domain = *domains_.at(it->second);
  const double time = sample_now();
  return run_on_domain<Status>(
      domain, time, [id, &bundle, workers](Controller& c) {
        return c.resize(id, bundle, workers);
      });
}

Status DomainRouter::subscribe(InstanceId id,
                               Controller::UpdateHandler handler) {
  auto it = instance_domain_.find(id);
  if (it == instance_domain_.end()) {
    return Status(ErrorCode::kNotFound, "no such instance");
  }
  subscriptions_[id] = handler;
  Domain& domain = *domains_.at(it->second);
  const double time = sample_now();
  return run_on_domain<Status>(
      domain, time, [id, &handler](Controller& c) {
        return c.subscribe(id, std::move(handler));
      });
}

Result<std::string> DomainRouter::get_variable(InstanceId id,
                                               const std::string& name) {
  auto it = instance_domain_.find(id);
  if (it == instance_domain_.end()) {
    return Err<std::string>(ErrorCode::kNotFound, "no such instance");
  }
  Domain& domain = *domains_.at(it->second);
  const double time = sample_now();
  return run_on_domain<Result<std::string>>(
      domain, time, [id, &name](Controller& c) {
        return c.get_variable(id, name);
      });
}

void DomainRouter::journal_router_event(ControllerEvent event, double time) {
  if (journal_ == nullptr) return;
  event.time = time;
  journal_->on_domain_event(0, ++router_dseq_, event);
  journal_->on_domain_epoch_commit(0);
}

// --- merged introspection --------------------------------------------------

std::vector<const Controller*> DomainRouter::domain_controllers() const {
  std::vector<const Controller*> out;
  out.reserve(domains_.size());
  for (const auto& [id, domain] : domains_) {
    out.push_back(domain->controller.get());
  }
  return out;
}

uint64_t DomainRouter::reconfigurations() const {
  uint64_t total = retired_reconfigurations_;
  for (const auto& [id, domain] : domains_) {
    total += domain->controller->reconfigurations();
  }
  return total;
}

Result<std::vector<std::pair<InstanceId, double>>> DomainRouter::predictions()
    const {
  // Ascending first-instance-id order, so the first error reported
  // matches the instance order a global pass would hit it in.
  std::vector<const Domain*> ordered;
  for (const auto& [id, domain] : domains_) ordered.push_back(domain.get());
  std::sort(ordered.begin(), ordered.end(),
            [](const Domain* a, const Domain* b) {
              const InstanceId ia = a->instances.empty() ? 0
                                                         : a->instances[0];
              const InstanceId ib = b->instances.empty() ? 0
                                                         : b->instances[0];
              return ia < ib;
            });
  std::vector<std::pair<InstanceId, double>> merged;
  for (const Domain* domain : ordered) {
    auto partial = domain->controller->predictions();
    if (!partial.ok()) {
      return Err<std::vector<std::pair<InstanceId, double>>>(
          partial.error().code, partial.error().message);
    }
    merged.insert(merged.end(), partial.value().begin(),
                  partial.value().end());
  }
  std::sort(merged.begin(), merged.end());
  return merged;
}

Result<double> DomainRouter::objective_value() const {
  if (objective_ == nullptr) {
    return Err<double>(ErrorCode::kInvalidArgument, "unknown objective");
  }
  auto merged = predictions();
  if (!merged.ok()) {
    return Err<double>(merged.error().code, merged.error().message);
  }
  // Id order matches the instance order of a global controller, so even
  // the floating-point summation order is identical.
  std::vector<double> times;
  times.reserve(merged.value().size());
  for (const auto& [id, t] : merged.value()) times.push_back(t);
  // Deadline declarations merged from every domain (id-keyed, so the
  // term order matches a global controller's instance order). Without
  // deadlines, terms stays empty and the evaluation is bit-identical.
  std::map<InstanceId, std::pair<double, double>> deadlines;
  for (const auto& [did, domain] : domains_) {
    for (const auto& [iid, deadline, weight] :
         domain->controller->deadline_terms()) {
      deadlines[iid] = {deadline, weight};
    }
  }
  std::vector<DeadlineTerm> terms;
  if (!deadlines.empty()) {
    for (const auto& [id, t] : merged.value()) {
      auto found = deadlines.find(id);
      if (found == deadlines.end()) continue;
      terms.push_back({t, found->second.first, found->second.second});
    }
  }
  return objective_->evaluate_with_deadlines(times, terms);
}

std::vector<DomainRouter::DomainInfo> DomainRouter::snapshot() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  std::vector<DomainInfo> out;
  out.reserve(info_.size());
  for (const auto& [id, info] : info_) out.push_back(info);
  return out;
}

}  // namespace harmony::core
