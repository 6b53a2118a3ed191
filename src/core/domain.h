// Partitioned decision core: the namespace is decomposed into
// *optimization domains* — connected components of instances whose
// bundles' admissible node sets overlap — and each domain has a
// private Controller, epoch batching, pending-var flush and journal
// event stream.
//
// Why this preserves decision identity. For separable objectives
// (mean, throughput) every instance outside a bundle's domain
// contributes the same predicted time to every candidate the optimizer
// scores for that bundle: the bundle cannot be placed on (or contend
// with) any node those instances touch, so their terms are constant
// across candidates and cannot move the argmin. Within a domain the
// optimizer sees exactly the instances, pool occupancy and external
// load the global pass would consult, in the same registration order —
// so each domain's decision sequence is bit-identical to the slice of
// the global sequence that touches it (core_domain_test is the proof
// obligation). Non-separable objectives (makespan) couple every
// instance to every other; the router detects this and collapses to a
// single domain, as does the explicit --single-domain reference mode.
//
// Topology of the implementation:
//   DomainRouter   — the single-caller front end. Owns the membership
//                    index (instance -> domain, node -> domain), the
//                    master node state (external load, online flags)
//                    and the cluster definition. It starts no threads:
//                    all public methods must be called from one thread
//                    (the drain thread under the TCP server, the test
//                    body in tests), except snapshot(), which reads a
//                    mutex-guarded stats mirror from any thread.
//   domain op      — every routed op runs on the router's caller
//                    thread, against the domain's Controller with the
//                    owner-thread binding held for the duration of the
//                    op, one op at a time in call order.
//   merge/split    — a registration whose footprint overlaps several
//                    domains merges them (ascending domain id, lowest
//                    id survives, absorbed instances move via the
//                    restore path); a departure that disconnects a
//                    domain splits it (the component holding the lowest
//                    instance id keeps the domain id and its journal
//                    sequence, the rest rebuild under fresh ids).
//                    Every event before the membership change was
//                    applied against the old owner and every event
//                    after routes to the new owner — nothing is ever
//                    dropped.
//   journal        — per-domain sequence numbers layered on the shared
//                    WAL: each event is tagged (domain, dseq) and
//                    appended in commit order, so the file preserves a
//                    merged total order (for snapshot compaction) while
//                    recovery can validate each domain's stream is
//                    gap-free. Router-level events on nodes no domain
//                    owns are tagged domain 0.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/controller.h"
#include "core/objective.h"

namespace harmony::core {

// Sink for domain-tagged journal records. persist::Persistence
// implements this next to core::EventSink; methods are called on the
// router's caller thread.
class DomainJournal {
 public:
  virtual ~DomainJournal() = default;
  virtual void on_domain_event(uint32_t domain, uint64_t dseq,
                               const ControllerEvent& event) = 0;
  virtual void on_domain_epoch_commit(uint32_t domain) = 0;
};

struct DomainRouterConfig {
  // Template configuration applied to every per-domain controller.
  ControllerConfig controller;
  // Ignored: the router starts no threads. Kept only because
  // wirebench/ still assigns it; deleted together with those
  // assignments by the next benchmark change.
  int workers = 0;
  // Reference mode: disable partitioning, every instance lands in one
  // domain — the single-controller decision path.
  bool single_domain = false;
};

class DomainRouter {
 public:
  explicit DomainRouter(DomainRouterConfig config = {});
  ~DomainRouter();

  DomainRouter(const DomainRouter&) = delete;
  DomainRouter& operator=(const DomainRouter&) = delete;

  // --- cluster setup (mirrors Controller; fixed once finalized) -----------
  Status add_node(const rsl::NodeAd& ad);
  Status add_nodes_script(const std::string& rsl_script);
  Status link_hosts(const std::string& host_a, const std::string& host_b,
                    double bandwidth_mbps, double latency_ms);
  Status finalize_cluster();
  bool cluster_finalized() const;
  const cluster::Topology& topology() const;

  // Sampled at each operation and installed in the owning domain's
  // controller for the duration of that op.
  void set_time_source(std::function<double()> source);

  // Attach the domain-tagged journal sink. Must be called before the
  // first registration; the sink must outlive the router.
  void attach_journal(DomainJournal* journal);

  // --- decision operations (single caller; see class comment) -------------
  Result<InstanceId> register_script(const std::string& rsl_script);
  Status unregister(InstanceId id);
  Status report_external_load(const std::string& hostname,
                              int concurrent_tasks);
  Status set_node_online(const std::string& hostname, bool online);
  Status reevaluate();
  Status set_option(InstanceId id, const std::string& bundle,
                    const OptionChoice& choice);
  // Live grow/shrink: routed to the owning domain's controller (see
  // Controller::resize).
  Status resize(InstanceId id, const std::string& bundle, double workers);
  // The handler is retained by the router and re-attached when the
  // instance's domain merges or splits (the new controller replays the
  // current configuration, like a RESUME). Called on the router's
  // caller thread.
  Status subscribe(InstanceId id, Controller::UpdateHandler handler);
  Result<std::string> get_variable(InstanceId id, const std::string& name);

  // --- merged introspection (router thread) --------------------------------
  size_t domain_count() const { return domains_.size(); }
  // Live domain controllers ordered by domain id.
  std::vector<const Controller*> domain_controllers() const;
  // Reconfigurations across all domains, including retired ones.
  uint64_t reconfigurations() const;
  // Objective over the union of all domains' predicted times — equal to
  // what a single global controller would report.
  Result<double> objective_value() const;
  Result<std::vector<std::pair<InstanceId, double>>> predictions() const;
  size_t live_instances() const { return instance_domain_.size(); }
  InstanceId next_instance_id() const { return next_instance_id_; }
  bool partitioned() const { return partitioned_; }

  // --- wire/console introspection (any thread) -----------------------------
  struct DomainInfo {
    uint32_t id = 0;
    std::vector<std::string> members;  // instance paths
    size_t instances = 0;
    uint64_t epochs = 0;             // decision ops applied
    double last_decision_ms = 0;     // latency of the most recent op
    // Anytime-solver mirror (all zero when the solver is disabled).
    uint64_t solver_passes = 0;
    uint64_t solver_moves = 0;        // accepted improving moves
    double solver_improvement = 0;    // total objective improvement
  };
  // Thread-safe snapshot of per-domain stats, safe to call from net
  // shards while a decision is in flight.
  std::vector<DomainInfo> snapshot() const;

 private:
  struct Domain;
  class Tap;

  // Creates a domain whose controller shares the template's finalized
  // topology and allocates pool/version state only over `scope` (the
  // domain footprint) — O(|scope|), never O(cluster).
  Domain& create_domain(uint32_t id, std::vector<cluster::NodeId> scope);
  // Reconciles exactly the `annexed` nodes (sorted) of the controller's
  // pool against the master node state, walking the master maps in
  // lockstep — O(|annexed| + master entries in range), independent of
  // cluster size. Owned nodes are never stale (their events route to
  // the owning domain), so only annexed nodes ever need this.
  void sync_node_state(Controller& controller,
                       const std::vector<cluster::NodeId>& annexed) const;
  uint32_t domain_for_footprint(const std::vector<cluster::NodeId>& nodes);
  uint32_t merge_domains(std::vector<uint32_t> ids);
  void rebalance_after_departure(uint32_t domain_id);
  void retire_domain(uint32_t domain_id);
  void index_instance(InstanceId id, uint32_t domain_id,
                      std::vector<cluster::NodeId> nodes);
  void restore_into(Domain& target, const Controller& source, InstanceId id);
  void refresh_info(const Domain& domain);
  void drop_info(uint32_t domain_id);
  void journal_router_event(ControllerEvent event, double time);
  // The one path for an input about a node (an external-load report or
  // an online flip, `value` = tasks or 1/0): validates it, applies it
  // on the owning domain or journals it at router level when no domain
  // owns the node, and keeps the master node state in step.
  Status node_event(ControllerEvent::Kind kind, const std::string& hostname,
                    int value);
  double sample_now();
  // Runs `op` on the calling thread with the sampled time installed
  // and the controller's owner-thread binding held.
  template <typename R, typename Op>
  R run_on_domain(Domain& domain, double time, Op&& op);
  // Epilogue of every domain op: per-domain epoch/latency
  // telemetry, trace span, and the stats mirror for snapshot().
  void note_op_applied(Domain& domain, uint64_t start_us);

  DomainRouterConfig config_;
  bool partitioned_ = false;  // false: every instance shares domain 1
  std::function<double()> time_source_;
  DomainJournal* journal_ = nullptr;
  // For the merged objective_value(); same objective every domain uses.
  std::unique_ptr<Objective> objective_;

  // Template controller holding the finalized topology (never hosts an
  // instance); source of truth for hostname lookup and footprints. Its
  // topology is *shared* (by shared_ptr) with every domain controller
  // — domains adopt it instead of replaying the cluster definition —
  // and its namespace serves the immutable cluster.* names to every
  // domain through the namespace fallback chain.
  Controller template_;

  // Master node state, updated on every routed/unowned event so a new
  // or merged domain can reconcile nodes it has not seen events for.
  std::map<cluster::NodeId, int> external_load_;   // != 0 only
  std::map<cluster::NodeId, bool> node_offline_;   // present = offline

  // Membership index (router thread only).
  std::map<uint32_t, std::unique_ptr<Domain>> domains_;
  std::map<InstanceId, uint32_t> instance_domain_;
  std::map<InstanceId, std::vector<cluster::NodeId>> instance_nodes_;
  std::vector<uint32_t> node_domain_;  // node id -> domain id, 0 = unowned
  std::map<InstanceId, Controller::UpdateHandler> subscriptions_;

  InstanceId next_instance_id_ = 1;
  uint32_t next_domain_id_ = 1;
  uint64_t retired_reconfigurations_ = 0;
  uint64_t router_dseq_ = 0;  // journal stream for unowned-node events

  // Stats mirror read by snapshot() from arbitrary threads.
  mutable std::mutex stats_mutex_;
  std::map<uint32_t, DomainInfo> info_;  // guarded by stats_mutex_
};

// Process-global publication point for the {DOMAINS} wire verb and the
// console command: at most one router is published at a time; the
// publisher must unpublish (or be destroyed) before the router dies.
void publish_domain_router(DomainRouter* router);
// The published router's domains as one RSL list, the reply body of the
// {DOMAINS} wire verb and of the harmonyDomains console command: one row
// per live domain,
//   {<id> {<member>...} <epochs> <last_ms> {<passes> <moves> <improvement>}}
// (solver fields all zero when the solver is disabled). Sets *published
// to false and returns "" when none is published. Safe from any thread.
std::string published_domains(bool* published);

}  // namespace harmony::core
