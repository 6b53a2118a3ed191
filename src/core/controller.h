// The Active Harmony adaptation controller (paper §2, §5): an
// event-driven component that accepts application bundles, matches
// resource requirements against the cluster, chooses tuning options to
// optimize a global objective, and pushes variable updates back to
// applications. Updates are buffered and flushed once at the close of
// each epoch (flush_pending_vars(), the prototype's flushPendingVars()).
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/namespace.h"
#include "core/objective.h"
#include "core/optimizer.h"
#include "core/perf_model.h"
#include "core/state.h"
#include "metric/metric.h"
#include "metric/telemetry.h"
#include "rsl/rsl.h"

namespace harmony::core {

struct ControllerConfig {
  OptimizerConfig optimizer;
  // One of: "mean", "makespan", "throughput".
  std::string objective = "mean";
  // LogP-style endpoint CPU occupancy per transferred MB in the default
  // performance model (§3.4); 0 = the paper's plain wire-time model.
  double comm_occupancy_s_per_mb = 0.0;
  // Record the global objective as a metric after every applied epoch.
  // The evaluation is O(live instances); front ends driving thousands
  // of instances through steering epochs turn it off so an O(1) input
  // stays an O(1) epoch.
  bool record_objective_metric = true;
};

// One journal-able controller input: everything the outside world can
// do to a controller that affects its decisions. Replaying the sequence
// of events into a fresh controller (with the recorded times) is
// guaranteed to reproduce the original decision sequence — the
// optimizer is deterministic and all hidden inputs (time) are captured
// here. The durability subsystem (src/persist) records these in its
// write-ahead journal.
struct ControllerEvent {
  enum class Kind {
    kRegister,      // instance = assigned id, text = RSL script
    kDepart,        // instance
    kExternalLoad,  // text = hostname, value = concurrent tasks
    kNodeOnline,    // text = hostname, value = 1 (online) / 0 (offline)
    kSetOption,     // instance, text = bundle name, choice
    kReevaluate,    // periodic adaptation pass
    kResize,        // instance, text = bundle name, value = new degree
  };
  Kind kind = Kind::kReevaluate;
  double time = 0;          // controller now() when the event applied
  InstanceId instance = 0;
  std::string text;
  double value = 0;
  OptionChoice choice;
};

// Observer for durable controllers. Events arrive after they have
// successfully mutated state, in application order, inside the event's
// epoch; on_epoch_commit() fires once at the close of every outermost
// epoch — the natural write+fsync batching point for a write-ahead log.
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void on_controller_event(const ControllerEvent& event) = 0;
  virtual void on_epoch_commit() = 0;
};

class Controller {
 public:
  explicit Controller(ControllerConfig config = {});

  // RAII scope grouping decisions into one optimization epoch. Variable
  // updates queued anywhere inside the outermost scope are flushed once
  // at its close, together with one coherent set of
  // decision-path telemetry (epoch latency, candidates evaluated, skips,
  // cache hits and misses). Every controller entry point
  // opens one internally; callers that fan several calls into one
  // logical event (e.g. the TCP server dispatching a REGISTER that also
  // subscribes) can open their own so the event produces exactly one
  // flush.
  class EpochScope {
   public:
    explicit EpochScope(Controller& controller);
    ~EpochScope();
    EpochScope(const EpochScope&) = delete;
    EpochScope& operator=(const EpochScope&) = delete;

   private:
    Controller& controller_;
  };

  // --- cluster setup ----------------------------------------------------
  // Nodes and links are fixed once the first application registers.
  Status add_node(const rsl::NodeAd& ad);
  // Evaluates a script of harmonyNode commands.
  Status add_nodes_script(const std::string& rsl_script);
  Status link_hosts(const std::string& host_a, const std::string& host_b,
                    double bandwidth_mbps, double latency_ms = 0.0);
  // Resolves pending link ads and builds the resource pool. Idempotent;
  // called implicitly by the first registration.
  Status finalize_cluster();
  bool cluster_finalized() const { return state_.pool != nullptr; }

  // Domain-controller setup: share an already-finalized topology
  // instead of rebuilding it, allocate pool + version state only over
  // `scope` (the domain footprint; a scope covering every node becomes
  // an unscoped full-cluster pool), and resolve cluster.* names through
  // `cluster_names` (the router template's namespace) instead of
  // copying O(cluster) entries. Replaces add_node/finalize_cluster
  // wholesale: requires that neither has run. After this the cluster is
  // finalized and domain creation has done O(|scope|) work.
  Status adopt_cluster(std::shared_ptr<const cluster::Topology> topology,
                       std::vector<cluster::NodeId> scope,
                       const Namespace* cluster_names);
  // Grows a scoped pool to additionally cover `nodes` (domain merge /
  // annexation); state and version stamps of existing nodes are kept,
  // new nodes start pristine (online, no load). No-op when unscoped.
  void extend_scope(const std::vector<cluster::NodeId>& nodes) {
    state_.extend_scope(nodes);
  }
  std::shared_ptr<const cluster::Topology> shared_topology() const {
    return state_.shared_topology();
  }

  // --- threading --------------------------------------------------------
  // The controller is single-threaded by design; the sharded network
  // front end never calls in from its I/O threads — decoded messages
  // cross one mailbox drained by a single thread, which binds itself
  // here. While bound, every mutating (or namespace-reading) entry
  // point asserts it runs on that thread, turning an accidental
  // cross-thread call into a loud failure instead of a data race.
  // Unbound (the default) means no checking: plain single-threaded
  // embedders and tests are unaffected.
  void bind_owner_thread() {
    owner_thread_.store(std::this_thread::get_id(),
                        std::memory_order_relaxed);
  }
  void unbind_owner_thread() {
    owner_thread_.store(std::thread::id{}, std::memory_order_relaxed);
  }
  bool on_owner_thread() const {
    auto owner = owner_thread_.load(std::memory_order_relaxed);
    return owner == std::thread::id{} ||
           owner == std::this_thread::get_id();
  }

  // --- time -------------------------------------------------------------
  // Experiments install the simulator clock; defaults to a counter that
  // never goes backwards.
  void set_time_source(std::function<double()> source) {
    time_source_ = std::move(source);
  }
  double now() const;

  // --- application lifecycle (harmony_startup / _bundle_setup / _end) ----
  // Registers an application with the given bundles; runs the arrival
  // optimization pass. The instance id is Harmony-assigned (the paper's
  // "system chosen instance id").
  // `script_text` is the RSL source the bundles came from; when empty
  // (typed-API callers) an equivalent script is reconstructed with
  // rsl::bundle_to_script so the instance stays journal-able.
  Result<InstanceId> register_application(
      const std::vector<rsl::BundleSpec>& bundles,
      const std::string& script_text = "");
  // Evaluates a script of harmonyBundle commands and registers all the
  // bundles it defines as one application instance.
  Result<InstanceId> register_script(const std::string& rsl_script);
  Status unregister(InstanceId id);
  // Periodic re-evaluation (paper §4.3: "we continue this process on a
  // periodic basis").
  Status reevaluate();
  // Manual steering (the computational-steering tie-in of §7): force a
  // bundle onto a specific option, bypassing the objective but not
  // resource matching. The application is notified like any other
  // reconfiguration.
  Status set_option(InstanceId id, const std::string& bundle,
                    const OptionChoice& choice);
  // Live malleability (the DMR-style grow/shrink verb): change the
  // degree of parallelism of a *running* bundle by moving its
  // parallelism variable — the configured option's first declared
  // variable — to `workers`. The new degree must be one of the
  // variable's declared values (the application's exposed
  // alternatives; nonpositive or undeclared degrees are rejected), and
  // the rest of the choice (option, memory grant) is preserved. The
  // reconfiguration is resource-matched, journaled as a kResize event,
  // and pushed to the application like any other decision.
  Status resize(InstanceId id, const std::string& bundle, double workers);

  // Node deletion/addition at runtime ("adapt to changes in their
  // execution environment due to ... the addition or deletion of
  // nodes"). Taking a node offline displaces every allocation on it and
  // re-optimizes; bundles that no longer fit anywhere are left
  // unconfigured (their variable is pushed as the empty string) and are
  // retried on later passes. Bringing a node back online triggers a
  // re-evaluation that can expand applications onto it.
  Status set_node_online(const std::string& hostname, bool online);

  // Observed load from outside Harmony's control — "changes out of
  // Harmony's control (such as network traffic due to other
  // applications)" (§4.3). The report feeds the contention models and
  // the matcher's least-loaded ordering and triggers a re-evaluation,
  // so running applications shift away from busy nodes.
  Status report_external_load(const std::string& hostname,
                              int concurrent_tasks);

  // --- variables (harmony_add_variable / harmony_wait_for_update) --------
  using UpdateHandler = std::function<void(const std::string& name,
                                           const std::string& value)>;
  // Binds (or, with an empty handler, parks) the instance's subscription
  // and queues a replay of its current configuration for a live handler.
  Status subscribe(InstanceId id, UpdateHandler handler);
  // Delivers buffered updates to subscribers (flushPendingVars()). Only
  // instances with a live handler ever have updates buffered: decisions
  // about an instance nobody subscribed to (yet) queue nothing, so a
  // controller without clients — a standby — buffers nothing at all.
  void flush_pending_vars();
  // Variable updates buffered for the next flush, over all instances
  // (0 between epochs).
  size_t queued_update_count() const;
  // Pull-style read of a published variable ("<bundle>" -> option name,
  // "<bundle>.<var>" -> value, "<bundle>.<role>.node" -> hostname).
  Result<std::string> get_variable(InstanceId id,
                                   const std::string& name) const;

  // --- durability (src/persist) -------------------------------------------
  // Installs the event observer; pass nullptr to detach. The sink sees
  // every successfully applied event plus one commit callback per
  // outermost epoch.
  void set_event_sink(EventSink* sink) { sink_ = sink; }

  // Snapshot-restore primitives. They reinstall state exactly as
  // recorded — no optimization pass runs, no events are emitted, no
  // variable updates are queued. The persist layer calls them while
  // rebuilding a controller from a snapshot, before replaying the
  // journal tail.
  struct RestoredAllocationEntry {
    std::string role;
    int index = 0;
    std::string hostname_glob = "*";
    std::string os;
    double memory_mb = 0;
    std::string hostname;  // node the requirement was placed on
  };
  struct RestoredBundle {
    std::string bundle;
    bool configured = false;
    OptionChoice choice;
    double last_switch_time = 0;
    std::vector<RestoredAllocationEntry> entries;
  };
  // Re-parses `script`, reinstalls the instance under its original id,
  // re-reserves every allocation in the pool and republishes the
  // namespace. Requires a finalized cluster.
  Status restore_instance(const std::string& script, InstanceId id,
                          double arrival_time,
                          const std::vector<RestoredBundle>& bundles);
  // Raw state setters used during snapshot load: no re-evaluation.
  Status restore_external_load(const std::string& hostname, int tasks);
  Status restore_node_online(const std::string& hostname, bool online);
  void restore_counters(InstanceId next_instance_id,
                        uint64_t reconfigurations);

  // --- introspection ------------------------------------------------------
  const cluster::Topology& topology() const { return state_.topology(); }
  const SystemState& state() const { return state_; }
  const Namespace& names() const { return names_; }
  metric::MetricRegistry& metrics() { return metrics_; }
  Result<double> objective_value() const;
  Result<std::vector<std::pair<InstanceId, double>>> predictions() const;
  // Per-instance deadline declarations of the live configuration: (id,
  // effective deadline, tardiness weight) for every configured instance
  // whose chosen options declare one. The domain router merges these
  // with the merged predictions so the global objective prices
  // tardiness exactly as a single controller would.
  std::vector<std::tuple<InstanceId, double, double>> deadline_terms() const;
  const BundleState* bundle_state(InstanceId id,
                                  const std::string& bundle) const;
  uint64_t reconfigurations() const { return reconfigurations_; }
  InstanceId next_instance_id() const { return next_instance_id_; }
  size_t live_instances() const { return state_.instances.size(); }
  Optimizer& optimizer() { return *optimizer_; }
  const Optimizer& optimizer() const { return *optimizer_; }
  // Solver statistics of this controller's optimizer, or nullptr when
  // the anytime solver is disabled (budget_ms = 0).
  const SolverStats* solver_stats() const { return optimizer_->solver_stats(); }

 private:
  void assert_owner() const;
  void publish_instance(const InstanceState& instance);
  void queue_updates(const InstanceState& instance,
                     const std::vector<Decision>& decisions);
  void apply_decisions(const std::vector<Decision>& decisions);
  void begin_epoch();
  void end_epoch();
  // Stamps now() and forwards to the sink (no-op when detached).
  void emit_event(ControllerEvent event);
  rsl::ExprContext names_context() const {
    return names_.expr_context("");
  }

  ControllerConfig config_;
  SystemState state_;
  Namespace names_;
  metric::MetricRegistry metrics_;
  std::unique_ptr<Objective> objective_;
  Predictor predictor_;
  std::unique_ptr<Optimizer> optimizer_;
  std::function<double()> time_source_;
  EventSink* sink_ = nullptr;
  // Owner thread while a serve loop is bound; default id = unchecked.
  std::atomic<std::thread::id> owner_thread_{};
  InstanceId next_instance_id_ = 1;
  uint64_t reconfigurations_ = 0;

  // --- epoch bookkeeping (see EpochScope) ---------------------------------
  int epoch_depth_ = 0;
  bool epoch_applied_ = false;  // decisions were applied in this epoch
  uint64_t epoch_start_us_ = 0;  // telemetry clock, for the epoch span
  uint64_t epoch_candidates_start_ = 0;
  uint64_t epoch_skipped_start_ = 0;
  uint64_t epoch_cache_hits_start_ = 0;
  uint64_t epoch_cache_misses_start_ = 0;

  // The per-epoch decision metrics, thread-safe and resolved once: live
  // scrapes (the METRICS verb) read these; metrics_ holds only
  // simulation-time series.
  metric::Counter* tl_epochs_total_ =
      &metric::telemetry_counter("controller.epochs_total");
  metric::Counter* tl_candidates_total_ =
      &metric::telemetry_counter("controller.epoch_candidates_total");
  metric::Counter* tl_skips_total_ =
      &metric::telemetry_counter("controller.epoch_skips_total");
  metric::Counter* tl_cache_hits_total_ =
      &metric::telemetry_counter("optimizer.prediction_cache_hits_total");
  metric::Counter* tl_cache_misses_total_ =
      &metric::telemetry_counter("optimizer.prediction_cache_misses_total");
  metric::Histogram* tl_epoch_us_ =
      &metric::telemetry_histogram("controller.epoch_us");

  struct PendingLink {
    std::string from;
    std::string to;
    double bandwidth_mbps;
    double latency_ms;
  };
  std::vector<PendingLink> pending_links_;

  std::map<InstanceId, UpdateHandler> subscribers_;
  // Updates buffered for subscribed instances until the epoch closes.
  std::map<InstanceId, std::vector<std::pair<std::string, std::string>>>
      pending_vars_;
  // Instances with a non-empty pending queue (plus at most a few stale
  // ids); lets the per-epoch flush skip the thousands of quiet ones.
  std::vector<InstanceId> pending_dirty_;
};

}  // namespace harmony::core
