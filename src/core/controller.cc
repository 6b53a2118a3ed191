#include "core/controller.h"

#include <algorithm>
#include <set>
#include <unordered_set>

#include "common/logging.h"
#include "common/strings.h"

namespace harmony::core {

namespace {

// Controller-built paths are valid by construction; a failure here is a
// programming error, not a recoverable condition.
void must_set(Namespace& names, const std::string& path, double value) {
  auto status = names.set(path, value);
  HARMONY_ASSERT_MSG(status.ok(), path.c_str());
}

void must_set_string(Namespace& names, const std::string& path,
                     const std::string& value) {
  auto status = names.set_string(path, value);
  HARMONY_ASSERT_MSG(status.ok(), path.c_str());
}

}  // namespace

Controller::Controller(ControllerConfig config) : config_(std::move(config)) {
  objective_ = make_objective(config_.objective);
  HARMONY_ASSERT_MSG(objective_ != nullptr, "unknown objective name");
  predictor_.set_comm_occupancy(config_.comm_occupancy_s_per_mb);
  optimizer_ = std::make_unique<Optimizer>(&predictor_, objective_.get(),
                                           config_.optimizer);
}

double Controller::now() const {
  return time_source_ ? time_source_() : 0.0;
}

void Controller::assert_owner() const {
  // Fires only while a serve loop is bound (see bind_owner_thread): a
  // controller entry from any other thread is a data race in the
  // making, not a recoverable condition.
  HARMONY_ASSERT_MSG(on_owner_thread(),
                     "controller entered off its owner thread");
}

Controller::EpochScope::EpochScope(Controller& controller)
    : controller_(controller) {
  controller_.begin_epoch();
}

Controller::EpochScope::~EpochScope() { controller_.end_epoch(); }

void Controller::begin_epoch() {
  if (epoch_depth_++ > 0) return;
  epoch_applied_ = false;
  epoch_start_us_ = metric::telemetry_now_us();
  epoch_candidates_start_ = optimizer_->candidates_evaluated();
  epoch_skipped_start_ = optimizer_->bundles_skipped();
  epoch_cache_hits_start_ = optimizer_->cache_stats().hits;
  epoch_cache_misses_start_ = optimizer_->cache_stats().misses;
}

void Controller::end_epoch() {
  HARMONY_ASSERT(epoch_depth_ > 0);
  if (--epoch_depth_ > 0) return;
  if (epoch_applied_) {
    // Thread-safe epoch facts for live scrapes; the MetricRegistry keeps
    // only simulation-time application series.
    const uint64_t end_us = metric::telemetry_now_us();
    tl_epochs_total_->increment();
    tl_candidates_total_->add(optimizer_->candidates_evaluated() -
                              epoch_candidates_start_);
    tl_skips_total_->add(optimizer_->bundles_skipped() -
                         epoch_skipped_start_);
    tl_cache_hits_total_->add(optimizer_->cache_stats().hits -
                              epoch_cache_hits_start_);
    tl_cache_misses_total_->add(optimizer_->cache_stats().misses -
                                epoch_cache_misses_start_);
    tl_epoch_us_->record(end_us - epoch_start_us_);
    if (metric::TraceBuffer::instance().enabled()) {
      metric::TraceBuffer::instance().record("epoch.reevaluate",
                                             epoch_start_us_,
                                             end_us - epoch_start_us_);
    }
  }
  // One coherent flush per external event, however many decision
  // batches it produced.
  flush_pending_vars();
  // Journal batching point: the persist layer writes (and fsyncs) all
  // events of this epoch as one batch, keeping the decision path free
  // of per-event disk latency.
  if (sink_ != nullptr) sink_->on_epoch_commit();
}

void Controller::emit_event(ControllerEvent event) {
  if (sink_ == nullptr) return;
  event.time = now();
  sink_->on_controller_event(event);
}

Status Controller::add_node(const rsl::NodeAd& ad) {
  if (cluster_finalized()) {
    return Status(ErrorCode::kClosed, "cluster is finalized");
  }
  auto id =
      state_.mutable_topology().add_node(ad.name, ad.speed, ad.memory_mb,
                                         ad.os);
  if (!id.ok()) return Status(id.error().code, id.error().message);
  for (const auto& link : ad.links) {
    pending_links_.push_back(
        {ad.name, link.peer, link.bandwidth_mbps, link.latency_ms});
  }
  must_set(names_, "cluster." + ad.name + ".speed", ad.speed);
  must_set(names_, "cluster." + ad.name + ".memory", ad.memory_mb);
  return Status::Ok();
}

Status Controller::add_nodes_script(const std::string& rsl_script) {
  rsl::RslHost host;
  host.on_node([this](const rsl::NodeAd& ad) { return add_node(ad); });
  return host.eval_script(rsl_script);
}

Status Controller::link_hosts(const std::string& host_a,
                              const std::string& host_b,
                              double bandwidth_mbps, double latency_ms) {
  if (cluster_finalized()) {
    return Status(ErrorCode::kClosed, "cluster is finalized");
  }
  pending_links_.push_back({host_a, host_b, bandwidth_mbps, latency_ms});
  return Status::Ok();
}

Status Controller::finalize_cluster() {
  if (cluster_finalized()) return Status::Ok();
  for (const auto& link : pending_links_) {
    auto a = state_.topology().find_by_hostname(link.from);
    auto b = state_.topology().find_by_hostname(link.to);
    if (!a.ok() || !b.ok()) {
      return Status(ErrorCode::kNotFound,
                    "link references unknown host: " + link.from + "<->" +
                        link.to);
    }
    auto status = state_.mutable_topology().add_link(a.value(), b.value(),
                                                     link.bandwidth_mbps,
                                                     link.latency_ms);
    if (!status.ok()) return status;
  }
  pending_links_.clear();
  if (state_.topology().node_count() == 0) {
    return Status(ErrorCode::kInvalidArgument, "cluster has no nodes");
  }
  // Nodes and links are frozen from here on (domains share this
  // topology read-only), so no decision pays for the index.
  state_.topology().build_path_index();
  state_.init_pool();
  optimizer_->set_names(names_context());
  return Status::Ok();
}

Status Controller::adopt_cluster(
    std::shared_ptr<const cluster::Topology> topology,
    std::vector<cluster::NodeId> scope, const Namespace* cluster_names) {
  if (cluster_finalized() || state_.topology().node_count() > 0) {
    return Status(ErrorCode::kClosed,
                  "adopt_cluster requires a pristine controller");
  }
  if (topology == nullptr || topology->node_count() == 0) {
    return Status(ErrorCode::kInvalidArgument, "empty shared topology");
  }
  for (cluster::NodeId node : scope) {
    if (node >= topology->node_count()) {
      return Status(ErrorCode::kInvalidArgument, "scope node out of range");
    }
  }
  // A scope spanning the whole cluster is just a full pool; dropping
  // the scope keeps this path bit-identical to finalize_cluster().
  if (scope.size() >= topology->node_count()) scope.clear();
  state_.adopt_topology(std::move(topology));
  names_.set_fallback(cluster_names);
  state_.init_pool(std::move(scope));
  optimizer_->set_names(names_context());
  return Status::Ok();
}

Result<InstanceId> Controller::register_application(
    const std::vector<rsl::BundleSpec>& bundles,
    const std::string& script_text) {
  assert_owner();
  if (bundles.empty()) {
    return Err<InstanceId>(ErrorCode::kInvalidArgument,
                           "application has no bundles");
  }
  for (size_t i = 1; i < bundles.size(); ++i) {
    if (bundles[i].application != bundles[0].application) {
      return Err<InstanceId>(ErrorCode::kInvalidArgument,
                             "bundles belong to different applications");
    }
  }
  auto finalized = finalize_cluster();
  if (!finalized.ok()) {
    return Err<InstanceId>(finalized.error().code, finalized.error().message);
  }
  EpochScope epoch(*this);

  InstanceState instance;
  instance.id = next_instance_id_++;
  instance.application = bundles[0].application;
  instance.arrival_time = now();
  if (!script_text.empty()) {
    instance.script = script_text;
  } else {
    for (const auto& spec : bundles) {
      instance.script += rsl::bundle_to_script(spec);
    }
  }
  for (const auto& spec : bundles) {
    if (instance.find_bundle(spec.bundle) != nullptr) {
      return Err<InstanceId>(ErrorCode::kAlreadyExists,
                             "duplicate bundle: " + spec.bundle);
    }
    BundleState bundle;
    bundle.spec = spec;
    instance.bundles.push_back(std::move(bundle));
  }
  state_.instances.push_back(std::move(instance));
  InstanceId id = state_.instances.back().id;

  auto decisions = optimizer_->on_arrival(state_, id, now());
  if (!decisions.ok()) {
    // Arrival failed (no feasible configuration): withdraw the instance.
    state_.instances.pop_back();
    return Err<InstanceId>(decisions.error().code, decisions.error().message);
  }
  apply_decisions(decisions.value());
  HLOG_INFO("controller") << "registered " << bundles[0].application << "."
                          << id;
  ControllerEvent event;
  event.kind = ControllerEvent::Kind::kRegister;
  event.instance = id;
  event.text = state_.instances.back().script;
  emit_event(std::move(event));
  return id;
}

Result<InstanceId> Controller::register_script(const std::string& rsl_script) {
  std::vector<rsl::BundleSpec> bundles;
  rsl::RslHost host;
  host.on_bundle([&bundles](const rsl::BundleSpec& bundle) {
    bundles.push_back(bundle);
    return Status::Ok();
  });
  auto status = host.eval_script(rsl_script);
  if (!status.ok()) {
    return Err<InstanceId>(status.error().code, status.error().message);
  }
  return register_application(bundles, rsl_script);
}

Status Controller::unregister(InstanceId id) {
  assert_owner();
  auto it = std::find_if(state_.instances.begin(), state_.instances.end(),
                         [id](const InstanceState& i) { return i.id == id; });
  if (it == state_.instances.end()) {
    return Status(ErrorCode::kNotFound, "no such instance");
  }
  EpochScope epoch(*this);
  for (auto& bundle : it->bundles) {
    if (bundle.configured) {
      auto released = cluster::Matcher::release(bundle.allocation,
                                                *state_.pool);
      HARMONY_ASSERT(released.ok());
      state_.touch_allocation(bundle.allocation);
    }
  }
  names_.erase(it->path());
  // The departed instance's names are gone, but memoized predictions
  // survive: cache keys embed the values read through the context, so
  // entries that depended on the erased names can no longer be hit.
  subscribers_.erase(id);
  pending_vars_.erase(id);
  state_.instances.erase(it);
  HLOG_INFO("controller") << "unregistered instance " << id;
  // "harmony_end(): the application is about to terminate and Harmony
  // should re-evaluate the application's resources."
  auto decisions = optimizer_->reevaluate(state_, now());
  if (!decisions.ok()) {
    return Status(decisions.error().code, decisions.error().message);
  }
  apply_decisions(decisions.value());
  ControllerEvent event;
  event.kind = ControllerEvent::Kind::kDepart;
  event.instance = id;
  emit_event(std::move(event));
  return Status::Ok();
}

Status Controller::reevaluate() {
  assert_owner();
  if (!cluster_finalized()) {
    return Status(ErrorCode::kInvalidArgument, "cluster not finalized");
  }
  EpochScope epoch(*this);
  auto decisions = optimizer_->reevaluate(state_, now());
  if (!decisions.ok()) {
    return Status(decisions.error().code, decisions.error().message);
  }
  apply_decisions(decisions.value());
  emit_event(ControllerEvent{});  // default kind is kReevaluate
  return Status::Ok();
}

Status Controller::set_option(InstanceId id, const std::string& bundle,
                              const OptionChoice& choice) {
  assert_owner();
  if (!cluster_finalized()) {
    return Status(ErrorCode::kInvalidArgument, "cluster not finalized");
  }
  EpochScope epoch(*this);
  auto decision = optimizer_->apply_choice(state_, id, bundle, choice, now());
  if (!decision.ok()) {
    return Status(decision.error().code, decision.error().message);
  }
  apply_decisions({decision.value()});
  ControllerEvent event;
  event.kind = ControllerEvent::Kind::kSetOption;
  event.instance = id;
  event.text = bundle;
  event.choice = choice;
  emit_event(std::move(event));
  return Status::Ok();
}

Status Controller::resize(InstanceId id, const std::string& bundle,
                          double workers) {
  assert_owner();
  if (!cluster_finalized()) {
    return Status(ErrorCode::kInvalidArgument, "cluster not finalized");
  }
  InstanceState* instance = state_.find_instance(id);
  if (instance == nullptr) {
    return Status(ErrorCode::kNotFound, "no such instance");
  }
  BundleState* target = instance->find_bundle(bundle);
  if (target == nullptr) {
    return Status(ErrorCode::kNotFound, "no such bundle: " + bundle);
  }
  if (!target->configured) {
    return Status(ErrorCode::kInvalidArgument,
                  "bundle not configured: " + bundle);
  }
  const rsl::OptionSpec* option =
      target->spec.find_option(target->choice.option);
  if (option == nullptr || option->variables.empty()) {
    return Status(ErrorCode::kInvalidArgument,
                  "configured option exposes no parallelism variable");
  }
  const rsl::VariableSpec& variable = option->variables.front();
  // The new degree must be one of the application's exposed
  // alternatives — which also rejects nonpositive degrees, since a
  // valid bundle never declares them.
  if (workers <= 0 ||
      std::find(variable.values.begin(), variable.values.end(), workers) ==
          variable.values.end()) {
    return Status(ErrorCode::kInvalidArgument,
                  str_format("degree %g is not a declared value of %s.%s",
                             workers, bundle.c_str(),
                             variable.name.c_str()));
  }
  OptionChoice choice = target->choice;
  choice.variables[variable.name] = workers;
  if (choice == target->choice) return Status::Ok();  // already there

  EpochScope epoch(*this);
  auto decision = optimizer_->apply_choice(state_, id, bundle, choice, now());
  if (!decision.ok()) {
    return Status(decision.error().code, decision.error().message);
  }
  apply_decisions({decision.value()});
  metrics_.record(instance->path() + "." + bundle + ".degree", now(), workers);
  ControllerEvent event;
  event.kind = ControllerEvent::Kind::kResize;
  event.instance = id;
  event.text = bundle;
  event.value = workers;
  emit_event(std::move(event));
  return Status::Ok();
}

Status Controller::set_node_online(const std::string& hostname, bool online) {
  assert_owner();
  if (!cluster_finalized()) {
    return Status(ErrorCode::kInvalidArgument, "cluster not finalized");
  }
  auto node = state_.topology().find_by_hostname(hostname);
  if (!node.ok()) return Status(node.error().code, node.error().message);
  if (state_.pool->is_online(node.value()) == online) return Status::Ok();
  EpochScope epoch(*this);
  state_.pool->set_online(node.value(), online);
  state_.touch_node(node.value());
  metrics_.record("cluster." + hostname + ".online", now(), online ? 1 : 0);
  HLOG_INFO("controller") << hostname << (online ? " joined" : " left")
                          << " the cluster";

  std::vector<Decision> decisions;
  if (!online) {
    // Displace everything placed on the departed node.
    for (auto& instance : state_.instances) {
      for (auto& bundle : instance.bundles) {
        if (!bundle.configured) continue;
        bool uses = false;
        for (const auto& entry : bundle.allocation.entries) {
          if (entry.node == node.value()) uses = true;
        }
        if (!uses) continue;
        auto released =
            cluster::Matcher::release(bundle.allocation, *state_.pool);
        HARMONY_ASSERT(released.ok());
        state_.touch_allocation(bundle.allocation);
        bundle.configured = false;
        bundle.allocation = {};
        // A displaced bundle holds no argmin configuration anymore.
        bundle.evaluated_version = 0;
        decisions.push_back(
            Decision{instance.id, bundle.spec.bundle, OptionChoice{}, true});
      }
    }
  }
  // Re-optimize everyone: displaced bundles find new homes (or stay
  // unconfigured), survivors adapt to the new capacity.
  auto reoptimized = optimizer_->reevaluate(state_, now());
  if (!reoptimized.ok()) {
    return Status(reoptimized.error().code, reoptimized.error().message);
  }
  // A displaced bundle that found a home appears in both lists; keep
  // the re-optimization verdict in that case.
  for (auto& displaced : decisions) {
    bool superseded = false;
    for (const auto& decision : reoptimized.value()) {
      if (decision.instance == displaced.instance &&
          decision.bundle == displaced.bundle && decision.changed) {
        superseded = true;
      }
    }
    if (!superseded) reoptimized.value().push_back(displaced);
  }
  apply_decisions(reoptimized.value());
  ControllerEvent event;
  event.kind = ControllerEvent::Kind::kNodeOnline;
  event.text = hostname;
  event.value = online ? 1 : 0;
  emit_event(std::move(event));
  return Status::Ok();
}

Status Controller::report_external_load(const std::string& hostname,
                                        int concurrent_tasks) {
  assert_owner();
  if (!cluster_finalized()) {
    return Status(ErrorCode::kInvalidArgument, "cluster not finalized");
  }
  if (concurrent_tasks < 0) {
    return Status(ErrorCode::kInvalidArgument, "load must be non-negative");
  }
  auto node = state_.topology().find_by_hostname(hostname);
  if (!node.ok()) return Status(node.error().code, node.error().message);
  if (state_.pool->external_load(node.value()) == concurrent_tasks) {
    return Status::Ok();
  }
  EpochScope epoch(*this);
  state_.pool->set_external_load(node.value(), concurrent_tasks);
  // Load-only dirtiness: allocations are untouched, so bundles whose
  // models ignore contention need not re-evaluate (can_skip consults
  // node_load_version only for load-reading models).
  state_.touch_node_load(node.value());
  metrics_.record("cluster." + hostname + ".external_load", now(),
                  concurrent_tasks);
  HLOG_INFO("controller") << hostname << " external load -> "
                          << concurrent_tasks;
  auto decisions = optimizer_->reevaluate(state_, now());
  if (!decisions.ok()) {
    return Status(decisions.error().code, decisions.error().message);
  }
  apply_decisions(decisions.value());
  ControllerEvent event;
  event.kind = ControllerEvent::Kind::kExternalLoad;
  event.text = hostname;
  event.value = concurrent_tasks;
  emit_event(std::move(event));
  return Status::Ok();
}

Status Controller::restore_instance(
    const std::string& script, InstanceId id, double arrival_time,
    const std::vector<RestoredBundle>& bundles) {
  auto finalized = finalize_cluster();
  if (!finalized.ok()) return finalized;
  if (state_.find_instance(id) != nullptr) {
    return Status(ErrorCode::kAlreadyExists, "instance id already restored");
  }
  std::vector<rsl::BundleSpec> specs;
  rsl::RslHost host;
  host.on_bundle([&specs](const rsl::BundleSpec& bundle) {
    specs.push_back(bundle);
    return Status::Ok();
  });
  auto parsed = host.eval_script(script);
  if (!parsed.ok()) return parsed;
  if (specs.empty()) {
    return Status(ErrorCode::kInvalidArgument,
                  "restored instance has no bundles");
  }

  InstanceState instance;
  instance.id = id;
  instance.application = specs[0].application;
  instance.arrival_time = arrival_time;
  instance.script = script;
  for (auto& spec : specs) {
    BundleState bundle;
    bundle.spec = std::move(spec);
    instance.bundles.push_back(std::move(bundle));
  }
  for (const auto& restored : bundles) {
    BundleState* bundle = instance.find_bundle(restored.bundle);
    if (bundle == nullptr) {
      return Status(ErrorCode::kNotFound,
                    "restored bundle not in spec: " + restored.bundle);
    }
    bundle->choice = restored.choice;
    bundle->configured = restored.configured;
    bundle->last_switch_time = restored.last_switch_time;
    if (!restored.configured) continue;
    // Re-reserve exactly what the matcher reserved pre-crash (memory +
    // one process per placed requirement).
    for (const auto& entry : restored.entries) {
      auto node = state_.topology().find_by_hostname(entry.hostname);
      if (!node.ok()) return Status(node.error().code, node.error().message);
      auto reserved = state_.pool->reserve_memory(node.value(),
                                                  entry.memory_mb);
      if (!reserved.ok()) return reserved;
      state_.pool->add_process(node.value());
      cluster::Allocation::Entry allocated;
      allocated.requirement.role = entry.role;
      allocated.requirement.index = entry.index;
      allocated.requirement.hostname_glob = entry.hostname_glob;
      allocated.requirement.os = entry.os;
      allocated.requirement.memory_mb = entry.memory_mb;
      allocated.node = node.value();
      bundle->allocation.entries.push_back(std::move(allocated));
    }
    state_.touch_allocation(bundle->allocation);
  }
  // Insert in id order: snapshot restores arrive ascending, but a
  // domain merge can restore an older instance into a controller that
  // already holds younger ones, and find_instance binary-searches.
  auto pos = std::lower_bound(
      state_.instances.begin(), state_.instances.end(), id,
      [](const InstanceState& existing, InstanceId key) {
        return existing.id < key;
      });
  pos = state_.instances.insert(pos, std::move(instance));
  next_instance_id_ = std::max(next_instance_id_, id + 1);
  publish_instance(*pos);
  // Refresh the optimizer's view of the namespace, as apply_decisions
  // would after a republish.
  optimizer_->set_names(names_context());
  return Status::Ok();
}

Status Controller::restore_external_load(const std::string& hostname,
                                         int tasks) {
  auto finalized = finalize_cluster();
  if (!finalized.ok()) return finalized;
  auto node = state_.topology().find_by_hostname(hostname);
  if (!node.ok()) return Status(node.error().code, node.error().message);
  state_.pool->set_external_load(node.value(), tasks);
  state_.touch_node_load(node.value());
  return Status::Ok();
}

Status Controller::restore_node_online(const std::string& hostname,
                                       bool online) {
  auto finalized = finalize_cluster();
  if (!finalized.ok()) return finalized;
  auto node = state_.topology().find_by_hostname(hostname);
  if (!node.ok()) return Status(node.error().code, node.error().message);
  state_.pool->set_online(node.value(), online);
  state_.touch_node(node.value());
  return Status::Ok();
}

void Controller::restore_counters(InstanceId next_instance_id,
                                  uint64_t reconfigurations) {
  next_instance_id_ = std::max(next_instance_id_, next_instance_id);
  reconfigurations_ = reconfigurations;
}

Status Controller::subscribe(InstanceId id, UpdateHandler handler) {
  assert_owner();
  if (state_.find_instance(id) == nullptr) {
    return Status(ErrorCode::kNotFound, "no such instance");
  }
  EpochScope epoch(*this);
  subscribers_[id] = std::move(handler);
  // Send the instance its current configuration immediately so late
  // subscribers do not miss the arrival decision. Nothing was queued
  // while no live handler existed (see queue_updates); anything queued
  // for a previous handler is superseded by this replay — dropping it
  // is what guarantees a resumed client observes only the latest
  // configuration, never an intermediate one. A parked (empty) handler
  // gets no replay: queue_updates skips it.
  pending_vars_[id].clear();
  const InstanceState* instance = state_.find_instance(id);
  std::vector<Decision> synthetic;
  for (const auto& bundle : instance->bundles) {
    if (bundle.configured) {
      synthetic.push_back(
          Decision{id, bundle.spec.bundle, bundle.choice, true});
    }
  }
  queue_updates(*instance, synthetic);
  return Status::Ok();
}

void Controller::flush_pending_vars() {
  assert_owner();
  if (pending_dirty_.empty()) return;
  // Only instances with something queued are visited: the flush runs at
  // the close of every epoch (every network message under the TCP
  // server), so it must not scale with the number of live instances.
  // Every queue belongs to a subscribed instance (queue_updates queues
  // nothing else), so each visit delivers or drops, and nothing stays
  // behind for a later flush to rescan.
  // Deterministic delivery order: instance id, then queue order.
  std::vector<InstanceId> dirty;
  dirty.swap(pending_dirty_);
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  for (InstanceId id : dirty) {
    auto queued = pending_vars_.find(id);
    if (queued == pending_vars_.end() || queued->second.empty()) continue;
    auto& updates = queued->second;
    // subscribe() clears the queue whenever it (re)binds or parks a
    // handler, so the handler found here is the one the updates were
    // queued for.
    auto handler = subscribers_.find(id);
    if (handler != subscribers_.end() && handler->second) {
      for (const auto& [name, value] : updates) handler->second(name, value);
    }
    updates.clear();
  }
}

size_t Controller::queued_update_count() const {
  size_t count = 0;
  for (const auto& [id, updates] : pending_vars_) count += updates.size();
  return count;
}

Result<std::string> Controller::get_variable(InstanceId id,
                                             const std::string& name) const {
  assert_owner();
  const InstanceState* instance = state_.find_instance(id);
  if (instance == nullptr) {
    return Err<std::string>(ErrorCode::kNotFound, "no such instance");
  }
  return names_.get_string(instance->path() + "." + name);
}

Result<double> Controller::objective_value() const {
  return optimizer_->objective_value(state_);
}

Result<std::vector<std::pair<InstanceId, double>>> Controller::predictions()
    const {
  return optimizer_->predict_all(state_);
}

std::vector<std::tuple<InstanceId, double, double>> Controller::deadline_terms()
    const {
  std::vector<std::tuple<InstanceId, double, double>> out;
  for (const auto& instance : state_.instances) {
    double deadline = 0, weight = 1;
    if (instance_deadline(instance, &deadline, &weight)) {
      out.emplace_back(instance.id, deadline, weight);
    }
  }
  return out;
}

const BundleState* Controller::bundle_state(InstanceId id,
                                            const std::string& bundle) const {
  const InstanceState* instance = state_.find_instance(id);
  if (instance == nullptr) return nullptr;
  return instance->find_bundle(bundle);
}

void Controller::publish_instance(const InstanceState& instance) {
  const std::string root = instance.path();
  names_.erase(root);
  must_set(names_, root + ".arrival", instance.arrival_time);
  for (const auto& bundle : instance.bundles) {
    if (!bundle.configured) continue;
    const std::string broot = root + "." + bundle.spec.bundle;
    must_set_string(names_, broot + ".option", bundle.choice.option);
    must_set(names_, broot + ".switched", bundle.last_switch_time);
    for (const auto& [var, value] : bundle.choice.variables) {
      must_set(names_, broot + "." + var, value);
    }
    const std::string oroot = broot + "." + bundle.choice.option;
    std::map<std::string, int> role_counts;
    for (const auto& entry : bundle.allocation.entries) {
      const auto& req = entry.requirement;
      const auto& node = state_.topology().node(entry.node);
      ++role_counts[req.role];
      std::string rroot = oroot + "." + req.role;
      if (req.index > 0) rroot += str_format(".%d", req.index);
      must_set_string(names_, rroot + ".node", node.hostname);
      must_set(names_, rroot + ".memory", req.memory_mb);
      must_set(names_, rroot + ".speed", node.speed);
    }
    for (const auto& [role, count] : role_counts) {
      must_set(names_, oroot + "." + role + ".count", count);
    }
  }
}

void Controller::queue_updates(const InstanceState& instance,
                               const std::vector<Decision>& decisions) {
  // Only a live subscription can ever receive an update. Without one
  // (the arrival decision precedes the client library's subscribe; a
  // standby has no clients at all) or with a parked one (empty handler)
  // the updates would be superseded unread: subscribe() replays the
  // current configuration, so nothing is lost by not building them.
  auto handler = subscribers_.find(instance.id);
  if (handler == subscribers_.end() || !handler->second) return;
  for (const auto& decision : decisions) {
    if (decision.instance != instance.id || !decision.changed) continue;
    const BundleState* bundle = instance.find_bundle(decision.bundle);
    if (bundle == nullptr) continue;
    auto& queue = pending_vars_[instance.id];
    if (queue.empty()) pending_dirty_.push_back(instance.id);
    if (!bundle->configured) {
      // Displaced with nowhere to go: the application learns its bundle
      // currently has no configuration, and every role's placement
      // variables are cleared so pollers and interrupt handlers never
      // read a stale host list.
      queue.emplace_back(decision.bundle, "");
      std::set<std::string> roles;
      for (const auto& option : bundle->spec.options) {
        for (const auto& node : option.nodes) roles.insert(node.role);
      }
      for (const auto& role : roles) {
        queue.emplace_back(decision.bundle + "." + role + ".node", "");
        queue.emplace_back(decision.bundle + "." + role + ".nodes", "");
      }
      continue;
    }
    queue.emplace_back(decision.bundle, bundle->choice.option);
    for (const auto& [var, value] : bundle->choice.variables) {
      queue.emplace_back(var, format_number(value));
    }
    std::map<std::string, std::vector<std::string>> role_hosts;
    std::map<std::string, double> role_memory;
    for (const auto& entry : bundle->allocation.entries) {
      role_hosts[entry.requirement.role].push_back(
          state_.topology().node(entry.node).hostname);
      if (entry.requirement.index == 0) {
        role_memory[entry.requirement.role] = entry.requirement.memory_mb;
      }
    }
    for (const auto& [role, hosts] : role_hosts) {
      queue.emplace_back(decision.bundle + "." + role + ".node", hosts[0]);
      queue.emplace_back(decision.bundle + "." + role + ".nodes",
                         join(hosts, " "));
      queue.emplace_back(decision.bundle + "." + role + ".memory",
                         format_number(role_memory[role]));
    }
  }
}

void Controller::apply_decisions(const std::vector<Decision>& decisions) {
  epoch_applied_ = true;
  // Republish only instances whose configuration actually changed:
  // everyone else's namespace entries are already current, and leaving
  // them alone is what lets the prediction cache survive quiet epochs.
  std::unordered_set<InstanceId> republish;
  for (const auto& decision : decisions) {
    if (decision.changed) republish.insert(decision.instance);
  }
  for (const auto& instance : state_.instances) {
    if (republish.count(instance.id) == 0) continue;
    publish_instance(instance);
    queue_updates(instance, decisions);
  }
  for (const auto& decision : decisions) {
    if (decision.changed) {
      ++reconfigurations_;
      metrics_.record("controller.reconfigurations", now(),
                      static_cast<double>(reconfigurations_));
    }
  }
  if (config_.record_objective_metric) {
    auto objective = optimizer_->objective_value(state_);
    if (objective.ok()) {
      metrics_.record("controller.objective", now(), objective.value());
    }
  }
  // Namespace content changed only if something was republished; the
  // fresh context reaches the optimizer, whose memoized predictions
  // key on the values read through it and so age out by themselves.
  if (!republish.empty()) optimizer_->set_names(names_context());
  // Variable delivery is deferred to the outermost epoch close.
}

}  // namespace harmony::core
