#include "reference.h"

#include <algorithm>
#include <optional>

#include "common/strings.h"
#include "server_stack.h"

namespace wirebench {

using namespace harmony;

Reference::Reference(const Workload& workload)
    : workload_(workload),
      ids_(workload.apps.size(), 0),
      frames_(workload.apps.size()) {
  const core::ControllerConfig config = workload.wiring.controller_config();
  Status status;
  if (workload.wiring.routed) {
    core::DomainRouterConfig router_config;
    router_config.controller = config;
    router_config.workers = workload.wiring.domain_workers;
    router_ = std::make_unique<core::DomainRouter>(router_config);
    status = router_->add_nodes_script(workload.cluster);
    if (status.ok()) status = router_->finalize_cluster();
  } else {
    controller_ = std::make_unique<core::Controller>(config);
    status = controller_->add_nodes_script(workload.cluster);
    if (status.ok()) status = controller_->finalize_cluster();
  }
  if (!status.ok()) init_error_ = status.to_string();
}

core::Controller::UpdateHandler Reference::handler(int app) {
  return [this, app](const std::string& name, const std::string& value) {
    if (name != workload_.apps[app].bundle) return;
    std::lock_guard<std::mutex> lock(frames_mutex_);
    frames_[app].push_back(Frame{seq_.load(std::memory_order_relaxed), value});
  };
}

core::InstanceId Reference::id(int app) const {
  return app >= 0 ? ids_[app] : 0;
}

Reference::Outcome Reference::apply(const Op& op, size_t seq) {
  seq_.store(seq, std::memory_order_relaxed);
  Outcome outcome;
  const App* app = op.app >= 0 ? &workload_.apps[op.app] : nullptr;
  // The server opens one controller epoch per dispatched message; so
  // does the reference, so updates flush at the same points.
  std::optional<core::Controller::EpochScope> epoch;
  if (controller_) epoch.emplace(*controller_);
  auto subscribe = [&](int a, core::Controller::UpdateHandler h) {
    return router_ ? router_->subscribe(ids_[a], std::move(h))
                   : controller_->subscribe(ids_[a], std::move(h));
  };
  const int64_t start = now_ns();
  Status status;
  switch (op.verb) {
    case Verb::kRegister: {
      auto registered = router_ ? router_->register_script(app->script)
                                : controller_->register_script(app->script);
      if (!registered.ok()) {
        status = Status(registered.error());
        break;
      }
      ids_[op.app] = registered.value();
      status = subscribe(op.app, handler(op.app));
      if (op.session >= 0) {
        sessions_[op.session].push_back(op.app);
        lane_session_[op.lane] = op.session;
      }
      break;
    }
    case Verb::kGet: {
      auto value = router_ ? router_->get_variable(id(op.app), op.arg)
                           : controller_->get_variable(id(op.app), op.arg);
      if (value.ok()) {
        outcome.value = value.value();
      } else {
        status = Status(value.error());
      }
      break;
    }
    case Verb::kSet: {
      core::OptionChoice choice;
      choice.option = op.arg;
      status = router_ ? router_->set_option(id(op.app), app->bundle, choice)
                       : controller_->set_option(id(op.app), app->bundle,
                                                 choice);
      break;
    }
    case Verb::kLoad:
      status = router_ ? router_->report_external_load(op.arg, op.value)
                       : controller_->report_external_load(op.arg, op.value);
      break;
    case Verb::kResize: {
      double workers = 0;
      parse_double(op.arg, &workers);
      status = router_ ? router_->resize(id(op.app), app->bundle, workers)
                       : controller_->resize(id(op.app), app->bundle, workers);
      break;
    }
    case Verb::kEnd:
      status = router_ ? router_->unregister(id(op.app))
                       : controller_->unregister(id(op.app));
      for (auto& [session, apps] : sessions_) {
        apps.erase(std::remove(apps.begin(), apps.end(), op.app), apps.end());
      }
      break;
    case Verb::kResume: {
      // The server re-points every parked instance's subscription at the
      // new connection, which replays its current configuration.
      lane_session_[op.lane] = op.session;
      for (int a : sessions_[op.session]) {
        Status s = subscribe(a, handler(a));
        if (!s.ok()) status = s;
      }
      break;
    }
    case Verb::kClose: {
      // An abrupt hangup parks the session: subscriptions go empty.
      auto it = lane_session_.find(op.lane);
      if (it != lane_session_.end()) {
        for (int a : sessions_[it->second]) {
          (void)subscribe(a, core::Controller::UpdateHandler{});
        }
        lane_session_.erase(it);
      }
      break;
    }
    case Verb::kConnect:
    case Verb::kStatus:
      break;
  }
  outcome.call_us = static_cast<double>(now_ns() - start) / 1000.0;
  outcome.ok = status.ok();
  return outcome;
}

std::vector<const core::Controller*> Reference::cores() const {
  if (router_) return router_->domain_controllers();
  return {controller_.get()};
}

Reference::Counters Reference::counters() const {
  Counters c;
  for (const core::Controller* controller : cores()) {
    const core::Optimizer& optimizer = controller->optimizer();
    c.candidates += optimizer.candidates_evaluated();
    c.predictor_calls += optimizer.predictor_calls();
    c.cache_hits += optimizer.cache_stats().hits;
    c.cache_misses += optimizer.cache_stats().misses;
    c.bundles_evaluated += optimizer.bundles_evaluated();
    c.bundles_skipped += optimizer.bundles_skipped();
  }
  c.reconfigurations =
      router_ ? router_->reconfigurations() : controller_->reconfigurations();
  c.domains = router_ ? router_->domain_count() : 1;
  return c;
}

std::vector<std::string> Reference::fingerprint() const {
  return wirebench::fingerprint(cores());
}

}  // namespace wirebench
