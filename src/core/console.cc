#include "core/console.h"

#include "common/strings.h"
#include "core/domain.h"
#include "metric/telemetry.h"
#include "rsl/value.h"

namespace harmony::core {

namespace {

using Args = std::vector<std::string>;
using R = Result<std::string>;

R usage(const char* text) {
  return Err<std::string>(ErrorCode::kEvalError,
                          std::string("usage: ") + text);
}

// Parses "App.id" into the instance id by matching against live
// instances (the id suffix is what actually identifies it).
Result<InstanceId> resolve_instance(Controller& controller,
                                    const std::string& name) {
  for (const auto& instance : controller.state().instances) {
    if (instance.path() == name) return instance.id;
  }
  // Also accept a bare numeric id.
  long long id = 0;
  if (parse_int64(name, &id)) {
    if (controller.state().find_instance(static_cast<InstanceId>(id))) {
      return static_cast<InstanceId>(id);
    }
  }
  return Err<InstanceId>(ErrorCode::kNotFound, "no such instance: " + name);
}

}  // namespace

void register_console(rsl::Interp& interp, Controller& controller) {
  Controller* ctl = &controller;

  interp.register_command(
      "harmonyInstances", [ctl](rsl::Interp&, const Args& args) -> R {
        if (args.size() != 1) return usage("harmonyInstances");
        std::vector<std::string> names;
        for (const auto& instance : ctl->state().instances) {
          names.push_back(instance.path());
        }
        return rsl::list_build(names);
      });

  interp.register_command(
      "harmonyBundles", [ctl](rsl::Interp&, const Args& args) -> R {
        if (args.size() != 2) return usage("harmonyBundles <App.id>");
        auto id = resolve_instance(*ctl, args[1]);
        if (!id.ok()) return Err<std::string>(id.error().code, id.error().message);
        std::vector<std::string> names;
        for (const auto& bundle :
             ctl->state().find_instance(id.value())->bundles) {
          names.push_back(bundle.spec.bundle);
        }
        return rsl::list_build(names);
      });

  interp.register_command(
      "harmonyOption", [ctl](rsl::Interp&, const Args& args) -> R {
        if (args.size() != 3) return usage("harmonyOption <App.id> <bundle>");
        auto id = resolve_instance(*ctl, args[1]);
        if (!id.ok()) return Err<std::string>(id.error().code, id.error().message);
        const BundleState* bundle = ctl->bundle_state(id.value(), args[2]);
        if (bundle == nullptr) {
          return Err<std::string>(ErrorCode::kNotFound,
                                  "no such bundle: " + args[2]);
        }
        if (!bundle->configured) return std::string("(unconfigured)");
        std::vector<std::string> out{bundle->choice.option};
        for (const auto& [var, value] : bundle->choice.variables) {
          out.push_back(var);
          out.push_back(format_number(value));
        }
        return rsl::list_build(out);
      });

  interp.register_command(
      "harmonySetOption", [ctl](rsl::Interp&, const Args& args) -> R {
        if (args.size() < 4 || args.size() % 2 != 0) {
          return usage(
              "harmonySetOption <App.id> <bundle> <option> ?var value ...?");
        }
        auto id = resolve_instance(*ctl, args[1]);
        if (!id.ok()) return Err<std::string>(id.error().code, id.error().message);
        OptionChoice choice;
        choice.option = args[3];
        for (size_t i = 4; i + 1 < args.size(); i += 2) {
          double value = 0;
          if (!parse_double(args[i + 1], &value)) {
            return Err<std::string>(ErrorCode::kEvalError,
                                    "variable value must be numeric: " +
                                        args[i + 1]);
          }
          choice.variables[args[i]] = value;
        }
        auto status = ctl->set_option(id.value(), args[2], choice);
        if (!status.ok()) {
          return Err<std::string>(status.error().code, status.error().message);
        }
        return choice.to_string();
      });

  interp.register_command(
      "harmonyPredict", [ctl](rsl::Interp&, const Args& args) -> R {
        if (args.size() != 1) return usage("harmonyPredict");
        auto predictions = ctl->predictions();
        if (!predictions.ok()) {
          return Err<std::string>(predictions.error().code,
                                  predictions.error().message);
        }
        std::vector<std::string> rows;
        for (const auto& [id, seconds] : predictions.value()) {
          const InstanceState* instance = ctl->state().find_instance(id);
          rows.push_back(rsl::list_build(
              {instance ? instance->path() : format_number(id),
               format_number(seconds)}));
        }
        return rsl::list_build(rows);
      });

  interp.register_command(
      "harmonyObjective", [ctl](rsl::Interp&, const Args& args) -> R {
        if (args.size() != 1) return usage("harmonyObjective");
        auto objective = ctl->objective_value();
        if (!objective.ok()) {
          return Err<std::string>(objective.error().code,
                                  objective.error().message);
        }
        return format_number(objective.value());
      });

  interp.register_command(
      "harmonyReevaluate", [ctl](rsl::Interp&, const Args& args) -> R {
        if (args.size() != 1) return usage("harmonyReevaluate");
        auto status = ctl->reevaluate();
        if (!status.ok()) {
          return Err<std::string>(status.error().code, status.error().message);
        }
        return std::string();
      });

  interp.register_command(
      "harmonyNodes", [ctl](rsl::Interp&, const Args& args) -> R {
        if (args.size() != 1) return usage("harmonyNodes");
        std::vector<std::string> rows;
        auto load = ctl->state().node_load();
        for (const auto& node : ctl->topology().nodes()) {
          double free = ctl->state().pool
                            ? ctl->state().pool->available_memory(node.id)
                            : node.memory_mb;
          int tasks = load.count(node.id) ? load.at(node.id) : 0;
          rows.push_back(rsl::list_build(
              {node.hostname, format_number(node.speed), format_number(free),
               format_number(tasks)}));
        }
        return rsl::list_build(rows);
      });

  interp.register_command(
      "harmonyExternalLoad", [ctl](rsl::Interp&, const Args& args) -> R {
        if (args.size() != 3) return usage("harmonyExternalLoad <host> <tasks>");
        long long tasks = 0;
        if (!parse_int64(args[2], &tasks)) {
          return Err<std::string>(ErrorCode::kEvalError,
                                  "task count must be an integer");
        }
        auto status =
            ctl->report_external_load(args[1], static_cast<int>(tasks));
        if (!status.ok()) {
          return Err<std::string>(status.error().code, status.error().message);
        }
        return std::string();
      });

  interp.register_command(
      "harmonyNodeState", [ctl](rsl::Interp&, const Args& args) -> R {
        // Runtime availability toggle. (Named distinctly from the RSL's
        // harmonyNode advertisement command, which may share an
        // interpreter with the console.)
        if (args.size() != 3 || (args[2] != "online" && args[2] != "offline")) {
          return usage("harmonyNodeState <host> online|offline");
        }
        auto status = ctl->set_node_online(args[1], args[2] == "online");
        if (!status.ok()) {
          return Err<std::string>(status.error().code, status.error().message);
        }
        return args[2];
      });

  interp.register_command(
      "harmonyMetrics", [](rsl::Interp&, const Args& args) -> R {
        // Same exposition the wire-level {METRICS} verb serves; the
        // console reads the process-global registry directly.
        if (args.size() > 2) return usage("harmonyMetrics ?prom|json|trace?");
        const std::string format = args.size() == 2 ? args[1] : "prom";
        if (format == "prom") {
          return metric::Telemetry::instance().render_prometheus();
        }
        if (format == "json") {
          return metric::Telemetry::instance().render_json();
        }
        if (format == "trace") {
          return metric::TraceBuffer::instance().render_chrome_json();
        }
        return Err<std::string>(ErrorCode::kEvalError,
                                "unknown metrics format: " + format);
      });

  interp.register_command(
      "harmonyDomains", [](rsl::Interp&, const Args& args) -> R {
        // The same rows as the wire-level {DOMAINS} verb, read from the
        // published router's stats mirror, so it needs no reference to
        // a specific controller.
        if (args.size() != 1) return usage("harmonyDomains");
        bool published = false;
        std::string rows = published_domains(&published);
        if (!published) {
          return Err<std::string>(ErrorCode::kNotFound,
                                  "no domain router published");
        }
        return rows;
      });

  interp.register_command(
      "harmonyName", [ctl](rsl::Interp&, const Args& args) -> R {
        if (args.size() != 2) return usage("harmonyName <path>");
        auto value = ctl->names().get_string(args[1]);
        if (!value.ok()) {
          return Err<std::string>(value.error().code, value.error().message);
        }
        return value.value();
      });
}

}  // namespace harmony::core
