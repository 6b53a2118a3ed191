#include "rsl/spec.h"

#include <cmath>

#include "common/strings.h"
#include "rsl/value.h"

namespace harmony::rsl {

namespace {

template <typename T>
Result<T> parse_error(const std::string& message) {
  return Err<T>(ErrorCode::kParseError, message);
}

}  // namespace

// --- Constraint --------------------------------------------------------------

Result<Constraint> Constraint::parse(std::string_view text) {
  std::string_view t = trim(text);
  if (t.empty() || t == "*") return Constraint{Op::kAny, 0};
  Constraint c;
  if (starts_with(t, ">=")) {
    c.op = Op::kGe;
    t.remove_prefix(2);
  } else if (starts_with(t, "<=")) {
    c.op = Op::kLe;
    t.remove_prefix(2);
  } else if (starts_with(t, ">")) {
    c.op = Op::kGt;
    t.remove_prefix(1);
  } else if (starts_with(t, "<")) {
    c.op = Op::kLt;
    t.remove_prefix(1);
  } else {
    c.op = Op::kEq;
  }
  if (!parse_double(t, &c.value)) {
    return parse_error<Constraint>("malformed constraint: \"" +
                                   std::string(text) + "\"");
  }
  return c;
}

bool Constraint::satisfied_by(double x) const {
  switch (op) {
    case Op::kAny: return true;
    case Op::kEq: return x >= value;  // an exact requirement is a minimum
    case Op::kGe: return x >= value;
    case Op::kLe: return x <= value;
    case Op::kGt: return x > value;
    case Op::kLt: return x < value;
  }
  return false;
}

double Constraint::minimum() const {
  switch (op) {
    case Op::kAny: return 0;
    case Op::kEq: return value;
    case Op::kGe: return value;
    case Op::kLe: return 0;
    case Op::kGt: return value + 1;
    case Op::kLt: return 0;
  }
  return 0;
}

std::string Constraint::to_string() const {
  switch (op) {
    case Op::kAny: return "*";
    case Op::kEq: return format_number(value);
    case Op::kGe: return ">=" + format_number(value);
    case Op::kLe: return "<=" + format_number(value);
    case Op::kGt: return ">" + format_number(value);
    case Op::kLt: return "<" + format_number(value);
  }
  return "*";
}

// --- Expr ---------------------------------------------------------------------

Expr::Expr(std::string text) : text_(std::move(text)) {
  literal_ = parse_double(text_, &literal_value_);
}

const Program* Expr::program() const {
  // Literals never reach the VM (eval short-circuits) and read nothing;
  // compiling them would only waste the cache.
  if (!compile_attempted_ && !text_.empty() && !literal_) {
    compile_attempted_ = true;
    auto compiled = Program::compile(text_);
    if (compiled.ok()) {
      program_ = std::make_shared<const Program>(std::move(compiled).value());
    }
  }
  return program_.get();
}

Result<double> Expr::eval(const ExprContext& ctx) const {
  if (text_.empty()) return 0.0;
  if (literal_) return literal_value_;
  bump_expr_evaluations();
  if (const Program* compiled = program()) return compiled->eval_number(ctx);
  return expr_eval_number(text_, ctx);
}

Result<double> Expr::eval_constant() const {
  ExprContext empty;
  return eval(empty);
}

// --- BundleSpec ----------------------------------------------------------------

const OptionSpec* BundleSpec::find_option(std::string_view name) const {
  for (const auto& option : options) {
    if (option.name == name) return &option;
  }
  return nullptr;
}

Result<std::pair<std::string, std::string>> parse_app_instance(
    std::string_view text) {
  auto parts = split(text, ':');
  if (parts.size() == 1) return std::make_pair(parts[0], std::string("0"));
  if (parts.size() == 2 && !parts[0].empty()) {
    return std::make_pair(parts[0], parts[1]);
  }
  return parse_error<std::pair<std::string, std::string>>(
      "malformed application instance: \"" + std::string(text) + "\"");
}

namespace {

Result<NodeReq> parse_node_req(const std::vector<std::string>& items) {
  // items: node ROLE {tag value}...
  if (items.size() < 2) {
    return parse_error<NodeReq>("node requires a role name");
  }
  NodeReq req;
  req.role = items[1];
  for (size_t i = 2; i < items.size(); ++i) {
    auto tag = list_parse(items[i]);
    if (!tag.ok()) return Err<NodeReq>(tag.error().code, tag.error().message);
    const auto& fields = tag.value();
    if (fields.empty()) continue;
    const std::string& key = fields[0];
    auto require_value = [&]() -> Result<std::string> {
      if (fields.size() < 2) {
        return parse_error<std::string>("node tag \"" + key +
                                        "\" requires a value");
      }
      // Re-join so expressions with spaces survive: {seconds {a + b}}
      std::vector<std::string> rest(fields.begin() + 1, fields.end());
      return join(rest, " ");
    };
    if (key == "hostname") {
      auto value = require_value();
      if (!value.ok()) return Err<NodeReq>(value.error().code, value.error().message);
      req.hostname = value.value();
    } else if (key == "os") {
      auto value = require_value();
      if (!value.ok()) return Err<NodeReq>(value.error().code, value.error().message);
      req.os = value.value();
    } else if (key == "seconds") {
      auto value = require_value();
      if (!value.ok()) return Err<NodeReq>(value.error().code, value.error().message);
      req.seconds = Expr(value.value());
    } else if (key == "memory") {
      auto value = require_value();
      if (!value.ok()) return Err<NodeReq>(value.error().code, value.error().message);
      auto constraint = Constraint::parse(value.value());
      if (!constraint.ok()) {
        return Err<NodeReq>(constraint.error().code, constraint.error().message);
      }
      req.memory = constraint.value();
    } else if (key == "replicate") {
      auto value = require_value();
      if (!value.ok()) return Err<NodeReq>(value.error().code, value.error().message);
      req.replicate = Expr(value.value());
    } else {
      return parse_error<NodeReq>("unknown node tag: \"" + key + "\"");
    }
  }
  return req;
}

Result<LinkReq> parse_link_req(const std::vector<std::string>& items) {
  // items: link ROLE1 ROLE2 EXPR
  if (items.size() != 4) {
    return parse_error<LinkReq>("link requires: link from to megabytes");
  }
  LinkReq req;
  req.from = items[1];
  req.to = items[2];
  req.megabytes = Expr(items[3]);
  return req;
}

Result<VariableSpec> parse_variable(const std::vector<std::string>& items) {
  // items: variable NAME {v1 v2 ...}
  if (items.size() != 3) {
    return parse_error<VariableSpec>("variable requires: variable name values");
  }
  VariableSpec spec;
  spec.name = items[1];
  auto values = list_parse(items[2]);
  if (!values.ok()) {
    return Err<VariableSpec>(values.error().code, values.error().message);
  }
  for (const auto& value : values.value()) {
    double number = 0;
    if (!parse_double(value, &number)) {
      return parse_error<VariableSpec>("variable value is not a number: \"" +
                                       value + "\"");
    }
    spec.values.push_back(number);
  }
  if (spec.values.empty()) {
    return parse_error<VariableSpec>("variable needs at least one value");
  }
  return spec;
}

Status parse_performance(const std::vector<std::string>& items,
                         OptionSpec* option) {
  // One of: performance {{x y} ...}
  //         performance script {BODY}
  //         performance expr {EXPRESSION}
  if (items.size() == 3 && items[1] == "script") {
    option->performance_script = items[2];
    return Status::Ok();
  }
  if (items.size() == 3 && items[1] == "expr") {
    option->performance_expr = Expr(items[2]);
    return Status::Ok();
  }
  if (items.size() == 3 && items[1] == "dag") {
    auto tasks = list_parse(items[2]);
    if (!tasks.ok()) return Status(tasks.error().code, tasks.error().message);
    for (const auto& task_text : tasks.value()) {
      auto fields = list_parse(task_text);
      if (!fields.ok()) return Status(fields.error().code, fields.error().message);
      if (fields.value().size() < 2 || fields.value().size() > 3) {
        return Status(ErrorCode::kParseError,
                      "dag task must be {name seconds ?{deps}?}: \"" +
                          task_text + "\"");
      }
      OptionSpec::DagTask task;
      task.name = fields.value()[0];
      task.seconds = Expr(fields.value()[1]);
      if (fields.value().size() == 3) {
        auto deps = list_parse(fields.value()[2]);
        if (!deps.ok()) return Status(deps.error().code, deps.error().message);
        task.deps = deps.value();
      }
      for (const auto& existing : option->performance_dag) {
        if (existing.name == task.name) {
          return Status(ErrorCode::kParseError,
                        "duplicate dag task: " + task.name);
        }
      }
      option->performance_dag.push_back(std::move(task));
    }
    if (option->performance_dag.empty()) {
      return Status(ErrorCode::kParseError, "dag needs at least one task");
    }
    return Status::Ok();
  }
  if (items.size() != 2) {
    return Status(ErrorCode::kParseError,
                  "performance requires a point list or script");
  }
  auto points = list_parse(items[1]);
  if (!points.ok()) return Status(points.error().code, points.error().message);
  for (const auto& point : points.value()) {
    auto xy = list_parse(point);
    if (!xy.ok()) return Status(xy.error().code, xy.error().message);
    if (xy.value().size() != 2) {
      return Status(ErrorCode::kParseError,
                    "performance point must be {x y}: \"" + point + "\"");
    }
    PerfPoint p;
    if (!parse_double(xy.value()[0], &p.x) ||
        !parse_double(xy.value()[1], &p.y)) {
      return Status(ErrorCode::kParseError,
                    "performance point is not numeric: \"" + point + "\"");
    }
    // A non-finite point is always a generator bug (e.g. a scaling law
    // divided by a zero worker count) and would poison every
    // interpolation that brackets it.
    if (!std::isfinite(p.x) || !std::isfinite(p.y)) {
      return Status(ErrorCode::kParseError,
                    "performance point is not finite: \"" + point + "\"");
    }
    option->performance_points.push_back(p);
  }
  // The controller interpolates piecewise-linearly; points must ascend.
  for (size_t i = 1; i < option->performance_points.size(); ++i) {
    if (option->performance_points[i].x <=
        option->performance_points[i - 1].x) {
      return Status(ErrorCode::kParseError,
                    "performance points must have strictly increasing x");
    }
  }
  return Status::Ok();
}

Result<OptionSpec> parse_option(std::string_view text) {
  auto items = list_parse(text);
  if (!items.ok()) return Err<OptionSpec>(items.error().code, items.error().message);
  if (items.value().empty()) {
    return parse_error<OptionSpec>("empty option specification");
  }
  OptionSpec option;
  option.name = items.value()[0];
  for (size_t i = 1; i < items.value().size(); ++i) {
    auto entry = list_parse(items.value()[i]);
    if (!entry.ok()) return Err<OptionSpec>(entry.error().code, entry.error().message);
    const auto& fields = entry.value();
    if (fields.empty()) continue;
    const std::string& key = fields[0];
    if (key == "node") {
      auto node = parse_node_req(fields);
      if (!node.ok()) return Err<OptionSpec>(node.error().code, node.error().message);
      option.nodes.push_back(std::move(node).value());
    } else if (key == "link") {
      auto link = parse_link_req(fields);
      if (!link.ok()) return Err<OptionSpec>(link.error().code, link.error().message);
      option.links.push_back(std::move(link).value());
    } else if (key == "communication") {
      if (fields.size() < 2) {
        return parse_error<OptionSpec>("communication requires an expression");
      }
      std::vector<std::string> rest(fields.begin() + 1, fields.end());
      option.communication = Expr(join(rest, " "));
    } else if (key == "variable") {
      auto variable = parse_variable(fields);
      if (!variable.ok()) {
        return Err<OptionSpec>(variable.error().code, variable.error().message);
      }
      option.variables.push_back(std::move(variable).value());
    } else if (key == "performance") {
      auto status = parse_performance(fields, &option);
      if (!status.ok()) {
        return Err<OptionSpec>(status.error().code, status.error().message);
      }
    } else if (key == "granularity") {
      if (fields.size() != 2 ||
          !parse_double(fields[1], &option.granularity_s)) {
        return parse_error<OptionSpec>("granularity requires a number");
      }
    } else if (key == "friction") {
      if (fields.size() != 2 || !parse_double(fields[1], &option.friction_s)) {
        return parse_error<OptionSpec>("friction requires a number");
      }
    } else if (key == "deadline") {
      if (fields.size() != 2 || !parse_double(fields[1], &option.deadline_s) ||
          option.deadline_s <= 0) {
        return parse_error<OptionSpec>("deadline requires a positive number");
      }
    } else if (key == "period") {
      if (fields.size() != 2 || !parse_double(fields[1], &option.period_s) ||
          option.period_s <= 0) {
        return parse_error<OptionSpec>("period requires a positive number");
      }
    } else if (key == "tardiness") {
      if (fields.size() != 2 ||
          !parse_double(fields[1], &option.tardiness_weight) ||
          option.tardiness_weight < 0) {
        return parse_error<OptionSpec>(
            "tardiness requires a nonnegative weight");
      }
    } else {
      return parse_error<OptionSpec>("unknown option tag: \"" + key + "\"");
    }
  }
  return option;
}

}  // namespace

Result<BundleSpec> parse_bundle(std::string_view app_instance,
                                std::string_view bundle_name,
                                std::string_view options_list) {
  auto app = parse_app_instance(app_instance);
  if (!app.ok()) return Err<BundleSpec>(app.error().code, app.error().message);
  BundleSpec bundle;
  bundle.application = app.value().first;
  bundle.instance = app.value().second;
  bundle.bundle = std::string(bundle_name);
  if (bundle.bundle.empty()) {
    return parse_error<BundleSpec>("bundle name must not be empty");
  }
  auto options = list_parse(options_list);
  if (!options.ok()) {
    return Err<BundleSpec>(options.error().code, options.error().message);
  }
  if (options.value().empty()) {
    return parse_error<BundleSpec>("bundle \"" + bundle.bundle +
                                   "\" has no options");
  }
  for (const auto& text : options.value()) {
    auto option = parse_option(text);
    if (!option.ok()) {
      return Err<BundleSpec>(option.error().code, option.error().message);
    }
    if (bundle.find_option(option.value().name) != nullptr) {
      return parse_error<BundleSpec>("duplicate option name: \"" +
                                     option.value().name + "\"");
    }
    bundle.options.push_back(std::move(option).value());
  }
  return bundle;
}

Result<NodeAd> parse_node_ad(const std::vector<std::string>& argv) {
  // argv: harmonyNode NAME {tag value}...
  if (argv.size() < 2) {
    return parse_error<NodeAd>("harmonyNode requires a node name");
  }
  NodeAd ad;
  ad.name = argv[1];
  for (size_t i = 2; i < argv.size(); ++i) {
    auto fieldsr = list_parse(argv[i]);
    if (!fieldsr.ok()) return Err<NodeAd>(fieldsr.error().code, fieldsr.error().message);
    const auto& fields = fieldsr.value();
    if (fields.empty()) continue;
    const std::string& key = fields[0];
    if (key == "speed") {
      if (fields.size() != 2 || !parse_double(fields[1], &ad.speed) ||
          !std::isfinite(ad.speed) || ad.speed <= 0) {
        return parse_error<NodeAd>("speed requires a positive finite number");
      }
    } else if (key == "memory") {
      if (fields.size() != 2 || !parse_double(fields[1], &ad.memory_mb) ||
          !std::isfinite(ad.memory_mb) || ad.memory_mb < 0) {
        return parse_error<NodeAd>(
            "memory requires a non-negative finite number");
      }
    } else if (key == "os") {
      if (fields.size() != 2) return parse_error<NodeAd>("os requires a value");
      ad.os = fields[1];
    } else if (key == "link") {
      if (fields.size() != 3 && fields.size() != 4) {
        return parse_error<NodeAd>("link requires: link peer mbps ?latency_ms?");
      }
      LinkAd link;
      link.peer = fields[1];
      if (!parse_double(fields[2], &link.bandwidth_mbps) ||
          !std::isfinite(link.bandwidth_mbps) || link.bandwidth_mbps <= 0) {
        return parse_error<NodeAd>("link bandwidth must be positive and finite");
      }
      if (fields.size() == 4 &&
          (!parse_double(fields[3], &link.latency_ms) ||
           !std::isfinite(link.latency_ms))) {
        return parse_error<NodeAd>("link latency must be a finite number");
      }
      ad.links.push_back(std::move(link));
    } else {
      return parse_error<NodeAd>("unknown harmonyNode tag: \"" + key + "\"");
    }
  }
  return ad;
}

// --- serialization -----------------------------------------------------------

namespace {

// Emits one {tag value} pair; the value may be an expression with
// spaces, which element_quote wraps in braces so the parser's
// require_value() recovers it verbatim.
std::string tag(const std::string& key, const std::string& value) {
  return list_build({key, value});
}

std::string node_to_list(const NodeReq& node) {
  std::vector<std::string> items = {"node", node.role};
  items.push_back(tag("hostname", node.hostname));
  if (!node.os.empty()) items.push_back(tag("os", node.os));
  if (!node.seconds.empty()) items.push_back(tag("seconds", node.seconds.text()));
  if (node.memory.op != Constraint::Op::kAny) {
    items.push_back(tag("memory", node.memory.to_string()));
  }
  if (!node.replicate.empty()) {
    items.push_back(tag("replicate", node.replicate.text()));
  }
  return list_build(items);
}

std::string option_to_list(const OptionSpec& option) {
  std::vector<std::string> items = {option.name};
  for (const auto& node : option.nodes) items.push_back(node_to_list(node));
  for (const auto& link : option.links) {
    items.push_back(
        list_build({"link", link.from, link.to, link.megabytes.text()}));
  }
  if (!option.communication.empty()) {
    items.push_back(tag("communication", option.communication.text()));
  }
  for (const auto& variable : option.variables) {
    std::vector<std::string> values;
    values.reserve(variable.values.size());
    for (double value : variable.values) values.push_back(format_number(value));
    items.push_back(
        list_build({"variable", variable.name, list_build(values)}));
  }
  if (!option.performance_points.empty()) {
    std::vector<std::string> points;
    points.reserve(option.performance_points.size());
    for (const auto& point : option.performance_points) {
      points.push_back(
          list_build({format_number(point.x), format_number(point.y)}));
    }
    items.push_back(tag("performance", list_build(points)));
  }
  if (!option.performance_script.empty()) {
    items.push_back(
        list_build({"performance", "script", option.performance_script}));
  }
  if (!option.performance_expr.empty()) {
    items.push_back(
        list_build({"performance", "expr", option.performance_expr.text()}));
  }
  if (!option.performance_dag.empty()) {
    std::vector<std::string> tasks;
    tasks.reserve(option.performance_dag.size());
    for (const auto& task : option.performance_dag) {
      tasks.push_back(list_build(
          {task.name, task.seconds.text(), list_build(task.deps)}));
    }
    items.push_back(list_build({"performance", "dag", list_build(tasks)}));
  }
  if (option.granularity_s != 0) {
    items.push_back(tag("granularity", format_number(option.granularity_s)));
  }
  if (option.friction_s != 0) {
    items.push_back(tag("friction", format_number(option.friction_s)));
  }
  if (option.deadline_s != 0) {
    items.push_back(tag("deadline", format_number(option.deadline_s)));
  }
  if (option.period_s != 0) {
    items.push_back(tag("period", format_number(option.period_s)));
  }
  if (option.tardiness_weight != 1.0) {
    items.push_back(tag("tardiness", format_number(option.tardiness_weight)));
  }
  return list_build(items);
}

}  // namespace

std::string bundle_to_script(const BundleSpec& bundle) {
  std::vector<std::string> options;
  options.reserve(bundle.options.size());
  for (const auto& option : bundle.options) {
    options.push_back(option_to_list(option));
  }
  return list_build({"harmonyBundle",
                     bundle.application + ":" + bundle.instance, bundle.bundle,
                     list_build(options)}) +
         "\n";
}

}  // namespace harmony::rsl
