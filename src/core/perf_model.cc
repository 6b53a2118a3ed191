#include "core/perf_model.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>

#include "common/assert.h"
#include "common/stats.h"
#include "common/strings.h"
#include "core/binding.h"
#include "rsl/interp.h"

namespace harmony::core {

Predictor::Model Predictor::model_for(const rsl::OptionSpec& option) {
  if (!option.performance_script.empty()) return Model::kScript;
  if (!option.performance_expr.empty()) return Model::kExpr;
  if (!option.performance_dag.empty()) return Model::kDag;
  if (!option.performance_points.empty()) return Model::kPoints;
  return Model::kDefault;
}

const char* Predictor::model_name(Model model) {
  switch (model) {
    case Model::kScript: return "script";
    case Model::kExpr: return "expr";
    case Model::kDag: return "critical-path";
    case Model::kPoints: return "points";
    case Model::kDefault: return "default";
  }
  return "unknown";
}

Result<double> Predictor::predict(const PredictionInput& input) const {
  HARMONY_ASSERT(input.option && input.choice && input.allocation &&
                 input.topology && input.node_load.valid());
  switch (model_for(*input.option)) {
    case Model::kScript: return predict_script(input);
    case Model::kExpr: return predict_expr(input);
    case Model::kDag: return predict_dag(input);
    case Model::kPoints: return predict_points(input);
    case Model::kDefault: return predict_default(input);
  }
  return Err<double>(ErrorCode::kInvalidArgument, "unreachable");
}

// Critical-path model: the longest dependency chain through the task
// DAG, scaled like the default model's CPU term (slowest node's
// contention-adjusted rate).
Result<double> Predictor::predict_dag(const PredictionInput& input) const {
  rsl::ExprContext ctx = full_context(input);
  const auto& dag = input.option->performance_dag;

  std::map<std::string, size_t> index;
  for (size_t i = 0; i < dag.size(); ++i) index[dag[i].name] = i;

  std::vector<double> durations(dag.size());
  for (size_t i = 0; i < dag.size(); ++i) {
    auto seconds = dag[i].seconds.eval(ctx);
    if (!seconds.ok()) {
      return Err<double>(seconds.error().code,
                         "dag task " + dag[i].name + ": " +
                             seconds.error().message);
    }
    if (seconds.value() < 0) {
      return Err<double>(ErrorCode::kInvalidArgument,
                         "dag task " + dag[i].name + ": negative duration");
    }
    durations[i] = seconds.value();
  }

  // Longest finish time via DFS with cycle detection.
  enum class Mark { kUnvisited, kInProgress, kDone };
  std::vector<Mark> marks(dag.size(), Mark::kUnvisited);
  std::vector<double> finish(dag.size(), 0.0);
  std::function<Status(size_t)> visit = [&](size_t i) -> Status {
    if (marks[i] == Mark::kDone) return Status::Ok();
    if (marks[i] == Mark::kInProgress) {
      return Status(ErrorCode::kInvalidArgument,
                    "dag cycle through task " + dag[i].name);
    }
    marks[i] = Mark::kInProgress;
    double start = 0.0;
    for (const auto& dep : dag[i].deps) {
      auto it = index.find(dep);
      if (it == index.end()) {
        return Status(ErrorCode::kInvalidArgument,
                      "dag task " + dag[i].name + ": unknown dependency " +
                          dep);
      }
      auto status = visit(it->second);
      if (!status.ok()) return status;
      start = std::max(start, finish[it->second]);
    }
    finish[i] = start + durations[i];
    marks[i] = Mark::kDone;
    return Status::Ok();
  };
  double critical_path = 0.0;
  for (size_t i = 0; i < dag.size(); ++i) {
    auto status = visit(i);
    if (!status.ok()) return Err<double>(status.error().code, status.error().message);
    critical_path = std::max(critical_path, finish[i]);
  }

  // Scale reference seconds by the slowest allocated node's effective
  // rate (co-located load / speed); dedicated fast nodes shorten the
  // path, shared or slow ones stretch it.
  double scale = input.allocation->entries.empty() ? 1.0 : 0.0;
  for (const auto& entry : input.allocation->entries) {
    double speed = input.topology->node(entry.node).speed;
    int load = std::max(1, input.node_load.at(entry.node));
    scale = std::max(scale, static_cast<double>(load) / speed);
  }
  return critical_path * scale;
}

Result<double> Predictor::predict_expr(const PredictionInput& input) const {
  rsl::ExprContext ctx = full_context(input);
  auto value = input.option->performance_expr.eval(ctx);
  if (!value.ok()) {
    return Err<double>(value.error().code,
                       "performance expr: " + value.error().message);
  }
  return value.value();
}

rsl::ExprContext Predictor::full_context(const PredictionInput& input) const {
  // Layer: choice variables > role-derived names > namespace.
  std::map<std::string, double> derived;
  std::map<std::string, int> role_counts;
  for (const auto& entry : input.allocation->entries) {
    const auto& role = entry.requirement.role;
    ++role_counts[role];
    if (entry.requirement.index == 0) {
      derived[role + ".memory"] = entry.requirement.memory_mb;
      derived[role + ".speed"] = input.topology->node(entry.node).speed;
    }
  }
  int total_nodes = 0;
  for (const auto& [role, count] : role_counts) {
    derived[role + ".count"] = count;
    total_nodes += count;
  }
  derived["allocated.nodes"] = total_nodes;

  rsl::ExprContext base = input.names;
  rsl::ExprContext with_derived;
  with_derived.name_lookup = [derived, base](const std::string& name,
                                             double* out) {
    auto it = derived.find(name);
    if (it != derived.end()) {
      *out = it->second;
      return true;
    }
    return base.name_lookup ? base.name_lookup(name, out) : false;
  };
  with_derived.var_lookup = base.var_lookup;
  with_derived.cmd_eval = base.cmd_eval;
  return choice_context(*input.choice, with_derived);
}

Result<double> Predictor::predict_default(const PredictionInput& input) const {
  rsl::ExprContext ctx = full_context(input);
  const auto& topo = *input.topology;

  // Per-replica CPU seconds by role.
  std::map<std::string, double> role_seconds;
  for (const auto& node : input.option->nodes) {
    auto seconds = node.seconds.eval(ctx);
    if (!seconds.ok()) {
      return Err<double>(seconds.error().code,
                         "seconds for role " + node.role + ": " +
                             seconds.error().message);
    }
    role_seconds[node.role] = seconds.value();
  }

  // Network component: explicit links plus the all-pairs
  // `communication` requirement. Computed before the CPU component so
  // the LogP-style occupancy can charge endpoint CPUs.
  auto transfer_seconds = [&](double megabytes, double bandwidth_mbps) {
    if (megabytes <= 0) return 0.0;
    if (bandwidth_mbps <= 0) return std::numeric_limits<double>::infinity();
    return megabytes * 8.0 / bandwidth_mbps;
  };
  double comm = 0.0;
  // Extra per-replica CPU seconds from protocol processing / copying,
  // keyed by (role, replica index).
  std::map<std::pair<std::string, int>, double> occupancy;
  for (const auto& link : input.option->links) {
    auto megabytes = link.megabytes.eval(ctx);
    if (!megabytes.ok()) {
      return Err<double>(megabytes.error().code,
                         "link " + link.from + "-" + link.to + ": " +
                             megabytes.error().message);
    }
    cluster::NodeId a = input.allocation->find(link.from, 0);
    cluster::NodeId b = input.allocation->find(link.to, 0);
    if (a == cluster::kInvalidNode || b == cluster::kInvalidNode) {
      return Err<double>(ErrorCode::kInvalidArgument,
                         "link endpoint not allocated: " + link.from + "-" +
                             link.to);
    }
    double bw = a == b ? kLocalMbps : topo.path_bandwidth(a, b);
    comm += transfer_seconds(megabytes.value(), bw);
    if (comm_occupancy_s_per_mb_ > 0) {
      occupancy[{link.from, 0}] += megabytes.value() * comm_occupancy_s_per_mb_;
      occupancy[{link.to, 0}] += megabytes.value() * comm_occupancy_s_per_mb_;
    }
  }
  if (!input.option->communication.empty()) {
    auto megabytes = input.option->communication.eval(ctx);
    if (!megabytes.ok()) {
      return Err<double>(megabytes.error().code,
                         "communication: " + megabytes.error().message);
    }
    // All-pairs traffic bound by the weakest pairwise path.
    double min_bw = kLocalMbps;
    const auto& entries = input.allocation->entries;
    for (size_t i = 0; i < entries.size(); ++i) {
      for (size_t j = i + 1; j < entries.size(); ++j) {
        if (entries[i].node == entries[j].node) continue;
        min_bw = std::min(min_bw,
                          topo.path_bandwidth(entries[i].node, entries[j].node));
      }
    }
    comm += transfer_seconds(megabytes.value(), min_bw);
    if (comm_occupancy_s_per_mb_ > 0 && !entries.empty()) {
      // "cycles on all worker processes would need to be parameterized
      // based on the amount of communication" — every byte is sent once
      // and received once, spread over the participants.
      double per_entry = 2.0 * megabytes.value() * comm_occupancy_s_per_mb_ /
                         static_cast<double>(entries.size());
      for (const auto& entry : entries) {
        occupancy[{entry.requirement.role, entry.requirement.index}] +=
            per_entry;
      }
    }
  }

  // CPU component: slowest constituent process under processor sharing,
  // including any communication occupancy charged to it.
  double cpu = 0.0;
  for (const auto& entry : input.allocation->entries) {
    auto it = role_seconds.find(entry.requirement.role);
    if (it == role_seconds.end()) continue;
    double seconds = it->second;
    auto occ = occupancy.find({entry.requirement.role, entry.requirement.index});
    if (occ != occupancy.end()) seconds += occ->second;
    double speed = topo.node(entry.node).speed;
    int load = std::max(1, input.node_load.at(entry.node));
    cpu = std::max(cpu, seconds / speed * load);
  }
  double total = cpu + comm;
  if (!std::isfinite(total)) {
    return Err<double>(ErrorCode::kInvalidArgument,
                       "prediction diverged (disconnected nodes?)");
  }
  return total;
}

Result<double> Predictor::predict_points(const PredictionInput& input) const {
  // The supplied curve assumes dedicated nodes. Under processor sharing
  // a node hosting `load` planned tasks contributes 1/load of a node,
  // so interpolate at the *effective* node count. With no co-location
  // this reduces to the literal variable value / replica count.
  double effective = 0.0;
  const size_t allocated = input.allocation->entries.size();
  for (const auto& entry : input.allocation->entries) {
    int load = std::max(1, input.node_load.at(entry.node));
    effective += 1.0 / load;
  }
  double x;
  if (input.choice->variables.size() == 1 && allocated > 0) {
    // Scale the tuning variable by the contention factor so curves
    // keyed on a variable (workerNodes) see effective workers.
    x = input.choice->variables.begin()->second * (effective / allocated);
  } else {
    x = effective;
  }
  std::vector<std::pair<double, double>> points;
  points.reserve(input.option->performance_points.size());
  for (const auto& p : input.option->performance_points) {
    points.emplace_back(p.x, p.y);
  }
  return piecewise_linear(points, x);
}

PredictionCache::Slot* PredictionCache::Generation::find(const Key& key) {
  if (slots.empty()) return nullptr;
  const size_t mask = slots.size() - 1;
  for (size_t i = key.hash & mask;; i = (i + 1) & mask) {
    Slot& slot = slots[i];
    if (slot.offset == kEmpty) return nullptr;
    if (slot.hash == key.hash && slot.length == key.bytes.size() &&
        std::string_view(arena).substr(slot.offset, slot.length) ==
            key.bytes) {
      return &slot;
    }
  }
}

PredictionCache::Slot& PredictionCache::Generation::free_slot(size_t hash) {
  const size_t mask = slots.size() - 1;
  size_t i = hash & mask;
  while (slots[i].offset != kEmpty) i = (i + 1) & mask;
  return slots[i];
}

void PredictionCache::Generation::put(const Key& key, double value) {
  if (Slot* slot = find(key)) {
    slot->value = value;
    return;
  }
  if (2 * (count + 1) > slots.size()) {
    std::vector<Slot> old(std::max<size_t>(16, 2 * slots.size()));
    old.swap(slots);
    for (const Slot& slot : old) {
      if (slot.offset != kEmpty) free_slot(slot.hash) = slot;
    }
  }
  free_slot(key.hash) = Slot{key.hash, static_cast<uint32_t>(arena.size()),
                             static_cast<uint32_t>(key.bytes.size()), value};
  arena.append(key.bytes);
  ++count;
}

void PredictionCache::Generation::clear() {
  std::fill(slots.begin(), slots.end(), Slot{});
  arena.clear();
  count = 0;
}

std::optional<double> PredictionCache::lookup(const Key& key) {
  if (const Slot* slot = young_.find(key)) {
    ++stats_.hits;
    return slot->value;
  }
  if (const Slot* slot = old_.find(key)) {
    ++stats_.hits;
    const double value = slot->value;
    insert(key, value);  // promote; may drop old_, so read the value first
    return value;
  }
  ++stats_.misses;
  return std::nullopt;
}

void PredictionCache::insert(const Key& key, double value) {
  // A key too large for any generation is simply not kept.
  if (key.bytes.size() > kGenerationBytes) return;
  if (young_.full(key)) {
    std::swap(young_, old_);
    young_.clear();
  }
  young_.put(key, value);
}

void PredictionCache::invalidate() {
  if (young_.count == 0 && old_.count == 0) return;
  young_.clear();
  old_.clear();
  ++stats_.invalidations;
}

ModelReads model_reads(const rsl::OptionSpec& option) {
  ModelReads reads;
  const Predictor::Model model = Predictor::model_for(option);
  if (model == Predictor::Model::kScript) {
    // A TCL model script can read anything it likes.
    reads.known = false;
    return reads;
  }
  // predict_expr never consults per-node contention; its whole input
  // beyond the choice/allocation is the expression's reads.
  reads.uses_load = model != Predictor::Model::kExpr;
  for_each_model_expr(option, [&](const rsl::Expr& expr) {
    if (!expr.reads_known()) reads.known = false;
  });
  return reads;
}

namespace {

// Prediction-key encoding (see PredictionKeyBuilder). Every field is
// self-delimiting and the field order is fixed, so the concatenation is
// injective.

// Tags for doubles and resolved read values.
constexpr char kAbsent = 0;  // read resolved to nothing
constexpr char kUint = 1;    // non-negative integral double, as a varint
constexpr char kRaw = 2;     // any other double, as its 8 raw bytes
constexpr char kText = 3;    // string-valued read, length-prefixed

// Read kinds: namespace name vs interpreter variable.
constexpr char kNameRead = 'n';
constexpr char kVarRead = 'v';

void put_varint(std::string& out, uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<char>(value | 0x80));
    value >>= 7;
  }
  out.push_back(static_cast<char>(value));
}

void put_string(std::string& out, std::string_view text) {
  put_varint(out, text.size());
  out.append(text);
}

void put_double(std::string& out, double value) {
  // The sign-bit test keeps -0.0 raw; NaN and values from 2^64 up fail
  // the range test. Below 2^64 an integral double converts to uint64_t
  // exactly, so the varint form is as injective as the raw bytes.
  if (!std::signbit(value) && value < 0x1p64 && value == std::trunc(value)) {
    out.push_back(kUint);
    put_varint(out, static_cast<uint64_t>(value));
    return;
  }
  out.push_back(kRaw);
  char raw[sizeof(double)];
  std::memcpy(raw, &value, sizeof raw);
  out.append(raw, sizeof raw);
}

}  // namespace

std::string_view PredictionKeyBuilder::build(
    InstanceId instance, const std::string& bundle, const OptionChoice& choice,
    const cluster::Allocation& allocation, const LoadView& load,
    const rsl::OptionSpec& option, const ModelReads& reads,
    const rsl::ExprContext& names) {
  HARMONY_ASSERT_MSG(reads.known, "unknown read sets must bypass the cache");
  key_.clear();
  put_varint(key_, instance);
  put_string(key_, bundle);
  put_string(key_, choice.option);
  put_varint(key_, choice.variables.size());
  for (const auto& [name, value] : choice.variables) {
    put_string(key_, name);
    put_double(key_, value);
  }
  put_double(key_, choice.memory_grant);
  put_varint(key_, allocation.entries.size());
  for (const auto& entry : allocation.entries) {
    put_string(key_, entry.requirement.role);
    put_varint(key_, static_cast<uint32_t>(entry.requirement.index));
    put_varint(key_, entry.node);
    put_double(key_, entry.requirement.memory_mb);
    if (reads.uses_load) {
      // Models clamp absent / sub-1 loads to 1, so key on the clamped
      // value to maximize hits without changing observable inputs.
      put_varint(key_, static_cast<uint32_t>(std::max(1, load.at(entry.node))));
    }
  }
  // Current value of everything the model's expressions read through
  // the namespace context; the kind byte opens each read, and the reads
  // run to the end of the key.
  seen_names_.clear();
  seen_vars_.clear();
  auto once = [](std::vector<const std::string*>& seen,
                 const std::string& name) {
    for (const std::string* s : seen) {
      if (*s == name) return false;
    }
    seen.push_back(&name);
    return true;
  };
  for_each_model_expr(option, [&](const rsl::Expr& expr) {
    const rsl::Program* program = expr.program();
    if (program == nullptr) return;  // empty or literal: reads nothing
    for (const auto& name : program->names()) {
      if (once(seen_names_, name)) append_name(name, names);
    }
    for (const auto& name : program->vars()) {
      if (once(seen_vars_, name)) append_var(name, names);
    }
  });
  return key_;
}

void PredictionKeyBuilder::append_name(const std::string& name,
                                       const rsl::ExprContext& names) {
  key_.push_back(kNameRead);
  put_string(key_, name);
  double number = 0;
  if (names.name_lookup && names.name_lookup(name, &number)) {
    put_double(key_, number);
    return;
  }
  // Bare names fall back to interpreter variables at eval time; mirror
  // that here so a string-valued hit is still keyed.
  if (names.var_lookup && names.var_lookup(name, &text_)) {
    key_.push_back(kText);
    put_string(key_, text_);
    return;
  }
  key_.push_back(kAbsent);
}

void PredictionKeyBuilder::append_var(const std::string& name,
                                      const rsl::ExprContext& names) {
  key_.push_back(kVarRead);
  put_string(key_, name);
  if (names.var_lookup && names.var_lookup(name, &text_)) {
    key_.push_back(kText);
    put_string(key_, text_);
    return;
  }
  key_.push_back(kAbsent);
}

Result<double> Predictor::predict_script(const PredictionInput& input) const {
  rsl::Interp interp;
  rsl::ExprContext ctx = full_context(input);
  interp.set_name_resolver(ctx.name_lookup);
  for (const auto& [name, value] : input.choice->variables) {
    interp.set_global(name, format_number(value));
  }
  interp.set_global("allocatedNodes",
                    str_format("%zu", input.allocation->entries.size()));
  auto result = interp.eval(input.option->performance_script);
  if (!result.ok()) {
    return Err<double>(result.error().code,
                       "performance script: " + result.error().message);
  }
  double seconds = 0;
  if (!parse_double(result.value(), &seconds)) {
    return Err<double>(ErrorCode::kEvalError,
                       "performance script returned non-numeric: \"" +
                           result.value() + "\"");
  }
  return seconds;
}

}  // namespace harmony::core
