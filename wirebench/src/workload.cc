#include "workload.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/rng.h"
#include "common/strings.h"

namespace wirebench {

using harmony::Rng;
using harmony::str_format;

const char* verb_name(Verb verb) {
  switch (verb) {
    case Verb::kRegister: return "register";
    case Verb::kGet: return "get";
    case Verb::kSet: return "set";
    case Verb::kLoad: return "load";
    case Verb::kResize: return "resize";
    case Verb::kEnd: return "end";
    case Verb::kResume: return "resume";
    case Verb::kStatus: return "status";
    case Verb::kConnect: return "connect";
    case Verb::kClose: return "close";
  }
  return "?";
}

bool is_write(Verb verb) {
  return verb == Verb::kRegister || verb == Verb::kSet ||
         verb == Verb::kLoad || verb == Verb::kResize || verb == Verb::kEnd ||
         verb == Verb::kResume;
}

harmony::core::ControllerConfig Wiring::controller_config() const {
  harmony::core::ControllerConfig config;
  if (first_feasible) {
    config.optimizer.initial_policy =
        harmony::core::OptimizerConfig::InitialPolicy::kFirstFeasible;
  }
  config.optimizer.reevaluate_on_arrival = reevaluate_on_arrival;
  config.record_objective_metric = record_objective_metric;
  return config;
}

std::string Wiring::describe() const {
  std::string core =
      routed ? str_format("DomainRouter(workers=%d)", domain_workers)
             : std::string("Controller");
  return str_format(
      "core=%s io_shards=%d persistence=on compaction=%s standby=%s "
      "initial=%s reevaluate_on_arrival=%s",
      core.c_str(), io_shards, compaction ? "every-64-epochs" : "off",
      standby ? "1-process-semi-sync" : "none",
      first_feasible ? "first-feasible" : "optimize",
      reevaluate_on_arrival ? "on" : "off");
}

namespace {

// Piecewise-constant offered rate: warm-up and window at the fixed rate,
// then one segment per ladder rung.
struct Segment {
  int64_t start = 0;
  int64_t end = 0;
  double rate = 0;
  int phase = 0;
};

std::vector<Segment> segments(const Workload& w) {
  std::vector<Segment> out;
  out.push_back({0, w.warmup_ns, w.fixed_rate, kWarmup});
  out.push_back({w.window_start_ns(), w.window_end_ns(), w.fixed_rate, kFixed});
  for (size_t k = 0; k < w.rung_rates.size(); ++k) {
    out.push_back({w.rung_start_ns(k), w.rung_start_ns(k + 1), w.rung_rates[k],
                   kRung0 + static_cast<int>(k)});
  }
  return out;
}

int64_t stream_end(const Workload& w) { return segments(w).back().end; }

// Geometric rate ladder from `first` up to at most `top`, each rung 10%
// above the one below. The top sits well past the workload's knee, so in
// a normal run some rung fails and the highest passing rung is the knee
// to within one step.
std::vector<double> ladder(double first, double top) {
  std::vector<double> rates;
  for (double rate = first; rate <= top; rate *= 1.1) {
    rates.push_back(std::round(rate));
  }
  return rates;
}

// Poisson arrivals at `share` of the offered rate; (time, phase) pairs.
std::vector<std::pair<int64_t, int>> arrivals(Rng& rng, const Workload& w,
                                              double share) {
  std::vector<std::pair<int64_t, int>> out;
  for (const Segment& s : segments(w)) {
    int64_t t = s.start;
    while (true) {
      t += static_cast<int64_t>(rng.next_exponential(s.rate * share) * 1e9);
      if (t >= s.end) break;
      out.emplace_back(t, s.phase);
    }
  }
  return out;
}

int phase_at(const Workload& w, int64_t t) {
  for (const Segment& s : segments(w)) {
    if (t < s.end) return s.phase;
  }
  return segments(w).back().phase;
}

double rate_at(const Workload& w, int64_t t) {
  for (const Segment& s : segments(w)) {
    if (t < s.end) return s.rate;
  }
  return segments(w).back().rate;
}

void set_timeline(const WorkloadOptions& options, Workload* w) {
  const double seconds = std::max(1.0, options.seconds);
  w->warmup_ns = static_cast<int64_t>((options.tiny ? 0.2 : 0.5) * 1e9);
  if (options.ladder) {
    w->fixed_ns = static_cast<int64_t>(seconds * 0.6 * 1e9);
    w->rung_ns = static_cast<int64_t>(
        seconds * 0.4 / static_cast<double>(w->rung_rates.size()) * 1e9);
  } else {
    // The traced mode measures its window twice (untraced, then traced).
    w->fixed_ns = static_cast<int64_t>(seconds * 0.3 * 1e9);
    w->rung_rates.clear();
    w->rung_ns = 0;
  }
}

Op make_op(int64_t t, int phase, Verb verb, int lane, int app) {
  Op op;
  op.t_ns = t;
  op.phase = phase;
  op.verb = verb;
  op.lane = lane;
  op.app = app;
  return op;
}

void add_setup(Workload* w) {
  for (size_t i = 0; i < w->apps.size(); ++i) {
    if (w->apps[i].lane < 0) continue;
    w->setup.push_back(
        make_op(0, kSetupPhase, Verb::kRegister, w->apps[i].lane,
                static_cast<int>(i)));
  }
}

void sort_stream(Workload* w) {
  std::stable_sort(w->stream.begin(), w->stream.end(),
                   [](const Op& a, const Op& b) { return a.t_ns < b.t_ns; });
}

// --- steer -------------------------------------------------------------
// A resident population of O(1) two-option apps, each pinned to one
// host, steered by operator SETs (lane 0) and read by their owners'
// GETs (lanes 1-2). Lane 3 is never used; the fourth connection is the
// generator's control channel.
void build_steer(const WorkloadOptions& options, Workload* w) {
  const int hosts = options.tiny ? 4 : 16;
  const int population = options.tiny ? 48 : 1024;
  w->wiring.routed = false;
  w->wiring.compaction = true;
  w->wiring.standby = true;
  w->wiring.first_feasible = true;
  w->wiring.reevaluate_on_arrival = false;
  w->wiring.record_objective_metric = false;
  w->lanes = 3;
  w->fresh_lane.assign(3, false);
  w->wiring.io_shards = 1;
  w->fixed_rate = options.tiny ? 200 : 600;
  w->rung_rates = options.tiny ? std::vector<double>{300, 400}
                               : ladder(8000, 40000);
  w->limit_ms = 50;
  set_timeline(options, w);

  for (int h = 0; h < hosts; ++h) {
    w->cluster += str_format(
        "harmonyNode st-%02d {speed 1.0} {memory 65536} {os linux}\n", h);
  }
  for (int i = 0; i < population; ++i) {
    const int host = i % hosts;
    App app;
    app.name = str_format("Steer%04d", i);
    app.bundle = str_format("s%04d", i);
    app.lane = 1 + host % 2;  // every app on a host shares one connection
    app.script = str_format(
        "harmonyBundle %s:1 %s {\n"
        "  {fast {node work {hostname st-%02d} {seconds 0.5} {memory 1}}\n"
        "        {performance expr {1.0}}}\n"
        "  {slow {node work {hostname st-%02d} {seconds 0.5} {memory 1}}\n"
        "        {performance expr {2.0}}}\n"
        "}\n",
        app.name.c_str(), app.bundle.c_str(), host, host);
    w->apps.push_back(app);
  }
  add_setup(w);

  Rng rng(w->seed ^ 0x57ee7ULL);
  // First-feasible arrival configures every app "fast"; each SET flips
  // the option, so every SET is exactly one reconfiguration.
  std::vector<bool> slow(w->apps.size(), false);
  for (const auto& [t, phase] : arrivals(rng, *w, 1.0)) {
    const int app = static_cast<int>(rng.next_below(w->apps.size()));
    if (rng.next_bool(0.5)) {
      Op op = make_op(t, phase, Verb::kSet, 0, app);
      slow[app] = !slow[app];
      op.arg = slow[app] ? "slow" : "fast";
      w->stream.push_back(op);
    } else {
      Op op = make_op(t, phase, Verb::kGet, w->apps[app].lane, app);
      op.arg = w->apps[app].bundle + ".option";
      w->stream.push_back(op);
    }
  }
  sort_stream(w);
}

// --- adapt -------------------------------------------------------------
// Figure 7's traffic scaled across disjoint node groups: per group one
// database server host, four client hosts, four DB clients choosing
// between query shipping (QS) and data shipping (DS), and two malleable
// bag-of-tasks apps. Open-loop LOAD reports (lane 0) move the contention
// the load-reading models see; RESIZEs steer the bags; owners GET. Half
// the requests are LOADs, so re-evaluating a domain takes the largest
// share of the mean write.
void build_adapt(const WorkloadOptions& options, Workload* w) {
  const int groups = options.tiny ? 2 : 32;
  constexpr int kClients = 4;
  w->wiring.routed = true;
  w->wiring.compaction = false;  // routed journaling is baseline-only
  w->wiring.standby = false;     // routed servers cannot have a standby yet
  w->lanes = 3;
  w->fresh_lane.assign(3, false);
  w->fixed_rate = options.tiny ? 50 : 300;
  w->rung_rates = options.tiny ? std::vector<double>{80, 100}
                               : ladder(1000, 6000);
  w->limit_ms = 50;
  set_timeline(options, w);

  std::vector<std::string> hosts;
  for (int g = 0; g < groups; ++g) {
    const std::string srv = str_format("ad%02d-srv", g);
    std::string line = "harmonyNode " + srv +
                       " {speed 2.25} {memory 1024} {os aix}\n";
    w->cluster += line;
    hosts.push_back(srv);
    for (int c = 0; c < kClients; ++c) {
      const std::string host = str_format("ad%02d-c%d", g, c);
      std::string node = "harmonyNode " + host +
                         " {speed 1.0} {memory 256} {os aix} {link " + srv +
                         " 320 0.05}";
      for (int j = 0; j < c; ++j) {
        node += str_format(" {link ad%02d-c%d 320 0.05}", g, j);
      }
      w->cluster += node + "\n";
      hosts.push_back(host);
    }
  }
  std::vector<int> bags;
  for (int g = 0; g < groups; ++g) {
    const int lane = 1 + g % 2;
    for (int c = 0; c < kClients; ++c) {
      App app;
      const int id = static_cast<int>(w->apps.size());
      app.name = str_format("Db%03d", id);
      app.bundle = str_format("q%03d", id);
      app.lane = lane;
      app.script = str_format(
          "harmonyBundle %s:1 %s {\n"
          "  {QS\n"
          "    {node server {hostname ad%02d-srv} {seconds 18} {memory 20}}\n"
          "    {node client {hostname ad%02d-c%d} {seconds 0.1} {memory 2}}\n"
          "    {link client server 0.05}}\n"
          "  {DS\n"
          "    {node server {hostname ad%02d-srv} {seconds 2} {memory 20}}\n"
          "    {node client {hostname ad%02d-c%d} {memory >=17} "
          "{seconds 16.2}}\n"
          "    {link client server {4.2 * (1 - (client.memory > 42 ? 42 : "
          "client.memory) / 42)}}}\n"
          "}\n",
          app.name.c_str(), app.bundle.c_str(), g, g, c, g, g, c);
      w->apps.push_back(app);
    }
    for (int b = 0; b < 2; ++b) {
      App app;
      const int id = static_cast<int>(w->apps.size());
      app.name = str_format("Bag%03d", id);
      app.bundle = str_format("w%03d", id);
      app.var = "workerNodes";
      app.lane = lane;
      app.script = str_format(
          "harmonyBundle %s:1 %s {\n"
          "  {var\n"
          "    {variable workerNodes {1 2 3 4}}\n"
          "    {node worker {hostname ad%02d-c*} {seconds {600.0 / "
          "workerNodes}} {memory 16}\n"
          "          {replicate {workerNodes}}}\n"
          "    {communication {0.5 * workerNodes}}}\n"
          "}\n",
          app.name.c_str(), app.bundle.c_str(), g);
      bags.push_back(id);
      w->apps.push_back(app);
    }
  }
  add_setup(w);

  Rng rng(w->seed ^ 0xada97ULL);
  std::map<std::string, int> load;
  for (const auto& [t, phase] : arrivals(rng, *w, 1.0)) {
    const double pick = rng.next_double();
    if (pick < 0.5) {
      const std::string& host = hosts[rng.next_below(hosts.size())];
      // Every report changes the host's load, so every LOAD is a real
      // re-evaluation trigger.
      int tasks = static_cast<int>(rng.next_below(4));
      if (tasks == load[host]) tasks = (tasks + 1) % 4;
      load[host] = tasks;
      Op op = make_op(t, phase, Verb::kLoad, 0, -1);
      op.arg = host;
      op.value = tasks;
      w->stream.push_back(op);
    } else if (pick < 0.6) {
      const int app = bags[rng.next_below(bags.size())];
      Op op = make_op(t, phase, Verb::kResize, 0, app);
      op.arg = str_format("%d", static_cast<int>(1 + rng.next_below(4)));
      w->stream.push_back(op);
    } else {
      const int app = static_cast<int>(rng.next_below(w->apps.size()));
      Op op = make_op(t, phase, Verb::kGet, w->apps[app].lane, app);
      op.arg = w->apps[app].bundle + ".option";
      w->stream.push_back(op);
    }
  }
  sort_stream(w);
}

// --- churn -------------------------------------------------------------
// The app lifecycle on the routed server. Lane 0 owns a resident
// population and only GETs it; lanes 1 and 2 each run a sequence of
// sessions on fresh connections over their own half of the node
// groups: connect (STATUS probe), optionally RESUME a session an earlier
// connection abandoned, REGISTER (v2) new apps and GET their
// initial configuration, END some, then either END the rest and close or
// drop the connection with apps still registered. Some apps bridge two
// groups, merging their domains until they END.
constexpr int64_t kResumeGapNs = 100'000'000;

void build_churn(const WorkloadOptions& options, Workload* w) {
  const int groups = options.tiny ? 4 : 16;
  constexpr int kHosts = 3;
  w->wiring.routed = true;
  w->lanes = 3;
  w->fresh_lane = {false, true, true};
  w->fixed_rate = options.tiny ? 60 : 400;
  w->rung_rates = options.tiny ? std::vector<double>{80, 100}
                               : ladder(2000, 10000);
  w->limit_ms = 50;
  set_timeline(options, w);

  std::vector<std::string> hosts;
  for (int g = 0; g < groups; ++g) {
    for (int h = 0; h < kHosts; ++h) {
      hosts.push_back(str_format("ch%02d-h%d", g, h));
    }
  }
  // Full mesh: links never partition the namespace (only hostname pins
  // do), so bridges between any two groups stay placeable.
  for (size_t i = 0; i < hosts.size(); ++i) {
    std::string node = "harmonyNode " + hosts[i] +
                       " {speed 1.0} {memory 4096} {os aix}";
    for (size_t j = 0; j < i; ++j) node += " {link " + hosts[j] + " 320 0.05}";
    w->cluster += node + "\n";
  }
  auto pinned = [](const std::string& name, const std::string& bundle,
                   int group) {
    return str_format(
        "harmonyBundle %s:1 %s {\n"
        "  {wide\n"
        "    {node worker {hostname ch%02d-*} {seconds 240} {memory 24} "
        "{replicate 2}}\n"
        "    {communication 10}}\n"
        "  {narrow\n"
        "    {node worker {hostname ch%02d-*} {seconds 420} {memory 12}}\n"
        "    {communication 2}}\n"
        "}\n",
        name.c_str(), bundle.c_str(), group, group);
  };
  std::vector<int> residents;
  for (int g = 0; g < groups; ++g) {
    for (int r = 0; r < 3; ++r) {
      App app;
      const int id = static_cast<int>(w->apps.size());
      app.name = str_format("Res%03d", id);
      app.bundle = str_format("r%03d", id);
      app.lane = 0;
      app.script = pinned(app.name, app.bundle, g);
      residents.push_back(id);
      w->apps.push_back(app);
    }
  }
  add_setup(w);

  Rng rng(w->seed ^ 0xc4a2ULL);
  for (const auto& [t, phase] : arrivals(rng, *w, 0.2)) {
    const int app = residents[rng.next_below(residents.size())];
    Op op = make_op(t, phase, Verb::kGet, 0, app);
    op.arg = w->apps[app].bundle + ".option";
    w->stream.push_back(op);
  }

  int next_session = 0;
  const int64_t end = stream_end(*w);
  for (int lane = 1; lane <= 2; ++lane) {
    Rng lr(w->seed * 31 + static_cast<uint64_t>(lane));
    std::vector<int> my_groups;
    for (int g = lane - 1; g < groups; g += 2) my_groups.push_back(g);
    int64_t t = 0;
    auto step = [&](int64_t min_gap) {
      t += std::max<int64_t>(
          min_gap, static_cast<int64_t>(
                       lr.next_exponential(rate_at(*w, t) * 0.4) * 1e9));
      return t < end;
    };
    auto emit = [&](Verb verb, int app) -> Op& {
      w->stream.push_back(make_op(t, phase_at(*w, t), verb, lane, app));
      return w->stream.back();
    };
    int parked_session = -1;
    int64_t parked_at = 0;
    std::vector<int> parked;
    bool running = true;
    while (running) {
      if (!step(0)) break;
      emit(Verb::kConnect, -1);
      // A dropped session is resumed by the first connection opened at
      // least kResumeGapNs after the drop, so the hangup has reached the
      // server first; fresh sessions run meanwhile and the lane keeps its
      // offered rate.
      const bool resume =
          parked_session >= 0 && t - parked_at >= kResumeGapNs;
      const int session = resume ? parked_session : next_session++;
      std::vector<int> live;
      if (resume) {
        if (!step(0)) break;
        emit(Verb::kResume, -1).session = parked_session;
        live = parked;
        parked.clear();
        parked_session = -1;
      }
      int registered = 0;
      while (true) {
        if (!step(0)) {
          running = false;
          break;
        }
        const double pick = lr.next_double();
        if (live.size() < 2 || (pick < 0.45 && registered < 4)) {
          App app;
          const int id = static_cast<int>(w->apps.size());
          app.bundle = str_format("c%05d", id);
          app.lane = -1;  // registered in the stream, not in setup
          const size_t n = my_groups.size();
          const size_t i = lr.next_below(n);
          const int g = my_groups[i];
          if (lr.next_bool(0.15) && n > 1) {
            const int g2 = my_groups[(i + 1 + lr.next_below(n - 1)) % n];
            app.name = str_format("Brg%05d", id);
            app.script = str_format(
                "harmonyBundle %s:1 %s {\n"
                "  {span\n"
                "    {node left {hostname ch%02d-*} {seconds 60} {memory 16}}\n"
                "    {node right {hostname ch%02d-*} {seconds 60} {memory 16}}\n"
                "    {link left right 8}}\n"
                "}\n",
                app.name.c_str(), app.bundle.c_str(), g, g2);
          } else {
            app.name = str_format("Chn%05d", id);
            app.script = pinned(app.name, app.bundle, g);
          }
          w->apps.push_back(app);
          emit(Verb::kRegister, id).session = session;
          ++registered;
          live.push_back(id);
          if (!step(0)) {
            running = false;
            break;
          }
          Op& get = emit(Verb::kGet, id);
          get.arg = w->apps[id].bundle + ".option";
          get.verify = true;
        } else if (pick < 0.8) {
          emit(Verb::kEnd, live.front());
          live.erase(live.begin());
        } else if (lr.next_bool(0.4) && parked_session < 0) {
          // Abrupt drop: the server parks the session until a later
          // connection RESUMEs it. One session is parked at a time.
          emit(Verb::kClose, -1);
          parked = live;
          parked_session = session;
          parked_at = t;
          break;
        } else {
          for (int app : live) {
            if (!step(0)) {
              running = false;
              break;
            }
            emit(Verb::kEnd, app);
          }
          live.clear();
          if (!running) break;
          if (!step(0)) {
            running = false;
            break;
          }
          emit(Verb::kClose, -1);
          break;
        }
      }
    }
  }
  sort_stream(w);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"steer", "adapt", "churn"};
  return names;
}

bool make_workload(const WorkloadOptions& options, Workload* out) {
  Workload w;
  w.name = options.name;
  w.seed = options.seed;
  w.tiny = options.tiny;
  if (options.name == "steer") {
    build_steer(options, &w);
  } else if (options.name == "adapt") {
    build_adapt(options, &w);
  } else if (options.name == "churn") {
    build_churn(options, &w);
  } else {
    return false;
  }
  *out = std::move(w);
  return true;
}

std::string dump_stream(const Workload& w) {
  std::string out = str_format("workload %s seed %llu lanes %d\n",
                               w.name.c_str(),
                               static_cast<unsigned long long>(w.seed), w.lanes);
  out += "wiring " + w.wiring.describe() + "\n";
  out += "cluster\n" + w.cluster;
  for (const App& app : w.apps) {
    out += str_format("app %s %s lane %d\n", app.name.c_str(),
                      app.bundle.c_str(), app.lane);
    out += app.script;
  }
  auto dump_op = [&](const Op& op) {
    out += str_format("%lld %s lane=%d app=%d phase=%d arg=%s value=%d "
                      "session=%d verify=%d\n",
                      static_cast<long long>(op.t_ns), verb_name(op.verb),
                      op.lane, op.app, op.phase, op.arg.c_str(), op.value,
                      op.session, op.verify ? 1 : 0);
  };
  for (const Op& op : w.setup) dump_op(op);
  for (const Op& op : w.stream) dump_op(op);
  return out;
}

}  // namespace wirebench
