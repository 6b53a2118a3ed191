// Failover ablation — what controller replication costs and what it
// buys when the primary dies.
//
// Three measured sections. The HA pair runs as two forked child
// processes sharing a lease file (the published HA status is
// process-global, so one process hosts exactly one node — and a real
// SIGKILL is the honest version of the event anyway):
//
//   promotion  a client swarm holds v2 sessions against the primary;
//              the primary is killed -9 mid-service. Measures the
//              standby's STATUS flip to primary and, per client, the
//              time until its next decision round-trips — the
//              reconnect-storm drain.
//   drain      same event, client side: p50/p99/max of per-client
//              recovery, i.e. how long the storm takes to fully land
//              on the new primary.
//   overhead   a fixed quantum of journaled controller work (register
//              wave + load/reevaluate cycles) with persistence alone
//              vs persistence + an attached, continuously drained
//              replication subscriber. Interleaved best-of-N minima;
//              the gate requires <2% added wall time.
//
// Results go to BENCH_failover.json; the run exits nonzero if the
// overhead gate fails or any phase breaks.
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "core/controller.h"
#include "metric/telemetry.h"
#include "net/framing.h"
#include "net/protocol.h"
#include "net/tcp.h"
#include "net/tcp_transport.h"
#include "persist/persistence.h"
#include "replica/node.h"
#include "replica/source.h"
#include "test_scenarios.h"

namespace {

using namespace harmony;
using Clock = std::chrono::steady_clock;

struct Options {
  int clients = 128;
  int iterations = 3;
  int overhead_registers = 48;
  int overhead_cycles = 12;
  // Best-of-N minima: the quantum has several percent of run-to-run
  // timing noise, and the signal being gated is sub-percent. N = 21
  // keeps the minimum estimator's spread well inside the 2% gate.
  int overhead_repeats = 21;
  bool smoke = false;
};

// One-node one-option bundle with a tiny footprint: placement is
// trivial, so a swarm of these stresses the journal/stream path rather
// than the optimizer.
std::string tiny_bundle(int tag) {
  return str_format(
      "harmonyBundle Tiny:%d config {\n"
      "  {fixed\n"
      "    {node worker {seconds 1} {memory 0.5} {replicate 1}}\n"
      "    {communication 0.1}}\n"
      "}\n",
      tag);
}

Status bootstrap_cluster(core::Controller& controller) {
  Status added =
      controller.add_nodes_script(harmony::testing::sp2_cluster_script(4));
  if (!added.ok()) return added;
  return controller.finalize_cluster();
}

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const size_t index = static_cast<size_t>(p * (sorted.size() - 1));
  return sorted[index];
}

// Raw {STATUS} probe, usable against a standby (which refuses decision
// verbs but answers status).
std::string probe_role(uint16_t port) {
  auto fd = net::connect_to("127.0.0.1", port);
  if (!fd.ok()) return "";
  if (!net::write_all(fd.value(),
                      net::encode_frame(net::Message{"STATUS", {}}.encode()))
           .ok()) {
    return "";
  }
  net::FrameBuffer frames;
  char buffer[4096];
  for (int spin = 0; spin < 200; ++spin) {
    auto n = net::read_some(fd.value(), buffer, sizeof buffer);
    if (!n.ok() || n.value() == 0) return "";
    frames.feed(std::string_view(buffer, n.value()));
    auto frame = frames.next_frame();
    if (!frame.ok()) return "";
    if (frame.value().has_value()) {
      auto message = net::Message::decode(*frame.value());
      if (!message.ok() || message.value().args.empty()) return "";
      return message.value().args[0];
    }
  }
  return "";
}

bool wait_for_role(uint16_t port, const std::string& role, int timeout_ms) {
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (Clock::now() < deadline) {
    if (probe_role(port) == role) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

uint16_t reserve_port(const net::Fd& listener) {
  auto port = net::local_port(listener);
  return port.ok() ? port.value() : 0;
}

replica::HaNodeConfig node_config(const std::string& base,
                                  const std::string& name, uint16_t port,
                                  uint16_t peer_port) {
  replica::HaNodeConfig config;
  config.data_dir = base + "/" + name;
  config.lease_path = base + "/lease";
  config.port = port;
  config.peers = {{"127.0.0.1", peer_port}};
  config.node_id = name;
  config.lease_ttl_ms = 600;
  config.lease_renew_ms = 150;
  config.bootstrap = bootstrap_cluster;
  config.persist.snapshot_every_epochs = 64;
  config.persist.fsync_every_epochs = 8;
  config.standby.ack_interval_ms = 5;
  config.standby.poll_interval_ms = 5;
  config.standby.initial_backoff_ms = 10;
  config.standby.max_backoff_ms = 100;
  return config;
}

volatile std::sig_atomic_t g_terminate = 0;
void on_sigterm(int) { g_terminate = 1; }

// Each node runs in its own forked process: the published HA status is
// process-global, and a real SIGKILL is the event we claim to measure.
[[noreturn]] void run_node_process(const std::string& base,
                                   const std::string& name, uint16_t port,
                                   uint16_t peer_port) {
  std::signal(SIGTERM, on_sigterm);
  metric::set_telemetry_enabled(true);
  replica::HaNode node(node_config(base, name, port, peer_port));
  if (!node.start().ok()) std::_Exit(2);
  while (g_terminate == 0) (void)node.poll(10);
  std::_Exit(0);
}

pid_t spawn_node(const std::string& base, const std::string& name,
                 uint16_t port, uint16_t peer_port) {
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) run_node_process(base, name, port, peer_port);
  return pid;
}

void reap(pid_t& pid, int sig) {
  if (pid <= 0) return;
  ::kill(pid, sig);
  int status = 0;
  ::waitpid(pid, &status, 0);
  pid = -1;
}

struct FailoverResult {
  double promotion_ms = 0;      // lease death -> STATUS says primary
  double drain_p50_ms = 0;      // per-client recovery percentiles
  double drain_p99_ms = 0;
  double drain_max_ms = 0;
  int clients_recovered = 0;
  bool ok = true;
  std::string error;
};

FailoverResult run_failover(const Options& options, int iteration) {
  FailoverResult result;
  const std::string base = std::filesystem::temp_directory_path().string() +
                           "/abl_failover_" + std::to_string(::getpid()) +
                           "_" + std::to_string(iteration);
  std::filesystem::remove_all(base);
  std::filesystem::create_directories(base);

  uint16_t port_a = 0;
  uint16_t port_b = 0;
  {
    auto listener_a = net::listen_on(0);
    auto listener_b = net::listen_on(0);
    if (!listener_a.ok() || !listener_b.ok()) {
      result.ok = false;
      result.error = "port reservation failed";
      return result;
    }
    port_a = reserve_port(listener_a.value());
    port_b = reserve_port(listener_b.value());
  }

  pid_t pid_a = spawn_node(base, "alpha", port_a, port_b);
  pid_t pid_b = -1;
  if (pid_a <= 0 || !wait_for_role(port_a, "primary", 10000) ||
      (pid_b = spawn_node(base, "beta", port_b, port_a)) <= 0 ||
      !wait_for_role(port_b, "standby", 10000)) {
    result.ok = false;
    result.error = "pair bring-up failed";
    reap(pid_a, SIGKILL);
    reap(pid_b, SIGKILL);
    return result;
  }

  // The swarm: every client holds a v2 session (registered app) and
  // waits for the kill signal, then races to land one more decision.
  struct ClientSlot {
    std::unique_ptr<net::TcpTransport> transport;
    double recovery_ms = -1;
  };
  std::vector<ClientSlot> slots(options.clients);
  std::atomic<int> register_failures{0};
  std::mutex error_mutex;
  std::string first_error;
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < options.clients; ++i) {
      threads.emplace_back([&, i] {
        auto transport = std::make_unique<net::TcpTransport>();
        net::ReconnectPolicy policy;
        policy.max_attempts = 80;
        policy.initial_backoff_ms = 10;
        policy.max_backoff_ms = 150;
        policy.jitter_seed = 1000 + i;
        transport->set_reconnect_policy(policy);
        Status registered =
            transport->connect({{"127.0.0.1", port_a}, {"127.0.0.1", port_b}});
        if (registered.ok()) {
          auto id = transport->register_app(tiny_bundle(i + 1));
          if (!id.ok()) registered = Status(id.error());
        }
        if (!registered.ok()) {
          ++register_failures;
          std::lock_guard<std::mutex> lock(error_mutex);
          if (first_error.empty()) first_error = registered.to_string();
          return;
        }
        slots[i].transport = std::move(transport);
      });
    }
    for (auto& thread : threads) thread.join();
  }
  if (register_failures.load() > 0) {
    result.ok = false;
    result.error = str_format("%d clients failed to register (%s)",
                              register_failures.load(), first_error.c_str());
    reap(pid_a, SIGKILL);
    reap(pid_b, SIGKILL);
    return result;
  }

  // Kill. The swarm storms the survivor; a probe thread watches its
  // role flip.
  std::atomic<bool> go{false};
  std::atomic<double> promotion_ms{-1};
  Clock::time_point killed_at;
  std::thread role_watch([&] {
    while (!go.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (wait_for_role(port_b, "primary", 15000)) {
      promotion_ms.store(ms_since(killed_at));
    }
  });
  std::vector<std::thread> storm;
  for (int i = 0; i < options.clients; ++i) {
    storm.emplace_back([&, i] {
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (slots[i].transport->report_load("sp2-01", 1 + i % 3).ok()) {
        slots[i].recovery_ms = ms_since(killed_at);
      }
    });
  }

  reap(pid_a, SIGKILL);
  killed_at = Clock::now();
  go.store(true, std::memory_order_release);
  for (auto& thread : storm) thread.join();
  role_watch.join();

  std::vector<double> recoveries;
  for (const auto& slot : slots) {
    if (slot.recovery_ms >= 0) recoveries.push_back(slot.recovery_ms);
  }
  std::sort(recoveries.begin(), recoveries.end());
  result.clients_recovered = static_cast<int>(recoveries.size());
  result.promotion_ms = promotion_ms.load();
  result.drain_p50_ms = percentile(recoveries, 0.50);
  result.drain_p99_ms = percentile(recoveries, 0.99);
  result.drain_max_ms = recoveries.empty() ? 0 : recoveries.back();
  if (result.promotion_ms < 0 ||
      result.clients_recovered != options.clients) {
    result.ok = false;
    result.error = str_format("promotion_ms=%.0f, %d/%d clients recovered",
                              result.promotion_ms, result.clients_recovered,
                              options.clients);
  }

  reap(pid_b, SIGTERM);
  std::filesystem::remove_all(base);
  return result;
}

// --- replication overhead on the decision path ----------------------------
struct OverheadResult {
  double off_ms = 0;
  double on_ms = 0;
  double overhead_percent = 0;
  bool gate_met = false;
  bool ok = true;
  std::string error;
};

// One quantum of journaled controller work. Returns false on any error.
bool drive_quantum(core::Controller& controller, const Options& options,
                   replica::ReplicationSource* source) {
  for (int i = 0; i < options.overhead_registers; ++i) {
    if (!controller.register_script(tiny_bundle(i + 1)).ok()) return false;
    // Continuous drain: a live wire ships batches as they commit, so
    // the in-memory subscriber must not let them pile up either.
    if (source != nullptr) (void)source->take_pending(1);
  }
  for (int i = 0; i < options.overhead_cycles; ++i) {
    if (!controller.report_external_load("sp2-01", 1 + i % 3).ok()) {
      return false;
    }
    if (!controller.reevaluate().ok()) return false;
    if (source != nullptr) (void)source->take_pending(1);
  }
  return true;
}

OverheadResult run_overhead(const Options& options) {
  OverheadResult result;
  const std::string base = std::filesystem::temp_directory_path().string() +
                           "/abl_failover_ovh_" + std::to_string(::getpid());
  double off_ms = 1e18;
  double on_ms = 1e18;
  for (int repeat = 0; repeat < options.overhead_repeats && result.ok;
       ++repeat) {
    // Alternate which mode goes first so drifting background load
    // (journal writeback from a failover phase, say) cancels instead of
    // systematically favoring one side.
    const bool first = repeat % 2 == 1;
    for (bool replicated : {first, !first}) {
      std::filesystem::remove_all(base);
      std::filesystem::create_directories(base);
      core::Controller controller;
      if (!bootstrap_cluster(controller).ok()) {
        result.ok = false;
        result.error = "cluster setup failed";
        break;
      }
      persist::PersistConfig config;
      config.dir = base;
      config.snapshot_every_epochs = 64;
      // No fsync inside the measured quantum: its cost is identical
      // with and without replication, and its latency noise swamps the
      // few-percent signal this gate exists to bound. Excluding it
      // shrinks the denominator, making the <2% gate stricter.
      config.fsync_every_epochs = 1 << 20;
      auto opened = persist::Persistence::open(config, controller);
      if (!opened.ok()) {
        result.ok = false;
        result.error = "persistence open: " + opened.error().to_string();
        break;
      }
      std::unique_ptr<replica::ReplicationSource> source;
      if (replicated) {
        source = std::make_unique<replica::ReplicationSource>(
            opened.value().get());
        opened.value()->set_replication_tap(source.get());
        // In-memory subscriber at the current position: every commit is
        // counted, framed and hex-encoded exactly as for a live wire.
        (void)source->handshake(1, "bench",
                                opened.value()->replication_position().generation,
                                opened.value()->replication_position().offset);
      }
      const auto t0 = Clock::now();
      const bool drove = drive_quantum(controller, options, source.get());
      const double wall_ms = ms_since(t0);
      if (!drove) {
        result.ok = false;
        result.error = "overhead quantum drive failed";
        break;
      }
      if (replicated) {
        const auto position = opened.value()->replication_position();
        source->note_ack(1, position.generation, position.offset, 0);
        on_ms = std::min(on_ms, wall_ms);
      } else {
        off_ms = std::min(off_ms, wall_ms);
      }
    }
  }
  std::filesystem::remove_all(base);
  if (result.ok) {
    result.off_ms = off_ms;
    result.on_ms = on_ms;
    result.overhead_percent =
        off_ms > 0 ? 100.0 * (on_ms - off_ms) / off_ms : 0;
    result.gate_met = result.overhead_percent < 2.0;
  }
  return result;
}

int run(const Options& options) {
  metric::set_telemetry_enabled(true);
  std::printf("=== Controller failover: promotion, storm drain, overhead ===\n");
  std::printf(
      "scenario: %d v2 clients, lease ttl 600ms/renew 150ms, %d failover "
      "iteration(s)\n\n",
      options.clients, options.iterations);

  bool ok = true;
  // The overhead gate compares ~100ms quanta to sub-percent precision;
  // run it before the failover storm fills the page cache with journal
  // writeback from 2x3 node directories.
  OverheadResult overhead = run_overhead(options);

  std::vector<FailoverResult> failovers;
  std::printf("%5s %13s %11s %11s %11s %10s\n", "iter", "promotion_ms",
              "drain_p50", "drain_p99", "drain_max", "recovered");
  for (int i = 0; i < options.iterations; ++i) {
    FailoverResult result = run_failover(options, i);
    std::printf("%5d %13.1f %11.1f %11.1f %11.1f %7d/%d\n", i,
                result.promotion_ms, result.drain_p50_ms, result.drain_p99_ms,
                result.drain_max_ms, result.clients_recovered,
                options.clients);
    if (!result.ok) {
      std::printf("  !! iteration %d: %s\n", i, result.error.c_str());
      ok = false;
    }
    failovers.push_back(result);
  }

  if (overhead.ok) {
    std::printf(
        "\nreplication overhead (journaled quantum, best-of-%d): off %.3f ms, "
        "on %.3f ms, overhead %.2f%% (<2%% required): %s\n",
        options.overhead_repeats, overhead.off_ms, overhead.on_ms,
        overhead.overhead_percent, overhead.gate_met ? "PASS" : "FAIL");
  } else {
    std::printf("\n!! overhead phase: %s\n", overhead.error.c_str());
  }
  ok = ok && overhead.ok && overhead.gate_met;

  if (options.smoke) {
    // Smoke validates the gates at reduced scale without clobbering the
    // full-size numbers.
    std::printf("\nsmoke mode: BENCH_failover.json not rewritten\n");
    return ok ? 0 : 1;
  }
  std::string iterations_json;
  for (const auto& result : failovers) {
    if (!iterations_json.empty()) iterations_json += ",";
    iterations_json += str_format(
        "\n    {\"promotion_ms\": %.1f, \"drain_p50_ms\": %.1f, "
        "\"drain_p99_ms\": %.1f, \"drain_max_ms\": %.1f, "
        "\"clients_recovered\": %d, \"ok\": %s}",
        result.promotion_ms, result.drain_p50_ms, result.drain_p99_ms,
        result.drain_max_ms, result.clients_recovered,
        result.ok ? "true" : "false");
  }
  FILE* out = std::fopen("BENCH_failover.json", "w");
  if (out != nullptr) {
    std::fprintf(
        out,
        "{\n  \"bench\": \"abl_failover\",\n  \"clients\": %d,\n"
        "  \"lease_ttl_ms\": 600,\n"
        "  \"iterations\": [%s\n  ],\n"
        "  \"overhead_off_ms\": %.3f,\n  \"overhead_on_ms\": %.3f,\n"
        "  \"overhead_percent\": %.2f,\n  \"overhead_gate_met\": %s\n}\n",
        options.clients, iterations_json.c_str(), overhead.off_ms,
        overhead.on_ms, overhead.overhead_percent,
        overhead.gate_met ? "true" : "false");
    std::fclose(out);
    std::printf("wrote BENCH_failover.json\n");
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_int = [&](int fallback) {
      return (i + 1 < argc) ? std::atoi(argv[++i]) : fallback;
    };
    if (arg == "--clients") {
      options.clients = next_int(options.clients);
    } else if (arg == "--iterations") {
      options.iterations = next_int(options.iterations);
    } else if (arg == "--smoke") {
      // Smoke shrinks only the failover swarm; the overhead quantum is
      // already sub-second at full scale and shrinking it makes the
      // best-of-N minima too noisy for a 2% gate.
      options.smoke = true;
      options.clients = 24;
      options.iterations = 1;
    } else {
      std::fprintf(stderr,
                   "usage: abl_failover [--clients N] [--iterations K] "
                   "[--smoke]\n");
      return 2;
    }
  }
  return run(options);
}
