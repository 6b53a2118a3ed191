// Network front end under a client swarm: the sharded epoll server's
// accept rate, fan-out throughput and tail latency.
//
// Thousands of concurrent protocol clients (a small v1 cohort, the rest
// resumable v2) register against one controller, then ping it steadily
// (GET round trips, closed loop, at most one outstanding per client)
// through two measured windows:
//
//   capacity  driver connections sweep SET steering closed-loop as fast
//             as the server answers; measures fan-out throughput
//             (UPDATE frames/sec delivered to the swarm) and sweep rate
//   latency   one pipelined driver paces the same sweep at a fixed
//             offered rate; measures ping round-trip p50/p99
//
// Separating the windows keeps the numbers honest: closed-loop drivers
// self-throttle to whatever the server sustains, so tail latency is
// only comparable at a stated offered rate. A last phase gates the
// telemetry overhead on the wire path (<2%). Results go to
// BENCH_server.json.
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "core/controller.h"
#include "metric/telemetry.h"
#include "net/framing.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/tcp.h"
#include "net/tcp_transport.h"

namespace {

using namespace harmony;
using net::Fd;
using net::FrameBuffer;
using net::Message;
using Clock = std::chrono::steady_clock;

constexpr int kGroupNodes = 16;
constexpr int kV1Nodes = 4;

// What the swarm is currently measuring.
enum Phase : int { kIdle = 0, kCapacity = 1, kLatency = 2 };

struct Options {
  int clients = 2000;
  double window_seconds = 3.0;
  int io_shards = -1;  // server default
  int ping_interval_ms = 200;
  double paced_sets_per_sec = 20000;
  bool smoke = false;
};

std::string cluster_script() {
  std::string script;
  for (int i = 0; i < kGroupNodes; ++i) {
    script += str_format(
        "harmonyNode grp-%02d {speed 1.0} {memory 1024} {os linux}\n", i);
  }
  // The v1 cohort lives on its own sparse nodes so its teardown
  // departures only dirty each other.
  for (int i = 0; i < kV1Nodes; ++i) {
    script += str_format(
        "harmonyNode v1g-%d {speed 1.0} {memory 1024} {os linux}\n", i);
  }
  script += "harmonyNode scratch-0 {speed 1.0} {memory 1024} {os linux}\n";
  return script;
}

// Constant-model two-option bundle pinned to one node; steering flips
// it between `fast` and `slow`, producing a 4-frame UPDATE batch per
// flip (option, node, nodes, memory).
std::string swarm_bundle(int i, bool v1) {
  const std::string host = v1 ? str_format("v1g-%d", i % kV1Nodes)
                              : str_format("grp-%02d", i % kGroupNodes);
  return str_format(
      "harmonyBundle Swarm:%d place {\n"
      "  {fast {node work {hostname %s} {seconds 0.5} {memory 4}}\n"
      "        {performance expr {1.0}}}\n"
      "  {slow {node work {hostname %s} {seconds 0.5} {memory 4}}\n"
      "        {performance expr {2.0}}}\n"
      "}\n",
      i, host.c_str(), host.c_str());
}

// One swarm member: a raw protocol client (blocking during the
// registration storm, epoll-driven afterwards).
struct SwarmClient {
  Fd fd;
  FrameBuffer inbound;
  core::InstanceId id = 0;
  bool ping_outstanding = false;
  Clock::time_point ping_sent;
  Clock::time_point last_ping;
  std::string ping_request;  // pre-encoded GET frame
};

// Blocking request/response on a swarm socket; skips pushed UPDATEs.
bool blocking_call(SwarmClient& client, const Message& request,
                   Message* reply) {
  if (!net::write_all(client.fd, net::encode_frame(request.encode())).ok()) {
    return false;
  }
  while (true) {
    auto frame = client.inbound.next_frame();
    if (!frame.ok()) return false;
    if (frame.value().has_value()) {
      auto message = Message::decode(*frame.value());
      if (!message.ok()) return false;
      if (message.value().verb == "UPDATE") continue;
      *reply = std::move(message).value();
      return true;
    }
    char buffer[4096];
    auto n = net::read_some(client.fd, buffer, sizeof(buffer));
    if (!n.ok()) return false;
    if (n.value() > 0) client.inbound.feed(std::string_view(buffer, n.value()));
  }
}

// Worker threads own disjoint slices of the swarm: pace pings, read
// frames, count UPDATEs per window, sample round trips in the latency
// window.
struct Worker {
  std::vector<SwarmClient*> clients;
  std::atomic<uint64_t> capacity_updates{0};
  std::atomic<uint64_t> latency_updates{0};
  std::vector<double> rtts_ms;  // latency-window pings; read after join
  std::thread thread;
};

void worker_loop(Worker& worker, const std::atomic<bool>& running,
                 const std::atomic<int>& phase, int ping_interval_ms) {
  Fd epoll(::epoll_create1(EPOLL_CLOEXEC));
  std::vector<epoll_event> events(256);
  for (size_t i = 0; i < worker.clients.size(); ++i) {
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.u64 = i;
    (void)::epoll_ctl(epoll.get(), EPOLL_CTL_ADD,
                      worker.clients[i]->fd.get(), &event);
  }
  const auto interval = std::chrono::milliseconds(ping_interval_ms);
  while (running.load(std::memory_order_relaxed)) {
    int ready = ::epoll_wait(epoll.get(), events.data(),
                             static_cast<int>(events.size()), 10);
    const int window = phase.load(std::memory_order_relaxed);
    for (int i = 0; i < ready; ++i) {
      SwarmClient& client = *worker.clients[events[i].data.u64];
      char buffer[16384];
      while (true) {
        auto n = net::read_some(client.fd, buffer, sizeof(buffer));
        if (!n.ok() || n.value() == 0) break;
        client.inbound.feed(std::string_view(buffer, n.value()));
      }
      while (true) {
        auto frame = client.inbound.next_frame();
        if (!frame.ok() || !frame.value().has_value()) break;
        auto message = Message::decode(*frame.value());
        if (!message.ok()) continue;
        if (message.value().verb == "UPDATE") {
          if (window == kCapacity) {
            worker.capacity_updates.fetch_add(1, std::memory_order_relaxed);
          } else if (window == kLatency) {
            worker.latency_updates.fetch_add(1, std::memory_order_relaxed);
          }
        } else if (client.ping_outstanding) {
          client.ping_outstanding = false;
          if (window == kLatency) {
            worker.rtts_ms.push_back(
                std::chrono::duration<double, std::milli>(Clock::now() -
                                                          client.ping_sent)
                    .count());
          }
        }
      }
    }
    // Pacing pass: closed loop, at most one outstanding ping per client.
    const auto now = Clock::now();
    for (SwarmClient* client : worker.clients) {
      if (client->ping_outstanding || now - client->last_ping < interval) {
        continue;
      }
      if (!net::write_all(client->fd, client->ping_request).ok()) continue;
      client->ping_outstanding = true;
      client->ping_sent = now;
      client->last_ping = now;
    }
  }
}

// The latency-window driver: pipelines SET frames at a fixed rate over
// one connection regardless of how fast replies come back, so the
// offered load does not depend on the server. Partial writes are
// carried in a local buffer; scheduling stops if the backlog tops out
// (a server at meltdown).
struct PacedResult {
  uint64_t scheduled = 0;
  uint64_t acked = 0;
};

void paced_driver_loop(uint16_t port, const std::vector<core::InstanceId>& ids,
                       double rate, const std::atomic<int>& phase,
                       PacedResult* out) {
  auto connected = net::connect_to("localhost", port);
  if (!connected.ok()) return;
  Fd fd = std::move(connected).value();
  (void)net::set_nonblocking(fd, true);
  FrameBuffer inbound;
  std::string outbuf;
  size_t out_head = 0;
  size_t cursor = 0;
  uint64_t round = 0;
  const auto start = Clock::now();
  while (phase.load(std::memory_order_relaxed) == kLatency) {
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    const uint64_t due = static_cast<uint64_t>(rate * elapsed);
    while (out->scheduled < due && outbuf.size() - out_head < (4u << 20)) {
      const core::InstanceId id = ids[cursor];
      if (++cursor == ids.size()) {
        cursor = 0;
        ++round;
      }
      const char* option = (round % 2 == 0) ? "slow" : "fast";
      outbuf += net::encode_frame(
          Message{"SET",
                  {str_format("%llu", static_cast<unsigned long long>(id)),
                   "place", option}}
              .encode());
      ++out->scheduled;
    }
    if (out_head < outbuf.size()) {
      auto n = net::write_some(fd, outbuf.data() + out_head,
                               outbuf.size() - out_head);
      if (!n.ok()) break;
      out_head += n.value();
      if (out_head == outbuf.size()) {
        outbuf.clear();
        out_head = 0;
      } else if (out_head > (1u << 20)) {
        outbuf.erase(0, out_head);
        out_head = 0;
      }
    }
    char buffer[16384];
    while (true) {
      auto n = net::read_some(fd, buffer, sizeof(buffer));
      if (!n.ok() || n.value() == 0) break;
      inbound.feed(std::string_view(buffer, n.value()));
    }
    while (true) {
      auto frame = inbound.next_frame();
      if (!frame.ok() || !frame.value().has_value()) break;
      auto message = Message::decode(*frame.value());
      if (message.ok() && message.value().verb != "UPDATE") ++out->acked;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

struct SwarmResult {
  int io_shards = 0;
  double connects_per_sec = 0;
  // Capacity window (closed-loop sweep).
  double sets_per_sec = 0;
  double update_frames_per_sec = 0;
  uint64_t capacity_updates = 0;
  // Latency window (paced sweep).
  double paced_acked_per_sec = 0;
  double rtt_p50_ms = 0;
  double rtt_p99_ms = 0;
  uint64_t window_pings = 0;
  bool ok = true;
  std::string error;
};

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const size_t index = static_cast<size_t>(p * (sorted.size() - 1));
  return sorted[index];
}

SwarmResult run_swarm(const Options& options) {
  SwarmResult result;

  core::ControllerConfig controller_config;
  controller_config.optimizer.initial_policy =
      core::OptimizerConfig::InitialPolicy::kFirstFeasible;
  controller_config.optimizer.reevaluate_on_arrival = false;
  controller_config.record_objective_metric = false;
  auto controller = std::make_unique<core::Controller>(controller_config);
  if (!controller->add_nodes_script(cluster_script()).ok() ||
      !controller->finalize_cluster().ok()) {
    result.ok = false;
    result.error = "cluster setup failed";
    return result;
  }

  net::ServerConfig server_config;
  server_config.io_shards = options.io_shards;
  server_config.listen_backlog = 1024;
  auto server = std::make_unique<net::HarmonyTcpServer>(controller.get(),
                                                        /*port=*/0,
                                                        server_config);
  auto bound = server->start();
  if (!bound.ok()) {
    result.ok = false;
    result.error = "server start: " + bound.error().message;
    return result;
  }
  const uint16_t port = bound.value();
  result.io_shards = server->io_shards();
  std::thread serve_thread([&server] { server->run(); });

  const int v1_cohort = std::max(1, std::min(64, options.clients / 8));
  std::vector<std::unique_ptr<SwarmClient>> swarm;
  swarm.reserve(options.clients);
  for (int i = 0; i < options.clients; ++i) {
    swarm.push_back(std::make_unique<SwarmClient>());
  }

  // --- phase 1: connection + registration storm ---------------------------
  const int worker_count = 2;
  std::atomic<int> storm_failures{0};
  const auto storm_start = Clock::now();
  {
    std::vector<std::thread> storm;
    for (int w = 0; w < worker_count; ++w) {
      storm.emplace_back([&, w] {
        for (int i = w; i < options.clients; i += worker_count) {
          SwarmClient& client = *swarm[i];
          auto fd = net::connect_to("localhost", port);
          if (!fd.ok()) {
            ++storm_failures;
            continue;
          }
          client.fd = std::move(fd).value();
          const bool v1 = i < v1_cohort;
          Message request{"REGISTER", {swarm_bundle(i, v1)}};
          if (!v1) request.args.push_back("2");
          Message reply;
          if (!blocking_call(client, request, &reply) ||
              reply.verb != "OK" || reply.args.empty()) {
            ++storm_failures;
            client.fd.close();
            continue;
          }
          unsigned long long id = 0;
          std::sscanf(reply.args[0].c_str(), "%llu", &id);
          client.id = static_cast<core::InstanceId>(id);
          client.ping_request = net::encode_frame(
              Message{"GET", {str_format("%llu", id), "place.option"}}
                  .encode());
        }
      });
    }
    for (auto& thread : storm) thread.join();
  }
  const double storm_seconds =
      std::chrono::duration<double>(Clock::now() - storm_start).count();
  if (storm_failures.load() > 0) {
    result.ok = false;
    result.error =
        str_format("%d clients failed to register", storm_failures.load());
  }
  result.connects_per_sec = options.clients / storm_seconds;

  // Warm-up pass: the first re-evaluation after a registration wave is
  // a full sweep that stamps every bundle's incremental version; take
  // it outside the measured windows.
  net::TcpTransport warmup;
  if (!warmup.connect("localhost", port).ok() ||
      !warmup.report_load("scratch-0", 1).ok()) {
    result.ok = false;
    result.error = "warm-up load report failed";
  }

  // --- phase 2: steady-state pings + measured windows ---------------------
  std::atomic<bool> running{true};
  std::atomic<int> phase{kIdle};
  std::vector<std::unique_ptr<Worker>> workers;
  for (int w = 0; w < worker_count; ++w) {
    workers.push_back(std::make_unique<Worker>());
  }
  std::vector<core::InstanceId> v2_ids;
  for (int i = 0; i < options.clients; ++i) {
    if (!swarm[i]->fd.valid()) continue;
    (void)net::set_nonblocking(swarm[i]->fd, true);
    workers[i % worker_count]->clients.push_back(swarm[i].get());
    if (i >= v1_cohort && swarm[i]->id != 0) v2_ids.push_back(swarm[i]->id);
  }
  for (int w = 0; w < worker_count; ++w) {
    Worker* worker = workers[w].get();
    worker->thread = std::thread([worker, &running, &phase, &options] {
      worker_loop(*worker, running, phase, options.ping_interval_ms);
    });
  }
  // Let the ping load settle before measuring.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  // Capacity window: closed-loop SET sweep from driver transports.
  const int driver_count = 2;
  std::atomic<uint64_t> sets_done{0};
  std::vector<std::thread> drivers;
  phase.store(kCapacity);
  const auto capacity_start = Clock::now();
  for (int d = 0; d < driver_count; ++d) {
    drivers.emplace_back([&, d] {
      net::TcpTransport driver;
      if (!driver.connect("localhost", port).ok()) return;
      uint64_t round = 0;
      while (phase.load(std::memory_order_relaxed) == kCapacity) {
        for (size_t i = d; i < v2_ids.size(); i += driver_count) {
          if (phase.load(std::memory_order_relaxed) != kCapacity) break;
          const char* option = (round % 2 == 0) ? "slow" : "fast";
          if (driver.set_option(v2_ids[i], "place", option).ok()) {
            sets_done.fetch_add(1, std::memory_order_relaxed);
          }
        }
        ++round;
      }
    });
  }
  std::this_thread::sleep_for(
      std::chrono::duration<double>(options.window_seconds));
  phase.store(kIdle);
  const double capacity_seconds =
      std::chrono::duration<double>(Clock::now() - capacity_start).count();
  for (auto& driver : drivers) driver.join();
  for (auto& worker : workers) {
    result.capacity_updates += worker->capacity_updates.load();
  }
  result.sets_per_sec = sets_done.load() / capacity_seconds;
  result.update_frames_per_sec = result.capacity_updates / capacity_seconds;

  // Latency window: the same sweep paced at a fixed offered rate.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  PacedResult paced;
  phase.store(kLatency);
  const auto latency_start = Clock::now();
  std::thread paced_thread([&] {
    paced_driver_loop(port, v2_ids, options.paced_sets_per_sec, phase,
                      &paced);
  });
  std::this_thread::sleep_for(
      std::chrono::duration<double>(options.window_seconds));
  phase.store(kIdle);
  const double latency_seconds =
      std::chrono::duration<double>(Clock::now() - latency_start).count();
  paced_thread.join();
  running.store(false);
  std::vector<double> rtts;
  for (auto& worker : workers) {
    worker->thread.join();
    rtts.insert(rtts.end(), worker->rtts_ms.begin(), worker->rtts_ms.end());
  }
  std::sort(rtts.begin(), rtts.end());
  result.window_pings = rtts.size();
  result.paced_acked_per_sec = paced.acked / latency_seconds;
  result.rtt_p50_ms = percentile(rtts, 0.50);
  result.rtt_p99_ms = percentile(rtts, 0.99);
  if (result.capacity_updates == 0 || rtts.empty()) {
    result.ok = false;
    if (result.error.empty()) result.error = "no traffic measured in window";
  }

  // --- teardown: server first, so closing the swarm costs nothing ---------
  server->stop();
  serve_thread.join();
  server.reset();  // parks v2 sessions, departs the v1 cohort
  return result;
}

// --- telemetry overhead on the wire path ----------------------------------
// A fixed quantum of SET round trips through the sharded server with the
// process-global telemetry flag on vs off, interleaved best-of-N minima.
// The driver owns the instances it steers, so the UPDATE fan-out drains
// through its own call() loop — one connection, no extra threads, and
// every instrumented layer (shard framing, mailbox, controller epoch,
// UPDATE ship) sits on the measured path.
struct TelemetryOverheadResult {
  double off_ms = 0;
  double on_ms = 0;
  double overhead_percent = 0;
  bool gate_met = false;
  bool ok = true;
  std::string error;
};

TelemetryOverheadResult run_telemetry_overhead(const Options& options) {
  TelemetryOverheadResult result;
  core::ControllerConfig controller_config;
  controller_config.optimizer.initial_policy =
      core::OptimizerConfig::InitialPolicy::kFirstFeasible;
  controller_config.optimizer.reevaluate_on_arrival = false;
  controller_config.record_objective_metric = false;
  auto controller = std::make_unique<core::Controller>(controller_config);
  if (!controller->add_nodes_script(cluster_script()).ok() ||
      !controller->finalize_cluster().ok()) {
    result.ok = false;
    result.error = "cluster setup failed";
    return result;
  }
  net::ServerConfig server_config;
  server_config.io_shards = 2;
  auto server = std::make_unique<net::HarmonyTcpServer>(controller.get(),
                                                        /*port=*/0,
                                                        server_config);
  auto bound = server->start();
  if (!bound.ok()) {
    result.ok = false;
    result.error = "server start: " + bound.error().message;
    return result;
  }
  std::thread serve_thread([&server] { server->run(); });

  net::TcpTransport driver;
  std::vector<core::InstanceId> ids;
  bool setup_ok = driver.connect("localhost", bound.value()).ok();
  for (int i = 0; setup_ok && i < 4; ++i) {
    auto id = driver.register_app(swarm_bundle(i, /*v1=*/false));
    if (id.ok()) {
      ids.push_back(id.value());
    } else {
      setup_ok = false;
    }
  }
  if (setup_ok) {
    const int sets_per_pass = options.smoke ? 300 : 2000;
    const int repeats = options.smoke ? 5 : 10;
    double off_ms = 1e18, on_ms = 1e18;
    for (int repeat = 0; repeat < repeats && setup_ok; ++repeat) {
      for (bool enabled : {false, true}) {
        metric::set_telemetry_enabled(enabled);
        uint64_t round = 0;
        const auto t0 = Clock::now();
        for (int i = 0; i < sets_per_pass; ++i) {
          const core::InstanceId id = ids[i % ids.size()];
          if (i % ids.size() == ids.size() - 1) ++round;
          const char* option = (round % 2 == 0) ? "slow" : "fast";
          if (!driver.set_option(id, "place", option).ok()) {
            setup_ok = false;
            break;
          }
        }
        const double wall_ms =
            std::chrono::duration<double, std::milli>(Clock::now() - t0)
                .count();
        if (enabled) {
          on_ms = std::min(on_ms, wall_ms);
        } else {
          off_ms = std::min(off_ms, wall_ms);
        }
      }
    }
    metric::set_telemetry_enabled(true);
    result.off_ms = off_ms;
    result.on_ms = on_ms;
    result.overhead_percent =
        off_ms > 0 ? 100.0 * (on_ms - off_ms) / off_ms : 0;
    result.gate_met = result.overhead_percent < 2.0;
  }
  if (!setup_ok && result.error.empty()) {
    result.ok = false;
    result.error = "telemetry overhead drive failed";
  }
  server->stop();
  serve_thread.join();
  server.reset();
  return result;
}

int run(const Options& options) {
  // The swarm needs one fd per client plus headroom for the server side.
  rlimit limit{};
  if (::getrlimit(RLIMIT_NOFILE, &limit) == 0) {
    const rlim_t wanted = static_cast<rlim_t>(options.clients) * 2 + 512;
    if (limit.rlim_cur < wanted && wanted <= limit.rlim_max) {
      limit.rlim_cur = wanted;
      (void)::setrlimit(RLIMIT_NOFILE, &limit);
    }
  }

  std::printf("=== Network front end: sharded epoll server ===\n");
  std::printf(
      "scenario: %d clients ping every %d ms; capacity window = closed-loop "
      "SET sweep, latency window = sweep paced at %.0f sets/s, %.1fs each\n\n",
      options.clients, options.ping_interval_ms, options.paced_sets_per_sec,
      options.window_seconds);
  std::printf("%7s %10s %10s %12s %12s %10s %10s\n", "shards", "conn/s",
              "sets/s", "frames/s", "paced_ack/s", "p50_ms", "p99_ms");

  const SwarmResult swarm = run_swarm(options);
  bool ok = swarm.ok;
  std::printf("%7d %10.0f %10.0f %12.0f %12.0f %10.2f %10.2f\n",
              swarm.io_shards, swarm.connects_per_sec, swarm.sets_per_sec,
              swarm.update_frames_per_sec, swarm.paced_acked_per_sec,
              swarm.rtt_p50_ms, swarm.rtt_p99_ms);
  if (!swarm.ok) std::printf("  !! %s\n", swarm.error.c_str());

  // Telemetry overhead on the wire path (always gated, smoke included).
  auto telemetry = run_telemetry_overhead(options);
  if (telemetry.ok) {
    std::printf(
        "\ntelemetry overhead (SET round-trip quantum, best-of-N): "
        "off %.3f ms, on %.3f ms, overhead %.2f%% (<2%% required): %s\n",
        telemetry.off_ms, telemetry.on_ms, telemetry.overhead_percent,
        telemetry.gate_met ? "PASS" : "FAIL");
  } else {
    std::printf("\n!! telemetry overhead phase: %s\n",
                telemetry.error.c_str());
  }
  ok = ok && telemetry.ok && telemetry.gate_met;

  if (options.smoke) {
    // Smoke validates the gates at reduced scale without clobbering the
    // full-size numbers.
    std::printf("\nsmoke mode: BENCH_server.json not rewritten\n");
    return ok ? 0 : 1;
  }
  FILE* out = std::fopen("BENCH_server.json", "w");
  if (out != nullptr) {
    std::fprintf(
        out,
        "{\n  \"bench\": \"abl_server\",\n"
        "  \"clients\": %d,\n  \"window_seconds\": %.2f,\n"
        "  \"ping_interval_ms\": %d,\n  \"paced_sets_per_sec\": %.0f,\n"
        "  \"io_shards\": %d,\n  \"connects_per_sec\": %.1f,\n"
        "  \"sets_per_sec\": %.1f,\n  \"update_frames_per_sec\": %.1f,\n"
        "  \"paced_acked_per_sec\": %.1f,\n  \"ping_rtt_p50_ms\": %.3f,\n"
        "  \"ping_rtt_p99_ms\": %.3f,\n  \"window_pings\": %llu,\n"
        "  \"telemetry_off_ms\": %.3f,\n  \"telemetry_on_ms\": %.3f,\n"
        "  \"telemetry_overhead_percent\": %.2f,\n"
        "  \"telemetry_gate_met\": %s\n}\n",
        options.clients, options.window_seconds, options.ping_interval_ms,
        options.paced_sets_per_sec, swarm.io_shards, swarm.connects_per_sec,
        swarm.sets_per_sec, swarm.update_frames_per_sec,
        swarm.paced_acked_per_sec, swarm.rtt_p50_ms, swarm.rtt_p99_ms,
        static_cast<unsigned long long>(swarm.window_pings), telemetry.off_ms,
        telemetry.on_ms, telemetry.overhead_percent,
        telemetry.gate_met ? "true" : "false");
    std::fclose(out);
    std::printf("wrote BENCH_server.json\n");
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
    } else if (arg == "--seconds") {
      options.window_seconds = next_int(3);
    } else if (arg == "--shards") {
      options.io_shards = next_int(options.io_shards);
    } else if (arg == "--ping-interval-ms") {
      options.ping_interval_ms = next_int(options.ping_interval_ms);
    } else if (arg == "--paced-rate") {
      options.paced_sets_per_sec = next_int(20000);
    } else if (arg == "--smoke") {
      options.smoke = true;
      options.clients = 64;
      options.window_seconds = 1.0;
      options.paced_sets_per_sec = 500;
    } else {
      std::fprintf(stderr,
                   "usage: abl_server [--clients N] [--seconds S] "
                   "[--shards K] [--ping-interval-ms M] [--paced-rate R] "
                   "[--smoke]\n");
      return 2;
    }
  }
  return run(options);
}
