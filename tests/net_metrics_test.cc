// End-to-end coverage for the {METRICS} wire verb and the telemetry it
// exposes: scrapes must succeed mid-swarm with counters that are
// consistent with the traffic, and — because shards answer the verb
// themselves — must keep working even when the controller thread never
// drains a single mailbox event.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "core/controller.h"
#include "core/domain.h"
#include "metric/telemetry.h"
#include "rsl/value.h"
#include "net/framing.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/tcp.h"
#include "net/tcp_transport.h"

namespace harmony::net {
namespace {

constexpr int kGroupNodes = 8;

std::string swarm_cluster_script() {
  std::string script;
  for (int i = 0; i < kGroupNodes; ++i) {
    script += str_format(
        "harmonyNode grp-%02d {speed 1.0} {memory 256} {os linux}\n", i);
  }
  return script;
}

std::string swarm_bundle(int i) {
  return str_format(
      "harmonyBundle Swarm:%d place {\n"
      "  {fast {node work {hostname grp-%02d} {seconds 0.5} {memory 4}}\n"
      "        {performance expr {1.0}}}\n"
      "  {slow {node work {hostname grp-%02d} {seconds 0.5} {memory 4}}\n"
      "        {performance expr {2.0}}}\n"
      "}\n",
      i, i % kGroupNodes, i % kGroupNodes);
}

// Minimal blocking protocol client for raw verbs.
struct RawClient {
  Fd fd;
  FrameBuffer inbound;

  Status connect(uint16_t port) {
    auto connected = connect_to("localhost", port);
    if (!connected.ok()) {
      return Status(connected.error().code, connected.error().message);
    }
    fd = std::move(connected).value();
    return Status::Ok();
  }

  Result<Message> call(const Message& request) {
    auto sent = write_all(fd, encode_frame(request.encode()));
    if (!sent.ok()) return Err<Message>(sent.error().code, sent.error().message);
    while (true) {
      auto frame = inbound.next_frame();
      if (!frame.ok()) {
        return Err<Message>(frame.error().code, frame.error().message);
      }
      if (frame.value().has_value()) {
        auto message = Message::decode(*frame.value());
        if (!message.ok()) return message;
        if (message.value().verb == "UPDATE") continue;
        return message;
      }
      char buffer[4096];
      auto n = read_some(fd, buffer, sizeof(buffer));
      if (!n.ok()) return Err<Message>(n.error().code, n.error().message);
      if (n.value() == 0) continue;
      inbound.feed(std::string_view(buffer, n.value()));
    }
  }
};

class MetricsTest : public ::testing::Test {
 protected:
  // `optimize` switches arrivals from first-feasible steering to the
  // optimizer's predicted-objective pass with re-evaluation.
  void start_server(ServerConfig config, bool run_controller,
                    bool optimize = false) {
    core::ControllerConfig controller_config;
    controller_config.optimizer.initial_policy =
        optimize ? core::OptimizerConfig::InitialPolicy::kOptimize
                 : core::OptimizerConfig::InitialPolicy::kFirstFeasible;
    controller_config.optimizer.reevaluate_on_arrival = optimize;
    controller_config.record_objective_metric = false;
    controller_ = std::make_unique<core::Controller>(controller_config);
    ASSERT_TRUE(controller_->add_nodes_script(swarm_cluster_script()).ok());
    ASSERT_TRUE(controller_->finalize_cluster().ok());
    server_ = std::make_unique<HarmonyTcpServer>(controller_.get(),
                                                 /*port=*/0, config);
    auto bound = server_->start();
    ASSERT_TRUE(bound.ok()) << bound.error().to_string();
    port_ = bound.value();
    if (run_controller) {
      server_thread_ = std::thread([this] { server_->run(); });
    }
  }

  // Same shape, but the decision core is a partitioned DomainRouter:
  // every pinned swarm bundle lands in its own optimization domain.
  void start_router_server(ServerConfig config) {
    core::DomainRouterConfig router_config;
    router_config.controller.optimizer.initial_policy =
        core::OptimizerConfig::InitialPolicy::kFirstFeasible;
    router_config.controller.optimizer.reevaluate_on_arrival = false;
    router_config.controller.record_objective_metric = false;
    router_ = std::make_unique<core::DomainRouter>(router_config);
    ASSERT_TRUE(router_->add_nodes_script(swarm_cluster_script()).ok());
    ASSERT_TRUE(router_->finalize_cluster().ok());
    server_ = std::make_unique<HarmonyTcpServer>(router_.get(),
                                                 /*port=*/0, config);
    auto bound = server_->start();
    ASSERT_TRUE(bound.ok()) << bound.error().to_string();
    port_ = bound.value();
    server_thread_ = std::thread([this] { server_->run(); });
  }

  void TearDown() override {
    if (server_thread_.joinable()) {
      server_->stop();
      server_thread_.join();
    }
    server_.reset();  // joins shards even when run() was never called
  }

  template <typename Predicate>
  bool wait_for(Predicate predicate, int timeout_ms = 5000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      if (predicate()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return predicate();
  }

  std::unique_ptr<core::Controller> controller_;
  std::unique_ptr<core::DomainRouter> router_;
  std::unique_ptr<HarmonyTcpServer> server_;
  std::thread server_thread_;
  uint16_t port_ = 0;
};

TEST_F(MetricsTest, ScrapeMidSwarmIsConsistentWithTraffic) {
  // Instruments are process-global; deltas against these baselines keep
  // the test independent of suite order.
  const uint64_t accepts0 =
      metric::telemetry_counter("net.accepts_total").value();
  const uint64_t frames_in0 =
      metric::telemetry_counter("net.frames_in_total").value();
  const uint64_t frames_out0 =
      metric::telemetry_counter("net.frames_out_total").value();
  const uint64_t epochs0 =
      metric::telemetry_counter("controller.epochs_total").value();
  const uint64_t parks0 =
      metric::telemetry_counter("net.session_parks_total").value();

  ServerConfig config;
  config.io_shards = 2;
  start_server(config, /*run_controller=*/true);

  constexpr int kClients = 16;
  constexpr int kRounds = 4;
  std::vector<std::unique_ptr<TcpTransport>> swarm;
  std::vector<core::InstanceId> ids;
  uint64_t requests_sent = 0;
  for (int i = 0; i < kClients; ++i) {
    auto transport = std::make_unique<TcpTransport>();
    ASSERT_TRUE(transport->connect("localhost", port_).ok());
    auto id = transport->register_app(swarm_bundle(i));
    ASSERT_TRUE(id.ok()) << id.error().to_string();
    ++requests_sent;
    ids.push_back(id.value());
    swarm.push_back(std::move(transport));
  }

  TcpTransport driver;
  ASSERT_TRUE(driver.connect("localhost", port_).ok());
  for (int round = 0; round < kRounds; ++round) {
    for (core::InstanceId id : ids) {
      ASSERT_TRUE(driver
                      .set_option(id, "place",
                                  (round % 2 == 0) ? "slow" : "fast")
                      .ok());
      ++requests_sent;
    }
  }

  // Scrape over the wire while the swarm is connected and configured.
  RawClient scraper;
  ASSERT_TRUE(scraper.connect(port_).ok());
  auto reply = scraper.call(Message{"METRICS", {}});
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();
  ASSERT_EQ(reply.value().verb, "OK");
  ASSERT_EQ(reply.value().args.size(), 1u);
  const std::string& prom = reply.value().args[0];
  EXPECT_NE(prom.find("harmony_net_accepts_total"), std::string::npos);
  EXPECT_NE(prom.find("harmony_net_frames_in_total"), std::string::npos);
  EXPECT_NE(prom.find("harmony_controller_epochs_total"), std::string::npos);
  EXPECT_NE(prom.find("harmony_controller_epoch_us_count"), std::string::npos);

  // Counter consistency with what this test actually did.
  const uint64_t accepts =
      metric::telemetry_counter("net.accepts_total").value() - accepts0;
  EXPECT_GE(accepts, uint64_t{kClients} + 2);  // swarm + driver + scraper
  const uint64_t frames_in =
      metric::telemetry_counter("net.frames_in_total").value() - frames_in0;
  EXPECT_GE(frames_in, requests_sent + 1);  // + the METRICS scrape itself
  const uint64_t frames_out =
      metric::telemetry_counter("net.frames_out_total").value() - frames_out0;
  // Every request got a reply, every steering round pushed an UPDATE.
  EXPECT_GE(frames_out, requests_sent + uint64_t{kClients} * kRounds);
  const uint64_t epochs =
      metric::telemetry_counter("controller.epochs_total").value() - epochs0;
  EXPECT_GE(epochs, uint64_t{kClients});  // each REGISTER commits an epoch
  // Nothing parked here: the park counter and the parked gauge agree
  // with the server's own view.
  EXPECT_EQ(metric::telemetry_counter("net.session_parks_total").value(),
            parks0);
  EXPECT_EQ(server_->parked_session_count(), 0u);
  // The connections gauge is refreshed by the controller tick.
  EXPECT_TRUE(wait_for([this] {
    return metric::telemetry_gauge("net.connections").value() ==
           static_cast<int64_t>(server_->connection_count());
  }));

  // A second scrape sees monotonically advancing counters.
  auto reply2 = scraper.call(Message{"METRICS", {"prom"}});
  ASSERT_TRUE(reply2.ok());
  ASSERT_EQ(reply2.value().verb, "OK");
  EXPECT_GE(metric::telemetry_counter("net.frames_in_total").value(),
            frames_in0 + frames_in + 1);
}

TEST_F(MetricsTest, PredictionCacheCountersAfterDecision) {
  const uint64_t hits0 =
      metric::telemetry_counter("optimizer.prediction_cache_hits_total")
          .value();
  const uint64_t misses0 =
      metric::telemetry_counter("optimizer.prediction_cache_misses_total")
          .value();
  ServerConfig config;
  config.io_shards = 2;
  start_server(config, /*run_controller=*/true, /*optimize=*/true);

  // Two apps pinned to one node group: the second arrival re-predicts
  // the first app's unchanged configuration once per candidate.
  TcpTransport first, second;
  ASSERT_TRUE(first.connect("localhost", port_).ok());
  ASSERT_TRUE(second.connect("localhost", port_).ok());
  ASSERT_TRUE(first.register_app(swarm_bundle(0)).ok());
  ASSERT_TRUE(second.register_app(swarm_bundle(kGroupNodes)).ok());

  RawClient scraper;
  ASSERT_TRUE(scraper.connect(port_).ok());
  auto reply = scraper.call(Message{"METRICS", {"json"}});
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();
  ASSERT_EQ(reply.value().verb, "OK");
  const std::string& json = reply.value().args[0];
  EXPECT_NE(json.find("\"optimizer.prediction_cache_hits_total\":"),
            std::string::npos);
  EXPECT_NE(json.find("\"optimizer.prediction_cache_misses_total\":"),
            std::string::npos);
  EXPECT_GT(metric::telemetry_counter("optimizer.prediction_cache_hits_total")
                .value(),
            hits0);
  EXPECT_GT(
      metric::telemetry_counter("optimizer.prediction_cache_misses_total")
          .value(),
      misses0);
}

TEST_F(MetricsTest, ScrapeNeverBlocksOnController) {
  // The controller thread never runs: no mailbox drain, no epochs. The
  // shards answer METRICS on their own, so a scrape must still succeed
  // even while decoded messages sit in the mailbox forever.
  ServerConfig config;
  config.io_shards = 2;
  start_server(config, /*run_controller=*/false);

  RawClient client;
  ASSERT_TRUE(client.connect(port_).ok());
  auto reply = client.call(Message{"METRICS", {}});
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();
  EXPECT_EQ(reply.value().verb, "OK");

  // Queue a REGISTER the controller will never see, then scrape again:
  // the reply proves the scrape path is independent of the mailbox.
  auto sent = write_all(
      client.fd,
      encode_frame(Message{"REGISTER", {swarm_bundle(0), "2"}}.encode()));
  ASSERT_TRUE(sent.ok());
  auto reply2 = client.call(Message{"METRICS", {"json"}});
  ASSERT_TRUE(reply2.ok()) << reply2.error().to_string();
  ASSERT_EQ(reply2.value().verb, "OK");
  EXPECT_NE(reply2.value().args[0].find("\"counters\""), std::string::npos);
  EXPECT_EQ(controller_->live_instances(), 0u);  // REGISTER never dispatched
}

TEST_F(MetricsTest, FormatsAndErrors) {
  ServerConfig config;
  config.io_shards = 2;
  start_server(config, /*run_controller=*/true);

  RawClient client;
  ASSERT_TRUE(client.connect(port_).ok());

  auto json = client.call(Message{"METRICS", {"json"}});
  ASSERT_TRUE(json.ok());
  ASSERT_EQ(json.value().verb, "OK");
  EXPECT_NE(json.value().args[0].find("\"histograms\""), std::string::npos);

  auto trace = client.call(Message{"METRICS", {"trace"}});
  ASSERT_TRUE(trace.ok());
  ASSERT_EQ(trace.value().verb, "OK");
  EXPECT_NE(trace.value().args[0].find("\"traceEvents\""), std::string::npos);

  auto bad = client.call(Message{"METRICS", {"xml"}});
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad.value().verb, "ERR");

  auto extra = client.call(Message{"METRICS", {"prom", "extra"}});
  ASSERT_TRUE(extra.ok());
  EXPECT_EQ(extra.value().verb, "ERR");
}

TEST_F(MetricsTest, DomainsVerbExposesPartitionedCore) {
  ServerConfig config;
  config.io_shards = 2;
  start_router_server(config);

  // Three apps pinned to three different hosts: three independent
  // optimization domains behind one server.
  std::vector<std::unique_ptr<TcpTransport>> swarm;
  for (int i = 0; i < 3; ++i) {
    auto transport = std::make_unique<TcpTransport>();
    ASSERT_TRUE(transport->connect("localhost", port_).ok());
    auto id = transport->register_app(swarm_bundle(i));
    ASSERT_TRUE(id.ok()) << id.error().to_string();
    swarm.push_back(std::move(transport));
  }

  RawClient client;
  ASSERT_TRUE(client.connect(port_).ok());
  auto reply = client.call(Message{"DOMAINS", {}});
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();
  ASSERT_EQ(reply.value().verb, "OK");
  ASSERT_EQ(reply.value().args.size(), 1u);
  auto rows = rsl::list_parse(reply.value().args[0]);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 3u);
  for (const std::string& row : rows.value()) {
    auto fields = rsl::list_parse(row);
    ASSERT_TRUE(fields.ok());
    // {id {members} epochs last_ms {passes moves improvement}}
    ASSERT_EQ(fields.value().size(), 5u);
    EXPECT_NE(fields.value()[1].find("Swarm."), std::string::npos);
    long long epochs = 0;
    ASSERT_TRUE(parse_int64(fields.value()[2], &epochs));
    EXPECT_GE(epochs, 1);  // at least the registration decision
    auto solver = rsl::list_parse(fields.value()[4]);
    ASSERT_TRUE(solver.ok());
    ASSERT_EQ(solver.value().size(), 3u);
    long long passes = -1;
    ASSERT_TRUE(parse_int64(solver.value()[0], &passes));
    EXPECT_EQ(passes, 0);  // solver disabled by default
  }

  // Steering still works through the routed dispatch path, and the
  // DOMAINS snapshot keeps pace (epoch counters advance).
  TcpTransport driver;
  ASSERT_TRUE(driver.connect("localhost", port_).ok());
  ASSERT_TRUE(driver.set_option(1, "place", "slow").ok());
  auto after = client.call(Message{"DOMAINS", {}});
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after.value().verb, "OK");

  auto extra = client.call(Message{"DOMAINS", {"verbose"}});
  ASSERT_TRUE(extra.ok());
  EXPECT_EQ(extra.value().verb, "ERR");
}

TEST_F(MetricsTest, DomainsVerbWithoutRouterIsNotFound) {
  ServerConfig config;
  config.io_shards = 2;
  start_server(config, /*run_controller=*/true);

  RawClient client;
  ASSERT_TRUE(client.connect(port_).ok());
  auto reply = client.call(Message{"DOMAINS", {}});
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();
  EXPECT_EQ(reply.value().verb, "ERR");
  ASSERT_EQ(reply.value().args.size(), 2u);
  EXPECT_EQ(reply.value().args[0], error_code_name(ErrorCode::kNotFound));
}

}  // namespace
}  // namespace harmony::net
