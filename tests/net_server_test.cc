// Loopback integration: a real Harmony TCP server on an ephemeral port,
// driven by HarmonyClient over TcpTransport — the prototype's
// architecture (Figure 6) end to end.
#include "net/server.h"

#include <gtest/gtest.h>

#include <csignal>
#include <sys/time.h>

#include <chrono>
#include <thread>

#include "apps/scenarios.h"
#include "client/client.h"
#include "core/domain.h"
#include "net/tcp_transport.h"

namespace harmony::net {
namespace {

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(
        controller_.add_nodes_script(apps::db_cluster_script(3)).ok());
    ASSERT_TRUE(controller_.finalize_cluster().ok());
    start(std::make_unique<HarmonyTcpServer>(&controller_, 0));
  }

  void start(std::unique_ptr<HarmonyTcpServer> server) {
    server_ = std::move(server);
    auto port = server_->start();
    ASSERT_TRUE(port.ok()) << port.ok();
    port_ = port.value();
    server_thread_ = std::thread([this] { server_->run(); });
  }

  void TearDown() override {
    shutdown_server();
    server_.reset();
  }

  // Stops the serve loop; afterwards the controller is safe to inspect
  // from the test thread.
  void shutdown_server() {
    if (server_thread_.joinable()) {
      server_->stop();
      server_thread_.join();
    }
  }

  std::string client_bundle(int i) {
    return str_format(
        "harmonyBundle DBclient:%d where {\n"
        "  {QS {node server {hostname server} {seconds 18} {memory 20}}\n"
        "      {node client {hostname sp2-%02d} {seconds 0.1} {memory 2}}\n"
        "      {link client server 0.05}}\n"
        "  {DS {node server {hostname server} {seconds 2} {memory 20}}\n"
        "      {node client {hostname sp2-%02d} {memory >=17} {seconds 16.2}}\n"
        "      {link client server 2.5}}\n"
        "}\n",
        i, i - 1, i - 1);
  }

  void check_three_clients_trigger_switch() {
    // Three separate connections, as three separate client processes
    // would make.
    std::vector<std::unique_ptr<TcpTransport>> transports;
    std::vector<core::InstanceId> ids;
    for (int i = 1; i <= 3; ++i) {
      transports.push_back(std::make_unique<TcpTransport>());
      ASSERT_TRUE(transports.back()->connect("localhost", port_).ok());
      auto id = transports.back()->register_app(client_bundle(i));
      ASSERT_TRUE(id.ok());
      ids.push_back(id.value());
    }
    // The third registration flips everyone to data shipping.
    for (int i = 0; i < 3; ++i) {
      auto option = transports[i]->get_variable(ids[i], "where.option");
      ASSERT_TRUE(option.ok());
      EXPECT_EQ(option.value(), "DS") << "client " << i + 1;
    }
    // Pushed updates arrive on the first clients' connections.
    bool saw_ds_update = false;
    ASSERT_TRUE(transports[0]
                    ->subscribe(ids[0],
                                [&](const std::string& name,
                                    const std::string& value) {
                                  if (name == "where" && value == "DS") {
                                    saw_ds_update = true;
                                  }
                                })
                    .ok());
    ASSERT_TRUE(transports[0]->pump().ok());
    EXPECT_TRUE(saw_ds_update);
  }

  core::Controller controller_;
  std::unique_ptr<HarmonyTcpServer> server_;
  std::thread server_thread_;
  uint16_t port_ = 0;
};

TEST_F(ServerTest, RegisterOverTcp) {
  TcpTransport transport;
  ASSERT_TRUE(transport.connect("localhost", port_).ok());
  auto id = transport.register_app(client_bundle(1));
  ASSERT_TRUE(id.ok()) << (id.ok() ? "" : id.error().to_string());
  EXPECT_GT(id.value(), 0u);
  auto option = transport.get_variable(id.value(), "where.option");
  ASSERT_TRUE(option.ok());
  EXPECT_EQ(option.value(), "QS");
  ASSERT_TRUE(transport.unregister(id.value()).ok());
}

TEST_F(ServerTest, FullClientLibraryOverTcp) {
  TcpTransport transport;
  ASSERT_TRUE(transport.connect("localhost", port_).ok());
  client::HarmonyClient client(&transport);
  ASSERT_TRUE(client.startup("tcp-demo").ok());
  ASSERT_TRUE(client.bundle_setup(client_bundle(1)).ok());
  const std::string* option = client.add_variable("where", "unset");
  ASSERT_TRUE(client.wait_for_update().ok());
  ASSERT_TRUE(transport.pump().ok());
  client.poll_updates();
  EXPECT_EQ(*option, "QS");
  EXPECT_EQ(client.var("where.server.node"), "server");
  ASSERT_TRUE(client.end().ok());
}

TEST_F(ServerTest, ThreeClientsTriggerSwitchOverTcp) {
  check_three_clients_trigger_switch();
}

// The same server over a partitioned decision core: updates fire on
// the server's thread inside routed ops and reach other connections
// through the server's queue and the I/O shards.
class RoutedServerTest : public ServerTest {
 protected:
  void SetUp() override {
    router_ = std::make_unique<core::DomainRouter>();
    ASSERT_TRUE(router_->add_nodes_script(apps::db_cluster_script(3)).ok());
    ASSERT_TRUE(router_->finalize_cluster().ok());
    start(std::make_unique<HarmonyTcpServer>(router_.get(), 0));
  }

  std::unique_ptr<core::DomainRouter> router_;
};

TEST_F(RoutedServerTest, ThreeClientsTriggerSwitchOverTcp) {
  check_three_clients_trigger_switch();
}

TEST_F(ServerTest, DisconnectImpliesEnd) {
  // TcpTransport registers with protocol v2, so a hangup first parks
  // the session; a zero grace window makes the park expire on the next
  // drain cycle, synthesizing the DEPART.
  server_->set_session_grace_ms(0);
  {
    TcpTransport transport;
    ASSERT_TRUE(transport.connect("localhost", port_).ok());
    auto id = transport.register_app(client_bundle(1));
    ASSERT_TRUE(id.ok());
    EXPECT_FALSE(transport.session_token().empty());
    // Transport (and socket) drop here without END.
  }
  // Give the serve loop time to notice the hangup, then stop it so the
  // controller can be inspected race-free.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  shutdown_server();
  EXPECT_EQ(controller_.live_instances(), 0u);
  EXPECT_EQ(server_->parked_session_count(), 0u);
}

TEST_F(ServerTest, ErrorsComeBackAsErrFrames) {
  TcpTransport transport;
  ASSERT_TRUE(transport.connect("localhost", port_).ok());
  auto bad = transport.register_app("harmonyBundle Broken:1 b {{o {bogus}}}");
  ASSERT_FALSE(bad.ok());
  auto missing = transport.get_variable(9999, "x");
  ASSERT_FALSE(missing.ok());
  // The connection survives errors.
  auto id = transport.register_app(client_bundle(1));
  EXPECT_TRUE(id.ok());
}

TEST_F(ServerTest, GarbageFrameDropsConnectionOnly) {
  // Raw socket: an oversized length prefix is a protocol violation; the
  // server must drop that connection and keep serving others.
  auto raw = connect_to("localhost", port_);
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(write_all(raw.value(), std::string("\xFF\xFF\xFF\xFF", 4)).ok());
  // A healthy client still works afterwards.
  TcpTransport transport;
  ASSERT_TRUE(transport.connect("localhost", port_).ok());
  auto id = transport.register_app(client_bundle(1));
  EXPECT_TRUE(id.ok());
  // The violating connection is gone: reads on it hit EOF eventually.
  ASSERT_TRUE(set_nonblocking(raw.value(), false).ok());
  char buffer[16];
  auto n = read_some(raw.value(), buffer, sizeof(buffer));
  EXPECT_FALSE(n.ok());
  EXPECT_EQ(n.error().code, ErrorCode::kClosed);
}

TEST_F(ServerTest, UnparseableMessageGetsErrReply) {
  auto raw = connect_to("localhost", port_);
  ASSERT_TRUE(raw.ok());
  // Well-framed but not a valid TCL list.
  ASSERT_TRUE(write_all(raw.value(), encode_frame("{unbalanced")).ok());
  FrameBuffer inbound;
  char buffer[512];
  for (int spin = 0; spin < 100; ++spin) {
    auto n = read_some(raw.value(), buffer, sizeof(buffer));
    ASSERT_TRUE(n.ok());
    inbound.feed(std::string_view(buffer, n.value()));
    auto frame = inbound.next_frame();
    ASSERT_TRUE(frame.ok());
    if (frame.value().has_value()) {
      auto message = Message::decode(*frame.value());
      ASSERT_TRUE(message.ok());
      EXPECT_EQ(message.value().verb, "ERR");
      return;
    }
  }
  FAIL() << "no ERR reply arrived";
}

TEST_F(ServerTest, UnknownVerbGetsErrReply) {
  auto raw = connect_to("localhost", port_);
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(
      write_all(raw.value(), encode_frame(Message{"FLY", {}}.encode())).ok());
  FrameBuffer inbound;
  char buffer[512];
  for (int spin = 0; spin < 100; ++spin) {
    auto n = read_some(raw.value(), buffer, sizeof(buffer));
    ASSERT_TRUE(n.ok());
    inbound.feed(std::string_view(buffer, n.value()));
    auto frame = inbound.next_frame();
    ASSERT_TRUE(frame.ok());
    if (frame.value().has_value()) {
      auto message = Message::decode(*frame.value());
      ASSERT_TRUE(message.ok());
      EXPECT_EQ(message.value().verb, "ERR");
      EXPECT_NE(message.value().args[1].find("unknown verb"),
                std::string::npos);
      return;
    }
  }
  FAIL() << "no ERR reply arrived";
}

TEST_F(ServerTest, ReevaluateVerb) {
  TcpTransport transport;
  ASSERT_TRUE(transport.connect("localhost", port_).ok());
  auto id = transport.register_app(client_bundle(1));
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(transport.request_reevaluation().ok());
}

// Regression: run(until_idle_ms) used to count every no-progress poll
// return as a full 50 ms of idleness. A poll interrupted by a signal
// (EINTR) returns immediately, so under a 10 ms interval timer the old
// accounting exited a 400 ms idle window after ~80 ms of wall time.
// Idle time must be measured on a monotonic clock.
TEST(ServerIdleTest, IdleWindowSurvivesSignalInterruptions) {
  core::Controller controller;
  HarmonyTcpServer server(&controller, 0);
  ASSERT_TRUE(server.start().ok());

  // 10 ms interval timer with a no-op handler and no SA_RESTART: every
  // tick interrupts poll() with EINTR.
  struct sigaction action = {};
  action.sa_handler = [](int) {};
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  struct sigaction previous_action;
  ASSERT_EQ(sigaction(SIGALRM, &action, &previous_action), 0);
  itimerval timer = {};
  timer.it_interval.tv_usec = 10000;
  timer.it_value.tv_usec = 10000;
  itimerval previous_timer;
  ASSERT_EQ(setitimer(ITIMER_REAL, &timer, &previous_timer), 0);

  const auto start = std::chrono::steady_clock::now();
  server.run(/*until_idle_ms=*/400);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);

  setitimer(ITIMER_REAL, &previous_timer, nullptr);
  sigaction(SIGALRM, &previous_action, nullptr);

  EXPECT_GE(elapsed.count(), 350) << "idle window cut short by signals";
  EXPECT_LT(elapsed.count(), 5000);
}

}  // namespace
}  // namespace harmony::net
