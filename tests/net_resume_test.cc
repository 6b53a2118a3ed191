// Session resumption end to end: client reconnect + RESUME over a live
// server, resumption across a full server restart (persistence-backed),
// the synthesized DEPART when a client dies mid-update, and crash-safe
// client teardown when the server is already gone.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/scenarios.h"
#include "client/client.h"
#include "net/server.h"
#include "net/tcp_transport.h"
#include "persist/persistence.h"
#include "test_scenarios.h"

namespace harmony::net {
namespace {

class ResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "resume_" + std::to_string(::getpid()) +
           "_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    clean_dir();
  }

  void TearDown() override {
    stop_server();
    server_.reset();
    persistence_.reset();
    controller_.reset();
    clean_dir();
  }

  void clean_dir() {
    std::remove((dir_ + "/journal.wal").c_str());
    std::remove((dir_ + "/snapshot.hsn").c_str());
    std::remove((dir_ + "/snapshot.tmp").c_str());
    ::rmdir(dir_.c_str());
  }

  // Fresh controller with the 3-client DB cluster; optionally durable.
  void start_server(bool with_persistence, uint16_t port = 0) {
    controller_ = std::make_unique<core::Controller>();
    if (!with_persistence) {
      ASSERT_TRUE(
          controller_->add_nodes_script(apps::db_cluster_script(3)).ok());
      ASSERT_TRUE(controller_->finalize_cluster().ok());
    }
    if (with_persistence) {
      persist::PersistConfig config = persist_config_;
      config.dir = dir_;
      config.fsync_every_epochs = 1;
      auto persistence = persist::Persistence::open(config, *controller_);
      ASSERT_TRUE(persistence.ok()) << persistence.error().to_string();
      persistence_ = std::move(persistence).value();
      if (!persistence_->recovery().recovered) {
        ASSERT_TRUE(
            controller_->add_nodes_script(apps::db_cluster_script(3)).ok());
        ASSERT_TRUE(controller_->finalize_cluster().ok());
      }
    }
    server_ = std::make_unique<HarmonyTcpServer>(controller_.get(), port);
    if (persistence_) server_->set_persistence(persistence_.get());
    auto bound = server_->start();
    ASSERT_TRUE(bound.ok()) << bound.error().to_string();
    port_ = bound.value();
    server_thread_ = std::thread([this] { server_->run(); });
  }

  void stop_server() {
    if (server_thread_.joinable()) {
      server_->stop();
      server_thread_.join();
    }
  }

  // Tears the whole server side down (serve loop, sockets, persistence)
  // as a crash-then-restart would; the journal/snapshot files remain.
  void destroy_server() {
    stop_server();
    server_.reset();
    persistence_.reset();
    controller_.reset();
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

  // Polls `get` until it returns `want` (the server applies parked-
  // session expiry and re-evaluations asynchronously).
  void wait_for_value(TcpTransport& transport, core::InstanceId id,
                      const std::string& name, const std::string& want) {
    for (int spin = 0; spin < 100; ++spin) {
      auto value = transport.get_variable(id, name);
      ASSERT_TRUE(value.ok()) << value.error().to_string();
      if (value.value() == want) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    auto value = transport.get_variable(id, name);
    ASSERT_TRUE(value.ok());
    EXPECT_EQ(value.value(), want) << "never converged";
  }

  std::string dir_;
  // Compaction settings for start_server(true).
  persist::PersistConfig persist_config_;
  std::unique_ptr<core::Controller> controller_;
  std::unique_ptr<persist::Persistence> persistence_;
  std::unique_ptr<HarmonyTcpServer> server_;
  std::thread server_thread_;
  uint16_t port_ = 0;
};

TEST_F(ResumeTest, ReconnectAndResumeOverLiveServer) {
  start_server(/*with_persistence=*/false);
  TcpTransport transport;
  ASSERT_TRUE(transport.connect("localhost", port_).ok());
  auto id = transport.register_app(client_bundle(1));
  ASSERT_TRUE(id.ok());
  ASSERT_FALSE(transport.session_token().empty());
  const std::string token = transport.session_token();

  std::vector<std::pair<std::string, std::string>> updates;
  ASSERT_TRUE(transport
                  .subscribe(id.value(),
                             [&](const std::string& name,
                                 const std::string& value) {
                               updates.emplace_back(name, value);
                             })
                  .ok());
  updates.clear();

  // Network blip: the socket dies without a goodbye. The next call
  // reconnects, RESUMEs, and retransmits transparently.
  transport.close();
  auto option = transport.get_variable(id.value(), "where.option");
  ASSERT_TRUE(option.ok()) << option.error().to_string();
  EXPECT_EQ(option.value(), "QS");
  EXPECT_EQ(transport.session_token(), token);

  // RESUME replayed the current configuration as UPDATE frames ahead of
  // its OK, so wait_for_update semantics survived the blip.
  bool saw_option = false;
  for (const auto& [name, value] : updates) {
    if (name == "where" && value == "QS") saw_option = true;
  }
  EXPECT_TRUE(saw_option);

  ASSERT_TRUE(transport.unregister(id.value()).ok());
  stop_server();
  EXPECT_EQ(controller_->live_instances(), 0u);
  EXPECT_EQ(server_->parked_session_count(), 0u);
}

TEST_F(ResumeTest, ResumeAcrossServerRestartWithPersistence) {
  start_server(/*with_persistence=*/true);
  TcpTransport transport;
  ASSERT_TRUE(transport.connect("localhost", port_).ok());
  auto id = transport.register_app(client_bundle(1));
  ASSERT_TRUE(id.ok());
  ASSERT_FALSE(transport.session_token().empty());

  std::vector<std::pair<std::string, std::string>> updates;
  ASSERT_TRUE(transport
                  .subscribe(id.value(),
                             [&](const std::string& name,
                                 const std::string& value) {
                               updates.emplace_back(name, value);
                             })
                  .ok());
  ASSERT_TRUE(persistence_->flush().ok());

  // Full restart: server process state is gone, a new controller is
  // recovered from the journal, and the session comes back parked.
  const uint16_t old_port = port_;
  destroy_server();
  updates.clear();
  start_server(/*with_persistence=*/true, old_port);
  ASSERT_TRUE(persistence_->recovery().recovered);
  EXPECT_EQ(server_->parked_session_count(), 1u);

  // The client's next call rides reconnect + RESUME into the new
  // server; the recovered controller still knows the instance.
  auto option = transport.get_variable(id.value(), "where.option");
  ASSERT_TRUE(option.ok()) << option.error().to_string();
  EXPECT_EQ(option.value(), "QS");
  bool saw_option = false;
  for (const auto& [name, value] : updates) {
    if (name == "where" && value == "QS") saw_option = true;
  }
  EXPECT_TRUE(saw_option);

  ASSERT_TRUE(transport.unregister(id.value()).ok());
  stop_server();
  EXPECT_EQ(controller_->live_instances(), 0u);
  EXPECT_EQ(server_->parked_session_count(), 0u);
}

TEST_F(ResumeTest, JournalIoErrorRefusesMutatingVerbs) {
  // Every epoch compacts, so each commit opens a fresh snapshot file.
  persist_config_.snapshot_every_epochs = 1;
  persist_config_.snapshot_min_journal_bytes = 0;
  start_server(/*with_persistence=*/true);
  TcpTransport transport;
  ASSERT_TRUE(transport.connect("localhost", port_).ok());
  auto id = transport.register_app(client_bundle(1));
  ASSERT_TRUE(id.ok()) << id.error().to_string();

  // Without its directory the next snapshot open fails with ENOENT.
  clean_dir();
  ASSERT_NE(::access(dir_.c_str(), F_OK), 0);

  // The SET whose epoch hit the failure is refused, and so is every
  // mutating verb after it; reads still work.
  Status set = transport.set_option(id.value(), "where", "DS");
  ASSERT_FALSE(set.ok());
  EXPECT_NE(set.error().message.find("journal failed"), std::string::npos)
      << set.to_string();
  EXPECT_FALSE(transport.set_option(id.value(), "where", "QS").ok());
  EXPECT_FALSE(transport.request_reevaluation().ok());
  auto option = transport.get_variable(id.value(), "where.option");
  ASSERT_TRUE(option.ok()) << option.error().to_string();

  // The wedged journal buffers nothing more.
  stop_server();
  ASSERT_FALSE(persistence_->io_status().ok());
  const size_t pending = persistence_->journal().pending_bytes();
  persistence_->record_session("token", {id.value()});
  EXPECT_EQ(persistence_->journal().pending_bytes(), pending);
}

TEST_F(ResumeTest, ResumePrunesDepartedInstancesFromTheSession) {
  start_server(/*with_persistence=*/true);
  TcpTransport transport;
  ASSERT_TRUE(transport.connect("localhost", port_).ok());
  auto id = transport.register_app(client_bundle(1));
  ASSERT_TRUE(id.ok());
  const std::string token = transport.session_token();
  ASSERT_FALSE(token.empty());

  // Corrupt the session sideways: claim an instance id the controller
  // will not know after recovery, as if it departed after the session
  // record was journaled.
  {
    core::Controller::EpochScope epoch(*controller_);
    persistence_->record_session(token, {id.value(), 999});
  }
  ASSERT_TRUE(persistence_->flush().ok());

  const uint16_t old_port = port_;
  destroy_server();
  start_server(/*with_persistence=*/true, old_port);
  ASSERT_TRUE(persistence_->recovery().recovered);
  EXPECT_EQ(server_->parked_session_count(), 1u);

  // The next call resumes the session; the dead id must not survive it.
  auto option = transport.get_variable(id.value(), "where.option");
  ASSERT_TRUE(option.ok()) << option.error().to_string();
  EXPECT_EQ(option.value(), "QS");

  stop_server();
  const auto& sessions = persistence_->sessions();
  ASSERT_EQ(sessions.count(token), 1u);
  EXPECT_EQ(sessions.at(token), std::vector<core::InstanceId>{id.value()});
}

TEST_F(ResumeTest, ResumeDeliversLatestDegreeAfterInFlightResizes) {
  start_server(/*with_persistence=*/false);
  TcpTransport transport;
  ASSERT_TRUE(transport.connect("localhost", port_).ok());
  // Granularity holds operator resizes against later re-evaluations.
  auto id =
      transport.register_app(harmony::testing::bag_bundle("1 2 3", 10000));
  ASSERT_TRUE(id.ok()) << id.error().to_string();

  std::vector<std::pair<std::string, std::string>> updates;
  ASSERT_TRUE(transport
                  .subscribe(id.value(),
                             [&](const std::string& name,
                                 const std::string& value) {
                               updates.emplace_back(name, value);
                             })
                  .ok());
  wait_for_value(transport, id.value(), "parallelism.workerNodes", "3");

  // Two in-flight resizes, then the socket dies without a goodbye.
  ASSERT_TRUE(transport.resize(id.value(), "parallelism", 1).ok());
  ASSERT_TRUE(transport.resize(id.value(), "parallelism", 2).ok());
  updates.clear();
  transport.close();

  // Reconnect + RESUME replays the *latest* configuration only: a
  // resumed client must never observe the superseded degree.
  auto degree = transport.get_variable(id.value(), "parallelism.workerNodes");
  ASSERT_TRUE(degree.ok()) << degree.error().to_string();
  EXPECT_EQ(degree.value(), "2");
  bool saw_latest = false;
  for (const auto& [name, value] : updates) {
    if (name != "workerNodes") continue;
    EXPECT_EQ(value, "2") << "resume replayed a superseded degree";
    if (value == "2") saw_latest = true;
  }
  EXPECT_TRUE(saw_latest);

  ASSERT_TRUE(transport.unregister(id.value()).ok());
  stop_server();
  EXPECT_EQ(controller_->live_instances(), 0u);
}

TEST_F(ResumeTest, ResumedSessionSeesLatestDegreeAcrossRestart) {
  start_server(/*with_persistence=*/true);
  TcpTransport transport;
  ASSERT_TRUE(transport.connect("localhost", port_).ok());
  auto id =
      transport.register_app(harmony::testing::bag_bundle("1 2 3", 10000));
  ASSERT_TRUE(id.ok()) << id.error().to_string();

  std::vector<std::pair<std::string, std::string>> updates;
  ASSERT_TRUE(transport
                  .subscribe(id.value(),
                             [&](const std::string& name,
                                 const std::string& value) {
                               updates.emplace_back(name, value);
                             })
                  .ok());
  ASSERT_TRUE(transport.resize(id.value(), "parallelism", 1).ok());
  ASSERT_TRUE(transport.resize(id.value(), "parallelism", 2).ok());
  ASSERT_TRUE(persistence_->flush().ok());

  // Full restart: the journaled RSZ events replay into a fresh
  // controller, and the recovery verification pass must not undo them.
  const uint16_t old_port = port_;
  destroy_server();
  updates.clear();
  start_server(/*with_persistence=*/true, old_port);
  ASSERT_TRUE(persistence_->recovery().recovered);
  EXPECT_EQ(server_->parked_session_count(), 1u);

  auto degree = transport.get_variable(id.value(), "parallelism.workerNodes");
  ASSERT_TRUE(degree.ok()) << degree.error().to_string();
  EXPECT_EQ(degree.value(), "2");
  bool saw_latest = false;
  for (const auto& [name, value] : updates) {
    if (name != "workerNodes") continue;
    EXPECT_EQ(value, "2") << "resume replayed a superseded degree";
    if (value == "2") saw_latest = true;
  }
  EXPECT_TRUE(saw_latest);

  ASSERT_TRUE(transport.unregister(id.value()).ok());
  stop_server();
  EXPECT_EQ(controller_->live_instances(), 0u);
}

TEST_F(ResumeTest, ClientDeathMidUpdateSynthesizesDepartAndReevaluates) {
  start_server(/*with_persistence=*/false);
  std::vector<std::unique_ptr<TcpTransport>> transports;
  std::vector<core::InstanceId> ids;
  for (int i = 1; i <= 3; ++i) {
    transports.push_back(std::make_unique<TcpTransport>());
    ASSERT_TRUE(transports.back()->connect("localhost", port_).ok());
    auto id = transports.back()->register_app(client_bundle(i));
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  // Three clients saturate the server: everyone is on data shipping.
  wait_for_value(*transports[0], ids[0], "where.option", "DS");

  // Client 3 is killed mid-update — no END, just a dead socket. With a
  // zero grace window the server synthesizes the DEPART immediately and
  // re-evaluates; the survivors fall back to query shipping.
  server_->set_session_grace_ms(0);
  transports[2]->close();
  wait_for_value(*transports[0], ids[0], "where.option", "QS");
  wait_for_value(*transports[1], ids[1], "where.option", "QS");

  stop_server();
  EXPECT_EQ(controller_->live_instances(), 2u);
  EXPECT_EQ(server_->parked_session_count(), 0u);
}

TEST_F(ResumeTest, ClientTeardownSurvivesDeadServer) {
  start_server(/*with_persistence=*/false);
  auto transport = std::make_unique<TcpTransport>();
  // Teardown must fail fast, not sit in reconnect backoff.
  ASSERT_TRUE(transport->connect("localhost", port_).ok());
  client::HarmonyClient client(transport.get());
  ASSERT_TRUE(client.startup("doomed").ok());
  ASSERT_TRUE(client.bundle_setup(client_bundle(1)).ok());
  const std::string* option = client.add_variable("where", "unset");
  ASSERT_TRUE(client.wait_for_update().ok());
  ASSERT_TRUE(transport->pump().ok());
  client.poll_updates();
  EXPECT_EQ(*option, "QS");

  // The server vanishes — serve loop stopped, sockets closed.
  stop_server();
  server_.reset();

  // harmony_end on a dead server: best-effort DEPART, clean Ok. The
  // crash-safe teardown contract says an exiting application never
  // fails (or throws) because Harmony is unreachable.
  EXPECT_TRUE(client.end().ok());
}

}  // namespace
}  // namespace harmony::net
