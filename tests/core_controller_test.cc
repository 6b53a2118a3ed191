#include "core/controller.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "test_scenarios.h"

namespace harmony::core {
namespace {

using harmony::testing::bag_bundle;
using harmony::testing::db_client_bundle;
using harmony::testing::simple_bundle;
using harmony::testing::sp2_cluster_script;

std::string sp2_no_server(int n) {
  // Worker-only cluster (no DB server host) for the parallel-app tests.
  std::string script;
  for (int i = 0; i < n; ++i) {
    script += str_format("harmonyNode sp2-%02d {speed 1.0} {memory 64} {os aix}", i);
    for (int j = 0; j < i; ++j) {
      script += str_format(" {link sp2-%02d 320 0.05}", j);
    }
    script += "\n";
  }
  return script;
}

// --- cluster setup -------------------------------------------------------

TEST(ControllerSetup, EmptyClusterRejected) {
  Controller controller;
  EXPECT_FALSE(controller.finalize_cluster().ok());
}

TEST(ControllerSetup, UnknownLinkHostRejected) {
  Controller controller;
  ASSERT_TRUE(controller.add_nodes_script("harmonyNode a {speed 1} {memory 64}").ok());
  ASSERT_TRUE(controller.link_hosts("a", "ghost", 100).ok());
  EXPECT_FALSE(controller.finalize_cluster().ok());
}

TEST(ControllerSetup, NodesFixedAfterFinalize) {
  Controller controller;
  ASSERT_TRUE(controller.add_nodes_script("harmonyNode a {speed 1} {memory 64}").ok());
  ASSERT_TRUE(controller.finalize_cluster().ok());
  rsl::NodeAd late;
  late.name = "late";
  EXPECT_FALSE(controller.add_node(late).ok());
  EXPECT_FALSE(controller.link_hosts("a", "a", 1).ok());
}

TEST(ControllerSetup, ClusterPublishedToNamespace) {
  Controller controller;
  ASSERT_TRUE(controller.add_nodes_script(sp2_cluster_script(2)).ok());
  ASSERT_TRUE(controller.finalize_cluster().ok());
  EXPECT_DOUBLE_EQ(controller.names().get("cluster.server.speed").value(), 2.0);
  EXPECT_DOUBLE_EQ(controller.names().get("cluster.sp2-00.memory").value(), 64);
  EXPECT_EQ(controller.topology().node_count(), 3u);
}

// --- registration & namespace --------------------------------------------

class DbFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(controller_.add_nodes_script(sp2_cluster_script(4)).ok());
    ASSERT_TRUE(controller_.finalize_cluster().ok());
  }
  Result<InstanceId> add_client(int i) {
    return controller_.register_script(
        db_client_bundle(str_format("sp2-%02d", i), i + 1));
  }
  std::string option_of(InstanceId id) {
    const BundleState* bundle = controller_.bundle_state(id, "where");
    EXPECT_NE(bundle, nullptr);
    return bundle == nullptr ? "" : bundle->choice.option;
  }
  Controller controller_;
};

TEST_F(DbFixture, RegisterAssignsSequentialIds) {
  auto a = add_client(0);
  auto b = add_client(1);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a.value(), b.value());
  EXPECT_EQ(controller_.live_instances(), 2u);
}

TEST_F(DbFixture, SingleClientChoosesQueryShipping) {
  auto id = add_client(0);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(option_of(id.value()), "QS");
  // Namespace reflects the decision, paper-style paths.
  std::string root = "DBclient." + std::to_string(id.value());
  EXPECT_EQ(controller_.names().get_string(root + ".where.option").value(),
            "QS");
  EXPECT_DOUBLE_EQ(
      controller_.names().get(root + ".where.QS.server.memory").value(), 20);
  EXPECT_EQ(
      controller_.names().get_string(root + ".where.QS.server.node").value(),
      "server");
  EXPECT_EQ(
      controller_.names().get_string(root + ".where.QS.client.node").value(),
      "sp2-00");
}

TEST_F(DbFixture, TwoClientsStayOnQueryShipping) {
  auto a = add_client(0);
  auto b = add_client(1);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(option_of(a.value()), "QS");
  EXPECT_EQ(option_of(b.value()), "QS");
}

// The paper's Figure 7 decision: "Harmony chooses query-shipping with
// one or two clients, but switches all clients to data-shipping when
// the third client starts."
TEST_F(DbFixture, ThirdClientSwitchesEveryoneToDataShipping) {
  auto a = add_client(0);
  auto b = add_client(1);
  auto c = add_client(2);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(option_of(a.value()), "DS");
  EXPECT_EQ(option_of(b.value()), "DS");
  EXPECT_EQ(option_of(c.value()), "DS");
  EXPECT_GE(controller_.reconfigurations(), 5u)
      << "three arrivals plus two QS->DS switches";
}

TEST_F(DbFixture, DepartureSwitchesBackToQueryShipping) {
  auto a = add_client(0);
  auto b = add_client(1);
  auto c = add_client(2);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  ASSERT_TRUE(controller_.unregister(c.value()).ok());
  EXPECT_EQ(option_of(a.value()), "QS");
  EXPECT_EQ(option_of(b.value()), "QS");
  EXPECT_EQ(controller_.live_instances(), 2u);
}

TEST_F(DbFixture, UnregisterReleasesAllResources) {
  auto a = add_client(0);
  auto b = add_client(1);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(controller_.unregister(a.value()).ok());
  ASSERT_TRUE(controller_.unregister(b.value()).ok());
  EXPECT_EQ(controller_.live_instances(), 0u);
  for (const auto& node : controller_.topology().nodes()) {
    EXPECT_DOUBLE_EQ(controller_.state().pool->available_memory(node.id),
                     node.memory_mb)
        << node.hostname;
    EXPECT_EQ(controller_.state().pool->process_count(node.id), 0);
  }
  EXPECT_FALSE(controller_.names().has("DBclient"));
  EXPECT_FALSE(controller_.unregister(a.value()).ok()) << "double unregister";
}

TEST_F(DbFixture, PredictionsAndObjectiveExposed) {
  auto a = add_client(0);
  ASSERT_TRUE(a.ok());
  auto predictions = controller_.predictions();
  ASSERT_TRUE(predictions.ok());
  ASSERT_EQ(predictions.value().size(), 1u);
  EXPECT_NEAR(predictions.value()[0].second, 4.75, 1e-9)
      << "9s/speed2 + 10MB*8/320Mbps";
  auto objective = controller_.objective_value();
  ASSERT_TRUE(objective.ok());
  EXPECT_NEAR(objective.value(), 4.75, 1e-9);
}

TEST_F(DbFixture, GetVariable) {
  auto a = add_client(0);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(controller_.get_variable(a.value(), "where.option").value(), "QS");
  EXPECT_FALSE(controller_.get_variable(a.value(), "nope").ok());
  EXPECT_FALSE(controller_.get_variable(999, "where.option").ok());
}

TEST_F(DbFixture, SubscribersReceiveUpdates) {
  auto a = add_client(0);
  ASSERT_TRUE(a.ok());
  std::map<std::string, std::string> seen;
  ASSERT_TRUE(controller_
                  .subscribe(a.value(),
                             [&](const std::string& name,
                                 const std::string& value) { seen[name] = value; })
                  .ok());
  // Initial snapshot delivered on subscription.
  EXPECT_EQ(seen["where"], "QS");
  EXPECT_EQ(seen["where.client.node"], "sp2-00");
  EXPECT_EQ(seen["where.server.node"], "server");

  // Two more clients trigger the DS switch; subscriber hears about it.
  ASSERT_TRUE(add_client(1).ok());
  ASSERT_TRUE(add_client(2).ok());
  EXPECT_EQ(seen["where"], "DS");
}

// Decisions about an instance nobody subscribed to queue nothing (the
// updates could never be read); a late subscriber receives exactly the
// current configuration, which is also what a fresh subscription to an
// unchanged controller replays. Each round runs inside one outer epoch,
// so the count is read before the epoch-closing flush could hide
// anything queued.
TEST_F(DbFixture, LateSubscriberReceivesExactlyTheSnapshot) {
  auto a = add_client(0);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(controller_.queued_update_count(), 0u);
  // Each round flips `a` QS -> DS (third arrival) -> QS (departures).
  for (int round = 0; round < 4; ++round) {
    Controller::EpochScope epoch(controller_);
    auto b = add_client(1);
    auto c = add_client(2);
    ASSERT_TRUE(b.ok() && c.ok());
    EXPECT_EQ(option_of(a.value()), "DS");
    EXPECT_EQ(controller_.queued_update_count(), 0u) << round;
    ASSERT_TRUE(controller_.unregister(c.value()).ok());
    ASSERT_TRUE(controller_.unregister(b.value()).ok());
    EXPECT_EQ(option_of(a.value()), "QS");
    EXPECT_EQ(controller_.queued_update_count(), 0u) << round;
  }
  ASSERT_TRUE(add_client(1).ok());
  auto third = add_client(2);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(option_of(a.value()), "DS");
  EXPECT_GE(controller_.reconfigurations(), 16u);
  EXPECT_EQ(controller_.queued_update_count(), 0u);

  using Updates = std::vector<std::pair<std::string, std::string>>;
  Updates late;
  ASSERT_TRUE(controller_
                  .subscribe(a.value(),
                             [&](const std::string& name,
                                 const std::string& value) {
                               late.emplace_back(name, value);
                             })
                  .ok());
  EXPECT_EQ(controller_.queued_update_count(), 0u);
  // One value per variable, the current one: no history.
  std::map<std::string, std::string> by_name(late.begin(), late.end());
  EXPECT_EQ(by_name.size(), late.size());
  EXPECT_EQ(by_name["where"], "DS");
  EXPECT_EQ(by_name["where.client.node"], "sp2-00");
  EXPECT_EQ(by_name["where.server.node"], "server");

  Updates replay;
  ASSERT_TRUE(controller_
                  .subscribe(a.value(),
                             [&](const std::string& name,
                                 const std::string& value) {
                               replay.emplace_back(name, value);
                             })
                  .ok());
  EXPECT_EQ(late, replay);

  // A live subscription does queue within the epoch: the positive
  // control for the zero counts above.
  {
    Controller::EpochScope epoch(controller_);
    ASSERT_TRUE(controller_.unregister(third.value()).ok());
    EXPECT_EQ(option_of(a.value()), "QS");
    EXPECT_GT(controller_.queued_update_count(), 0u);
  }
  EXPECT_EQ(controller_.queued_update_count(), 0u);

  // A parked (empty) subscription queues nothing either, and resuming
  // it replays the snapshot again.
  ASSERT_TRUE(controller_.subscribe(a.value(), {}).ok());
  {
    Controller::EpochScope epoch(controller_);
    third = add_client(2);
    ASSERT_TRUE(third.ok());
    EXPECT_EQ(option_of(a.value()), "DS");
    EXPECT_EQ(controller_.queued_update_count(), 0u);
  }
  Updates resumed;
  ASSERT_TRUE(controller_
                  .subscribe(a.value(),
                             [&](const std::string& name,
                                 const std::string& value) {
                               resumed.emplace_back(name, value);
                             })
                  .ok());
  std::map<std::string, std::string> resumed_by_name(resumed.begin(),
                                                     resumed.end());
  EXPECT_EQ(resumed_by_name.size(), resumed.size());
  EXPECT_EQ(resumed_by_name["where"], "DS");
}

TEST_F(DbFixture, RegisterFailsWhenNothingFits) {
  // A bundle whose only option wants more memory than any node has.
  auto r = controller_.register_script(
      "harmonyBundle Greedy:1 b {{o {node n {seconds 1} {memory 100000}}}}");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kNoMatch);
  EXPECT_EQ(controller_.live_instances(), 0u) << "failed arrival withdrawn";
}

TEST_F(DbFixture, MalformedScriptRejected) {
  EXPECT_FALSE(controller_.register_script("harmonyBundle").ok());
  EXPECT_FALSE(controller_.register_script("not-a-command").ok());
}

// --- friction & granularity ------------------------------------------------

TEST(ControllerFriction, HighFrictionPreventsSwitch) {
  Controller controller;
  ASSERT_TRUE(controller.add_nodes_script(sp2_cluster_script(4)).ok());
  ASSERT_TRUE(controller.finalize_cluster().ok());
  // DS carries a prohibitive one-time switching cost.
  auto bundle_with_friction = [](const std::string& host, int i) {
    return str_format(
        "harmonyBundle DBclient:%d where {\n"
        "  {QS {node server {hostname server} {seconds 9} {memory 20}}\n"
        "      {node client {hostname %s} {seconds 1} {memory 2}}\n"
        "      {link client server 10}}\n"
        "  {DS {node server {hostname server} {seconds 1} {memory 20}}\n"
        "      {node client {hostname %s} {memory >=17} {seconds 9}}\n"
        "      {link client server 44} {friction 10000}}\n"
        "}\n",
        i, host.c_str(), host.c_str());
  };
  std::vector<InstanceId> ids;
  for (int i = 0; i < 3; ++i) {
    auto id = controller.register_script(
        bundle_with_friction(str_format("sp2-%02d", i), i + 1));
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  // Existing clients refuse to pay the friction...
  EXPECT_EQ(controller.bundle_state(ids[0], "where")->choice.option, "QS");
  EXPECT_EQ(controller.bundle_state(ids[1], "where")->choice.option, "QS");
  // ...and the new client has nothing to switch from, so friction does
  // not apply to its initial configuration.
  EXPECT_EQ(controller.bundle_state(ids[2], "where")->choice.option, "DS");
}

TEST(ControllerGranularity, WindowBlocksReconfiguration) {
  double now = 0.0;
  Controller controller;
  controller.set_time_source([&now] { return now; });
  ASSERT_TRUE(controller.add_nodes_script(sp2_cluster_script(4)).ok());
  ASSERT_TRUE(controller.finalize_cluster().ok());
  auto bundle_with_granularity = [](const std::string& host, int i) {
    return str_format(
        "harmonyBundle DBclient:%d where {\n"
        "  {QS {node server {hostname server} {seconds 9} {memory 20}}\n"
        "      {node client {hostname %s} {seconds 1} {memory 2}}\n"
        "      {link client server 10} {granularity 100}}\n"
        "  {DS {node server {hostname server} {seconds 1} {memory 20}}\n"
        "      {node client {hostname %s} {memory >=17} {seconds 9}}\n"
        "      {link client server 44} {granularity 100}}\n"
        "}\n",
        i, host.c_str(), host.c_str());
  };
  std::vector<InstanceId> ids;
  for (int i = 0; i < 3; ++i) {
    auto id = controller.register_script(
        bundle_with_granularity(str_format("sp2-%02d", i), i + 1));
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
    now += 1.0;  // arrivals 1 s apart, well inside the 100 s window
  }
  // Clients 1-2 are granularity-locked on QS; client 3 configures fresh.
  EXPECT_EQ(controller.bundle_state(ids[0], "where")->choice.option, "QS");
  EXPECT_EQ(controller.bundle_state(ids[1], "where")->choice.option, "QS");
  EXPECT_EQ(controller.bundle_state(ids[2], "where")->choice.option, "DS");

  // Once the window passes, periodic re-evaluation applies the switch.
  now = 1000.0;
  ASSERT_TRUE(controller.reevaluate().ok());
  EXPECT_EQ(controller.bundle_state(ids[0], "where")->choice.option, "DS");
  EXPECT_EQ(controller.bundle_state(ids[1], "where")->choice.option, "DS");
}

// --- variable parallelism (Figure 4 decision logic) -------------------------

TEST(ControllerBag, AloneGetsAllEightWorkers) {
  Controller controller;
  ASSERT_TRUE(controller.add_nodes_script(sp2_no_server(8)).ok());
  ASSERT_TRUE(controller.finalize_cluster().ok());
  auto id = controller.register_script(bag_bundle());
  ASSERT_TRUE(id.ok()) << id.ok();
  const BundleState* bundle = controller.bundle_state(id.value(), "parallelism");
  ASSERT_NE(bundle, nullptr);
  EXPECT_DOUBLE_EQ(bundle->choice.variables.at("workerNodes"), 8);
  EXPECT_EQ(bundle->allocation.entries.size(), 8u);
}

// "Note the configuration of five nodes (rather than six)": with a
// rigid 3-node job resident, the bag app takes the five free nodes
// because squeezing onto a sixth shared node hurts both applications.
TEST(ControllerBag, RigidJobLeavesFiveNodes) {
  Controller controller;
  ASSERT_TRUE(controller.add_nodes_script(sp2_no_server(8)).ok());
  ASSERT_TRUE(controller.finalize_cluster().ok());
  auto simple = controller.register_script(simple_bundle(3));
  ASSERT_TRUE(simple.ok());
  auto bag = controller.register_script(bag_bundle());
  ASSERT_TRUE(bag.ok());
  const BundleState* bundle = controller.bundle_state(bag.value(), "parallelism");
  ASSERT_NE(bundle, nullptr);
  EXPECT_DOUBLE_EQ(bundle->choice.variables.at("workerNodes"), 5);
  // And the placement is disjoint from the rigid job's nodes.
  const BundleState* rigid = controller.bundle_state(simple.value(), "config");
  std::set<cluster::NodeId> bag_nodes, simple_nodes;
  for (const auto& e : bundle->allocation.entries) bag_nodes.insert(e.node);
  for (const auto& e : rigid->allocation.entries) simple_nodes.insert(e.node);
  for (auto n : bag_nodes) EXPECT_EQ(simple_nodes.count(n), 0u);
}

// "choosing equal partitions for multiple instances of the parallel
// application, rather than some large and some small": two bag
// instances end up with equal effective shares (4 + 4).
TEST(ControllerBag, TwoInstancesGetEqualEffectiveShares) {
  Controller controller;
  ASSERT_TRUE(controller.add_nodes_script(sp2_no_server(8)).ok());
  ASSERT_TRUE(controller.finalize_cluster().ok());
  auto bag1 = controller.register_script(bag_bundle());
  auto bag2 = controller.register_script(bag_bundle());
  ASSERT_TRUE(bag1.ok() && bag2.ok());
  auto predictions = controller.predictions();
  ASSERT_TRUE(predictions.ok());
  ASSERT_EQ(predictions.value().size(), 2u);
  // Both predicted at the 4-effective-worker level (the paper's Bag
  // curve value at 4 workers is 340 s) — equal, not skewed.
  EXPECT_NEAR(predictions.value()[0].second, 340, 1);
  EXPECT_NEAR(predictions.value()[1].second, 340, 1);
  EXPECT_NEAR(predictions.value()[0].second, predictions.value()[1].second,
              1e-6);
  // After the first instance finishes, the survivor expands back.
  ASSERT_TRUE(controller.unregister(bag1.value()).ok());
  const BundleState* bundle =
      controller.bundle_state(bag2.value(), "parallelism");
  EXPECT_DOUBLE_EQ(bundle->choice.variables.at("workerNodes"), 8);
  auto after = controller.predictions();
  ASSERT_TRUE(after.ok());
  EXPECT_NEAR(after.value()[0].second, 255, 1);
}

// --- memory grant policy (§3.5's memory-for-bandwidth trade) -----------------

TEST(ControllerMemoryGrant, GenerousGrantReducesPredictedBandwidth) {
  // A DS-pinned bundle whose link shrinks steeply with client memory;
  // with grant levels {1, 2} the controller should hand out 34 MB
  // instead of the 17 MB minimum because the transfer saving wins.
  const char* bundle = R"(harmonyBundle DBclient:1 where {
  {DS {node server {hostname server} {seconds 1} {memory 20}}
      {node client {hostname sp2-00} {memory >=17} {seconds 2}}
      {link client server {200 - 5 * (client.memory > 34 ? 34 : client.memory)}}}
})";
  ControllerConfig minimal_config;
  Controller minimal(minimal_config);
  ControllerConfig generous_config;
  generous_config.optimizer.memory_grant_levels = {1.0, 2.0};
  Controller generous(generous_config);
  for (Controller* controller : {&minimal, &generous}) {
    ASSERT_TRUE(controller->add_nodes_script(sp2_cluster_script(2)).ok());
    ASSERT_TRUE(controller->finalize_cluster().ok());
    ASSERT_TRUE(controller->register_script(bundle).ok());
  }
  const BundleState* min_state = minimal.bundle_state(1, "where");
  const BundleState* gen_state = generous.bundle_state(1, "where");
  EXPECT_DOUBLE_EQ(min_state->choice.memory_grant, 1.0);
  EXPECT_DOUBLE_EQ(gen_state->choice.memory_grant, 2.0);
  EXPECT_DOUBLE_EQ(gen_state->allocation.find("client") != cluster::kInvalidNode
                       ? gen_state->allocation.entries[1].requirement.memory_mb
                       : 0,
                   34.0);
  // More memory, less predicted time (link 115 MB -> 30 MB).
  auto min_predicted = minimal.predictions();
  auto gen_predicted = generous.predictions();
  ASSERT_TRUE(min_predicted.ok() && gen_predicted.ok());
  EXPECT_LT(gen_predicted.value()[0].second, min_predicted.value()[0].second);
  // The namespace and the application both see the granted amount.
  EXPECT_DOUBLE_EQ(
      generous.names().get("DBclient.1.where.DS.client.memory").value(), 34.0);
  EXPECT_EQ(generous.get_variable(1, "where.DS.client.memory").value(), "34");
}

TEST(ControllerMemoryGrant, GrantNeverExceedsCapacity) {
  // Grant levels beyond the node's memory fail to match and fall back.
  ControllerConfig config;
  config.optimizer.memory_grant_levels = {1.0, 100.0};
  Controller controller(config);
  ASSERT_TRUE(controller.add_nodes_script(sp2_cluster_script(2)).ok());
  ASSERT_TRUE(controller.finalize_cluster().ok());
  auto id = controller.register_script(db_client_bundle("sp2-00", 1));
  ASSERT_TRUE(id.ok());
  const BundleState* state = controller.bundle_state(id.value(), "where");
  ASSERT_TRUE(state->configured);
  EXPECT_DOUBLE_EQ(state->choice.memory_grant, 1.0)
      << "a 1700 MB grant cannot match a 64 MB node";
}

TEST(ControllerMemoryGrant, ExactConstraintsNeverInflated) {
  ControllerConfig config;
  config.optimizer.memory_grant_levels = {1.0, 2.0};
  Controller controller(config);
  ASSERT_TRUE(controller.add_nodes_script(sp2_cluster_script(2)).ok());
  ASSERT_TRUE(controller.finalize_cluster().ok());
  // QS uses exact-style memory tags; the grant must not scale them.
  auto id = controller.register_script(
      "harmonyBundle Fix:1 b {{o {node n {hostname server} {seconds 1} "
      "{memory 20}}}}");
  ASSERT_TRUE(id.ok());
  const BundleState* state = controller.bundle_state(id.value(), "b");
  EXPECT_DOUBLE_EQ(state->allocation.entries[0].requirement.memory_mb, 20.0);
}

// --- multi-bundle applications ------------------------------------------------

// §4.3: "within each application through the list of options" — an
// application may export several independent bundles; the greedy pass
// walks them in definition order.
TEST(ControllerMultiBundle, TwoBundlesConfiguredIndependently) {
  Controller controller;
  ASSERT_TRUE(controller.add_nodes_script(sp2_cluster_script(4)).ok());
  ASSERT_TRUE(controller.finalize_cluster().ok());
  auto id = controller.register_script(R"(
harmonyBundle Hybrid:1 placement {
  {remote {node exec {hostname server} {seconds 8} {memory 16}}}
  {local {node exec {hostname sp2-00} {seconds 20} {memory 16}}}
}
harmonyBundle Hybrid:1 buffering {
  {small {node buf {hostname sp2-00} {seconds 1} {memory 4}}}
  {large {node buf {hostname sp2-00} {seconds 0.5} {memory 40}}}
}
)");
  ASSERT_TRUE(id.ok()) << (id.ok() ? "" : id.error().message);
  const BundleState* placement = controller.bundle_state(id.value(), "placement");
  const BundleState* buffering = controller.bundle_state(id.value(), "buffering");
  ASSERT_NE(placement, nullptr);
  ASSERT_NE(buffering, nullptr);
  EXPECT_EQ(placement->choice.option, "remote") << "server is 2x faster";
  EXPECT_EQ(buffering->choice.option, "large") << "0.5s beats 1s";
  // Prediction sums the bundles.
  auto predictions = controller.predictions();
  ASSERT_TRUE(predictions.ok());
  EXPECT_NEAR(predictions.value()[0].second, 8.0 / 2.0 + 0.5, 0.01);
  // Namespace carries both.
  std::string root = "Hybrid." + std::to_string(id.value());
  EXPECT_EQ(controller.names().get_string(root + ".placement.option").value(),
            "remote");
  EXPECT_EQ(controller.names().get_string(root + ".buffering.option").value(),
            "large");
  // Both bundles' resources release together.
  ASSERT_TRUE(controller.unregister(id.value()).ok());
  for (const auto& node : controller.topology().nodes()) {
    EXPECT_DOUBLE_EQ(controller.state().pool->available_memory(node.id),
                     node.memory_mb);
  }
}

TEST(ControllerMultiBundle, DuplicateBundleNameRejected) {
  Controller controller;
  ASSERT_TRUE(controller.add_nodes_script(sp2_cluster_script(1)).ok());
  ASSERT_TRUE(controller.finalize_cluster().ok());
  auto id = controller.register_script(R"(
harmonyBundle Dup:1 b { {o {node n {seconds 1} {memory 1}}} }
harmonyBundle Dup:1 b { {o {node n {seconds 2} {memory 1}}} }
)");
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.error().code, ErrorCode::kAlreadyExists);
}

// --- node deletion / addition ----------------------------------------------

TEST(ControllerNodes, OfflineNodeDisplacesAndShrinksBag) {
  Controller controller;
  ASSERT_TRUE(controller.add_nodes_script(sp2_no_server(8)).ok());
  ASSERT_TRUE(controller.finalize_cluster().ok());
  auto bag = controller.register_script(bag_bundle());
  ASSERT_TRUE(bag.ok());
  const BundleState* bundle = controller.bundle_state(bag.value(), "parallelism");
  ASSERT_DOUBLE_EQ(bundle->choice.variables.at("workerNodes"), 8);

  // One of the bag's nodes leaves the cluster.
  ASSERT_TRUE(controller.set_node_online("sp2-03", false).ok());
  bundle = controller.bundle_state(bag.value(), "parallelism");
  ASSERT_TRUE(bundle->configured);
  EXPECT_DOUBLE_EQ(bundle->choice.variables.at("workerNodes"), 7);
  for (const auto& entry : bundle->allocation.entries) {
    EXPECT_NE(controller.topology().node(entry.node).hostname, "sp2-03");
  }
  // It comes back; the next pass (run inside set_node_online) expands.
  ASSERT_TRUE(controller.set_node_online("sp2-03", true).ok());
  bundle = controller.bundle_state(bag.value(), "parallelism");
  EXPECT_DOUBLE_EQ(bundle->choice.variables.at("workerNodes"), 8);
}

TEST(ControllerNodes, StrandedBundleRecoversWhenNodeReturns) {
  Controller controller;
  ASSERT_TRUE(controller.add_nodes_script(sp2_cluster_script(2)).ok());
  ASSERT_TRUE(controller.finalize_cluster().ok());
  auto client = controller.register_script(db_client_bundle("sp2-00", 1));
  ASSERT_TRUE(client.ok());

  std::map<std::string, std::string> seen;
  ASSERT_TRUE(controller
                  .subscribe(client.value(),
                             [&](const std::string& name,
                                 const std::string& value) { seen[name] = value; })
                  .ok());
  ASSERT_EQ(seen["where"], "QS");

  // Both options need the server host; its departure strands the bundle.
  ASSERT_TRUE(controller.set_node_online("server", false).ok());
  const BundleState* bundle = controller.bundle_state(client.value(), "where");
  EXPECT_FALSE(bundle->configured);
  EXPECT_EQ(seen["where"], "") << "the app is told it has no configuration";
  // Predictions exclude stranded instances rather than failing.
  auto predictions = controller.predictions();
  ASSERT_TRUE(predictions.ok());
  EXPECT_TRUE(predictions.value().empty());
  // Resources fully released while stranded.
  auto server = controller.topology().find_by_hostname("server").value();
  EXPECT_DOUBLE_EQ(controller.state().pool->available_memory(server), 512);

  // The server returns; the bundle reconfigures and the app hears it.
  ASSERT_TRUE(controller.set_node_online("server", true).ok());
  bundle = controller.bundle_state(client.value(), "where");
  ASSERT_TRUE(bundle->configured);
  EXPECT_EQ(bundle->choice.option, "QS");
  EXPECT_EQ(seen["where"], "QS");
}

TEST(ControllerNodes, AvailabilityValidation) {
  Controller controller;
  ASSERT_TRUE(controller.add_nodes_script(sp2_cluster_script(1)).ok());
  EXPECT_FALSE(controller.set_node_online("sp2-00", false).ok())
      << "cluster not finalized yet";
  ASSERT_TRUE(controller.finalize_cluster().ok());
  EXPECT_FALSE(controller.set_node_online("ghost", false).ok());
  ASSERT_TRUE(controller.set_node_online("sp2-00", false).ok());
  ASSERT_TRUE(controller.set_node_online("sp2-00", false).ok()) << "idempotent";
  EXPECT_EQ(controller.state().pool->online_count(), 1u);  // server remains
  ASSERT_TRUE(controller.set_node_online("sp2-00", true).ok());
  EXPECT_EQ(controller.state().pool->online_count(), 2u);
}

// --- external load (changes out of Harmony's control, §4.3) -----------------

TEST(ControllerExternalLoad, RigidJobMigratesAwayFromBusyNodes) {
  // A rigid 3-node job sits on sp2-00..02; outside load lands there.
  // Re-evaluation must migrate it to the idle nodes (same option, new
  // placement) and tell the application.
  Controller controller;
  ASSERT_TRUE(controller.add_nodes_script(sp2_no_server(8)).ok());
  ASSERT_TRUE(controller.finalize_cluster().ok());
  auto simple = controller.register_script(simple_bundle(3));
  ASSERT_TRUE(simple.ok());
  std::map<std::string, std::string> seen;
  ASSERT_TRUE(controller
                  .subscribe(simple.value(),
                             [&](const std::string& name,
                                 const std::string& value) { seen[name] = value; })
                  .ok());
  EXPECT_EQ(seen["config.worker.nodes"], "sp2-00 sp2-01 sp2-02");

  uint64_t reconfigs_before = controller.reconfigurations();
  for (const char* host : {"sp2-00", "sp2-01", "sp2-02"}) {
    ASSERT_TRUE(controller.report_external_load(host, 2).ok());
  }
  const BundleState* bundle = controller.bundle_state(simple.value(), "config");
  for (const auto& entry : bundle->allocation.entries) {
    const std::string& host = controller.topology().node(entry.node).hostname;
    EXPECT_NE(host, "sp2-00");
    EXPECT_NE(host, "sp2-01");
    EXPECT_NE(host, "sp2-02");
  }
  EXPECT_GT(controller.reconfigurations(), reconfigs_before)
      << "a migration counts as a reconfiguration";
  EXPECT_EQ(seen["config.worker.nodes"], "sp2-03 sp2-04 sp2-05")
      << "the application hears about its new nodes";
}

TEST(ControllerExternalLoad, BagStaysWideButSlowsUnderSharedLoad) {
  // Under pure processor sharing, extra (even contended) nodes never
  // hurt a malleable app — the model keeps the bag wide but its
  // effective share and prediction degrade.
  Controller controller;
  ASSERT_TRUE(controller.add_nodes_script(sp2_no_server(8)).ok());
  ASSERT_TRUE(controller.finalize_cluster().ok());
  auto bag = controller.register_script(bag_bundle());
  ASSERT_TRUE(bag.ok());
  auto before = controller.predictions();
  ASSERT_TRUE(before.ok());
  for (const char* host : {"sp2-00", "sp2-01", "sp2-02"}) {
    ASSERT_TRUE(controller.report_external_load(host, 2).ok());
  }
  const BundleState* bundle = controller.bundle_state(bag.value(), "parallelism");
  EXPECT_DOUBLE_EQ(bundle->choice.variables.at("workerNodes"), 8);
  auto after = controller.predictions();
  ASSERT_TRUE(after.ok());
  EXPECT_GT(after.value()[0].second, before.value()[0].second);
}

TEST(ControllerExternalLoad, PredictionsReflectReportedLoad) {
  Controller controller;
  ASSERT_TRUE(controller.add_nodes_script(sp2_cluster_script(4)).ok());
  ASSERT_TRUE(controller.finalize_cluster().ok());
  auto client = controller.register_script(db_client_bundle("sp2-00", 1));
  ASSERT_TRUE(client.ok());
  auto before = controller.predictions();
  ASSERT_TRUE(before.ok());
  // Outside work lands on the database server.
  ASSERT_TRUE(controller.report_external_load("server", 3).ok());
  auto after = controller.predictions();
  ASSERT_TRUE(after.ok());
  EXPECT_GT(after.value()[0].second, before.value()[0].second)
      << "server contention must slow the predicted response";
}

TEST(ControllerExternalLoad, Validation) {
  Controller controller;
  ASSERT_TRUE(controller.add_nodes_script(sp2_cluster_script(1)).ok());
  EXPECT_FALSE(controller.report_external_load("sp2-00", 1).ok())
      << "not finalized";
  ASSERT_TRUE(controller.finalize_cluster().ok());
  EXPECT_FALSE(controller.report_external_load("ghost", 1).ok());
  EXPECT_FALSE(controller.report_external_load("sp2-00", -1).ok());
  ASSERT_TRUE(controller.report_external_load("sp2-00", 1).ok());
  ASSERT_TRUE(controller.report_external_load("sp2-00", 1).ok())
      << "idempotent report";
}

// --- optimizer modes -----------------------------------------------------------

TEST(ControllerExhaustive, MatchesGreedyOnDbScenario) {
  ControllerConfig config;
  config.optimizer.mode = OptimizerConfig::Mode::kExhaustive;
  Controller exhaustive(config);
  ASSERT_TRUE(exhaustive.add_nodes_script(sp2_cluster_script(4)).ok());
  ASSERT_TRUE(exhaustive.finalize_cluster().ok());
  Controller greedy;
  ASSERT_TRUE(greedy.add_nodes_script(sp2_cluster_script(4)).ok());
  ASSERT_TRUE(greedy.finalize_cluster().ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(exhaustive
                    .register_script(
                        db_client_bundle(str_format("sp2-%02d", i), i + 1))
                    .ok());
    ASSERT_TRUE(greedy
                    .register_script(
                        db_client_bundle(str_format("sp2-%02d", i), i + 1))
                    .ok());
  }
  auto obj_exhaustive = exhaustive.objective_value();
  auto obj_greedy = greedy.objective_value();
  ASSERT_TRUE(obj_exhaustive.ok() && obj_greedy.ok());
  // The exhaustive optimum is never worse than greedy; on this scenario
  // they agree (all-DS).
  EXPECT_LE(obj_exhaustive.value(), obj_greedy.value() + 1e-9);
  EXPECT_NEAR(obj_exhaustive.value(), obj_greedy.value(), 1e-6);
}

}  // namespace
}  // namespace harmony::core
