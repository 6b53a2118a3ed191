#include "core/console.h"

#include <gtest/gtest.h>

#include "rsl/value.h"
#include "test_scenarios.h"

namespace harmony::core {
namespace {

using harmony::testing::db_client_bundle;
using harmony::testing::sp2_cluster_script;

class ConsoleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(controller_.add_nodes_script(sp2_cluster_script(4)).ok());
    ASSERT_TRUE(controller_.finalize_cluster().ok());
    register_console(interp_, controller_);
    auto id = controller_.register_script(db_client_bundle("sp2-00", 1));
    ASSERT_TRUE(id.ok());
    id_ = id.value();
  }

  std::string eval(const std::string& script) {
    auto r = interp_.eval(script);
    EXPECT_TRUE(r.ok()) << script << ": "
                        << (r.ok() ? "" : r.error().to_string());
    return r.ok() ? r.value() : "";
  }

  Controller controller_;
  rsl::Interp interp_;
  InstanceId id_ = 0;
};

TEST_F(ConsoleTest, Instances) {
  EXPECT_EQ(eval("harmonyInstances"),
            "DBclient." + std::to_string(id_));
}

TEST_F(ConsoleTest, Bundles) {
  EXPECT_EQ(eval("harmonyBundles DBclient." + std::to_string(id_)), "where");
  // Bare numeric id also resolves.
  EXPECT_EQ(eval("harmonyBundles " + std::to_string(id_)), "where");
}

TEST_F(ConsoleTest, OptionAndObjective) {
  std::string name = "DBclient." + std::to_string(id_);
  EXPECT_EQ(eval("harmonyOption " + name + " where"), "QS");
  double objective = 0;
  ASSERT_TRUE(parse_double(eval("harmonyObjective"), &objective));
  EXPECT_NEAR(objective, 4.75, 0.01);
}

TEST_F(ConsoleTest, PredictReturnsRows) {
  auto rows = rsl::list_parse(eval("harmonyPredict")).value();
  ASSERT_EQ(rows.size(), 1u);
  auto row = rsl::list_parse(rows[0]).value();
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[0], "DBclient." + std::to_string(id_));
}

TEST_F(ConsoleTest, NodesReport) {
  auto rows = rsl::list_parse(eval("harmonyNodes")).value();
  ASSERT_EQ(rows.size(), 5u);  // 4 workers + server
  auto server_row = rsl::list_parse(rows.back()).value();
  EXPECT_EQ(server_row[0], "server");
  EXPECT_EQ(server_row[1], "2");
  // 512 total - 20 reserved by the QS server role.
  EXPECT_EQ(server_row[2], "492");
  EXPECT_EQ(server_row[3], "1");
}

TEST_F(ConsoleTest, NameReadsNamespace) {
  std::string path =
      "DBclient." + std::to_string(id_) + ".where.option";
  EXPECT_EQ(eval("harmonyName " + path), "QS");
  EXPECT_FALSE(interp_.eval("harmonyName no.such.path").ok());
}

TEST_F(ConsoleTest, SetOptionSteersTheSystem) {
  std::string name = "DBclient." + std::to_string(id_);
  EXPECT_EQ(eval("harmonySetOption " + name + " where DS"), "DS");
  EXPECT_EQ(eval("harmonyOption " + name + " where"), "DS");
  // The namespace moved too.
  EXPECT_EQ(eval("harmonyName " + name + ".where.option"), "DS");
  // A subsequent re-evaluation may flip it back (QS is better for one
  // client) — that is the policy loop working.
  eval("harmonyReevaluate");
  EXPECT_EQ(eval("harmonyOption " + name + " where"), "QS");
}

TEST_F(ConsoleTest, SetOptionValidation) {
  std::string name = "DBclient." + std::to_string(id_);
  EXPECT_FALSE(interp_.eval("harmonySetOption " + name + " where Bogus").ok());
  EXPECT_FALSE(interp_.eval("harmonySetOption " + name + " ghost QS").ok());
  EXPECT_FALSE(interp_.eval("harmonySetOption Ghost.99 where QS").ok());
  // Unchanged after failures.
  EXPECT_EQ(eval("harmonyOption " + name + " where"), "QS");
}

TEST_F(ConsoleTest, SetOptionWithVariables) {
  // A bag-style bundle where steering sets the variable too.
  auto bag = controller_.register_script(harmony::testing::bag_bundle("1 2 4"));
  ASSERT_TRUE(bag.ok());
  std::string name = "Bag." + std::to_string(bag.value());
  EXPECT_EQ(eval("harmonySetOption " + name + " parallelism var workerNodes 2"),
            "var workerNodes=2");
  auto option = rsl::list_parse(
      eval("harmonyOption " + name + " parallelism")).value();
  EXPECT_EQ(option, (std::vector<std::string>{"var", "workerNodes", "2"}));
}

TEST_F(ConsoleTest, NodeStateCommand) {
  EXPECT_EQ(eval("harmonyNodeState sp2-03 offline"), "offline");
  // The nodes report still lists it (topology is fixed); the pool
  // shows one fewer online node.
  EXPECT_EQ(controller_.state().pool->online_count(), 4u);
  EXPECT_EQ(eval("harmonyNodeState sp2-03 online"), "online");
  EXPECT_EQ(controller_.state().pool->online_count(), 5u);
  EXPECT_FALSE(interp_.eval("harmonyNodeState ghost offline").ok());
  EXPECT_FALSE(interp_.eval("harmonyNodeState sp2-03 sideways").ok());
}

TEST_F(ConsoleTest, ExternalLoadCommand) {
  eval("harmonyExternalLoad server 3");
  auto server = controller_.topology().find_by_hostname("server").value();
  EXPECT_EQ(controller_.state().pool->external_load(server), 3);
  // The nodes report includes the external tasks in the load column.
  auto rows = rsl::list_parse(eval("harmonyNodes")).value();
  auto server_row = rsl::list_parse(rows.back()).value();
  EXPECT_EQ(server_row[3], "4") << "1 placement + 3 external";
  EXPECT_FALSE(interp_.eval("harmonyExternalLoad server many").ok());
  EXPECT_FALSE(interp_.eval("harmonyExternalLoad ghost 1").ok());
}

TEST_F(ConsoleTest, PolicyScriptComposition) {
  // A policy written in TCL: if the objective is above a threshold,
  // force data shipping. (The RSL is a real language; policies compose
  // from the same commands.)
  ASSERT_TRUE(controller_.register_script(db_client_bundle("sp2-01", 2)).ok());
  ASSERT_TRUE(controller_.register_script(db_client_bundle("sp2-02", 3)).ok());
  eval(R"(
proc forceDsWhenSlow {threshold} {
  if {[harmonyObjective] > $threshold} {
    foreach app [harmonyInstances] {
      harmonySetOption $app where DS
    }
    return forced
  }
  return ok
}
)");
  // Three clients under the default arrival optimization are already
  // DS; steer them to QS first to create a bad state.
  auto apps = rsl::list_parse(eval("harmonyInstances")).value();
  for (const auto& app : apps) {
    eval("harmonySetOption " + app + " where QS");
  }
  double slow = 0;
  ASSERT_TRUE(parse_double(eval("harmonyObjective"), &slow));
  EXPECT_GT(slow, 12.0);
  EXPECT_EQ(eval("forceDsWhenSlow 12"), "forced");
  double fast = 0;
  ASSERT_TRUE(parse_double(eval("harmonyObjective"), &fast));
  EXPECT_LT(fast, slow);
}

TEST_F(ConsoleTest, DomainsCommand) {
  // Without a published router the command reports, not crashes.
  EXPECT_FALSE(interp_.eval("harmonyDomains").ok());

  DomainRouter router;
  ASSERT_TRUE(router.add_nodes_script(sp2_cluster_script(4)).ok());
  ASSERT_TRUE(router.finalize_cluster().ok());
  ASSERT_TRUE(router.register_script(db_client_bundle("sp2-00", 1)).ok());
  publish_domain_router(&router);
  auto rows = rsl::list_parse(eval("harmonyDomains")).value();
  ASSERT_EQ(rows.size(), 1u);
  auto fields = rsl::list_parse(rows[0]).value();
  // {id {members} epochs last_ms {passes moves improvement}}
  ASSERT_EQ(fields.size(), 5u);
  EXPECT_EQ(fields[0], "1");
  EXPECT_EQ(fields[1], "DBclient.1");
  publish_domain_router(nullptr);
}

}  // namespace
}  // namespace harmony::core
