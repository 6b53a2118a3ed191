// Scale regression tests for the scoped-domain decision core: domain
// controllers share one immutable topology and allocate pool/version
// state only over their footprint, so per-decision work is
// O(|footprint|), never O(cluster).
//
// Two proof obligations:
//   - identity at scale: on a ~5k-node cluster the partitioned router's
//     full decision history (placements, grants, switch times,
//     objective) is bit-identical to the --single-domain reference
//     through registrations, load, node churn, a merge and a split;
//   - no per-cluster work: creating a domain allocates pool slots for
//     the footprint only (counter-based, so an accidental O(cluster)
//     allocation fails loudly instead of just slowly), and every domain
//     controller shares the router's topology by address.
#include <gtest/gtest.h>

#include <vector>

#include "cluster/pool.h"
#include "core/controller.h"
#include "core/domain.h"
#include "test_scenarios.h"

namespace harmony::core {
namespace {

using harmony::testing::fingerprint;
using harmony::testing::swarm_cluster_script;
using harmony::testing::swarm_db_bundle;
using harmony::testing::swarm_group_name;
using harmony::testing::swarm_par_bundle;
using harmony::testing::SwarmConfig;

std::string client_host(int group, int client) {
  return str_format("%s-c%02d", swarm_group_name(group).c_str(), client);
}

// Spans two groups with no link requirement: swarm groups have no
// cross-group wires, so (unlike testing::bridge_bundle) this stays
// feasible while still merging the two groups' domains.
std::string span_bundle(int group_a, int group_b, int tag) {
  return str_format(
      "harmonyBundle Span:%d where {\n"
      "  {pair\n"
      "    {node left {hostname %s-c*} {seconds 30} {memory 8}}\n"
      "    {node right {hostname %s-c*} {seconds 30} {memory 8}}}\n"
      "}\n",
      tag, swarm_group_name(group_a).c_str(), swarm_group_name(group_b).c_str());
}

TEST(ScaleDifferential, FiveThousandNodesBitIdenticalToSingleDomain) {
  // 556 groups x (1 server + 8 clients) = 5004 nodes; applications only
  // ever land in the first 24 groups, so the partitioned router's
  // domains stay 9-20 nodes wide while the cluster is 5k.
  SwarmConfig config;
  config.groups = 556;
  const std::string cluster = swarm_cluster_script(config);
  const int active_groups = 24;

  DomainRouter router;
  DomainRouterConfig reference_config;
  reference_config.single_domain = true;
  DomainRouter reference(reference_config);

  double now = 0;
  auto source = [&now] { return now; };
  router.set_time_source(source);
  reference.set_time_source(source);
  ASSERT_TRUE(router.add_nodes_script(cluster).ok());
  ASSERT_TRUE(router.finalize_cluster().ok());
  ASSERT_TRUE(reference.add_nodes_script(cluster).ok());
  ASSERT_TRUE(reference.finalize_cluster().ok());

  auto drive = [&](DomainRouter& r, const std::string& script) {
    auto result = r.register_script(script);
    ASSERT_TRUE(result.ok()) << result.error().message;
  };

  // Registrations: a DB- and a parallel-shaped app per active group.
  int tag = 1;
  std::vector<InstanceId> live;
  for (int g = 0; g < active_groups; ++g) {
    for (const std::string& script :
         {swarm_db_bundle(g, tag), swarm_par_bundle(g, tag + 1)}) {
      now += 5;
      drive(router, script);
      drive(reference, script);
    }
    live.push_back(static_cast<InstanceId>(tag));
    tag += 2;
  }
  ASSERT_GT(router.domain_count(), 1u);
  EXPECT_EQ(fingerprint(router), fingerprint(reference));

  // Load and node churn inside (and outside) the active groups.
  for (int g = 0; g < active_groups; g += 3) {
    now += 2;
    const std::string host = client_host(g, g % 8);
    ASSERT_TRUE(router.report_external_load(host, 1 + g % 3).ok());
    ASSERT_TRUE(reference.report_external_load(host, 1 + g % 3).ok());
  }
  const std::string cold_host = client_host(500, 0);  // no domain owns it
  ASSERT_TRUE(router.report_external_load(cold_host, 2).ok());
  ASSERT_TRUE(reference.report_external_load(cold_host, 2).ok());
  const std::string churn_host = client_host(4, 3);
  for (bool online : {false, true}) {
    now += 2;
    ASSERT_TRUE(router.set_node_online(churn_host, online).ok());
    ASSERT_TRUE(reference.set_node_online(churn_host, online).ok());
    ASSERT_TRUE(router.reevaluate().ok());
    ASSERT_TRUE(reference.reevaluate().ok());
  }
  EXPECT_EQ(fingerprint(router), fingerprint(reference));

  // A bridge merges two groups' domains; its departure splits them.
  now += 5;
  const std::string bridge = span_bundle(2, 5, tag);
  auto bridged_a = router.register_script(bridge);
  auto bridged_b = reference.register_script(bridge);
  ASSERT_TRUE(bridged_a.ok()) << bridged_a.error().message;
  ASSERT_TRUE(bridged_b.ok());
  ASSERT_EQ(bridged_a.value(), bridged_b.value());
  EXPECT_EQ(fingerprint(router), fingerprint(reference));
  now += 5;
  ASSERT_TRUE(router.unregister(bridged_a.value()).ok());
  ASSERT_TRUE(reference.unregister(bridged_b.value()).ok());
  EXPECT_EQ(fingerprint(router), fingerprint(reference));

  // Departures after the annexations above: footprints shrink, stale
  // wide scopes must not leak into any decision.
  for (size_t i = 0; i < live.size(); i += 4) {
    now += 2;
    ASSERT_TRUE(router.unregister(live[i]).ok());
    ASSERT_TRUE(reference.unregister(live[i]).ok());
  }
  ASSERT_TRUE(router.reevaluate().ok());
  ASSERT_TRUE(reference.reevaluate().ok());
  EXPECT_EQ(fingerprint(router), fingerprint(reference));
}

TEST(ScopedDomain, CreationDoesNoPerClusterWork) {
  // 456 groups x 9 = 4104 nodes. The slots_allocated counter is the
  // tripwire: if domain creation (or annexation) ever allocates per
  // cluster node again, the deltas below explode from O(9) to O(4104).
  SwarmConfig config;
  config.groups = 456;
  DomainRouter router;
  ASSERT_TRUE(router.add_nodes_script(swarm_cluster_script(config)).ok());
  ASSERT_TRUE(router.finalize_cluster().ok());

  // First registration in a group: one fresh 9-node domain.
  uint64_t before = cluster::ResourcePool::slots_allocated();
  ASSERT_TRUE(router.register_script(swarm_db_bundle(3, 1)).ok());
  EXPECT_LE(cluster::ResourcePool::slots_allocated() - before, 64u);

  // Second registration in the same group annexes nothing.
  before = cluster::ResourcePool::slots_allocated();
  ASSERT_TRUE(router.register_script(swarm_par_bundle(3, 2)).ok());
  EXPECT_EQ(cluster::ResourcePool::slots_allocated() - before, 0u);

  before = cluster::ResourcePool::slots_allocated();
  ASSERT_TRUE(router.register_script(swarm_db_bundle(7, 3)).ok());
  EXPECT_LE(cluster::ResourcePool::slots_allocated() - before, 64u);

  // Merging the two domains annexes one footprint into the other —
  // still O(|domain|), not a rebuild.
  before = cluster::ResourcePool::slots_allocated();
  auto bridged = router.register_script(span_bundle(3, 7, 4));
  ASSERT_TRUE(bridged.ok()) << bridged.error().message;
  EXPECT_LE(cluster::ResourcePool::slots_allocated() - before, 64u);

  // Every domain controller shares the router's topology by address —
  // the structural guarantee behind all of the above.
  ASSERT_GE(router.domain_count(), 1u);
  for (const Controller* domain : router.domain_controllers()) {
    EXPECT_EQ(&domain->topology(), &router.topology());
  }
}

}  // namespace
}  // namespace harmony::core
