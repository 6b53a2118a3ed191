// Failure-injection / property test: a randomized storm of arrivals,
// departures, manual steering and re-evaluations must never corrupt the
// controller's resource accounting, namespace, or predictions — and
// when everything departs, the cluster must be exactly as it started.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "core/console.h"
#include "core/controller.h"
#include "core/domain.h"
#include "test_scenarios.h"

namespace harmony::core {
namespace {

using harmony::testing::bag_bundle;
using harmony::testing::db_client_bundle;
using harmony::testing::simple_bundle;
using harmony::testing::sp2_cluster_script;

// Exact accounting invariant: the pool's reserved memory and placement
// counts equal the sums over all configured allocations.
void expect_accounting_exact(const Controller& controller) {
  std::map<cluster::NodeId, double> reserved;
  std::map<cluster::NodeId, int> placements;
  for (const auto& instance : controller.state().instances) {
    for (const auto& bundle : instance.bundles) {
      if (!bundle.configured) continue;
      for (const auto& entry : bundle.allocation.entries) {
        reserved[entry.node] += entry.requirement.memory_mb;
        ++placements[entry.node];
      }
    }
  }
  const auto& pool = *controller.state().pool;
  const cluster::NodeScope* scope = pool.scope();
  for (const auto& node : controller.topology().nodes()) {
    if (scope != nullptr &&
        scope->slot(node.id) == cluster::NodeScope::kNoSlot) {
      // Scoped domain pool: nothing may ever be placed off-scope.
      EXPECT_EQ(placements.count(node.id), 0u) << node.hostname;
      continue;
    }
    double expected_free = node.memory_mb - reserved[node.id];
    EXPECT_NEAR(pool.available_memory(node.id), expected_free, 1e-6)
        << node.hostname;
    EXPECT_EQ(pool.process_count(node.id), placements[node.id])
        << node.hostname;
  }
  EXPECT_TRUE(pool.invariants_hold());
}

// Every configured bundle must be visible in the namespace with a
// valid option, and predictions must be finite.
void expect_consistent_views(const Controller& controller) {
  for (const auto& instance : controller.state().instances) {
    for (const auto& bundle : instance.bundles) {
      if (!bundle.configured) continue;
      auto option = controller.names().get_string(
          instance.path() + "." + bundle.spec.bundle + ".option");
      ASSERT_TRUE(option.ok()) << instance.path();
      EXPECT_EQ(option.value(), bundle.choice.option);
      EXPECT_NE(bundle.spec.find_option(bundle.choice.option), nullptr);
    }
  }
  auto predictions = controller.predictions();
  ASSERT_TRUE(predictions.ok());
  for (const auto& [id, seconds] : predictions.value()) {
    EXPECT_TRUE(std::isfinite(seconds)) << id;
    EXPECT_GE(seconds, 0.0) << id;
  }
}

class StormTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StormTest, RandomLifecyclesPreserveInvariants) {
  Controller controller;
  ASSERT_TRUE(controller.add_nodes_script(sp2_cluster_script(6)).ok());
  ASSERT_TRUE(controller.finalize_cluster().ok());
  double now = 0;
  controller.set_time_source([&now] { return now; });

  Rng rng(GetParam());
  std::vector<InstanceId> live;
  int arrivals = 0, departures = 0, rejections = 0;

  for (int step = 0; step < 300; ++step) {
    now += rng.next_double(0.1, 30.0);
    double dice = rng.next_double();
    if (dice < 0.45 || live.empty()) {
      // Arrival of a random application type.
      std::string script;
      switch (rng.next_below(3)) {
        case 0:
          script = db_client_bundle(
              str_format("sp2-%02d", static_cast<int>(rng.next_below(6))),
              static_cast<int>(rng.next_int(1, 99)));
          break;
        case 1:
          script = bag_bundle("1 2 3 4", /*granularity=*/0);
          break;
        default:
          script = simple_bundle(static_cast<int>(rng.next_int(1, 3)),
                                 /*seconds=*/100, /*memory=*/16);
          break;
      }
      auto id = controller.register_application([&] {
        std::vector<rsl::BundleSpec> bundles;
        rsl::RslHost host;
        host.on_bundle([&bundles](const rsl::BundleSpec& b) {
          bundles.push_back(b);
          return Status::Ok();
        });
        EXPECT_TRUE(host.eval_script(script).ok());
        return bundles;
      }());
      if (id.ok()) {
        live.push_back(id.value());
        ++arrivals;
      } else {
        EXPECT_EQ(id.error().code, ErrorCode::kNoMatch)
            << id.error().to_string();
        ++rejections;
      }
    } else if (dice < 0.75) {
      // Departure.
      size_t pick = rng.next_below(live.size());
      ASSERT_TRUE(controller.unregister(live[pick]).ok());
      live.erase(live.begin() + static_cast<long>(pick));
      ++departures;
    } else if (dice < 0.82) {
      ASSERT_TRUE(controller.reevaluate().ok());
    } else if (dice < 0.88) {
      // Node churn: toggle a random node's availability (never let the
      // whole cluster vanish).
      std::string host = str_format("sp2-%02d",
                                    static_cast<int>(rng.next_below(6)));
      auto node = controller.topology().find_by_hostname(host).value();
      bool online = controller.state().pool->is_online(node);
      if (!online || controller.state().pool->online_count() > 2) {
        ASSERT_TRUE(controller.set_node_online(host, !online).ok());
      }
    } else if (dice < 0.93) {
      // External load comes and goes.
      std::string host = str_format("sp2-%02d",
                                    static_cast<int>(rng.next_below(6)));
      ASSERT_TRUE(controller
                      .report_external_load(
                          host, static_cast<int>(rng.next_below(4)))
                      .ok());
    } else {
      // Manual steering to a random declared option (may legitimately
      // fail if resources do not fit; must never corrupt state).
      size_t pick = rng.next_below(live.size());
      const InstanceState* instance =
          controller.state().find_instance(live[pick]);
      ASSERT_NE(instance, nullptr);
      const BundleState& bundle = instance->bundles[0];
      auto choices = enumerate_choices(bundle.spec);
      const OptionChoice& choice = choices[rng.next_below(choices.size())];
      (void)controller.set_option(live[pick], bundle.spec.bundle, choice);
    }
    expect_accounting_exact(controller);
    expect_consistent_views(controller);
  }

  EXPECT_GT(arrivals, 50);
  EXPECT_GT(departures, 20);

  // Drain: afterwards the cluster must be pristine.
  for (InstanceId id : live) {
    ASSERT_TRUE(controller.unregister(id).ok());
  }
  for (const auto& node : controller.topology().nodes()) {
    EXPECT_NEAR(controller.state().pool->available_memory(node.id),
                node.memory_mb, 1e-6);
    EXPECT_EQ(controller.state().pool->process_count(node.id), 0);
  }
  EXPECT_EQ(controller.live_instances(), 0u);
  auto final_predictions = controller.predictions();
  ASSERT_TRUE(final_predictions.ok());
  EXPECT_TRUE(final_predictions.value().empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, StormTest,
                         ::testing::Values(1, 42, 1999, 20260707));

// --- partitioned decision core under storm ----------------------------------
// Regression for DEPART/REGISTER sequences across domain splits and
// merges: bursts of load reports land between bridge registrations that
// merge domains and departures that split them. Every event before a
// membership change must apply against its old owner and every later
// event against the new owner — an event that is dropped or applied
// against the wrong controller shows up as a fingerprint divergence
// from the single-controller reference, or as nondeterminism between
// two identical runs.

class DomainStormTest : public ::testing::TestWithParam<uint64_t> {};

std::string run_domain_storm(uint64_t seed) {
  using harmony::testing::bridge_bundle;
  using harmony::testing::fingerprint;
  using harmony::testing::grouped_cluster_script;
  using harmony::testing::pinned_group_bundle;

  const std::vector<std::string> groups = {"ga", "gb", "gc"};
  const int per_group = 3;
  const std::string cluster = grouped_cluster_script(groups, per_group);

  DomainRouter router;
  Controller reference;
  double now = 0;
  auto source = [&now] { return now; };
  router.set_time_source(source);
  reference.set_time_source(source);
  EXPECT_TRUE(router.add_nodes_script(cluster).ok());
  EXPECT_TRUE(router.finalize_cluster().ok());
  EXPECT_TRUE(reference.add_nodes_script(cluster).ok());
  EXPECT_TRUE(reference.finalize_cluster().ok());

  auto host_at = [&](size_t index) {
    return str_format("%s-%02d", groups[index / per_group].c_str(),
                      static_cast<int>(index % per_group));
  };
  const size_t hosts = groups.size() * per_group;

  Rng rng(seed);
  std::vector<InstanceId> live;
  std::map<std::string, bool> offline;
  int tag = 1;

  for (int step = 0; step < 200; ++step) {
    now += rng.next_double(0.1, 30.0);
    const double dice = rng.next_double();
    if (dice < 0.30 || live.empty()) {
      // Pinned arrival — lands in (or creates) one group's domain.
      const auto& group = groups[rng.next_below(groups.size())];
      const std::string script = pinned_group_bundle(group, tag++);
      auto a = router.register_script(script);
      auto b = reference.register_script(script);
      EXPECT_EQ(a.ok(), b.ok());
      if (a.ok() && b.ok()) {
        EXPECT_EQ(a.value(), b.value());
        live.push_back(a.value());
      }
    } else if (dice < 0.42) {
      // Bridge arrival — merges two groups' domains, which may have
      // seen load reports since their last decision.
      const size_t first = rng.next_below(groups.size());
      const size_t second = (first + 1 + rng.next_below(groups.size() - 1)) %
                            groups.size();
      const std::string script =
          bridge_bundle(groups[first], groups[second], tag++);
      auto a = router.register_script(script);
      auto b = reference.register_script(script);
      EXPECT_EQ(a.ok(), b.ok());
      if (a.ok() && b.ok()) {
        EXPECT_EQ(a.value(), b.value());
        live.push_back(a.value());
      }
    } else if (dice < 0.62) {
      // Departure — a departing bridge splits its merged domain.
      const size_t pick = rng.next_below(live.size());
      const InstanceId id = live[pick];
      live.erase(live.begin() + static_cast<long>(pick));
      EXPECT_TRUE(router.unregister(id).ok());
      EXPECT_TRUE(reference.unregister(id).ok());
    } else if (dice < 0.80) {
      // Burst of load reports ahead of whatever membership change comes
      // next. The reference applies the same values.
      const int burst = 1 + static_cast<int>(rng.next_below(3));
      for (int i = 0; i < burst; ++i) {
        const std::string host = host_at(rng.next_below(hosts));
        const int tasks = static_cast<int>(rng.next_below(4));
        EXPECT_TRUE(router.report_external_load(host, tasks).ok());
        EXPECT_TRUE(reference.report_external_load(host, tasks).ok());
      }
    } else if (dice < 0.88) {
      // Node churn inside a group; -00 stays up so every group's
      // bundles always have somewhere to land.
      const auto& group = groups[rng.next_below(groups.size())];
      const std::string host = str_format(
          "%s-%02d", group.c_str(),
          1 + static_cast<int>(rng.next_below(per_group - 1)));
      const bool online = offline[host];
      offline[host] = !online;
      EXPECT_TRUE(router.set_node_online(host, online).ok());
      EXPECT_TRUE(reference.set_node_online(host, online).ok());
    } else {
      EXPECT_TRUE(router.reevaluate().ok());
      EXPECT_TRUE(reference.reevaluate().ok());
    }

    // Periodic identity check plus the exact accounting invariants on
    // every domain controller.
    if (step % 7 == 6) {
      EXPECT_EQ(fingerprint(router), fingerprint(reference))
          << "step " << step;
      for (const Controller* domain : router.domain_controllers()) {
        expect_accounting_exact(*domain);
        expect_consistent_views(*domain);
      }
    }
  }

  // Drain everything; the partition must end exactly where the
  // reference does: no domains, no instances, pristine pools.
  for (InstanceId id : live) {
    EXPECT_TRUE(router.unregister(id).ok());
    EXPECT_TRUE(reference.unregister(id).ok());
  }
  EXPECT_EQ(router.domain_count(), 0u);
  EXPECT_EQ(router.live_instances(), 0u);
  const std::string final_print = fingerprint(router);
  EXPECT_EQ(final_print, fingerprint(reference));
  return final_print;
}

TEST_P(DomainStormTest, SplitMergeRacesStayDeterministic) {
  const std::string first = run_domain_storm(GetParam());
  if (::testing::Test::HasFatalFailure()) return;
  // Same seed, same history: the partitioned run must be a pure
  // function of its input sequence.
  EXPECT_EQ(run_domain_storm(GetParam()), first);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DomainStormTest,
                         ::testing::Values(7, 1234, 20260809));

}  // namespace
}  // namespace harmony::core
