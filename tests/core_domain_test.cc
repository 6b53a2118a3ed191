// Differential test for the partitioned decision core: drive a
// DomainRouter and a plain single-threaded Controller through the same
// event sequence and require bit-identical fingerprints after every
// event. Covers (a) fully-independent domains, (b) workloads that force
// domain merge and split mid-run, and (c) crash recovery from the
// domain-tagged journal (fork + SIGKILL, the persist_crash_test
// pattern). This is the proof obligation behind partitioning: sharding
// the optimizer by admissible-node components must never change a
// decision.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/controller.h"
#include "core/domain.h"
#include "metric/telemetry.h"
#include "persist/persistence.h"
#include "test_scenarios.h"

namespace harmony::core {
namespace {

using harmony::testing::bridge_bundle;
using harmony::testing::fingerprint;
using harmony::testing::grouped_cluster_script;
using harmony::testing::pinned_group_bundle;

struct DiffHarness {
  std::shared_ptr<double> clock = std::make_shared<double>(0.0);
  DomainRouter router;
  Controller reference;

  explicit DiffHarness(bool single_domain = false)
      : router(make_config(single_domain)) {
    auto source = [clock = clock] { return *clock; };
    router.set_time_source(source);
    reference.set_time_source(source);
  }

  static DomainRouterConfig make_config(bool single_domain) {
    DomainRouterConfig config;
    config.single_domain = single_domain;
    return config;
  }

  void init(const std::string& cluster) {
    ASSERT_TRUE(router.add_nodes_script(cluster).ok());
    ASSERT_TRUE(router.finalize_cluster().ok());
    ASSERT_TRUE(reference.add_nodes_script(cluster).ok());
    ASSERT_TRUE(reference.finalize_cluster().ok());
  }

  void check(const char* what) {
    EXPECT_EQ(fingerprint(router), fingerprint(reference)) << what;
  }

  InstanceId reg(const std::string& script) {
    *clock += 10;
    auto a = router.register_script(script);
    auto b = reference.register_script(script);
    EXPECT_EQ(a.ok(), b.ok()) << "register outcome diverged";
    if (a.ok() && b.ok()) EXPECT_EQ(a.value(), b.value());
    check("register");
    return a.ok() ? a.value() : 0;
  }

  void drop(InstanceId id) {
    *clock += 10;
    auto a = router.unregister(id);
    auto b = reference.unregister(id);
    EXPECT_EQ(a.ok(), b.ok()) << "unregister outcome diverged";
    check("unregister");
  }

  void load(const std::string& host, int tasks) {
    *clock += 10;
    auto a = router.report_external_load(host, tasks);
    auto b = reference.report_external_load(host, tasks);
    EXPECT_EQ(a.ok(), b.ok()) << "load outcome diverged";
    check("external_load");
  }

  void toggle(const std::string& host, bool online) {
    *clock += 10;
    auto a = router.set_node_online(host, online);
    auto b = reference.set_node_online(host, online);
    EXPECT_EQ(a.ok(), b.ok()) << "node toggle outcome diverged";
    check("node_toggle");
  }

  void reevaluate() {
    *clock += 10;
    auto a = router.reevaluate();
    auto b = reference.reevaluate();
    EXPECT_EQ(a.ok(), b.ok()) << "reevaluate outcome diverged";
    check("reevaluate");
  }

  void steer(InstanceId id, const std::string& bundle,
             const OptionChoice& choice) {
    *clock += 10;
    auto a = router.set_option(id, bundle, choice);
    auto b = reference.set_option(id, bundle, choice);
    EXPECT_EQ(a.ok(), b.ok()) << "steer outcome diverged";
    if (!a.ok() && !b.ok()) EXPECT_EQ(a.error().code, b.error().code);
    check("steer");
  }
};

TEST(DomainDifferentialTest, IndependentDomainsMatchReference) {
  const std::vector<std::string> groups = {"ga", "gb", "gc", "gd"};
  DiffHarness h;
  h.init(grouped_cluster_script(groups, 3));
  if (::testing::Test::HasFatalFailure()) return;
  ASSERT_TRUE(h.router.partitioned());

  std::vector<InstanceId> ids;
  int tag = 1;
  for (const auto& group : groups) {
    ids.push_back(h.reg(pinned_group_bundle(group, tag++)));
    ids.push_back(h.reg(pinned_group_bundle(group, tag++)));
  }
  EXPECT_EQ(h.router.domain_count(), groups.size());

  h.load("ga-01", 2);
  h.load("gc-00", 3);
  h.toggle("gb-02", false);
  h.reevaluate();
  h.load("ga-01", 0);
  h.toggle("gb-02", true);
  h.reevaluate();

  // Steering an instance routes to its owning domain; both sides must
  // agree on the outcome either way.
  OptionChoice narrow;
  narrow.option = "narrow";
  h.steer(ids[0], "Appga:1", narrow);

  // Departures retire one group's domain entirely.
  h.drop(ids[0]);
  h.drop(ids[1]);
  EXPECT_EQ(h.router.domain_count(), groups.size() - 1);
  h.reevaluate();
}

TEST(DomainDifferentialTest, SingleDomainModeIsTheReferencePath) {
  DiffHarness h(/*single_domain=*/true);
  h.init(grouped_cluster_script({"ga", "gb"}, 3));
  if (::testing::Test::HasFatalFailure()) return;
  EXPECT_FALSE(h.router.partitioned());
  h.reg(pinned_group_bundle("ga", 1));
  h.reg(pinned_group_bundle("gb", 2));
  // Everything shares one domain regardless of footprint.
  EXPECT_EQ(h.router.domain_count(), 1u);
  h.load("gb-00", 2);
  h.reevaluate();
}

TEST(DomainDifferentialTest, NonSeparableObjectiveCollapsesToOneDomain) {
  DiffHarness h;
  // Makespan couples every instance's predicted time; the router must
  // refuse to partition.
  DomainRouterConfig config;
  config.controller.objective = "makespan";
  DomainRouter router(config);
  EXPECT_FALSE(router.partitioned());
}

TEST(DomainDifferentialTest, MergeAndSplitMidRun) {
  DiffHarness h;
  h.init(grouped_cluster_script({"ga", "gb"}, 3));
  if (::testing::Test::HasFatalFailure()) return;

  const InstanceId a = h.reg(pinned_group_bundle("ga", 1));
  const InstanceId b = h.reg(pinned_group_bundle("gb", 2));
  EXPECT_EQ(h.router.domain_count(), 2u);

  // The bridge spans both groups: its registration must merge the two
  // domains, and every pre-merge decision must carry over bit-for-bit.
  const InstanceId bridge = h.reg(bridge_bundle("ga", "gb", 3));
  EXPECT_EQ(h.router.domain_count(), 1u);

  h.load("ga-01", 2);
  h.toggle("gb-01", false);
  h.reevaluate();

  // The bridge departs: the remaining instances no longer share nodes,
  // so the domain splits back into two.
  h.drop(bridge);
  EXPECT_EQ(h.router.domain_count(), 2u);

  h.load("gb-02", 1);
  h.toggle("gb-01", true);
  h.reevaluate();

  // Merge again after a split — fresh domain ids must route correctly.
  const InstanceId bridge2 = h.reg(bridge_bundle("ga", "gb", 4));
  EXPECT_EQ(h.router.domain_count(), 1u);
  h.drop(bridge2);
  EXPECT_EQ(h.router.domain_count(), 2u);

  h.drop(a);
  EXPECT_EQ(h.router.domain_count(), 1u);
  h.drop(b);
  EXPECT_EQ(h.router.domain_count(), 0u);
}

TEST(DomainDifferentialTest, UnownedNodeEventsReachLaterDomains) {
  DiffHarness h;
  h.init(grouped_cluster_script({"ga", "gz"}, 3));
  if (::testing::Test::HasFatalFailure()) return;

  h.reg(pinned_group_bundle("ga", 1));
  // gz has no instances: these land in the router's master node state
  // (and its domain-0 journal stream), not in any domain.
  h.load("gz-00", 3);
  h.toggle("gz-01", false);
  h.reevaluate();

  // The first gz registration builds a fresh domain, which must see the
  // load and the offline node or its decisions diverge immediately.
  h.reg(pinned_group_bundle("gz", 2));
  EXPECT_EQ(h.router.domain_count(), 2u);
  h.reevaluate();
  h.load("gz-00", 0);
  h.toggle("gz-01", true);
  h.reevaluate();
}

// The router is a sequential decision process on its caller's thread:
// building one, and every op kind it routes (registrations, a bridge
// merge, a splitting departure, node events, a re-evaluation) plus the
// merged introspection, must start no thread.
size_t thread_count() {
  size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++count;
  }
  return count;
}

TEST(DomainThreadingTest, RouterStartsNoThreads) {
  const size_t before = thread_count();
  {
    DomainRouter router;
    ASSERT_TRUE(
        router.add_nodes_script(grouped_cluster_script({"ga", "gb"}, 3)).ok());
    ASSERT_TRUE(router.finalize_cluster().ok());
    ASSERT_TRUE(router.register_script(pinned_group_bundle("ga", 1)).ok());
    ASSERT_TRUE(router.register_script(pinned_group_bundle("gb", 2)).ok());
    auto bridge = router.register_script(bridge_bundle("ga", "gb", 3));
    ASSERT_TRUE(bridge.ok());
    EXPECT_EQ(router.domain_count(), 1u);
    ASSERT_TRUE(router.unregister(bridge.value()).ok());
    EXPECT_EQ(router.domain_count(), 2u);
    ASSERT_TRUE(router.report_external_load("ga-01", 2).ok());
    ASSERT_TRUE(router.set_node_online("gb-01", false).ok());
    ASSERT_TRUE(router.reevaluate().ok());
    EXPECT_EQ(router.domain_controllers().size(), 2u);
    router.reconfigurations();
    EXPECT_TRUE(router.predictions().ok());
    EXPECT_TRUE(router.objective_value().ok());
    EXPECT_EQ(router.snapshot().size(), 2u);
    EXPECT_EQ(thread_count(), before);
  }
  EXPECT_EQ(thread_count(), before);
}

// Per-domain series live exactly as long as their domain: apps that
// register and END on disjoint groups create and retire a domain each,
// and none of those ids may linger in the scrape.
TEST(DomainTelemetryTest, RetiredDomainsLeaveTheScrape) {
  auto domain_series = [] {
    const std::string text = metric::Telemetry::instance().render_prometheus();
    const std::string marker = "# TYPE harmony_domain_";
    size_t count = 0;
    for (size_t pos = text.find(marker); pos != std::string::npos;
         pos = text.find(marker, pos + 1)) {
      ++count;
    }
    return count;
  };
  const size_t before = domain_series();
  const std::vector<std::string> groups = {"ga", "gb", "gc", "gd"};
  const std::string cluster = grouped_cluster_script(groups, 3);
  // The reference's domain 1 shares its series names with the router's
  // domain 1, which retires below: the shared series must survive.
  DomainRouterConfig reference_config;
  reference_config.single_domain = true;
  DomainRouter reference(reference_config);
  ASSERT_TRUE(reference.add_nodes_script(cluster).ok());
  ASSERT_TRUE(reference.finalize_cluster().ok());
  ASSERT_TRUE(reference.register_script(pinned_group_bundle("ga", 1)).ok());

  DomainRouter router;
  ASSERT_TRUE(router.add_nodes_script(cluster).ok());
  ASSERT_TRUE(router.finalize_cluster().ok());
  // One resident app keeps one domain alive throughout.
  ASSERT_TRUE(router.register_script(pinned_group_bundle("gd", 1)).ok());
  int tag = 2;
  for (int round = 0; round < 12; ++round) {
    for (size_t g = 0; g + 1 < groups.size(); ++g) {
      auto id = router.register_script(pinned_group_bundle(groups[g], tag++));
      ASSERT_TRUE(id.ok());
      ASSERT_TRUE(router.unregister(id.value()).ok());
    }
  }
  EXPECT_EQ(router.domain_count(), 1u);
  // Each live domain owns two series (epochs_total, epoch_us).
  EXPECT_LE(domain_series(),
            before + 2 * (router.domain_count() + reference.domain_count()));
  ASSERT_TRUE(reference.reevaluate().ok());
  const std::string text = metric::Telemetry::instance().render_prometheus();
  EXPECT_NE(text.find("harmony_domain_1_epochs_total "), std::string::npos);
}

// --- crash recovery from the domain-tagged journal --------------------------

bool write_all(int fd, const void* data, size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    ssize_t n = ::write(fd, p, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

bool read_all(int fd, void* data, size_t size) {
  char* p = static_cast<char*>(data);
  while (size > 0) {
    ssize_t n = ::read(fd, p, size);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    p += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

constexpr int kCrashSteps = 9;

const std::vector<std::string>& crash_groups() {
  static const std::vector<std::string> groups = {"ga", "gb", "gz"};
  return groups;
}

// One step of the partitioned history: registrations across groups, a
// merge, a split, unowned-node events, steady-state re-evaluation.
void child_apply_step(DomainRouter& r, int s) {
  switch (s) {
    case 1: if (!r.register_script(pinned_group_bundle("ga", 1)).ok()) std::abort(); break;
    case 2: if (!r.register_script(pinned_group_bundle("gb", 2)).ok()) std::abort(); break;
    case 3: if (!r.report_external_load("ga-01", 2).ok()) std::abort(); break;
    case 4: if (!r.register_script(bridge_bundle("ga", "gb", 3)).ok()) std::abort(); break;
    case 5: if (!r.set_node_online("gb-01", false).ok()) std::abort(); break;
    case 6: if (!r.unregister(3).ok()) std::abort(); break;
    case 7: if (!r.report_external_load("gz-00", 1).ok()) std::abort(); break;
    case 8: if (!r.register_script(pinned_group_bundle("gz", 4)).ok()) std::abort(); break;
    case 9: if (!r.reevaluate().ok()) std::abort(); break;
  }
}

// Child: a persisted DomainRouter reports its fingerprint after every
// durable step; the parent SIGKILLs it mid-protocol and recovers.
[[noreturn]] void run_child(const std::string& dir, int out_fd, int ack_fd) {
  const std::string cluster = grouped_cluster_script(crash_groups(), 3);
  double clock = 0;
  // The scratch controller carries the cluster for the baseline
  // snapshot; it never hosts an instance.
  Controller scratch;
  if (!scratch.add_nodes_script(cluster).ok()) std::abort();
  if (!scratch.finalize_cluster().ok()) std::abort();
  persist::PersistConfig config;
  config.dir = dir;
  config.snapshot_every_epochs = 0;  // baseline only: partitioned mode
  config.fsync_every_epochs = 0;     // synchronous: every epoch durable
  auto opened = persist::Persistence::open(config, scratch);
  if (!opened.ok()) std::abort();
  auto persistence = std::move(opened).value();

  DomainRouter router;
  router.set_time_source([&clock] { return clock; });
  if (!router.add_nodes_script(cluster).ok()) std::abort();
  if (!router.finalize_cluster().ok()) std::abort();
  router.attach_journal(persistence.get());

  for (int s = 1; s <= kCrashSteps; ++s) {
    clock += 5.0;
    child_apply_step(router, s);
    if (!persistence->flush().ok()) std::abort();
    const std::string print = fingerprint(router);
    uint32_t length = static_cast<uint32_t>(print.size());
    if (!write_all(out_fd, &length, sizeof(length))) std::abort();
    if (!write_all(out_fd, print.data(), print.size())) std::abort();
    char ack = 0;
    if (!read_all(ack_fd, &ack, 1)) std::abort();
  }
  for (;;) pause();
}

class DomainCrashTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "domain_crash_" +
           std::to_string(::getpid()) + "_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    clean();
  }
  void TearDown() override { clean(); }

  void clean() {
    std::remove((dir_ + "/journal.wal").c_str());
    std::remove((dir_ + "/snapshot.hsn").c_str());
    std::remove((dir_ + "/snapshot.tmp").c_str());
    ::rmdir(dir_.c_str());
  }

  std::string run_until_kill(int kill_after) {
    int to_parent[2];
    int to_child[2];
    EXPECT_EQ(::pipe(to_parent), 0);
    EXPECT_EQ(::pipe(to_child), 0);
    pid_t pid = ::fork();
    if (pid == 0) {
      ::close(to_parent[0]);
      ::close(to_child[1]);
      run_child(dir_, to_parent[1], to_child[0]);
    }
    ::close(to_parent[1]);
    ::close(to_child[0]);
    std::string last;
    for (int s = 1; s <= kill_after; ++s) {
      uint32_t length = 0;
      EXPECT_TRUE(read_all(to_parent[0], &length, sizeof(length)));
      std::string print(length, '\0');
      EXPECT_TRUE(read_all(to_parent[0], print.data(), length));
      last = print;
      // The final fingerprint is not acked: the child is parked in
      // read(2) with nothing past the reported state journaled when
      // the SIGKILL lands.
      if (s < kill_after) {
        char ack = 'k';
        EXPECT_TRUE(write_all(to_child[1], &ack, 1));
      }
    }
    EXPECT_EQ(::kill(pid, SIGKILL), 0);
    int wstatus = 0;
    EXPECT_EQ(::waitpid(pid, &wstatus, 0), pid);
    EXPECT_TRUE(WIFSIGNALED(wstatus));
    ::close(to_parent[0]);
    ::close(to_child[1]);
    return last;
  }

  // Recovery replays the merged, domain-tagged journal into one plain
  // controller: decision identity makes that equivalent to re-running
  // every domain, and the per-domain sequence check proves no domain's
  // stream lost or reordered an event.
  std::string recover_fingerprint() {
    Controller recovered;
    persist::PersistConfig config;
    config.dir = dir_;
    config.snapshot_every_epochs = 0;
    auto persistence = persist::Persistence::open(config, recovered);
    EXPECT_TRUE(persistence.ok()) << persistence.error().to_string();
    if (!persistence.ok()) return "";
    EXPECT_TRUE((*persistence)->recovery().recovered);
    return fingerprint(recovered);
  }

  std::string dir_;
};

TEST_F(DomainCrashTest, SigkillAfterEveryStepRecoversTheAckedState) {
  for (int kill_after = 1; kill_after <= kCrashSteps; ++kill_after) {
    SCOPED_TRACE("kill_after=" + std::to_string(kill_after));
    clean();
    const std::string acked = run_until_kill(kill_after);
    ASSERT_FALSE(acked.empty());
    EXPECT_EQ(recover_fingerprint(), acked);
  }
}

}  // namespace
}  // namespace harmony::core
