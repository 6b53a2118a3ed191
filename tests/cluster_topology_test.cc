#include "cluster/topology.h"

#include <gtest/gtest.h>

#include <cmath>
#include <latch>
#include <limits>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace harmony::cluster {
namespace {

Topology make_line() {
  // a --100-- b --40-- c
  Topology topo;
  (void)topo.add_node("a", 1.0, 128).value();
  (void)topo.add_node("b", 1.0, 128).value();
  (void)topo.add_node("c", 1.0, 128).value();
  EXPECT_TRUE(topo.add_link(0, 1, 100, 1.0).ok());
  EXPECT_TRUE(topo.add_link(1, 2, 40, 2.0).ok());
  return topo;
}

TEST(Topology, AddNodeAssignsSequentialIds) {
  Topology topo;
  EXPECT_EQ(topo.add_node("x", 1.0, 64).value(), 0u);
  EXPECT_EQ(topo.add_node("y", 2.0, 32).value(), 1u);
  EXPECT_EQ(topo.node_count(), 2u);
  EXPECT_EQ(topo.node(1).hostname, "y");
  EXPECT_DOUBLE_EQ(topo.node(1).speed, 2.0);
}

TEST(Topology, RejectsBadNodes) {
  Topology topo;
  EXPECT_FALSE(topo.add_node("", 1.0, 64).ok());
  EXPECT_FALSE(topo.add_node("x", 0.0, 64).ok());
  EXPECT_FALSE(topo.add_node("x", -1.0, 64).ok());
  EXPECT_FALSE(topo.add_node("x", 1.0, -5).ok());
  ASSERT_TRUE(topo.add_node("x", 1.0, 64).ok());
  EXPECT_FALSE(topo.add_node("x", 1.0, 64).ok()) << "duplicate hostname";
}

TEST(Topology, RejectsNonFiniteNodes) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Topology topo;
  EXPECT_FALSE(topo.add_node("x", nan, 64).ok()) << "speed nan";
  EXPECT_FALSE(topo.add_node("x", inf, 64).ok()) << "speed inf";
  EXPECT_FALSE(topo.add_node("x", 1.0, nan).ok()) << "memory nan";
  EXPECT_FALSE(topo.add_node("x", 1.0, inf).ok()) << "memory inf";
  EXPECT_EQ(topo.node_count(), 0u);
}

TEST(Topology, FindByHostname) {
  Topology topo = make_line();
  EXPECT_EQ(topo.find_by_hostname("b").value(), 1u);
  EXPECT_FALSE(topo.find_by_hostname("nope").ok());
}

TEST(Topology, RejectsBadLinks) {
  Topology topo = make_line();
  EXPECT_FALSE(topo.add_link(0, 9, 10).ok());
  EXPECT_FALSE(topo.add_link(0, 0, 10).ok());
  EXPECT_FALSE(topo.add_link(0, 1, 0).ok());
  EXPECT_FALSE(topo.add_link(0, 1, -5).ok());
  EXPECT_FALSE(topo.add_link(0, 1, 10, -1).ok());
}

TEST(Topology, RejectsNonFiniteLinks) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Topology topo = make_line();
  EXPECT_FALSE(topo.add_link(0, 2, nan).ok()) << "bandwidth nan";
  EXPECT_FALSE(topo.add_link(0, 2, inf).ok()) << "bandwidth inf";
  EXPECT_FALSE(topo.add_link(0, 2, 10, nan).ok()) << "latency nan";
  EXPECT_FALSE(topo.add_link(0, 2, 10, inf).ok()) << "latency inf";
  EXPECT_FALSE(topo.add_link(0, 1, nan).ok()) << "replacement bandwidth nan";
  EXPECT_EQ(topo.links().size(), 2u);
  EXPECT_DOUBLE_EQ(topo.link(0, 1)->bandwidth_mbps, 100);
}

TEST(Topology, LinkLookupIsSymmetric) {
  Topology topo = make_line();
  const LinkInfo* ab = topo.link(0, 1);
  const LinkInfo* ba = topo.link(1, 0);
  ASSERT_NE(ab, nullptr);
  EXPECT_EQ(ab, ba);
  EXPECT_DOUBLE_EQ(ab->bandwidth_mbps, 100);
  EXPECT_EQ(topo.link(0, 2), nullptr) << "no direct a-c link";
}

TEST(Topology, AddLinkReplacesExisting) {
  Topology topo = make_line();
  ASSERT_TRUE(topo.add_link(0, 1, 55, 3.0).ok());
  EXPECT_DOUBLE_EQ(topo.link(0, 1)->bandwidth_mbps, 55);
  EXPECT_EQ(topo.links().size(), 2u) << "replaced, not appended";
}

TEST(Topology, PathBandwidthIsBottleneck) {
  Topology topo = make_line();
  EXPECT_DOUBLE_EQ(topo.path_bandwidth(0, 2), 40.0);
  EXPECT_DOUBLE_EQ(topo.path_bandwidth(0, 1), 100.0);
  EXPECT_DOUBLE_EQ(topo.route(0, 2).latency_ms, 3.0);
}

TEST(Topology, SelfPathIsInfinite) {
  Topology topo = make_line();
  EXPECT_TRUE(std::isinf(topo.path_bandwidth(1, 1)));
  EXPECT_DOUBLE_EQ(topo.route(1, 1).latency_ms, 0.0);
  EXPECT_TRUE(topo.connected(1, 1));
}

TEST(Topology, DisconnectedNodes) {
  Topology topo;
  (void)topo.add_node("a", 1, 64).value();
  (void)topo.add_node("b", 1, 64).value();
  EXPECT_DOUBLE_EQ(topo.path_bandwidth(0, 1), 0.0);
  EXPECT_FALSE(topo.connected(0, 1));
  EXPECT_TRUE(topo.route(0, 1).links.empty());
}

TEST(Topology, WidestPathPrefersHigherBottleneck) {
  // a-b direct 10; a-c-b via 100/100: widest path must go around.
  Topology topo;
  (void)topo.add_node("a", 1, 64).value();
  (void)topo.add_node("b", 1, 64).value();
  (void)topo.add_node("c", 1, 64).value();
  ASSERT_TRUE(topo.add_link(0, 1, 10, 0.1).ok());
  ASSERT_TRUE(topo.add_link(0, 2, 100, 1.0).ok());
  ASSERT_TRUE(topo.add_link(2, 1, 100, 1.0).ok());
  EXPECT_DOUBLE_EQ(topo.path_bandwidth(0, 1), 100.0);
  EXPECT_DOUBLE_EQ(topo.route(0, 1).latency_ms, 2.0);
  EXPECT_EQ(topo.route(0, 1).links.size(), 2u);
}

TEST(Topology, EqualBandwidthPrefersLowerLatency) {
  // Two 100-wide paths; one with lower total latency.
  Topology topo;
  for (const char* name : {"a", "b", "c", "d"}) {
    (void)topo.add_node(name, 1, 64).value();
  }
  ASSERT_TRUE(topo.add_link(0, 2, 100, 5.0).ok());  // a-c
  ASSERT_TRUE(topo.add_link(2, 1, 100, 5.0).ok());  // c-b  (total 10)
  ASSERT_TRUE(topo.add_link(0, 3, 100, 1.0).ok());  // a-d
  ASSERT_TRUE(topo.add_link(3, 1, 100, 1.0).ok());  // d-b  (total 2)
  EXPECT_DOUBLE_EQ(topo.route(0, 1).latency_ms, 2.0);
}

TEST(Topology, PathLinksConnectEndpoints) {
  Topology topo = make_line();
  auto path = topo.route(0, 2).links;
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(topo.links()[path[0]].a, 0u);
  EXPECT_EQ(topo.links()[path[1]].b, 2u);
}

// An SP-2-like full switch: every pair connected at the same bandwidth.
TEST(Topology, FullSwitchAllPairsEqual) {
  Topology topo;
  const int n = 8;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(topo.add_node("sp2-" + std::to_string(i), 1.0, 256).ok());
  }
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      ASSERT_TRUE(topo.add_link(i, j, 320, 0.05).ok());
    }
  }
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      EXPECT_DOUBLE_EQ(topo.path_bandwidth(i, j), 320.0);
      EXPECT_EQ(topo.route(i, j).links.size(), 1u);
    }
  }
}

// Bottleneck of the search-based route: what path_bandwidth must equal.
double route_bottleneck(const Topology& topo, NodeId a, NodeId b) {
  if (a == b) return std::numeric_limits<double>::infinity();
  const auto links = topo.route(a, b).links;
  if (links.empty()) return 0.0;
  double bottleneck = std::numeric_limits<double>::infinity();
  for (size_t idx : links) {
    bottleneck = std::min(bottleneck, topo.links()[idx].bandwidth_mbps);
  }
  return bottleneck;
}

void expect_index_matches_search(const Topology& topo, const char* stage) {
  const auto n = static_cast<NodeId>(topo.node_count());
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      const double expected = route_bottleneck(topo, a, b);
      // Exact: the index returns the very link bandwidth that bounds
      // the widest path.
      ASSERT_EQ(topo.path_bandwidth(a, b), expected)
          << stage << ": " << a << " -> " << b;
      ASSERT_EQ(topo.connected(a, b), a == b || expected > 0.0);
    }
  }
}

// Random graphs with repeated bandwidths (ties) and several components:
// the spanning-forest index answers every pair exactly as the widest
// path search does, before and after links are replaced in place.
TEST(Topology, PathIndexMatchesWidestPathSearch) {
  const double kBandwidths[] = {10, 40, 100, 100, 320, 0.5};
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    Topology topo;
    const int n = static_cast<int>(rng.next_int(2, 24));
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(topo.add_node("n" + std::to_string(i), 1.0, 64).ok());
    }
    const int edges = static_cast<int>(rng.next_int(0, 2 * n));
    for (int e = 0; e < edges; ++e) {
      auto a = static_cast<NodeId>(rng.next_below(n));
      auto b = static_cast<NodeId>(rng.next_below(n));
      if (a == b) continue;
      double bandwidth = rng.next_bool()
                             ? kBandwidths[rng.next_below(6)]
                             : rng.next_double(0.1, 1000.0);
      ASSERT_TRUE(topo.add_link(a, b, bandwidth, rng.next_double(0, 2)).ok());
    }
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_index_matches_search(topo, "initial");
    // Narrow and widen existing links after the index was built.
    const size_t links = topo.links().size();
    for (size_t k = 0; k < links && k < 6; ++k) {
      const LinkInfo link = topo.links()[rng.next_below(links)];
      double bandwidth = k % 2 == 0 ? link.bandwidth_mbps / 4
                                    : link.bandwidth_mbps * 3;
      ASSERT_TRUE(topo.add_link(link.a, link.b, bandwidth).ok());
    }
    EXPECT_EQ(topo.links().size(), links) << "replaced, not appended";
    expect_index_matches_search(topo, "replaced");
    // A new node starts disconnected from everything.
    ASSERT_TRUE(topo.add_node("late", 1.0, 64).ok());
    expect_index_matches_search(topo, "new node");
  }
}

// The lazily built path index is safe to share across threads. Readers
// released together race to the first query's build; all must see the
// same, complete index.
TEST(Topology, ConcurrentReadersShareOneIndex) {
  constexpr NodeId n = 2000;
  constexpr int kReaders = 4;
  Topology topo;
  for (NodeId i = 0; i < n; ++i) {
    ASSERT_TRUE(topo.add_node("n" + std::to_string(i), 1.0, 64).ok());
  }
  Rng rng(7);
  for (NodeId i = 1; i < n; ++i) {
    if (i % 400 == 0) continue;  // leave a few separate components
    auto parent = static_cast<NodeId>(rng.next_below(i));
    ASSERT_TRUE(topo.add_link(parent, i, rng.next_double(1, 500)).ok());
    auto extra = static_cast<NodeId>(rng.next_below(i));
    if (extra != parent) {
      ASSERT_TRUE(topo.add_link(extra, i, rng.next_double(1, 500)).ok());
    }
  }
  struct Probe {
    NodeId a, b;
    double expected;
  };
  std::vector<Probe> probes;
  for (int k = 0; k < 200; ++k) {
    auto a = static_cast<NodeId>(rng.next_below(n));
    auto b = static_cast<NodeId>(rng.next_below(n));
    probes.push_back({a, b, route_bottleneck(topo, a, b)});
  }
  std::latch start(kReaders);
  std::vector<int> mismatches(kReaders, 0);
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      start.arrive_and_wait();  // the index is still unbuilt here
      for (const Probe& probe : probes) {
        if (topo.path_bandwidth(probe.a, probe.b) != probe.expected) {
          ++mismatches[t];
        }
      }
    });
  }
  for (auto& reader : readers) reader.join();
  for (int t = 0; t < kReaders; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "reader " << t;
  }
}

}  // namespace
}  // namespace harmony::cluster
