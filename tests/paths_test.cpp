// Tests for shortest paths, routing constraints (the GPU-relay rule), path
// latency math — including the paper's Fig. 2 numbers — and the memoizing
// PathOracle.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "topology/builders.hpp"
#include "topology/paths.hpp"

namespace hero::topo {
namespace {

Graph line_graph() {
  // gpu0 - sw0 - sw1 - gpu1, 100 Gbps everywhere, 1 us hops.
  Graph g;
  const NodeId g0 = g.add_gpu("g0", GpuModel::kA100_40, 1, 0);
  const NodeId s0 = g.add_switch("s0", NodeKind::kAccessSwitch);
  const NodeId s1 = g.add_switch("s1", NodeKind::kAccessSwitch);
  const NodeId g1 = g.add_gpu("g1", GpuModel::kA100_40, 1, 1);
  g.add_edge(g0, s0, LinkKind::kEthernet, 100 * units::Gbps);
  g.add_edge(s0, s1, LinkKind::kEthernet, 100 * units::Gbps);
  g.add_edge(s1, g1, LinkKind::kEthernet, 100 * units::Gbps);
  return g;
}

TEST(ShortestPath, FindsLine) {
  const Graph g = line_graph();
  const auto p = shortest_path(g, g.find("g0"), g.find("g1"));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->hops(), 3u);
  EXPECT_EQ(p->src(), g.find("g0"));
  EXPECT_EQ(p->dst(), g.find("g1"));
  EXPECT_EQ(p->nodes.size(), 4u);
}

TEST(ShortestPath, SameNodeIsEmptyPath) {
  const Graph g = line_graph();
  const auto p = shortest_path(g, g.find("g0"), g.find("g0"));
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->empty());
}

TEST(ShortestPath, StoreAndForwardLatency) {
  const Graph g = line_graph();
  const auto p = shortest_path(g, g.find("g0"), g.find("g1"));
  // 3 hops x (1MB / 12.5GB/s + 1us) = 3 x 81us.
  EXPECT_NEAR(raw(p->latency(g, 1.0 * units::MB)),
              raw(3 * 81.0 * units::us),
              1e-9);
}

TEST(ShortestPath, BottleneckBandwidth) {
  Graph g;
  const NodeId a = g.add_gpu("a", GpuModel::kA100_40, 1, 0);
  const NodeId s = g.add_switch("s", NodeKind::kAccessSwitch);
  const NodeId b = g.add_gpu("b", GpuModel::kA100_40, 1, 1);
  g.add_edge(a, s, LinkKind::kEthernet, 100 * units::Gbps);
  g.add_edge(s, b, LinkKind::kEthernet, 25 * units::Gbps);
  const auto p = shortest_path(g, a, b);
  EXPECT_DOUBLE_EQ(raw(p->bottleneck(g)), raw(25 * units::Gbps));
}

TEST(ShortestPath, UnreachableReturnsNullopt) {
  Graph g;
  const NodeId a = g.add_gpu("a", GpuModel::kA100_40, 1, 0);
  const NodeId b = g.add_gpu("b", GpuModel::kA100_40, 1, 1);
  (void)b;
  g.add_gpu("c", GpuModel::kA100_40, 1, 2);
  EXPECT_FALSE(shortest_path(g, a, b).has_value());
}

TEST(ShortestPath, EthernetOnlyConstraintExcludesNvlink) {
  Graph g;
  const NodeId a = g.add_gpu("a", GpuModel::kA100_40, 1, 0);
  const NodeId b = g.add_gpu("b", GpuModel::kA100_40, 1, 0);
  g.add_edge(a, b, LinkKind::kNvLink, 600 * units::GBps);
  PathOptions opts;
  opts.constraints.allow_nvlink = false;
  EXPECT_FALSE(shortest_path(g, a, b, opts).has_value());
  EXPECT_TRUE(shortest_path(g, a, b).has_value());
}

TEST(ShortestPath, ServersNeverRelay) {
  // g0 - ps - g1 with Ethernet: unreachable because servers do not forward.
  Graph g;
  const NodeId g0 = g.add_gpu("g0", GpuModel::kA100_40, 1, 0);
  const NodeId ps = g.add_server("ps");
  const NodeId g1 = g.add_gpu("g1", GpuModel::kA100_40, 1, 1);
  g.add_edge(g0, ps, LinkKind::kEthernet, 100 * units::Gbps);
  g.add_edge(ps, g1, LinkKind::kEthernet, 100 * units::Gbps);
  EXPECT_FALSE(shortest_path(g, g0, g1).has_value());
  // But the server itself is reachable as an endpoint.
  EXPECT_TRUE(shortest_path(g, g0, ps).has_value());
}

TEST(ShortestPath, GpuRelayRequiresNvlinkSide) {
  // sw0 - gX - sw1 all Ethernet: gX must not relay switch-to-switch
  // traffic.
  Graph g;
  const NodeId s0 = g.add_switch("s0", NodeKind::kAccessSwitch);
  const NodeId gx = g.add_gpu("gx", GpuModel::kA100_40, 1, 0);
  const NodeId s1 = g.add_switch("s1", NodeKind::kAccessSwitch);
  const NodeId g0 = g.add_gpu("g0", GpuModel::kA100_40, 1, 1);
  const NodeId g1 = g.add_gpu("g1", GpuModel::kA100_40, 1, 2);
  g.add_edge(g0, s0, LinkKind::kEthernet, 100 * units::Gbps);
  g.add_edge(s0, gx, LinkKind::kEthernet, 100 * units::Gbps);
  g.add_edge(gx, s1, LinkKind::kEthernet, 100 * units::Gbps);
  g.add_edge(s1, g1, LinkKind::kEthernet, 100 * units::Gbps);
  EXPECT_FALSE(shortest_path(g, g0, g1).has_value());
}

TEST(ShortestPath, NvlinkForwardingAllowed) {
  // Fig. 2(b): GN1 -> (NVLink) GN2 -> S2 is a legal relay.
  const Graph g = make_fig2_example();
  const auto p = shortest_path(g, g.find("GN1"), g.find("S2"));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->hops(), 2u);
  EXPECT_TRUE(p->uses_nvlink(g));
  EXPECT_EQ(p->nodes[1], g.find("GN2"));
}

TEST(Fig2, HomogeneousCollectionIs160us) {
  // Ethernet-only: GN1 must reach core S1 over two 100G hops -> ~160 us
  // for 1 MB (paper SII-C).
  const Graph g = make_fig2_example();
  PathOptions opts;
  opts.constraints.allow_nvlink = false;
  const auto p = shortest_path(g, g.find("GN1"), g.find("S1"), opts);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->hops(), 2u);
  EXPECT_NEAR(raw(p->latency(g, 1.0 * units::MB)),
              raw(162.0 * units::us),
              raw(1.0 * units::us));
}

TEST(Fig2, HeterogeneousCollectionIs90us) {
  // NVLink forwarding reaches access switch S2 in one Ethernet hop:
  // ~43% lower than homogeneous (paper: ~90 us vs ~160 us).
  const Graph g = make_fig2_example();
  const auto p = shortest_path(g, g.find("GN1"), g.find("S2"));
  ASSERT_TRUE(p.has_value());
  const Time hetero = p->latency(g, 1.0 * units::MB);
  EXPECT_LT(hetero, 95.0 * units::us);
  EXPECT_GT(hetero, 80.0 * units::us);
}

TEST(NvlinkDirect, AllowsSingleHopNvlinkWithoutForwarding) {
  // allow_nvlink_direct: the direct intra-server edge works, but the
  // NVLink-forwarding detour of Fig. 2(b) stays forbidden.
  const Graph g = make_fig2_example();
  PathOptions opts;
  opts.constraints.allow_nvlink = false;
  opts.constraints.allow_nvlink_direct = true;
  // GN1 -> GN2: the direct NVLink edge.
  const auto direct = shortest_path(g, g.find("GN1"), g.find("GN2"), opts);
  ASSERT_TRUE(direct.has_value());
  EXPECT_EQ(direct->hops(), 1u);
  EXPECT_TRUE(direct->uses_nvlink(g));
  // GN1 -> S2 must NOT go through GN2's NIC: 3 Ethernet hops instead of
  // the heterogeneous 2-hop NVLink detour.
  const auto to_s2 = shortest_path(g, g.find("GN1"), g.find("S2"), opts);
  ASSERT_TRUE(to_s2.has_value());
  EXPECT_FALSE(to_s2->uses_nvlink(g));
}

TEST(NvlinkDirect, PrefersCheaperOfDirectAndEthernet) {
  // When an Ethernet route is cheaper than NVLink (contrived tiny NVLink),
  // the direct override must not force the worse path.
  Graph g;
  const NodeId a = g.add_gpu("a", GpuModel::kA100_40, 1, 0);
  const NodeId b = g.add_gpu("b", GpuModel::kA100_40, 1, 0);
  const NodeId s = g.add_switch("s", NodeKind::kAccessSwitch);
  g.add_edge(a, b, LinkKind::kNvLink, 1 * units::Mbps, 0.0);  // terrible
  g.add_edge(a, s, LinkKind::kEthernet, 100 * units::Gbps, 0.0);
  g.add_edge(s, b, LinkKind::kEthernet, 100 * units::Gbps, 0.0);
  PathOptions opts;
  opts.constraints.allow_nvlink = false;
  opts.constraints.allow_nvlink_direct = true;
  const auto p = shortest_path(g, a, b, opts);
  ASSERT_TRUE(p.has_value());
  EXPECT_FALSE(p->uses_nvlink(g));
}

TEST(NvlinkDirect, PathOracleAppliesOverride) {
  const Graph g = make_fig2_example();
  PathOptions opts;
  opts.constraints.allow_nvlink = false;
  opts.constraints.allow_nvlink_direct = true;
  const PathOracle oracle(g, opts);
  const auto p = oracle.path(g.find("GN1"), g.find("GN2"));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->hops(), 1u);
  EXPECT_TRUE(p->uses_nvlink(g));
}

TEST(AlternatePaths, ReturnsDistinctRoutes) {
  // Diamond: a - {s0|s1} - b.
  Graph g;
  const NodeId a = g.add_gpu("a", GpuModel::kA100_40, 1, 0);
  const NodeId s0 = g.add_switch("s0", NodeKind::kAccessSwitch);
  const NodeId s1 = g.add_switch("s1", NodeKind::kAccessSwitch);
  const NodeId b = g.add_gpu("b", GpuModel::kA100_40, 1, 1);
  g.add_edge(a, s0, LinkKind::kEthernet, 100 * units::Gbps);
  g.add_edge(s0, b, LinkKind::kEthernet, 100 * units::Gbps);
  g.add_edge(a, s1, LinkKind::kEthernet, 100 * units::Gbps);
  g.add_edge(s1, b, LinkKind::kEthernet, 100 * units::Gbps);
  const auto alts = alternate_paths(g, a, b, 3);
  ASSERT_EQ(alts.size(), 2u);
  EXPECT_NE(alts[0].edges, alts[1].edges);
}

TEST(AlternatePaths, FirstIsShortest) {
  const Graph g = make_testbed();
  const auto gpus = g.gpus();
  const auto alts = alternate_paths(g, gpus[0], gpus[5], 3);
  ASSERT_FALSE(alts.empty());
  const auto direct = shortest_path(g, gpus[0], gpus[5]);
  ASSERT_TRUE(direct.has_value());
  EXPECT_EQ(alts[0].edges, direct->edges);
}

TEST(AlternatePaths, ZeroKReturnsEmpty) {
  const Graph g = line_graph();
  EXPECT_TRUE(alternate_paths(g, g.find("g0"), g.find("g1"), 0).empty());
}

TEST(PathOracle, SelfPathIsEmpty) {
  const Graph g = line_graph();
  const PathOracle oracle(g);
  const auto p = oracle.path(g.find("g0"), g.find("g0"));
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->empty());
  EXPECT_DOUBLE_EQ(raw(oracle.latency(g.find("g0"), g.find("g0"), 1e6)),
                   raw(0.0));
}

TEST(PathOracle, MatchesSinglePairQueriesExactly) {
  // The oracle must be a pure memoization of shortest_path: identical node
  // and edge sequences for every pair, under both constraint regimes
  // (including the homogeneous direct-NVLink override).
  const Graph g = make_testbed();
  for (const bool hetero : {true, false}) {
    PathOptions opts;
    opts.constraints =
        PathConstraints{hetero, true, /*allow_nvlink_direct=*/!hetero};
    const PathOracle oracle(g, opts);
    for (NodeId a = 0; a < g.node_count(); ++a) {
      for (NodeId b = 0; b < g.node_count(); ++b) {
        const auto direct = shortest_path(g, a, b, opts);
        const auto cached = oracle.path(a, b);
        ASSERT_EQ(direct.has_value(), cached.has_value())
            << a << " -> " << b;
        if (!direct) continue;
        EXPECT_EQ(direct->nodes, cached->nodes) << a << " -> " << b;
        EXPECT_EQ(direct->edges, cached->edges) << a << " -> " << b;
        EXPECT_EQ(direct->latency(g, units::MiB),
                  oracle.latency(a, b, units::MiB));
      }
    }
  }
}

/// Two pods of a k = 4 fat-tree (4 cores, 2 aggregation + 2 edge switches
/// per pod, 2 GPUs per edge switch) at uniform 100 Gbps, so most pairs tie
/// between several equal-cost routes. The two GPUs under an edge switch
/// share a server and an NVLink edge, and one GPU hangs off nothing.
Graph tied_fat_tree() {
  Graph g;
  const Bandwidth eth = 100.0 * units::Gbps;
  std::vector<NodeId> cores;
  for (int c = 0; c < 4; ++c) {
    cores.push_back(g.add_switch("core" + std::to_string(c),
                                 NodeKind::kCoreSwitch, 8));
  }
  std::int32_t server = 0;
  for (int pod = 0; pod < 2; ++pod) {
    const std::string tag = "p" + std::to_string(pod);
    std::vector<NodeId> aggs;
    for (int a = 0; a < 2; ++a) {
      aggs.push_back(g.add_switch(tag + "agg" + std::to_string(a),
                                  NodeKind::kAccessSwitch, 8));
      g.add_edge(aggs[a], cores[2 * a], LinkKind::kEthernet, eth);
      g.add_edge(aggs[a], cores[2 * a + 1], LinkKind::kEthernet, eth);
    }
    for (int e = 0; e < 2; ++e) {
      const NodeId edge = g.add_switch(tag + "edge" + std::to_string(e),
                                       NodeKind::kAccessSwitch);
      for (NodeId agg : aggs) g.add_edge(edge, agg, LinkKind::kEthernet, eth);
      NodeId prev = kInvalidNode;
      for (int h = 0; h < 2; ++h) {
        const NodeId gpu =
            g.add_gpu(tag + "e" + std::to_string(e) + "g" + std::to_string(h),
                      GpuModel::kA100_40, 40.0 * units::GB, server);
        g.add_edge(gpu, edge, LinkKind::kEthernet, eth);
        if (prev != kInvalidNode) {
          g.add_edge(prev, gpu, LinkKind::kNvLink, 600.0 * units::GBps, 0.5 * units::us);
        }
        prev = gpu;
      }
      ++server;
    }
  }
  g.add_gpu("island", GpuModel::kA100_40, 40.0 * units::GB, server);
  return g;
}

/// PathOracle::latency against the Path it answers for, bit for bit, on
/// every ordered pair of `g`: both constraint regimes, four sizes, static
/// capacities and a residual-bandwidth vector. Returns the unreachable
/// pairs seen (each must read infinity).
std::size_t expect_latency_matches_path_latency(const Graph& g) {
  std::vector<Bandwidth> residual(g.edge_count());
  Rng rng(19);
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    residual[e] = g.edge(e).capacity * rng.uniform(0.05, 1.0);
  }
  const Bytes sizes[] = {0.0, 64.0 * units::KiB, 1.0 * units::MiB,
                         1.0 * units::GiB};
  std::size_t unreachable = 0;
  for (const bool hetero : {true, false}) {
    for (const bool use_residual : {false, true}) {
      PathOptions opts;
      opts.constraints =
          PathConstraints{hetero, true, /*allow_nvlink_direct=*/!hetero};
      if (use_residual) opts.residual_bw = residual;
      const PathOracle oracle(g, opts);
      for (NodeId a = 0; a < g.node_count(); ++a) {
        for (NodeId b = 0; b < g.node_count(); ++b) {
          const std::optional<Path> p = oracle.path(a, b);
          for (const Bytes bytes : sizes) {
            const Time got = oracle.latency(a, b, bytes);
            if (!p) {
              EXPECT_TRUE(std::isinf(raw(got))) << a << " -> " << b;
              continue;
            }
            EXPECT_EQ(raw(got), raw(p->latency(g, bytes, opts.residual_bw)))
                << a << " -> " << b << " at " << raw(bytes) << " B, hetero "
                << hetero << ", residual " << use_residual;
          }
          if (!p) ++unreachable;
          if (a == b) {
            EXPECT_EQ(raw(oracle.latency(a, b, units::GiB)), 0.0);
          }
        }
      }
    }
  }
  return unreachable;
}

TEST(PathOracle, LatencyMatchesPathLatencyExactly) {
  // No Path is built behind latency(): it walks the source's Dijkstra
  // tree, so it has to agree with the route path() returns, including the
  // homogeneous direct-NVLink override and the summation order.
  EXPECT_EQ(expect_latency_matches_path_latency(make_testbed()), 0u);
  FleetClusterOptions fleet;
  fleet.racks = 4;
  EXPECT_EQ(expect_latency_matches_path_latency(make_fleet_cluster(fleet)),
            0u);
  const Graph tree = tied_fat_tree();
  // The island reaches nothing and nothing reaches it: 2 (n - 1) pairs in
  // each of the four regime x residual sweeps.
  EXPECT_EQ(expect_latency_matches_path_latency(tree),
            4 * 2 * (tree.node_count() - 1));
}

TEST(PathOracle, SolvesEachSourceOnce) {
  const Graph g = make_testbed();
  const PathOracle oracle(g);
  EXPECT_EQ(oracle.sources_solved(), 0u);
  const NodeId src = g.gpus()[0];
  for (NodeId sw : g.switches()) (void)oracle.path(src, sw);
  EXPECT_EQ(oracle.sources_solved(), 1u);
  (void)oracle.path(g.gpus()[1], g.switches()[0]);
  EXPECT_EQ(oracle.sources_solved(), 2u);
}

TEST(PathOracle, UnreachableLatencyIsInfinite) {
  // Ethernet-forbidden: a cross-server pair has no route.
  const Graph g = make_testbed();
  PathOptions opts;
  opts.constraints.allow_ethernet = false;
  const PathOracle oracle(g, opts);
  const auto gpus = g.gpus();
  const NodeId far = gpus.back();  // different server than gpus[0]
  ASSERT_NE(g.node(gpus[0]).gpu.server, g.node(far).gpu.server);
  EXPECT_FALSE(oracle.path(gpus[0], far).has_value());
  EXPECT_TRUE(std::isinf(raw(oracle.latency(gpus[0], far, units::MiB))));
}

TEST(PathOracle, ConcurrentQueriesSolveEachSourceOnce) {
  // The planner's prefill and decode threads query overlapping sources on
  // one oracle: every source must be solved exactly once and both threads
  // must see the same routes.
  const Graph g = make_testbed();
  const PathOracle oracle(g);
  std::vector<NodeId> sources = g.switches();
  const auto gpus = g.gpus();
  sources.insert(sources.end(), gpus.begin(), gpus.begin() + 4);
  std::vector<std::optional<Path>> seen[2];
  auto query = [&](std::size_t t) {
    for (NodeId src : sources) {
      for (NodeId dst : gpus) seen[t].push_back(oracle.path(src, dst));
    }
  };
  {
    std::jthread a(query, 0);
    std::jthread b(query, 1);
  }
  ASSERT_EQ(seen[0].size(), seen[1].size());
  for (std::size_t i = 0; i < seen[0].size(); ++i) {
    ASSERT_EQ(seen[0][i].has_value(), seen[1][i].has_value()) << i;
    if (!seen[0][i]) continue;
    EXPECT_EQ(seen[0][i]->nodes, seen[1][i]->nodes) << i;
    EXPECT_EQ(seen[0][i]->edges, seen[1][i]->edges) << i;
  }
  EXPECT_EQ(oracle.sources_solved(), sources.size());
}

TEST(PathOracle, AlternatesMatchAlternatePaths) {
  // alternates() must be a pure memoization of alternate_paths() for every
  // GPU pair, heterogeneous and Ethernet-only, on both fabrics. The fleet
  // keeps its 4 racks and 2 cores but shrinks each rack, so the all-pairs
  // sweep stays quick under the sanitizers.
  FleetClusterOptions fleet;
  fleet.servers_per_rack = 2;
  fleet.gpus_per_server = 4;
  for (const Graph& g : {make_testbed(), make_fleet_cluster(fleet)}) {
    const std::vector<NodeId> gpus = g.gpus();
    for (const bool hetero : {true, false}) {
      PathOptions opts;
      opts.constraints.allow_nvlink = hetero;
      const PathOracle oracle(g, opts);
      std::size_t pairs = 0;
      for (NodeId a : gpus) {
        for (NodeId b : gpus) {
          if (a == b) continue;
          const std::vector<Path> direct = alternate_paths(g, a, b, 3, opts);
          const std::vector<Path>& cached = oracle.alternates(a, b, 3);
          ++pairs;
          ASSERT_EQ(direct.size(), cached.size()) << a << " -> " << b;
          for (std::size_t i = 0; i < direct.size(); ++i) {
            ASSERT_EQ(direct[i].nodes, cached[i].nodes) << a << " -> " << b;
            ASSERT_EQ(direct[i].edges, cached[i].edges) << a << " -> " << b;
          }
        }
      }
      EXPECT_EQ(oracle.alternates_solved(), pairs);
      // A repeat query is served from the memo.
      (void)oracle.alternates(gpus.front(), gpus.back(), 3);
      EXPECT_EQ(oracle.alternates_solved(), pairs);
      // k is part of the key.
      (void)oracle.alternates(gpus.front(), gpus.back(), 2);
      EXPECT_EQ(oracle.alternates_solved(), pairs + 1);
      EXPECT_EQ(oracle.sources_solved(), 0u);
    }
  }
}

TEST(PathOracle, ConcurrentAlternatesSolveEachPairOnce) {
  // KV routing may query one oracle from several threads: every pair must
  // be searched exactly once and all threads must see the same routes.
  const Graph g = make_testbed();
  const PathOracle oracle(g);
  const std::vector<NodeId> gpus = g.gpus();
  std::vector<const std::vector<Path>*> seen[3];
  auto query = [&](std::size_t t) {
    for (NodeId a : gpus) {
      for (NodeId b : gpus) {
        if (a != b) seen[t].push_back(&oracle.alternates(a, b, 3));
      }
    }
  };
  {
    std::jthread a(query, 0);
    std::jthread b(query, 1);
    std::jthread c(query, 2);
  }
  ASSERT_EQ(seen[0].size(), gpus.size() * (gpus.size() - 1));
  EXPECT_EQ(seen[0], seen[1]);
  EXPECT_EQ(seen[0], seen[2]);
  EXPECT_EQ(oracle.alternates_solved(), seen[0].size());
  for (const std::vector<Path>* alts : seen[0]) EXPECT_FALSE(alts->empty());
}

TEST(PathOracle, FailingGraphChangeTripsInvariant) {
  // A memo must never serve routes from a graph that changed under it.
  if (!check::enabled()) {
    GTEST_SKIP() << "checks compiled out (build with --preset validate)";
  }
  static int failures = 0;
  failures = 0;
  check::set_failure_handler(
      [](const char*, const char*, int, const char*, const std::string&) {
        ++failures;
      });
  Graph g = line_graph();
  const PathOracle oracle(g);
  (void)oracle.path(g.find("g0"), g.find("g1"));
  g.node(g.find("g0")).gpu.memory_free = 0;  // bookkeeping, not a change
  (void)oracle.alternates(g.find("g0"), g.find("g1"), 2);
  EXPECT_EQ(failures, 0);
  g.edge(1).capacity *= 0.5;
  (void)oracle.path(g.find("g0"), g.find("g1"));
  (void)oracle.alternates(g.find("g0"), g.find("g1"), 2);
  check::set_failure_handler(nullptr);
  EXPECT_EQ(failures, 2);
}

TEST(PathOracle, RespectsResidualBandwidth) {
  const Graph g = line_graph();
  std::vector<Bandwidth> residual(g.edge_count(), 100 * units::Gbps);
  residual[1] = 10 * units::Gbps;  // congested middle hop
  PathOptions opts;
  opts.residual_bw = residual;
  const PathOracle oracle(g, opts);
  const Time t = oracle.latency(g.find("g0"), g.find("g1"), 1.0 * units::MB);
  // 80us + 800us + 80us + 3us hop latencies.
  EXPECT_NEAR(raw(t), raw(963.0 * units::us), raw(1.0 * units::us));
}

/// Property: on random pure-switch graphs Dijkstra's latencies satisfy the
/// triangle inequality and symmetric pairs agree.
class RandomGraphTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomGraphTest, MetricProperties) {
  Rng rng(GetParam());
  Graph g;
  const std::size_t n = 8;
  std::vector<NodeId> nodes;
  for (std::size_t i = 0; i < n; ++i) {
    nodes.push_back(
        g.add_switch("s" + std::to_string(i), NodeKind::kAccessSwitch));
  }
  // Random connected graph: spanning chain + extra edges.
  for (std::size_t i = 1; i < n; ++i) {
    g.add_edge(nodes[i - 1], nodes[i], LinkKind::kEthernet,
               rng.uniform(10, 100) * units::Gbps);
  }
  for (int extra = 0; extra < 6; ++extra) {
    const NodeId a = nodes[rng.uniform_int(n)];
    const NodeId b = nodes[rng.uniform_int(n)];
    if (a != b) {
      g.add_edge(a, b, LinkKind::kEthernet,
                 rng.uniform(10, 100) * units::Gbps);
    }
  }
  const PathOracle oracle(g);
  const Bytes bytes = 1.0 * units::MB;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const Time dij = oracle.latency(nodes[i], nodes[j], bytes);
      EXPECT_NEAR(raw(dij),
                  raw(oracle.latency(nodes[j], nodes[i], bytes)),
                  1e-12);
      for (std::size_t k = 0; k < n; ++k) {
        EXPECT_LE(dij, oracle.latency(nodes[i], nodes[k], bytes) +
                           oracle.latency(nodes[k], nodes[j], bytes) + 1e-12);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace hero::topo
