// Tests for collective cost models (Eq. 8-11) and the execution engine:
// ring, INA (sync/async with fallback), and hierarchical all-reduce.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "collectives/engine.hpp"
#include "netsim/flownet.hpp"
#include "topology/builders.hpp"

namespace hero::coll {
namespace {

using topo::GpuModel;
using topo::LinkKind;
using topo::NodeId;
using topo::NodeKind;

topo::PathOptions ethernet_only() {
  topo::PathOptions opts;
  opts.constraints = topo::PathConstraints{false, true};
  return opts;
}

struct Fixture {
  topo::Graph graph;
  sim::Simulator simulator;
  std::unique_ptr<net::FlowNetwork> network;
  std::unique_ptr<sw::SwitchRegistry> switches;
  std::unique_ptr<CollectiveEngine> engine;
  const topo::PathOracle nvlink_paths{graph};
  const topo::PathOracle ethernet_paths{graph, ethernet_only()};

  explicit Fixture(topo::Graph g, EngineConfig cfg = {})
      : graph(std::move(g)) {
    network = std::make_unique<net::FlowNetwork>(simulator, graph);
    switches = std::make_unique<sw::SwitchRegistry>(simulator, graph);
    engine = std::make_unique<CollectiveEngine>(*network, *switches, cfg);
  }

  const topo::PathOracle& oracle(bool nvlink = true) const {
    return nvlink ? nvlink_paths : ethernet_paths;
  }
};

/// A built plan, shared the way the schedulers hand plans to the engine.
std::shared_ptr<const AllReducePlan> shared(AllReducePlan plan) {
  return std::make_shared<const AllReducePlan>(std::move(plan));
}

/// Star: n GPUs on one access switch, optional PS.
topo::Graph star_graph(int n, bool with_ps = false, int agg_slots = 64) {
  topo::Graph g;
  const NodeId sw = g.add_switch("sw", NodeKind::kAccessSwitch, agg_slots);
  for (int i = 0; i < n; ++i) {
    const NodeId gpu = g.add_gpu("g" + std::to_string(i), GpuModel::kA100_40,
                                 40 * units::GB, i);
    g.add_edge(gpu, sw, LinkKind::kEthernet, 100 * units::Gbps, 0.0);
  }
  if (with_ps) {
    const NodeId ps = g.add_server("ps");
    g.add_edge(ps, sw, LinkKind::kEthernet, 100 * units::Gbps, 0.0);
  }
  return g;
}

// --- cost models ---

TEST(CostModel, RingFormulaEq11) {
  // 2 (P-1) * (V/P) / B.
  const Time t = ring_all_reduce_latency(4, 8.0 * units::MB,
                                         100.0 * units::Gbps);
  EXPECT_NEAR(raw(t), raw(2.0 * 3.0 * (2.0 * units::MB / (12.5e9))), 1e-12);
}

TEST(CostModel, RingDegenerateCases) {
  EXPECT_DOUBLE_EQ(raw(ring_all_reduce_latency(1, 1e6, 1e9)), raw(0.0));
  EXPECT_DOUBLE_EQ(raw(ring_all_reduce_latency(4, 0.0, 1e9)), raw(0.0));
  EXPECT_TRUE(std::isinf(raw(ring_all_reduce_latency(4, 1e6, 0.0))));
}

TEST(CostModel, RingOnPathsUsesWorstNeighbor) {
  const topo::Graph g = star_graph(3);
  const topo::PathOracle oracle(g);
  std::vector<topo::Path> ring;
  const auto gpus = g.gpus();
  for (std::size_t i = 0; i < gpus.size(); ++i) {
    ring.push_back(*oracle.path(gpus[i], gpus[(i + 1) % gpus.size()]));
  }
  // Each neighbor path is 2 hops; chunk = V/3; steps = 4.
  const Bytes v = 3.0 * units::MB;
  const Time t = ring_all_reduce_latency_on_paths(g, ring, v);
  EXPECT_NEAR(raw(t), raw(4.0 * 2.0 * (units::MB / 12.5e9)), 1e-9);
}

TEST(CostModel, InaOnPathsEq8) {
  const topo::Graph g = star_graph(3);
  const topo::PathOracle oracle(g);
  const NodeId sw = g.find("sw");
  std::vector<topo::Path> up, down;
  for (NodeId gpu : g.gpus()) {
    up.push_back(*oracle.path(gpu, sw));
    down.push_back(*oracle.path(sw, gpu));
  }
  CostConfig cfg;
  const Time t =
      ina_all_reduce_latency_on_paths(g, up, down, 1.0 * units::MB, cfg);
  // 1 hop up (80us) + 1us agg + 1 hop down (80us).
  EXPECT_NEAR(raw(t), raw(161.0 * units::us), 1e-9);
}

TEST(CostModel, HierarchicalAddsLocalAndBroadcast) {
  const std::size_t sizes[] = {4, 2};
  const Time wide = 100.0 * units::us;
  const Time t = hierarchical_latency(4.0 * units::MB, sizes,
                                      600.0 * units::GBps, wide);
  // local ring (4 GPUs): 6 * 1MB / 600GBps = 10us; bcast 4MB/600GBps ~ 6.7us
  EXPECT_GT(t, wide);
  EXPECT_LT(t, wide + 20.0 * units::us);
}

/// Eq. 11 consistency between the closed form and the DES ring executor.
class RingSizeTest : public ::testing::TestWithParam<int> {};

TEST_P(RingSizeTest, EngineMatchesClosedForm) {
  const int p = GetParam();
  Fixture f(star_graph(p));
  const Bytes volume = 4.0 * units::MB;
  Time done = -1;
  f.engine->all_reduce(shared(make_ring_plan(f.graph.gpus(), f.oracle())),
                       volume,
                       [&](const AllReduceResult& r) { done = r.end; });
  f.simulator.run();
  // Every ring hop crosses the shared star switch: at any step, each of the
  // p uplinks carries one chunk up and one down; per-link both directions
  // are independent, so a step costs 2 hops of chunk serialization.
  const Time expected =
      2.0 * (p - 1) * 2.0 * (volume / p / (100.0 * units::Gbps / 8 * 8));
  EXPECT_NEAR(raw(done), raw(expected), raw(expected * 0.05 + 2e-6));
}

INSTANTIATE_TEST_SUITE_P(Sizes, RingSizeTest, ::testing::Values(2, 3, 4, 8));

// --- engine: INA ---

TEST(Engine, InaSyncPhases) {
  Fixture f(star_graph(3));
  auto plan = shared(make_ina_plan(f.graph.gpus(), f.graph.find("sw"),
                                   Scheme::kInaSync, f.oracle()));
  AllReduceResult result;
  bool done = false;
  f.engine->all_reduce(std::move(plan), 1.0 * units::MB,
                       [&](const AllReduceResult& r) {
                         result = r;
                         done = true;
                       });
  f.simulator.run();
  ASSERT_TRUE(done);
  // Collection: all three 1MB flows in parallel on separate uplinks: 80us.
  EXPECT_NEAR(raw(result.collected - result.start),
              raw(80.0 * units::us),
              raw(1.0 * units::us));
  // Distribution adds agg (1us) + 80us.
  EXPECT_NEAR(raw(result.end - result.start),
              raw(161.0 * units::us),
              raw(2.0 * units::us));
  EXPECT_FALSE(result.used_fallback);
}

TEST(Engine, InaReleasesSlotsAfterOp) {
  Fixture f(star_graph(3));
  f.engine->all_reduce(shared(make_ina_plan(f.graph.gpus(), f.graph.find("sw"),
                                            Scheme::kInaSync, f.oracle())),
                       1.0 * units::MB, nullptr);
  f.simulator.run();
  EXPECT_EQ(f.switches->agent(f.graph.find("sw")).slots_in_use(), 0u);
}

TEST(Engine, InaSyncQueuesUnderSlotPressure) {
  // Pool of 40 slots, jobs of 32: second job waits for the first.
  Fixture f(star_graph(4, false, 40));
  const auto gpus = f.graph.gpus();
  std::vector<NodeId> g1{gpus[0], gpus[1]}, g2{gpus[2], gpus[3]};
  Time done1 = -1, done2 = -1;
  f.engine->all_reduce(
      shared(make_ina_plan(g1, f.graph.find("sw"), Scheme::kInaSync,
                           f.oracle(), topo::kInvalidNode, /*slots=*/32)),
      1.0 * units::MB, [&](const AllReduceResult& r) { done1 = r.end; });
  f.engine->all_reduce(
      shared(make_ina_plan(g2, f.graph.find("sw"), Scheme::kInaSync,
                           f.oracle(), topo::kInvalidNode, /*slots=*/32)),
      1.0 * units::MB, [&](const AllReduceResult& r) { done2 = r.end; });
  f.simulator.run();
  ASSERT_GT(done1, 0);
  ASSERT_GT(done2, 0);
  // Serialized: second op roughly doubles.
  EXPECT_GT(done2, done1 + 100.0 * units::us);
}

TEST(Engine, InaAsyncFallsBackToPs) {
  Fixture f(star_graph(4, /*with_ps=*/true, /*agg_slots=*/40));
  const auto gpus = f.graph.gpus();
  std::vector<NodeId> g1{gpus[0], gpus[1]}, g2{gpus[2], gpus[3]};
  const NodeId ps = f.graph.find("ps");
  AllReduceResult r1, r2;
  f.engine->all_reduce(shared(make_ina_plan(g1, f.graph.find("sw"),
                                            Scheme::kInaAsync, f.oracle(), ps,
                                            /*slots=*/32)),
                       1.0 * units::MB,
                       [&](const AllReduceResult& r) { r1 = r; });
  f.engine->all_reduce(shared(make_ina_plan(g2, f.graph.find("sw"),
                                            Scheme::kInaAsync, f.oracle(), ps,
                                            /*slots=*/32)),
                       1.0 * units::MB,
                       [&](const AllReduceResult& r) { r2 = r; });
  f.simulator.run();
  EXPECT_FALSE(r1.used_fallback);
  EXPECT_TRUE(r2.used_fallback);
  EXPECT_EQ(f.engine->fallbacks_taken, 1u);
  // The fallback path crosses two hops (gpu->sw->ps) plus host aggregation,
  // so it is strictly slower than in-switch aggregation.
  EXPECT_GT(r2.end - r2.start, r1.end - r1.start);
}

TEST(Engine, InaAsyncWithoutFallbackThrowsOnRejection) {
  Fixture f(star_graph(4, false, 40));
  const auto gpus = f.graph.gpus();
  f.engine->all_reduce(
      shared(make_ina_plan({gpus[0], gpus[1]}, f.graph.find("sw"),
                           Scheme::kInaAsync, f.oracle(), topo::kInvalidNode,
                           /*slots=*/32)),
      1.0 * units::MB, nullptr);
  EXPECT_THROW(
      f.engine->all_reduce(
          shared(make_ina_plan({gpus[2], gpus[3]}, f.graph.find("sw"),
                               Scheme::kInaAsync, f.oracle(),
                               topo::kInvalidNode, /*slots=*/32)),
          1.0 * units::MB, nullptr),
      std::invalid_argument);
}

// --- engine: hierarchical ---

TEST(Engine, HierarchicalGroupsByServer) {
  const topo::Graph g = topo::make_testbed();
  const auto by_server = g.gpus_by_server();
  std::vector<NodeId> members;
  members.insert(members.end(), by_server[0].begin(), by_server[0].end());
  members.insert(members.end(), by_server[1].begin(), by_server[1].end());
  const topo::PathOracle oracle(g);
  const AllReducePlan plan =
      make_hierarchical_plan(members, Scheme::kRing, oracle);
  ASSERT_EQ(plan.local_groups.size(), 2u);
  EXPECT_EQ(plan.local_groups[0].size(), 4u);
  EXPECT_EQ(plan.wide_members.size(), 2u);
  // Leaders come one per server.
  EXPECT_NE(g.node(plan.wide_members[0]).gpu.server,
            g.node(plan.wide_members[1]).gpu.server);
}

TEST(Engine, HierarchicalFasterThanFlatOnTestbed) {
  // 8 GPUs across 2 servers: NVLink-local reduction + 2-leader Ethernet
  // exchange beats an 8-member Ethernet ring.
  const topo::Graph g = topo::make_testbed();
  const auto by_server = g.gpus_by_server();
  std::vector<NodeId> members;
  members.insert(members.end(), by_server[0].begin(), by_server[0].end());
  members.insert(members.end(), by_server[1].begin(), by_server[1].end());

  Time hier_done = -1, flat_done = -1;
  {
    Fixture f(g);
    f.engine->all_reduce(
        shared(make_hierarchical_plan(members, Scheme::kRing, f.oracle())),
        16.0 * units::MB,
        [&](const AllReduceResult& r) { hier_done = r.latency(); });
    f.simulator.run();
  }
  {
    Fixture f(g);
    f.engine->all_reduce(
        shared(make_ring_plan(members, f.oracle(false))), 16.0 * units::MB,
        [&](const AllReduceResult& r) { flat_done = r.latency(); });
    f.simulator.run();
  }
  ASSERT_GT(hier_done, 0);
  ASSERT_GT(flat_done, 0);
  EXPECT_LT(hier_done, flat_done);
}

TEST(Engine, RankAggregationMatchesBruteForceElection) {
  // Reference election from one-shot per-pair searches: switches with
  // slots, ranked by the worst member's 1 MiB latency, then by the sum.
  const topo::Graph g = topo::make_testbed();
  const auto by_server = g.gpus_by_server();
  for (const bool hetero : {true, false}) {
    topo::PathOptions opts;
    opts.constraints =
        topo::PathConstraints{hetero, true, /*allow_nvlink_direct=*/!hetero};
    const topo::PathOracle oracle(g, opts);
    for (std::size_t server = 0; server < by_server.size(); ++server) {
      std::vector<NodeId> members = by_server[server];
      if (server + 1 < by_server.size()) {
        members.insert(members.end(), by_server[server + 1].begin(),
                       by_server[server + 1].end());
      }
      struct Ranked {
        Time worst;
        Time total;
        NodeId sw;
      };
      std::vector<Ranked> reference;
      for (NodeId sw : g.switches()) {
        if (g.node(sw).agg_slots <= 0) continue;
        Ranked r{0.0, 0.0, sw};
        bool reachable = true;
        for (NodeId m : members) {
          const auto p = topo::shortest_path(g, m, sw, opts);
          if (!p) {
            reachable = false;
            break;
          }
          const Time lat = p->latency(g, 1.0 * units::MiB);
          r.worst = std::max(r.worst, lat);
          r.total += lat;
        }
        if (reachable) reference.push_back(r);
      }
      std::stable_sort(reference.begin(), reference.end(),
                       [](const Ranked& a, const Ranked& b) {
                         return a.worst != b.worst ? a.worst < b.worst
                                                   : a.total < b.total;
                       });
      ASSERT_GE(reference.size(), 2u);
      const std::vector<NodeId> expected{reference[0].sw, reference[1].sw};
      EXPECT_EQ(rank_aggregation_switches(oracle, members, 2), expected)
          << "hetero=" << hetero << " server=" << server;
    }
  }
}

TEST(Engine, HierarchicalInaIsSharded) {
  // SwitchML sharding: the INA wide phase carries every member with a 1/g
  // payload fraction, not just per-server leaders with full payloads.
  const topo::Graph g = topo::make_testbed();
  const auto by_server = g.gpus_by_server();
  std::vector<NodeId> members;
  members.insert(members.end(), by_server[0].begin(), by_server[0].end());
  members.insert(members.end(), by_server[1].begin(), by_server[1].end());
  const topo::PathOracle oracle(g);
  const auto ranked = rank_aggregation_switches(oracle, members, 1);
  const AllReducePlan plan = make_hierarchical_plan(
      members, Scheme::kInaSync, oracle, ranked.front());
  ASSERT_EQ(plan.wide_members.size(), 8u);
  ASSERT_EQ(plan.wide_scale.size(), 8u);
  for (double scale : plan.wide_scale) EXPECT_DOUBLE_EQ(scale, 0.25);
  EXPECT_EQ(plan.up_paths.size(), 8u);
}

TEST(Engine, ShardedInaFasterThanLeaderSizedTraffic) {
  // The sharded wide phase moves V/4 per NIC over 8 NICs instead of V per
  // leader over 2 NICs: roughly 4x less serialization on the bottleneck.
  const topo::Graph g = topo::make_testbed();
  const auto by_server = g.gpus_by_server();
  std::vector<NodeId> members;
  members.insert(members.end(), by_server[0].begin(), by_server[0].end());
  members.insert(members.end(), by_server[1].begin(), by_server[1].end());

  Fixture f(g);
  const auto ranked = rank_aggregation_switches(f.oracle(), members, 1);
  Time sharded = -1;
  f.engine->all_reduce(
      shared(make_hierarchical_plan(members, Scheme::kInaSync, f.oracle(),
                                    ranked.front())),
      32.0 * units::MB,
      [&](const AllReduceResult& r) { sharded = r.latency(); });
  f.simulator.run();

  Fixture f2(g);
  Time flat = -1;
  f2.engine->all_reduce(
      shared(make_ina_plan(members, ranked.front(), Scheme::kInaSync,
                           f2.oracle())),
      32.0 * units::MB, [&](const AllReduceResult& r) { flat = r.latency(); });
  f2.simulator.run();

  ASSERT_GT(sharded, 0);
  ASSERT_GT(flat, 0);
  EXPECT_LT(sharded, 0.6 * flat);
}

TEST(Engine, SingleMemberCompletesImmediately) {
  Fixture f(star_graph(2));
  bool done = false;
  f.engine->all_reduce(shared(make_ring_plan({f.graph.gpus()[0]}, f.oracle())),
                       1.0 * units::MB,
                       [&](const AllReduceResult&) { done = true; });
  f.simulator.run();
  EXPECT_TRUE(done);
}

TEST(Engine, OpsCompletedCounter) {
  Fixture f(star_graph(3));
  const auto plan = shared(make_ring_plan(f.graph.gpus(), f.oracle()));
  for (int i = 0; i < 3; ++i) {
    f.engine->all_reduce(plan, 1.0 * units::MB, nullptr);
  }
  f.simulator.run();
  EXPECT_EQ(f.engine->ops_completed, 3u);
}

// --- engine: per-shape timing pins ---
//
// Bit-exact phase timestamps and scheduled-event counts of every engine
// shape, so a change to flow or event order shows in the shape it touches
// rather than only end to end.

struct Pin {
  double start, wide_start, collected, end;
};

void expect_pins(const Fixture& f, const std::vector<AllReduceResult>& got,
                 const std::vector<Pin>& want, std::uint64_t events) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(raw(got[i].start), want[i].start) << "op " << i;
    EXPECT_EQ(raw(got[i].wide_start), want[i].wide_start) << "op " << i;
    EXPECT_EQ(raw(got[i].collected), want[i].collected) << "op " << i;
    EXPECT_EQ(raw(got[i].end), want[i].end) << "op " << i;
  }
  EXPECT_EQ(f.simulator.scheduled_events(), events);
}

/// The GPUs of the testbed's first two servers, server by server.
std::vector<NodeId> two_servers(const topo::Graph& g) {
  const auto by_server = g.gpus_by_server();
  std::vector<NodeId> members = by_server[0];
  members.insert(members.end(), by_server[1].begin(), by_server[1].end());
  return members;
}

struct PinRun {
  Fixture f;
  std::vector<AllReduceResult> results;

  explicit PinRun(topo::Graph g) : f(std::move(g)) {}
  void add(AllReducePlan plan, Bytes bytes) {
    f.engine->all_reduce(shared(std::move(plan)), bytes,
                         [this](const AllReduceResult& r) {
                           results.push_back(r);
                         });
  }
};

TEST(EnginePins, FlatRing) {
  PinRun run(star_graph(4));
  run.add(make_ring_plan(run.f.graph.gpus(), run.f.oracle()),
          4.0 * units::MB);
  run.f.simulator.run();
  expect_pins(run.f, run.results,
              {{0x0p+0, 0x0p+0, 0x1.f75104d551d69p-11, 0x1.f75104d551d69p-11}},
              60);
}

TEST(EnginePins, FlatInaSync) {
  PinRun run(star_graph(3));
  run.add(make_ina_plan(run.f.graph.gpus(), run.f.graph.find("sw"),
                        Scheme::kInaSync, run.f.oracle()),
          1.0 * units::MB);
  run.f.simulator.run();
  expect_pins(run.f, run.results,
              {{0x0p+0, 0x0p+0, 0x1.4f8b588e368f1p-14, 0x1.51a437824d4ccp-13}},
              10);
}

TEST(EnginePins, InaSyncQueuedUnderSlotPressure) {
  PinRun run(star_graph(4, false, 40));
  const auto gpus = run.f.graph.gpus();
  for (const std::vector<NodeId>& group :
       {std::vector<NodeId>{gpus[0], gpus[1]},
        std::vector<NodeId>{gpus[2], gpus[3]}}) {
    run.add(make_ina_plan(group, run.f.graph.find("sw"), Scheme::kInaSync,
                          run.f.oracle(), topo::kInvalidNode, /*slots=*/32),
            1.0 * units::MB);
  }
  run.f.simulator.run();
  expect_pins(run.f, run.results,
              {{0x0p+0, 0x0p+0, 0x1.4f8b588e368f1p-14, 0x1.51a437824d4ccp-13},
               {0x0p+0, 0x0p+0, 0x1.f969e3c968944p-13, 0x1.51a437824d4ccp-12}},
              16);
}

TEST(EnginePins, InaAsyncFallsBackToPs) {
  PinRun run(star_graph(4, /*with_ps=*/true, /*agg_slots=*/40));
  const auto gpus = run.f.graph.gpus();
  for (const std::vector<NodeId>& group :
       {std::vector<NodeId>{gpus[0], gpus[1]},
        std::vector<NodeId>{gpus[2], gpus[3]}}) {
    run.add(make_ina_plan(group, run.f.graph.find("sw"), Scheme::kInaAsync,
                          run.f.oracle(), run.f.graph.find("ps"),
                          /*slots=*/32),
            1.0 * units::MB);
  }
  run.f.simulator.run();
  ASSERT_EQ(run.results.size(), 2u);
  EXPECT_TRUE(run.results[1].used_fallback);
  expect_pins(run.f, run.results,
              {{0x0p+0, 0x0p+0, 0x1.4f8b588e368f1p-14, 0x1.51a437824d4ccp-13},
               {0x0p+0, 0x0p+0, 0x1.f75104d551d6ap-13, 0x1.10a137f38c544p-11}},
              25);
}

TEST(EnginePins, HierarchicalRingOnTestbed) {
  PinRun run(topo::make_testbed());
  run.add(make_hierarchical_plan(two_servers(run.f.graph), Scheme::kRing,
                                 run.f.oracle()),
          16.0 * units::MB);
  run.f.simulator.run();
  expect_pins(run.f, run.results,
              {{0x0p+0, 0x1.68b5cbff47736p-15, 0x1.55b4677b395c5p-9,
                0x1.5943f75efff91p-9}},
              73);
}

TEST(EnginePins, HierarchicalShardedIna) {
  PinRun run(topo::make_testbed());
  const std::vector<NodeId> members = two_servers(run.f.graph);
  const auto ranked = rank_aggregation_switches(run.f.oracle(), members, 1);
  run.add(make_hierarchical_plan(members, Scheme::kInaSync, run.f.oracle(),
                                 ranked.front()),
          32.0 * units::MB);
  run.f.simulator.run();
  expect_pins(run.f, run.results,
              {{0x0p+0, 0x1.5c209246bf013p-14, 0x1.06ab14ec204f3p-9,
                0x1.05ba9bb9761f8p-8}},
              124);
}

// --- plan builders ---

TEST(PlanBuilders, RingPathsConnectSuccessiveMembers) {
  const topo::Graph g = star_graph(4);
  const topo::PathOracle oracle(g);
  const AllReducePlan plan = make_ring_plan(g.gpus(), oracle);
  ASSERT_EQ(plan.ring_paths.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(plan.ring_paths[i].src(), plan.wide_members[i]);
    EXPECT_EQ(plan.ring_paths[i].dst(), plan.wide_members[(i + 1) % 4]);
  }
}

TEST(PlanBuilders, UnreachablePairThrowsNamingBothNodes) {
  // Two star islands with no link between them.
  topo::Graph g;
  const NodeId sw_a = g.add_switch("sw_a", NodeKind::kAccessSwitch, 64);
  const NodeId sw_b = g.add_switch("sw_b", NodeKind::kAccessSwitch, 64);
  const NodeId ga = g.add_gpu("ga", GpuModel::kA100_40, 40 * units::GB, 0);
  const NodeId gb = g.add_gpu("gb", GpuModel::kA100_40, 40 * units::GB, 1);
  g.add_edge(ga, sw_a, LinkKind::kEthernet, 100 * units::Gbps, 0.0);
  g.add_edge(gb, sw_b, LinkKind::kEthernet, 100 * units::Gbps, 0.0);
  const topo::PathOracle oracle(g);
  auto expect_unreachable = [](auto build, const std::string& from,
                               const std::string& to) {
    try {
      (void)build();
      ADD_FAILURE() << "no throw for " << from << " -> " << to;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(from), std::string::npos) << what;
      EXPECT_NE(what.find(to), std::string::npos) << what;
    }
  };
  expect_unreachable([&] { return make_ring_plan({ga, gb}, oracle); }, "ga",
                     "gb");
  expect_unreachable(
      [&] { return make_ina_plan({ga, gb}, sw_a, Scheme::kInaSync, oracle); },
      "gb", "sw_a");
}

TEST(PlanBuilders, InaPlanValidation) {
  const topo::Graph g = star_graph(2);
  const topo::PathOracle oracle(g);
  EXPECT_THROW(
      make_ina_plan(g.gpus(), g.find("sw"), Scheme::kRing, oracle),
      std::invalid_argument);
}

TEST(PlanBuilders, DirectNvlinkPathRequiresEdge) {
  // One server whose two GPUs share only an Ethernet switch: the local
  // ring has no NVLink edge, so the plan fails to build.
  topo::Graph g;
  const NodeId sw = g.add_switch("sw", NodeKind::kAccessSwitch, 64);
  const NodeId ga = g.add_gpu("ga", GpuModel::kA100_40, 40 * units::GB, 0);
  const NodeId gb = g.add_gpu("gb", GpuModel::kA100_40, 40 * units::GB, 0);
  g.add_edge(ga, sw, LinkKind::kEthernet, 100 * units::Gbps, 0.0);
  g.add_edge(gb, sw, LinkKind::kEthernet, 100 * units::Gbps, 0.0);
  const topo::PathOracle oracle(g);
  try {
    (void)make_hierarchical_plan({ga, gb}, Scheme::kRing, oracle);
    ADD_FAILURE() << "no throw for a server without NVLink";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("ga"), std::string::npos) << what;
    EXPECT_NE(what.find("gb"), std::string::npos) << what;
  }
}

TEST(PlanBuilders, HierarchicalLocalLegsAreNvlinkEdges) {
  const topo::Graph g = topo::make_testbed();
  const auto by_server = g.gpus_by_server();
  std::vector<NodeId> members = by_server[0];
  members.insert(members.end(), by_server[1].begin(), by_server[1].end());
  members.push_back(by_server[2][0]);  // a single-GPU group
  const topo::PathOracle oracle(g);
  for (const Scheme scheme : {Scheme::kRing, Scheme::kInaSync}) {
    const NodeId sw = scheme == Scheme::kRing
                          ? topo::kInvalidNode
                          : rank_aggregation_switches(oracle, members, 1)[0];
    const AllReducePlan plan =
        make_hierarchical_plan(members, scheme, oracle, sw);
    ASSERT_EQ(plan.local_groups.size(), 3u);
    ASSERT_EQ(plan.local_rings.size(), 3u);
    auto expect_nvlink_edge = [&](const topo::Path& p, NodeId a, NodeId b) {
      EXPECT_EQ(p.src(), a);
      EXPECT_EQ(p.dst(), b);
      ASSERT_EQ(p.hops(), 1u);
      EXPECT_EQ(g.edge(p.edges[0]).kind, LinkKind::kNvLink);
    };
    std::size_t leg = 0;
    for (std::size_t k = 0; k < plan.local_groups.size(); ++k) {
      const std::vector<NodeId>& group = plan.local_groups[k];
      const std::vector<topo::Path>& ring = plan.local_rings[k];
      ASSERT_EQ(ring.size(), group.size() > 1 ? group.size() : 0u);
      for (std::size_t i = 0; i < ring.size(); ++i) {
        expect_nvlink_edge(ring[i], group[i], group[(i + 1) % group.size()]);
      }
      for (std::size_t i = 1; i < group.size(); ++i) {
        ASSERT_LT(leg, plan.broadcast_legs.size());
        expect_nvlink_edge(plan.broadcast_legs[leg++], group[0], group[i]);
      }
    }
    EXPECT_EQ(leg, plan.broadcast_legs.size());
  }
}

TEST(Engine, OpKeepsItsPlanAlive) {
  // The caller drops its last reference before the run: the op still
  // reads every phase's paths, and releases the plan when it finishes.
  Fixture f(topo::make_testbed());
  const auto by_server = f.graph.gpus_by_server();
  std::vector<NodeId> members = by_server[0];
  members.insert(members.end(), by_server[1].begin(), by_server[1].end());
  const auto ranked = rank_aggregation_switches(f.oracle(), members, 1);
  auto plan = shared(make_hierarchical_plan(members, Scheme::kInaSync,
                                            f.oracle(), ranked.front()));
  const std::weak_ptr<const AllReducePlan> watch = plan;
  bool done = false;
  f.engine->all_reduce(std::move(plan), 8.0 * units::MB,
                       [&](const AllReduceResult&) { done = true; });
  EXPECT_FALSE(watch.expired());
  f.simulator.run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(watch.expired());
}

TEST(RankSwitches, PrefersNearestWithSlots) {
  const topo::Graph g = topo::make_fig2_example();
  // For {GN2, GN3} (both uplink S2), S2 must rank first.
  const topo::PathOracle oracle(g);
  const auto ranked =
      rank_aggregation_switches(oracle, {g.find("GN2"), g.find("GN3")}, 3);
  ASSERT_FALSE(ranked.empty());
  EXPECT_EQ(ranked[0], g.find("S2"));
}

TEST(RankSwitches, SkipsSwitchesWithoutSlots) {
  topo::Graph g;
  const NodeId gpu = g.add_gpu("g", GpuModel::kA100_40, 1, 0);
  const NodeId s0 = g.add_switch("s0", NodeKind::kAccessSwitch, 0);
  const NodeId s1 = g.add_switch("s1", NodeKind::kAccessSwitch, 8);
  g.add_edge(gpu, s0, LinkKind::kEthernet, 100 * units::Gbps);
  g.add_edge(s0, s1, LinkKind::kEthernet, 100 * units::Gbps);
  const topo::PathOracle oracle(g);
  const auto ranked = rank_aggregation_switches(oracle, {gpu}, 5);
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_EQ(ranked[0], s1);
}

TEST(SchemeToString, Names) {
  EXPECT_STREQ(to_string(Scheme::kRing), "ring");
  EXPECT_STREQ(to_string(Scheme::kInaSync), "ina-sync");
  EXPECT_STREQ(to_string(Scheme::kInaAsync), "ina-async");
}

}  // namespace
}  // namespace hero::coll
