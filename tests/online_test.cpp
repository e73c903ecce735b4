// Tests for the load-aware online scheduler: policy cost tables (Eq. 16),
// cost propagation (Eq. 17), the sharing-ratio penalty (Eq. 18), policy
// building, the controller loop, and the baselines' static plans.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "baselines/static_scheduler.hpp"
#include "online/scheduler.hpp"
#include "topology/builders.hpp"

namespace hero::online {
namespace {

using topo::NodeId;

/// Two policies over a diamond: left route and right route, optionally
/// overlapping on a shared trunk edge.
struct TableFixture {
  topo::Graph graph;
  std::vector<Policy> policies;

  TableFixture() {
    const NodeId a = graph.add_gpu("a", topo::GpuModel::kA100_40,
                                   40 * units::GB, 0);
    const NodeId s0 = graph.add_switch("s0", topo::NodeKind::kAccessSwitch,
                                       64);
    const NodeId s1 = graph.add_switch("s1", topo::NodeKind::kAccessSwitch,
                                       64);
    const NodeId b = graph.add_gpu("b", topo::GpuModel::kA100_40,
                                   40 * units::GB, 1);
    graph.add_edge(a, s0, topo::LinkKind::kEthernet, 100 * units::Gbps);
    graph.add_edge(s0, b, topo::LinkKind::kEthernet, 100 * units::Gbps);
    graph.add_edge(a, s1, topo::LinkKind::kEthernet, 50 * units::Gbps);
    graph.add_edge(s1, b, topo::LinkKind::kEthernet, 50 * units::Gbps);

    Policy left;
    left.name = "left";
    left.edges = {0, 1};
    Policy right;
    right.name = "right";
    right.edges = {2, 3};
    policies = {left, right};
  }
};

TEST(PolicyTable, SelectsLowestCost) {
  TableFixture f;
  f.policies[0].cost = 0.5;
  f.policies[1].cost = 0.1;
  PolicyTable table(std::move(f.policies), f.graph);
  EXPECT_EQ(table.select(0.0, OnlineConfig{}), 1u);
}

TEST(PolicyTable, DeltaPrefersHigherCapacityAtEqualCost) {
  // Equal b_c: the 100G route has the smaller delta for the same payload.
  TableFixture f;
  PolicyTable table(std::move(f.policies), f.graph);
  OnlineConfig cfg;
  EXPECT_EQ(table.select(8.0 * units::MB, cfg), 0u);
  EXPECT_LT(table.cost_of(0, 8.0 * units::MB, cfg),
            table.cost_of(1, 8.0 * units::MB, cfg));
}

TEST(PolicyTable, Eq16DeltaCapacityModel) {
  TableFixture f;
  PolicyTable table(std::move(f.policies), f.graph);
  OnlineConfig cfg;
  cfg.estimation_window = 0.1;
  // delta = D / (T_u * bottleneck) = 12.5MB / (0.1s * 12.5 GB/s) = 0.01.
  EXPECT_NEAR(table.cost_of(0, 12.5 * units::MB, cfg), 0.01, 1e-12);
}

TEST(PolicyTable, Eq16PaperLiteralModel) {
  TableFixture f;
  f.policies[0].cost = 0.2;
  PolicyTable table(std::move(f.policies), f.graph);
  OnlineConfig cfg;
  cfg.delta_model = DeltaModel::kPaperLiteral;
  cfg.estimation_window = 1.0;
  // J = b + D/(T_u * b) = 0.2 + 100/(1.0*0.2) = 500.2 (literal units).
  EXPECT_NEAR(table.cost_of(0, 100.0, cfg), 500.2, 1e-9);
}

TEST(PolicyTable, PaperLiteralFloorsCost) {
  TableFixture f;
  PolicyTable table(std::move(f.policies), f.graph);
  OnlineConfig cfg;
  cfg.delta_model = DeltaModel::kPaperLiteral;
  cfg.cost_floor = 1e-3;
  // b_c = 0 must not divide by zero.
  const double j = table.cost_of(0, 1.0, cfg);
  EXPECT_TRUE(std::isfinite(j));
}

TEST(PolicyTable, Eq17SelectedGetsDelta) {
  TableFixture f;
  PolicyTable table(std::move(f.policies), f.graph);
  OnlineConfig cfg;
  cfg.estimation_window = 0.1;
  table.apply_selection(0, 12.5 * units::MB, cfg);
  EXPECT_NEAR(table.policy(0).cost, 0.01, 1e-12);
  // Disjoint edges: zero penalty -> unselected cost unchanged.
  EXPECT_NEAR(table.policy(1).cost, 0.0, 1e-12);
  EXPECT_EQ(table.policy(0).times_selected, 1u);
}

TEST(PolicyTable, Eq17PenaltyPropagatesToSharingPolicies) {
  // Both policies share edge 0.
  TableFixture f;
  f.policies[1].edges = {0, 3};
  PolicyTable table(std::move(f.policies), f.graph);
  OnlineConfig cfg;
  cfg.gamma = 1.0;  // adopt sharing ratio immediately
  table.update_penalties(nullptr, cfg);
  // W(0 -> 1) = B(e0) / (B(e0) + B(e3)) = 100 / 150.
  EXPECT_NEAR(table.penalty(0, 1), 100.0 / 150.0, 1e-9);
  table.apply_selection(0, 12.5 * units::MB, cfg);
  EXPECT_NEAR(table.policy(1).cost, 0.01 * 100.0 / 150.0, 1e-9);
}

TEST(PolicyTable, Eq18GammaSmoothing) {
  TableFixture f;
  f.policies[1].edges = {0, 3};  // overlap
  PolicyTable table(std::move(f.policies), f.graph);
  OnlineConfig cfg;
  cfg.gamma = 0.5;
  // Construction already ran one full-gamma update... capture current, then
  // smooth toward the same ratio: value converges to W.
  const double before = table.penalty(0, 1);
  table.update_penalties(nullptr, cfg);
  const double after = table.penalty(0, 1);
  const double w = 100.0 / 150.0;
  EXPECT_NEAR(after, before + 0.5 * (w - before), 1e-9);
}

TEST(PolicyTable, SelfPenaltyIsOne) {
  TableFixture f;
  PolicyTable table(std::move(f.policies), f.graph);
  EXPECT_DOUBLE_EQ(table.penalty(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(table.penalty(1, 1), 1.0);
}

TEST(PolicyTable, EmptyPolicySetThrows) {
  TableFixture f;
  EXPECT_THROW(PolicyTable({}, f.graph), std::invalid_argument);
}

TEST(PolicyTable, SyncCostsFromNetworkUsesMeasuredUtilization) {
  TableFixture f;
  sim::Simulator simulator;
  net::FlowNetwork network(simulator, f.graph);
  PolicyTable table(std::move(f.policies), f.graph);

  // Saturate the left route.
  auto p = topo::shortest_path(f.graph, f.graph.find("a"),
                               f.graph.find("b"));
  ASSERT_TRUE(p.has_value());
  network.start_transfer(*p, 100.0 * units::MB, {});
  simulator.run_until(10.0 * units::us);
  table.sync(network, OnlineConfig{});
  EXPECT_GT(table.policy(0).cost, 0.9);
  EXPECT_NEAR(table.policy(1).cost, 0.0, 1e-9);
}

TEST(PolicyTable, SyncMatchesEq18AcrossFlowChanges) {
  // Three policies over the diamond: left {0,1}, right {2,3} and a cross
  // route {0,3} sharing one edge with each. Flows start and stop between
  // syncs; after every sync, b_c and every f[c*][c] must be bitwise what
  // Eq. 18 gives from fresh utilization readings — whether the readings
  // moved or the table reused what it derived from the last ones.
  TableFixture f;
  Policy cross;
  cross.name = "cross";
  cross.edges = {0, 3};
  f.policies.push_back(cross);
  const std::vector<std::vector<topo::EdgeId>> edges = {
      {0, 1}, {2, 3}, {0, 3}};
  sim::Simulator simulator;
  net::FlowNetwork network(simulator, f.graph);
  PolicyTable table(std::move(f.policies), f.graph);
  OnlineConfig cfg;
  cfg.gamma = 0.3;

  const std::size_t n = edges.size();
  std::vector<std::vector<double>> expected(n, std::vector<double>(n));
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t o = 0; o < n; ++o) expected[s][o] = table.penalty(s, o);
  }
  auto sync_and_check = [&](const char* when) {
    table.sync(network, cfg);
    std::vector<std::vector<Bandwidth>> w(n);
    for (std::size_t c = 0; c < n; ++c) {
      double max_util = 0.0;
      for (topo::EdgeId e : edges[c]) {
        const double u = network.edge_utilization(e);
        max_util = std::max(max_util, u);
        w[c].push_back(std::max(u, 0.05) * f.graph.edge(e).capacity);
      }
      EXPECT_EQ(table.policy(c).cost, max_util) << when << " b_" << c;
    }
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t o = 0; o < n; ++o) {
        if (s == o) {
          EXPECT_EQ(table.penalty(s, o), 1.0);
          continue;
        }
        Bandwidth shared = 0.0, total = 0.0;
        for (std::size_t i = 0; i < edges[o].size(); ++i) {
          const topo::EdgeId e = edges[o][i];
          if (std::find(edges[s].begin(), edges[s].end(), e) !=
              edges[s].end()) {
            shared += w[o][i];
          }
        }
        for (Bandwidth x : w[o]) total += x;
        const double ratio = total > 0 ? shared / total : 0.0;
        expected[s][o] = (1.0 - cfg.gamma) * expected[s][o] +
                         cfg.gamma * ratio;
        EXPECT_EQ(table.penalty(s, o), expected[s][o])
            << when << " f[" << s << "][" << o << "]";
      }
    }
  };

  const NodeId a = f.graph.find("a");
  const NodeId b = f.graph.find("b");
  const topo::Path left{{a, f.graph.find("s0"), b}, {0, 1}};
  const topo::Path right{{a, f.graph.find("s1"), b}, {2, 3}};
  sync_and_check("idle");
  sync_and_check("idle again");
  const net::TransferId on_left =
      network.start_transfer(left, 100.0 * units::MB, {});
  simulator.run_until(10.0 * units::us);
  sync_and_check("left busy");
  EXPECT_GT(table.policy(0).cost, 0.9);
  // An Eq. 17 bump is undone by the next sync even though no reading moved.
  table.apply_selection(1, 12.5 * units::MB, cfg);
  EXPECT_GT(table.policy(1).cost, 0.0);
  sync_and_check("bumped, readings unchanged");
  const net::TransferId on_right =
      network.start_transfer(right, 100.0 * units::MB, {});
  simulator.run_until(20.0 * units::us);
  sync_and_check("both busy");
  network.cancel_transfer(on_left);
  simulator.run_until(30.0 * units::us);
  sync_and_check("left stopped");
  network.cancel_transfer(on_right);
  simulator.run_until(40.0 * units::us);
  sync_and_check("idle at the end");
  EXPECT_EQ(table.policy(0).cost, 0.0);
}

// --- policy building ---

TEST(BuildPolicies, HeroGetsHierarchicalInaAndRing) {
  const topo::Graph g = topo::make_testbed();
  const auto by_server = g.gpus_by_server();
  std::vector<NodeId> members;
  members.insert(members.end(), by_server[0].begin(), by_server[0].end());
  members.insert(members.end(), by_server[1].begin(), by_server[1].end());

  const auto policies = build_policies(g, members);
  ASSERT_EQ(policies.size(), 3u);  // 2 INA switches + hier-ring
  int ina = 0, ring = 0;
  for (const Policy& p : policies) {
    EXPECT_FALSE(p.plan->local_groups.empty());  // hierarchical
    if (p.plan->scheme == coll::Scheme::kRing) {
      ++ring;
    } else {
      ++ina;
      EXPECT_NE(p.plan->switch_node, topo::kInvalidNode);
    }
  }
  EXPECT_EQ(ina, 2);
  EXPECT_EQ(ring, 1);
}

TEST(BuildPolicies, EmptyGroupThrows) {
  const topo::Graph g = topo::make_testbed();
  EXPECT_THROW(build_policies(g, {}), std::invalid_argument);
}

// --- scheduler ---

struct SchedFixture {
  topo::Graph graph = topo::make_testbed();
  sim::Simulator simulator;
  net::FlowNetwork network{simulator, graph};
};

TEST(OnlineScheduler, PlanStampsBytesAndUpdatesCosts) {
  SchedFixture f;
  OnlineScheduler sched(f.network);
  const auto by_server = f.graph.gpus_by_server();
  const GroupId gid = sched.register_group(
      "g", build_policies(f.graph, by_server[0]));
  (void)sched.plan_all_reduce(gid, 4 * units::MB);
  std::uint64_t selections = 0;
  for (std::size_t i = 0; i < sched.table(gid).size(); ++i) {
    selections += sched.table(gid).policy(i).times_selected;
  }
  EXPECT_EQ(selections, 1u);
}

TEST(OnlineScheduler, RepeatedLoadRotatesAwayFromHotPolicy) {
  // Without controller recalibration, repeatedly charging one policy makes
  // an alternative cheaper eventually.
  SchedFixture f;
  OnlineScheduler sched(f.network);
  const auto by_server = f.graph.gpus_by_server();
  std::vector<NodeId> members;
  members.insert(members.end(), by_server[0].begin(), by_server[0].end());
  members.insert(members.end(), by_server[1].begin(), by_server[1].end());
  const GroupId gid = sched.register_group(
      "g", build_policies(f.graph, members));
  std::set<std::string> used;
  for (int i = 0; i < 50; ++i) {
    (void)sched.plan_all_reduce(gid, 64 * units::MB);
    for (std::size_t p = 0; p < sched.table(gid).size(); ++p) {
      if (sched.table(gid).policy(p).times_selected > 0) {
        used.insert(sched.table(gid).policy(p).name);
      }
    }
  }
  EXPECT_GE(used.size(), 2u);
}

TEST(OnlineScheduler, ControllerTickRecalibratesCosts) {
  SchedFixture f;
  OnlineConfig cfg;
  cfg.sync_period = 10.0 * units::ms;
  OnlineScheduler sched(f.network, cfg);
  const auto by_server = f.graph.gpus_by_server();
  const GroupId gid = sched.register_group(
      "g", build_policies(f.graph, by_server[0]));
  // Inflate costs artificially; the controller resets them from (idle)
  // network measurements.
  sched.apply_cost_override(gid, 0, 99.0);
  sched.start();
  f.simulator.run_until(50.0 * units::ms);
  EXPECT_LT(sched.table(gid).policy(0).cost, 1.0);
}

TEST(OnlineScheduler, ControllerDelayDefersEq17) {
  SchedFixture f;
  OnlineConfig cfg;
  cfg.controller_delay = 5.0 * units::ms;
  OnlineScheduler sched(f.network, cfg);
  const auto by_server = f.graph.gpus_by_server();
  const GroupId gid = sched.register_group(
      "g", build_policies(f.graph, by_server[0]));
  (void)sched.plan_all_reduce(gid, 64 * units::MB);
  double cost_now = 0;
  for (std::size_t i = 0; i < sched.table(gid).size(); ++i) {
    cost_now += sched.table(gid).policy(i).cost;
  }
  EXPECT_DOUBLE_EQ(cost_now, 0.0);  // not yet applied
  f.simulator.run_until(10.0 * units::ms);
  double cost_later = 0;
  for (std::size_t i = 0; i < sched.table(gid).size(); ++i) {
    cost_later += sched.table(gid).policy(i).cost;
  }
  EXPECT_GT(cost_later, 0.0);
}

TEST(HeroCommScheduler, RegistersAndPlans) {
  SchedFixture f;
  HeroCommScheduler sched(f.network);
  const auto by_server = f.graph.gpus_by_server();
  const GroupId gid = sched.register_group(by_server[0]);
  // The plan handed out is the selected policy's own, not a copy.
  const auto plan = sched.all_reduce_plan(gid, units::MB);
  const PolicyTable& table = sched.online().table(gid);
  bool shared = false;
  for (std::size_t i = 0; i < table.size(); ++i) {
    shared = shared || table.policy(i).plan == plan;
  }
  EXPECT_TRUE(shared);
  EXPECT_STREQ(sched.name(), "HeroServe");
}

TEST(HeroCommScheduler, UnicastPrefersUncongestedAlternate) {
  SchedFixture f;
  HeroCommScheduler sched(f.network);
  const auto gpus = f.graph.gpus();
  // Congest the default route, then ask for a path: the chosen route's
  // bottleneck must be the best available.
  const topo::Path base = sched.unicast_path(gpus[0], gpus[4]);
  f.network.start_transfer(base, 1.0 * units::GB, {});
  f.simulator.run_until(10.0 * units::us);
  const topo::Path rerouted = sched.unicast_path(gpus[0], gpus[4]);
  EXPECT_GT(f.network.estimate_path(rerouted).residual, 0.0);
  EXPECT_NE(rerouted.edges, base.edges);
}

// --- the baselines' static plans ---

TEST(StaticCommScheduler, NcclRuleKeepsNvlinkToSameServerLegs) {
  // A DistServe ring over two testbed servers: every same-server leg is
  // exactly one NVLink edge, every cross-server leg is all-Ethernet. The
  // INA baselines' collection, distribution and fallback paths never touch
  // NVLink.
  SchedFixture f;
  const topo::Graph& g = f.graph;
  const auto by_server = g.gpus_by_server();
  std::vector<NodeId> members = by_server[1];
  members.insert(members.end(), by_server[0].begin(), by_server[0].end());

  baselines::StaticCommScheduler distserve(
      f.network, baselines::BaselineKind::kDistServe);
  const coll::AllReducePlan& ring =
      distserve.plan(distserve.register_group(members));
  ASSERT_EQ(ring.ring_paths.size(), members.size());
  std::size_t same_server = 0;
  for (const topo::Path& leg : ring.ring_paths) {
    if (g.node(leg.src()).gpu.server == g.node(leg.dst()).gpu.server) {
      ++same_server;
      ASSERT_EQ(leg.hops(), 1u);
      EXPECT_EQ(g.edge(leg.edges[0]).kind, topo::LinkKind::kNvLink);
    } else {
      EXPECT_FALSE(leg.uses_nvlink(g));
    }
  }
  EXPECT_EQ(same_server, members.size() - 2);

  for (const auto kind :
       {baselines::BaselineKind::kSwitchMl, baselines::BaselineKind::kAtp}) {
    baselines::StaticCommScheduler sched(f.network, kind);
    const coll::AllReducePlan& plan =
        sched.plan(sched.register_group(members));
    ASSERT_EQ(plan.up_paths.size(), members.size()) << to_string(kind);
    ASSERT_EQ(plan.down_paths.size(), members.size()) << to_string(kind);
    if (kind == baselines::BaselineKind::kAtp) {
      ASSERT_EQ(plan.fallback_up.size(), members.size());
      ASSERT_EQ(plan.fallback_down.size(), members.size());
    }
    for (const auto* paths : {&plan.up_paths, &plan.down_paths,
                              &plan.fallback_up, &plan.fallback_down}) {
      for (const topo::Path& p : *paths) {
        EXPECT_FALSE(p.uses_nvlink(g)) << to_string(kind);
      }
    }
  }
}

}  // namespace
}  // namespace hero::online
