// Tests for the offline planner: constrained k-means grouping, random-swap
// perturbation, queueing, candidate generation, pool splitting, and full
// Algorithm-1 planning on the testbed.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/heroserve.hpp"
#include "planner/grouping.hpp"
#include "planner/planner.hpp"
#include "planner/queueing.hpp"
#include "topology/builders.hpp"

namespace hero::planner {
namespace {

// --- queueing (Pollaczek-Khinchine) ---

TEST(Queueing, FormulaMatchesHandComputation) {
  // lambda=2, S=0.25 => rho=0.5, Tq = 2*0.0625/(2*0.5) = 0.125.
  const QueueEstimate est = pollaczek_khinchine(2.0, 0.25);
  EXPECT_TRUE(est.stable);
  EXPECT_DOUBLE_EQ(est.utilization, 0.5);
  EXPECT_DOUBLE_EQ(raw(est.queue_delay), raw(0.125));
}

TEST(Queueing, UnstableWhenRhoAtLeastOne) {
  const QueueEstimate est = pollaczek_khinchine(4.0, 0.25);
  EXPECT_FALSE(est.stable);
  EXPECT_TRUE(std::isinf(raw(est.queue_delay)));
}

TEST(Queueing, ZeroLoadIsFree) {
  EXPECT_DOUBLE_EQ(raw(pollaczek_khinchine(0.0, 1.0).queue_delay), raw(0.0));
  EXPECT_DOUBLE_EQ(raw(pollaczek_khinchine(1.0, 0.0).queue_delay), raw(0.0));
}

TEST(Queueing, DelayGrowsWithUtilization) {
  double prev = 0.0;
  for (double lam : {0.5, 1.0, 2.0, 3.0, 3.9}) {
    const QueueEstimate est = pollaczek_khinchine(lam, 0.25);
    EXPECT_GT(raw(est.queue_delay), prev);
    prev = raw(est.queue_delay);
  }
}

// --- latency matrix / constrained k-means ---

LatencyMatrix cluster_matrix() {
  // 8 "GPUs": 0-3 close together, 4-7 close together, far across.
  std::vector<topo::NodeId> ids(8);
  std::vector<Time> data(64, 0.0);
  for (std::size_t i = 0; i < 8; ++i) {
    ids[i] = static_cast<topo::NodeId>(i);
    for (std::size_t j = 0; j < 8; ++j) {
      if (i == j) continue;
      const bool same = (i < 4) == (j < 4);
      data[i * 8 + j] = same ? 1.0 : 10.0;
    }
  }
  return LatencyMatrix(ids, data);
}

TEST(LatencyMatrix, ShapeValidation) {
  EXPECT_THROW(LatencyMatrix({1, 2}, std::vector<Time>(3)),
               std::invalid_argument);
}

TEST(ConstrainedKmeans, BalancedGroupSizes) {
  const LatencyMatrix m = cluster_matrix();
  Rng rng(1);
  const auto groups = constrained_kmeans(m, 2, 4, rng);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].size(), 4u);
  EXPECT_EQ(groups[1].size(), 4u);
}

TEST(ConstrainedKmeans, RecoversNaturalClusters) {
  const LatencyMatrix m = cluster_matrix();
  Rng rng(2);
  const auto groups = constrained_kmeans(m, 2, 4, rng);
  // Each group must be all-low or all-high indices.
  for (const auto& g : groups) {
    const bool low = g[0] < 4;
    for (std::size_t idx : g) EXPECT_EQ(idx < 4, low);
  }
}

TEST(ConstrainedKmeans, PartialAssignmentLeavesLeftovers) {
  const LatencyMatrix m = cluster_matrix();
  Rng rng(3);
  const auto groups = constrained_kmeans(m, 2, 3, rng);  // uses 6 of 8
  std::size_t total = 0;
  for (const auto& g : groups) total += g.size();
  EXPECT_EQ(total, 6u);
}

TEST(ConstrainedKmeans, InfeasibleShapesThrow) {
  const LatencyMatrix m = cluster_matrix();
  Rng rng(4);
  EXPECT_THROW(constrained_kmeans(m, 3, 4, rng), std::invalid_argument);
  EXPECT_THROW(constrained_kmeans(m, 0, 4, rng), std::invalid_argument);
}

/// Property: balanced sizes for arbitrary shapes.
class KmeansShapeTest
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {
};

TEST_P(KmeansShapeTest, AllGroupsExactSize) {
  const auto [groups_n, size_n] = GetParam();
  Rng rng(7);
  // Random symmetric matrix over 16 nodes.
  std::vector<topo::NodeId> ids(16);
  std::vector<Time> data(256, 0.0);
  for (std::size_t i = 0; i < 16; ++i) {
    ids[i] = static_cast<topo::NodeId>(i);
    for (std::size_t j = i + 1; j < 16; ++j) {
      data[i * 16 + j] = data[j * 16 + i] = rng.uniform(0.1, 5.0);
    }
  }
  const LatencyMatrix m(ids, data);
  const auto result = constrained_kmeans(m, groups_n, size_n, rng);
  ASSERT_EQ(result.size(), groups_n);
  for (const auto& g : result) EXPECT_EQ(g.size(), size_n);
}

INSTANTIATE_TEST_SUITE_P(Shapes, KmeansShapeTest,
                         ::testing::Values(std::make_pair(2ul, 8ul),
                                           std::make_pair(4ul, 4ul),
                                           std::make_pair(8ul, 2ul),
                                           std::make_pair(1ul, 16ul),
                                           std::make_pair(3ul, 5ul)));

// --- perturbation ---

TEST(Perturbation, NeverIncreasesTotalCost) {
  const LatencyMatrix m = cluster_matrix();
  Rng rng(5);
  // Deliberately bad split: mixed groups. Cost = sum of pairwise
  // latencies, so single-GPU swaps make monotone progress toward the
  // natural clustering.
  std::vector<std::vector<std::size_t>> groups{{0, 1, 4, 5}, {2, 3, 6, 7}};
  auto cost = [&](const std::vector<std::size_t>& g) -> Time {
    Time total = 0.0;
    for (std::size_t i : g) {
      for (std::size_t j : g) total += m.at(i, j);
    }
    return total;
  };
  const Time before = total_group_cost(groups, cost);
  const std::size_t swaps = perturb_groups(groups, cost, rng);
  const Time after = total_group_cost(groups, cost);
  EXPECT_LE(after, before);
  EXPECT_GT(swaps, 0u);  // the bad split is improvable
  // Converged to the natural clustering: all-low/all-high.
  for (const auto& g : groups) {
    const bool low = g[0] < 4;
    for (std::size_t idx : g) EXPECT_EQ(idx < 4, low);
  }
}

TEST(Perturbation, SingleGroupIsNoop) {
  std::vector<std::vector<std::size_t>> groups{{0, 1, 2}};
  Rng rng(6);
  EXPECT_EQ(perturb_groups(groups, [](const auto&) { return 1.0; }, rng),
            0u);
}

// --- pool splitting ---

TEST(SplitPools, PrefillPrefersComputeStrongServers) {
  const topo::Graph g = topo::make_testbed();
  const PoolSplit split = split_pools(g, 10 * units::GB, 10 * units::GB, 8,
                                      8);
  ASSERT_EQ(split.prefill.size(), 8u);
  ASSERT_EQ(split.decode.size(), 8u);
  for (topo::NodeId id : split.prefill) {
    EXPECT_EQ(g.node(id).gpu.model, topo::GpuModel::kA100_40);
  }
  for (topo::NodeId id : split.decode) {
    EXPECT_EQ(g.node(id).gpu.model, topo::GpuModel::kV100_32);
  }
}

TEST(SplitPools, PoolsAreDisjoint) {
  const topo::Graph g = topo::make_testbed();
  const PoolSplit split = split_pools(g, units::GB, units::GB, 10, 6);
  for (topo::NodeId p : split.prefill) {
    for (topo::NodeId d : split.decode) EXPECT_NE(p, d);
  }
}

TEST(SplitPools, MemoryRequirementFiltersGpus) {
  const topo::Graph g = topo::make_testbed();
  // 35 GB requirement excludes the 32 GB V100s.
  const PoolSplit split = split_pools(g, 35 * units::GB, 35 * units::GB, 16,
                                      16);
  EXPECT_EQ(split.prefill.size() + split.decode.size(), 8u);
}

// --- candidate generation and planning ---

PlannerInputs testbed_inputs(const topo::Graph& graph,
                             const gpu::LatencyModel& lat,
                             bool heterogeneous = true) {
  PlannerInputs in;
  in.graph = &graph;
  in.model = llm::opt_66b();
  in.latency = &lat;
  in.batch_q = 8;
  in.k_in = 2500;
  in.k_in2 = 900000;
  in.k_out = 1500;
  in.arrival_rate = 1.0;
  in.t_sla_prefill = 2.5;
  in.t_sla_decode = 0.15;
  in.heterogeneous = heterogeneous;
  return in;
}

TEST(Candidates, RespectMemoryAndCap) {
  const topo::Graph g = topo::make_testbed();
  const auto& lat = fitted_model(llm::opt_66b());
  PlannerInputs in = testbed_inputs(g, lat);
  in.max_candi = 10;
  OfflinePlanner planner(in);
  const auto candidates = planner.generate_candidates();
  EXPECT_LE(candidates.size(), 10u);
  EXPECT_FALSE(candidates.empty());
  const Bytes model_bytes = in.model.param_bytes();
  for (const CandidateConfig& c : candidates) {
    // m_req must fit the largest GPU (40 GB) under r_frac.
    EXPECT_LE(model_bytes / (c.prefill.gpus() * in.r_frac),
              40.0 * units::GB * 1.0001);
    EXPECT_LE(c.gpus(), g.gpus().size());
  }
  // Sorted by total GPU count.
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    EXPECT_LE(candidates[i - 1].gpus(), candidates[i].gpus());
  }
}

TEST(Candidates, SmallModelAllowsSingleGpu) {
  const topo::Graph g = topo::make_testbed();
  const auto& lat = fitted_model(llm::opt_13b());
  PlannerInputs in = testbed_inputs(g, lat);
  in.model = llm::opt_13b();
  OfflinePlanner planner(in);
  const auto candidates = planner.generate_candidates();
  ASSERT_FALSE(candidates.empty());
  EXPECT_EQ(candidates.front().prefill.gpus(), 1u);
}

TEST(Plan, FeasibleOnTestbed) {
  const topo::Graph g = topo::make_testbed();
  const auto& lat = fitted_model(llm::opt_66b());
  OfflinePlanner planner(testbed_inputs(g, lat));
  const PlanResult result = planner.plan();
  ASSERT_TRUE(result.feasible) << result.infeasible_reason;
  EXPECT_LE(result.t_prefill, 2.5);
  EXPECT_LE(result.t_decode, 0.15);
  EXPECT_GT(result.throughput_h, 0.0);
  EXPECT_GT(result.candidates_evaluated, 0u);
  EXPECT_GT(result.solve_work_units, 0u);
  // Deployment shapes match the parallelism config.
  EXPECT_EQ(result.prefill.stages.size(), result.prefill.parallel.p_pipe);
  for (const GroupPlan& s : result.prefill.stages) {
    EXPECT_EQ(s.gpus.size(), result.prefill.parallel.p_tens);
  }
  // Disjoint deployments.
  for (topo::NodeId p : result.prefill.all_gpus()) {
    for (topo::NodeId d : result.decode.all_gpus()) EXPECT_NE(p, d);
  }
}

TEST(Plan, DeterministicForSeed) {
  const topo::Graph g = topo::make_testbed();
  const auto& lat = fitted_model(llm::opt_66b());
  const PlanResult a = OfflinePlanner(testbed_inputs(g, lat)).plan();
  const PlanResult b = OfflinePlanner(testbed_inputs(g, lat)).plan();
  ASSERT_TRUE(a.feasible);
  EXPECT_EQ(a.prefill.parallel.p_tens, b.prefill.parallel.p_tens);
  EXPECT_EQ(a.decode.parallel.p_tens, b.decode.parallel.p_tens);
  EXPECT_EQ(a.prefill.all_gpus(), b.prefill.all_gpus());
  EXPECT_DOUBLE_EQ(raw(a.throughput_h), raw(b.throughput_h));
}

TEST(Plan, OverloadStillDeploysMaxCapacityConfig) {
  const topo::Graph g = topo::make_testbed();
  const auto& lat = fitted_model(llm::opt_66b());
  PlannerInputs in = testbed_inputs(g, lat);
  in.arrival_rate = 1000.0;  // far beyond capacity
  const PlanResult result = OfflinePlanner(in).plan();
  ASSERT_TRUE(result.feasible);
  EXPECT_FALSE(result.queue.stable);
  EXPECT_GT(result.service_rate, 0.0);
}

TEST(Plan, InfeasibleWhenSlaImpossiblyTight) {
  const topo::Graph g = topo::make_testbed();
  const auto& lat = fitted_model(llm::opt_66b());
  PlannerInputs in = testbed_inputs(g, lat);
  in.t_sla_prefill = 1e-6;
  const PlanResult result = OfflinePlanner(in).plan();
  EXPECT_FALSE(result.feasible);
  EXPECT_FALSE(result.infeasible_reason.empty());
}

TEST(Plan, HeterogeneousEstimatesNoWorseThanHomogeneous) {
  const topo::Graph g = topo::make_testbed();
  const auto& lat = fitted_model(llm::opt_66b());
  const PlanResult hetero =
      OfflinePlanner(testbed_inputs(g, lat, true)).plan();
  const PlanResult homo =
      OfflinePlanner(testbed_inputs(g, lat, false)).plan();
  ASSERT_TRUE(hetero.feasible);
  ASSERT_TRUE(homo.feasible);
  EXPECT_GE(hetero.throughput_h, homo.throughput_h * 0.999);
}

TEST(Plan, SchemesAreInaOrRingPerGroup) {
  // Alg. 2 `getlatency` picks alpha (INA) or beta (ring) per group; when
  // INA is chosen, a switch must be elected.
  const topo::Graph g = topo::make_testbed();
  const auto& lat = fitted_model(llm::opt_66b());
  const PlanResult result = OfflinePlanner(testbed_inputs(g, lat)).plan();
  ASSERT_TRUE(result.feasible);
  for (const auto* cluster : {&result.prefill, &result.decode}) {
    for (const GroupPlan& group : cluster->stages) {
      if (group.scheme == coll::Scheme::kInaSync) {
        EXPECT_NE(group.ina_switch, topo::kInvalidNode);
      } else {
        EXPECT_EQ(group.scheme, coll::Scheme::kRing);
      }
    }
  }
}

TEST(Plan, QDecodeBoundedByBatchLimit) {
  const topo::Graph g = topo::make_testbed();
  const auto& lat = fitted_model(llm::opt_66b());
  PlannerInputs in = testbed_inputs(g, lat);
  in.decode_batch_limit = 16;
  const PlanResult result = OfflinePlanner(in).plan();
  ASSERT_TRUE(result.feasible);
  EXPECT_LE(result.q_decode, 16u);
  EXPECT_GE(result.q_decode, 1u);
}

TEST(Plan, MinPTensForcesCrossServerGroups) {
  // min_p_tens = 8 on 4-GPU servers: every tensor group must span at least
  // two NVLink domains (the paper's SII-B deployment regime).
  const topo::Graph g = topo::make_testbed();
  const auto& lat = fitted_model(llm::opt_66b());
  PlannerInputs in = testbed_inputs(g, lat);
  in.min_p_tens = 8;
  in.t_sla_prefill = 10.0;  // headroom: TP8 pays cross-server sync
  const PlanResult result = OfflinePlanner(in).plan();
  ASSERT_TRUE(result.feasible) << result.infeasible_reason;
  EXPECT_GE(result.prefill.parallel.p_tens, 8u);
  EXPECT_GE(result.decode.parallel.p_tens, 8u);
  for (const GroupPlan& stage : result.prefill.stages) {
    std::set<std::int32_t> servers;
    for (topo::NodeId id : stage.gpus) servers.insert(g.node(id).gpu.server);
    EXPECT_GE(servers.size(), 2u);
  }
}

/// `servers` NVLink-meshed A100-40 servers, each behind its own access
/// switch, with no link between the switches: every server is an island.
topo::Graph islands(std::int32_t servers, int gpus_per_server) {
  topo::Graph g;
  for (std::int32_t s = 0; s < servers; ++s) {
    const topo::NodeId sw =
        g.add_switch("sw" + std::to_string(s), topo::NodeKind::kAccessSwitch,
                     64);
    std::vector<topo::NodeId> gpus;
    for (int i = 0; i < gpus_per_server; ++i) {
      gpus.push_back(g.add_gpu(
          "s" + std::to_string(s) + "g" + std::to_string(i),
          topo::GpuModel::kA100_40, 40 * units::GB, s));
      g.add_edge(gpus.back(), sw, topo::LinkKind::kEthernet,
                 100 * units::Gbps);
    }
    for (std::size_t i = 0; i < gpus.size(); ++i) {
      for (std::size_t j = i + 1; j < gpus.size(); ++j) {
        g.add_edge(gpus[i], gpus[j], topo::LinkKind::kNvLink,
                   600 * units::GBps);
      }
    }
  }
  return g;
}

TEST(Plan, PartitionedGraphIsInfeasibleNotFatal) {
  // OPT-66B needs at least six A100-40s per cluster, so on 4-GPU islands
  // every candidate's GPU pool spans an island boundary. plan() must
  // report the unreachable pair rather than abort.
  const topo::Graph g = islands(4, 4);
  const auto& lat = fitted_model(llm::opt_66b());
  const PlanResult result = OfflinePlanner(testbed_inputs(g, lat)).plan();
  EXPECT_FALSE(result.feasible);
  EXPECT_GT(result.candidates_evaluated, 0u);
  const std::string& reason = result.infeasible_reason;
  EXPECT_NE(reason.find("no route between s"), std::string::npos) << reason;
  EXPECT_NE(reason.find(" and s"), std::string::npos) << reason;
}

TEST(Plan, KvPairAcrossIslandsIsInfeasible) {
  // Two 8-GPU islands: the first candidate's prefill and decode clusters
  // each fit one island, but no KV transfer path joins them.
  const topo::Graph g = islands(2, 8);
  const auto& lat = fitted_model(llm::opt_66b());
  const PlanResult result = OfflinePlanner(testbed_inputs(g, lat)).plan();
  EXPECT_FALSE(result.feasible);
  EXPECT_EQ(result.infeasible_reason.rfind("kv transfer: no route between s",
                                           0),
            0u)
      << result.infeasible_reason;
}

TEST(Candidates, MinPTensFiltersNarrowConfigs) {
  const topo::Graph g = topo::make_testbed();
  const auto& lat = fitted_model(llm::opt_66b());
  PlannerInputs in = testbed_inputs(g, lat);
  in.min_p_tens = 4;
  OfflinePlanner planner(in);
  for (const CandidateConfig& c : planner.generate_candidates()) {
    EXPECT_GE(c.prefill.p_tens, 4u);
    EXPECT_GE(c.decode.p_tens, 4u);
  }
}

TEST(Planner, RequiresGraphAndLatency) {
  PlannerInputs in;
  EXPECT_THROW(OfflinePlanner{in}, std::invalid_argument);
}

}  // namespace
}  // namespace hero::planner
