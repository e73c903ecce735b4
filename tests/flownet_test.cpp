// Tests for the fluid flow network: store-and-forward hop semantics,
// max-min fair sharing, utilization monitoring, and failure injection.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "netsim/flownet.hpp"
#include "topology/builders.hpp"

namespace hero::net {
namespace {

using topo::Graph;
using topo::GpuModel;
using topo::LinkKind;
using topo::NodeId;
using topo::NodeKind;
using topo::Path;

struct Fixture {
  Graph graph;
  sim::Simulator simulator;
  std::unique_ptr<FlowNetwork> net;

  explicit Fixture(Graph g) : graph(std::move(g)) {
    net = std::make_unique<FlowNetwork>(simulator, graph);
  }
};

Graph two_hop_graph(Time hop_latency = 0.0) {
  Graph g;
  const NodeId a = g.add_gpu("a", GpuModel::kA100_40, 1, 0);
  const NodeId s = g.add_switch("s", NodeKind::kAccessSwitch);
  const NodeId b = g.add_gpu("b", GpuModel::kA100_40, 1, 1);
  g.add_edge(a, s, LinkKind::kEthernet, 100 * units::Gbps, hop_latency);
  g.add_edge(s, b, LinkKind::kEthernet, 100 * units::Gbps, hop_latency);
  return g;
}

Path path_of(const Graph& g, std::string_view src, std::string_view dst) {
  auto p = topo::shortest_path(g, g.find(src), g.find(dst));
  EXPECT_TRUE(p.has_value());
  return *p;
}

TEST(FlowNetwork, SingleTransferStoreAndForwardTime) {
  Fixture f(two_hop_graph());
  Time done = -1;
  f.net->start_transfer(path_of(f.graph, "a", "b"), 1.0 * units::MB,
                        TransferOptions{[&](TransferId) {
                          done = f.simulator.now();
                        }});
  f.simulator.run();
  // Two sequential 80 us hops.
  EXPECT_NEAR(raw(done), raw(160.0 * units::us), 1e-9);
}

TEST(FlowNetwork, HopLatencyAdds) {
  Fixture f(two_hop_graph(1.0 * units::us));
  Time done = -1;
  f.net->start_transfer(path_of(f.graph, "a", "b"), 1.0 * units::MB,
                        TransferOptions{[&](TransferId) {
                          done = f.simulator.now();
                        }});
  f.simulator.run();
  EXPECT_NEAR(raw(done), raw(162.0 * units::us), 1e-9);
}

TEST(FlowNetwork, ZeroBytesCompletesImmediatelyButAsync) {
  Fixture f(two_hop_graph());
  bool done = false;
  f.net->start_transfer(path_of(f.graph, "a", "b"), 0.0,
                        TransferOptions{[&](TransferId) { done = true; }});
  EXPECT_FALSE(done);  // asynchronous even for empty payloads
  f.simulator.run();
  EXPECT_TRUE(done);
}

TEST(FlowNetwork, EmptyPathCompletes) {
  Fixture f(two_hop_graph());
  bool done = false;
  f.net->start_transfer(Path{{f.graph.find("a")}, {}}, 5.0 * units::MB,
                        TransferOptions{[&](TransferId) { done = true; }});
  f.simulator.run();
  EXPECT_TRUE(done);
}

TEST(FlowNetwork, TwoFlowsShareLinkFairly) {
  Fixture f(two_hop_graph());
  const Path p = path_of(f.graph, "a", "b");
  std::vector<Time> done;
  for (int i = 0; i < 2; ++i) {
    f.net->start_transfer(p, 1.0 * units::MB,
                          TransferOptions{[&](TransferId) {
                            done.push_back(f.simulator.now());
                          }});
  }
  f.simulator.run();
  ASSERT_EQ(done.size(), 2u);
  // First hop shared: 160 us for both; second hop then shared again.
  // Both flows finish at 320 us (fair sharing all the way).
  EXPECT_NEAR(raw(done[1]), raw(320.0 * units::us), raw(1.0 * units::us));
}

TEST(FlowNetwork, WeightedSharing) {
  Fixture f(two_hop_graph());
  const Path p = path_of(f.graph, "a", "b");
  Time heavy_done = -1, light_done = -1;
  TransferOptions heavy;
  heavy.weight = 3.0;
  heavy.on_complete = [&](TransferId) { heavy_done = f.simulator.now(); };
  TransferOptions light;
  light.weight = 1.0;
  light.on_complete = [&](TransferId) { light_done = f.simulator.now(); };
  f.net->start_transfer(p, 1.0 * units::MB, std::move(heavy));
  f.net->start_transfer(p, 1.0 * units::MB, std::move(light));
  f.simulator.run();
  EXPECT_LT(heavy_done, light_done);
}

TEST(FlowNetwork, DisjointPathsDoNotInterfere) {
  // a-s-b and c-s2-d independent.
  Graph g;
  const NodeId a = g.add_gpu("a", GpuModel::kA100_40, 1, 0);
  const NodeId s = g.add_switch("s", NodeKind::kAccessSwitch);
  const NodeId b = g.add_gpu("b", GpuModel::kA100_40, 1, 1);
  const NodeId c = g.add_gpu("c", GpuModel::kA100_40, 1, 2);
  const NodeId s2 = g.add_switch("s2", NodeKind::kAccessSwitch);
  const NodeId d = g.add_gpu("d", GpuModel::kA100_40, 1, 3);
  g.add_edge(a, s, LinkKind::kEthernet, 100 * units::Gbps, 0.0);
  g.add_edge(s, b, LinkKind::kEthernet, 100 * units::Gbps, 0.0);
  g.add_edge(c, s2, LinkKind::kEthernet, 100 * units::Gbps, 0.0);
  g.add_edge(s2, d, LinkKind::kEthernet, 100 * units::Gbps, 0.0);
  Fixture f(std::move(g));
  std::vector<Time> done;
  f.net->start_transfer(path_of(f.graph, "a", "b"), 1.0 * units::MB,
                        TransferOptions{[&](TransferId) {
                          done.push_back(f.simulator.now());
                        }});
  f.net->start_transfer(path_of(f.graph, "c", "d"), 1.0 * units::MB,
                        TransferOptions{[&](TransferId) {
                          done.push_back(f.simulator.now());
                        }});
  f.simulator.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(raw(done[0]), raw(160.0 * units::us), 1e-9);
  EXPECT_NEAR(raw(done[1]), raw(160.0 * units::us), 1e-9);
}

TEST(FlowNetwork, CancelStopsTransfer) {
  Fixture f(two_hop_graph());
  bool done = false;
  const TransferId id =
      f.net->start_transfer(path_of(f.graph, "a", "b"), 1.0 * units::MB,
                            TransferOptions{[&](TransferId) { done = true; }});
  f.net->cancel_transfer(id);
  f.simulator.run();
  EXPECT_FALSE(done);
  EXPECT_EQ(f.net->active_transfers(), 0u);
}

TEST(FlowNetwork, UtilizationReflectsActiveFlow) {
  Fixture f(two_hop_graph());
  f.net->start_transfer(path_of(f.graph, "a", "b"), 10.0 * units::MB, {});
  f.simulator.run_until(1.0 * units::us);
  // Flow occupies the first edge fully.
  EXPECT_NEAR(f.net->edge_utilization(0), 1.0, 1e-9);
  EXPECT_NEAR(f.net->edge_utilization(1), 0.0, 1e-9);
}

TEST(FlowNetwork, EstimatePathResidualDropsUnderLoad) {
  Fixture f(two_hop_graph());
  const Path p = path_of(f.graph, "a", "b");
  const PathEstimate before = f.net->estimate_path(p);
  EXPECT_NEAR(raw(before.residual), raw(100 * units::Gbps), 1.0);
  EXPECT_NEAR(raw(before.fair_share), raw(100 * units::Gbps), 1.0);
  f.net->start_transfer(p, 10.0 * units::MB, {});
  f.simulator.run_until(1.0 * units::us);
  const PathEstimate during = f.net->estimate_path(p);
  EXPECT_NEAR(raw(during.residual), raw(0.0), 1.0);
  // Saturated link: a new flow would still be admitted at cap / (n + 1),
  // not at the zero residual (the burst-herding fix).
  EXPECT_NEAR(raw(during.fair_share), raw(50 * units::Gbps), 1.0);
  EXPECT_EQ(during.bottleneck_link, 0u);
}

TEST(FlowNetwork, EstimatePathEmptyPath) {
  Fixture f(two_hop_graph());
  const PathEstimate est = f.net->estimate_path(Path{{f.graph.find("a")}, {}});
  EXPECT_EQ(est.bottleneck_link, topo::kInvalidEdge);
  EXPECT_EQ(est.latency, 0.0);
  EXPECT_GT(est.fair_share, 1e30);
}

TEST(FlowNetwork, EstimatePathAccumulatesLatency) {
  Fixture f(two_hop_graph(1.0 * units::us));
  const PathEstimate est = f.net->estimate_path(path_of(f.graph, "a", "b"));
  EXPECT_NEAR(raw(est.latency), raw(2.0 * units::us), 1e-12);
}

TEST(FlowNetwork, EstimatePathIsDirectionAware) {
  // Load the a->b direction only; b->a must still look idle.
  Fixture f(two_hop_graph());
  f.net->start_transfer(path_of(f.graph, "a", "b"), 10.0 * units::MB, {});
  f.simulator.run_until(1.0 * units::us);
  const PathEstimate fwd = f.net->estimate_path(path_of(f.graph, "a", "b"));
  const PathEstimate rev = f.net->estimate_path(path_of(f.graph, "b", "a"));
  EXPECT_NEAR(raw(fwd.residual), raw(0.0), 1.0);
  EXPECT_NEAR(raw(rev.residual), raw(100 * units::Gbps), 1.0);
}

TEST(FlowNetwork, DeliveredBytesAccumulate) {
  Fixture f(two_hop_graph());
  f.net->start_transfer(path_of(f.graph, "a", "b"), 1.0 * units::MB, {});
  f.simulator.run();
  const topo::Edge& e0 = f.graph.edge(0);
  const DirectedLink fwd{0, e0.a == f.graph.find("a")};
  EXPECT_NEAR(raw(f.net->delivered_bytes(fwd)), raw(1.0 * units::MB), 1.0);
}

TEST(FlowNetwork, LinkDegradationSlowsTransfer) {
  Fixture f(two_hop_graph());
  f.net->set_link_degradation(0, 0.5);
  Time done = -1;
  f.net->start_transfer(path_of(f.graph, "a", "b"), 1.0 * units::MB,
                        TransferOptions{[&](TransferId) {
                          done = f.simulator.now();
                        }});
  f.simulator.run();
  EXPECT_NEAR(raw(done), raw((160.0 + 80.0) * units::us), 1e-9);
}

TEST(FlowNetwork, DegradationValidation) {
  Fixture f(two_hop_graph());
  EXPECT_THROW(f.net->set_link_degradation(0, 0.0), std::invalid_argument);
  EXPECT_THROW(f.net->set_link_degradation(0, 1.5), std::invalid_argument);
}

TEST(FlowNetwork, MidFlightDegradationReschedules) {
  Fixture f(two_hop_graph());
  Time done = -1;
  f.net->start_transfer(path_of(f.graph, "a", "b"), 1.0 * units::MB,
                        TransferOptions{[&](TransferId) {
                          done = f.simulator.now();
                        }});
  // Halve capacity halfway through the first hop.
  f.simulator.schedule(40.0 * units::us,
                       [&] { f.net->set_link_degradation(0, 0.5); });
  f.simulator.run();
  // First hop: 40us at full + 80us at half = 120us; second hop 80us.
  EXPECT_NEAR(raw(done), raw(200.0 * units::us), raw(1.0 * units::us));
}

TEST(FlowNetwork, NegativeBytesThrows) {
  Fixture f(two_hop_graph());
  EXPECT_THROW(
      f.net->start_transfer(path_of(f.graph, "a", "b"), -1.0, {}),
      std::invalid_argument);
}

TEST(FlowNetwork, RejectsNonFiniteBytes) {
  Fixture f(two_hop_graph());
  const Path path = path_of(f.graph, "a", "b");
  for (const double bytes : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
    bool done = false;
    EXPECT_THROW(f.net->start_transfer(
                     path, bytes,
                     TransferOptions{[&](TransferId) { done = true; }}),
                 std::invalid_argument);
    f.simulator.run();
    EXPECT_FALSE(done);
  }
  EXPECT_EQ(f.net->active_transfers(), 0u);
  EXPECT_EQ(f.simulator.scheduled_events(), 0u);
}

/// Completion time of each of `count` equal flows a -> b started at t = 0
/// back to back, with an unrelated simulator event scheduled right after
/// flow `split_after` (none when it is past the last flow). Also reports
/// the calendar entries the starts left pending.
std::vector<Time> same_time_completions(std::size_t count,
                                        std::size_t split_after,
                                        std::size_t& pending) {
  Fixture f(two_hop_graph(1.0 * units::us));
  std::vector<Time> done(count, -1.0);
  for (std::size_t i = 0; i < count; ++i) {
    f.net->start_transfer(path_of(f.graph, "a", "b"), 1.0 * units::MB,
                          TransferOptions{[&done, &f, i](TransferId) {
                            done[i] = f.simulator.now();
                          }});
    if (i == split_after) f.simulator.schedule(1.0, [] {});
  }
  pending = f.simulator.pending_events();
  f.simulator.run();
  return done;
}

TEST(FlowNetwork, SameTimeActivationsShareOneEntry) {
  // Flows whose first hops activate at the same instant, started with
  // nothing scheduled in between, wait in one calendar entry.
  std::size_t joined = 0;
  const std::vector<Time> one = same_time_completions(4, 4, joined);
  EXPECT_EQ(joined, 1u);
  // Anything scheduled between two starts splits the batch there (had it
  // been due at the activation time, it would fire between them): two
  // activation entries plus the unrelated one.
  std::size_t split = 0;
  const std::vector<Time> two = same_time_completions(4, 1, split);
  EXPECT_EQ(split, 3u);
  // Either way the flows run in the same order to the same times.
  ASSERT_EQ(one.size(), two.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_GT(one[i], 0.0) << "flow " << i;
    EXPECT_EQ(raw(one[i]), raw(two[i])) << "flow " << i;
  }
}

TEST(FlowNetwork, CancelWhileWaitingInSharedActivation) {
  Fixture f(two_hop_graph(1.0 * units::us));
  const Path path = path_of(f.graph, "a", "b");
  const DirectedLink first{0, f.graph.edge(0).a == f.graph.find("a")};
  f.simulator.schedule(5.0, [] {});  // an unrelated entry stays pending
  const std::size_t before = f.simulator.pending_events();
  const Bytes delivered = f.net->delivered_bytes(first);
  std::vector<int> done;
  auto start = [&](int tag) {
    return f.net->start_transfer(
        path, 1.0 * units::MB,
        TransferOptions{[&done, tag](TransferId) { done.push_back(tag); }});
  };

  // Cancel one member, then the rest: the shared entry outlives the first
  // cancel and goes with the last one.
  const TransferId a = start(0);
  const TransferId b = start(1);
  const TransferId c = start(2);
  EXPECT_EQ(f.simulator.pending_events(), before + 1);
  f.net->cancel_transfer(b);
  EXPECT_EQ(f.simulator.pending_events(), before + 1);
  f.net->cancel_transfer(a);
  f.net->cancel_transfer(c);
  EXPECT_EQ(f.simulator.pending_events(), before);
  EXPECT_EQ(f.net->active_transfers(), 0u);
  EXPECT_EQ(raw(f.net->delivered_bytes(first)), raw(delivered));

  // A cancelled member's slot taken by a flow that joins the same entry:
  // only the live members fire, in join order.
  const TransferId d = start(3);
  start(4);
  f.net->cancel_transfer(d);
  start(5);
  EXPECT_EQ(f.simulator.pending_events(), before + 1);
  f.simulator.run_until(1.0);
  EXPECT_EQ(done, (std::vector<int>{4, 5}));
  EXPECT_EQ(f.net->active_transfers(), 0u);
  EXPECT_EQ(f.simulator.pending_events(), before);
}

/// Max-min property: with N flows crossing one shared hop, no link is
/// oversubscribed and total completion scales with N.
class FairShareTest : public ::testing::TestWithParam<int> {};

TEST_P(FairShareTest, NFlowsCompleteInProportionalTime) {
  const int n = GetParam();
  Fixture f(two_hop_graph());
  const Path p = path_of(f.graph, "a", "b");
  int completed = 0;
  Time last = 0;
  for (int i = 0; i < n; ++i) {
    f.net->start_transfer(p, 1.0 * units::MB,
                          TransferOptions{[&](TransferId) {
                            ++completed;
                            last = f.simulator.now();
                          }});
  }
  // Utilization never exceeds 1 while running.
  f.simulator.run_until(10.0 * units::us);
  for (topo::EdgeId e = 0; e < f.graph.edge_count(); ++e) {
    EXPECT_LE(f.net->edge_utilization(e), 1.0 + 1e-9);
  }
  f.simulator.run();
  EXPECT_EQ(completed, n);
  // All n share each hop: total time ~ 2 * n * 80us.
  EXPECT_NEAR(raw(last),
              raw(2.0 * n * 80.0 * units::us),
              raw(n * 2.0 * units::us));
}

INSTANTIATE_TEST_SUITE_P(FlowCounts, FairShareTest,
                         ::testing::Values(1, 2, 4, 8, 16));

TEST(FlowNetwork, PipelinedTransferUsesBottleneckRate) {
  // Pipelined (RDMA-style) flows pay hop latencies once and stream at the
  // end-to-end bottleneck rate instead of store-and-forward per hop.
  Fixture f(two_hop_graph(1.0 * units::us));
  Time done = -1;
  net::TransferOptions opts;
  opts.pipelined = true;
  opts.on_complete = [&](TransferId) { done = f.simulator.now(); };
  f.net->start_transfer(path_of(f.graph, "a", "b"), 1.0 * units::MB,
                        std::move(opts));
  f.simulator.run();
  // 2 us total latency + 80 us at the 100 Gbps bottleneck.
  EXPECT_NEAR(raw(done), raw(82.0 * units::us), 1e-9);
}

TEST(FlowNetwork, PipelinedOccupiesAllHops) {
  Fixture f(two_hop_graph());
  net::TransferOptions opts;
  opts.pipelined = true;
  f.net->start_transfer(path_of(f.graph, "a", "b"), 10.0 * units::MB,
                        std::move(opts));
  f.simulator.run_until(1.0 * units::us);
  EXPECT_NEAR(f.net->edge_utilization(0), 1.0, 1e-9);
  EXPECT_NEAR(f.net->edge_utilization(1), 1.0, 1e-9);
}

TEST(FlowNetwork, PipelinedSharesWithStoreAndForward) {
  // A pipelined flow and a SAF flow contending on hop 0 each get half.
  Fixture f(two_hop_graph());
  const Path p = path_of(f.graph, "a", "b");
  Time pipe_done = -1;
  net::TransferOptions pipe;
  pipe.pipelined = true;
  pipe.on_complete = [&](TransferId) { pipe_done = f.simulator.now(); };
  f.net->start_transfer(p, 1.0 * units::MB, std::move(pipe));
  f.net->start_transfer(p, 1.0 * units::MB, {});
  f.simulator.run();
  // The pipelined flow holds both hops at the fair-share rate; it cannot
  // finish before 160 us (half rate on the shared first hop).
  EXPECT_GT(pipe_done, 155.0 * units::us);
  EXPECT_EQ(f.net->active_transfers(), 0u);
}

TEST(FlowNetwork, PipelinedFasterThanStoreAndForwardOnLongPaths) {
  // 4-hop line: SAF pays 4x serialization, pipelined pays 1x.
  Graph g;
  std::vector<NodeId> nodes;
  nodes.push_back(g.add_gpu("src", GpuModel::kA100_40, 1, 0));
  for (int i = 0; i < 3; ++i) {
    nodes.push_back(g.add_switch("s" + std::to_string(i),
                                 NodeKind::kAccessSwitch));
  }
  nodes.push_back(g.add_gpu("dst", GpuModel::kA100_40, 1, 1));
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    g.add_edge(nodes[i - 1], nodes[i], LinkKind::kEthernet,
               100 * units::Gbps, 0.0);
  }
  Fixture f(std::move(g));
  const Path p = path_of(f.graph, "src", "dst");
  Time saf = -1, pipe = -1;
  f.net->start_transfer(p, 1.0 * units::MB,
                        TransferOptions{[&](TransferId) {
                          saf = f.simulator.now();
                        }});
  f.simulator.run();
  net::TransferOptions opts;
  opts.pipelined = true;
  opts.on_complete = [&](TransferId) { pipe = f.simulator.now(); };
  const Time start = f.simulator.now();
  f.net->start_transfer(p, 1.0 * units::MB, std::move(opts));
  f.simulator.run();
  EXPECT_NEAR(raw(saf), raw(4.0 * 80.0 * units::us), 1e-9);
  EXPECT_NEAR(raw(pipe - start), raw(80.0 * units::us), 1e-9);
}

TEST(FlowNetwork, ManyRandomFlowsAllComplete) {
  // Stress the reallocation path on the full testbed topology.
  Fixture f(topo::make_testbed());
  const auto gpus = f.graph.gpus();
  Rng rng(99);
  int completed = 0;
  const int total = 60;
  for (int i = 0; i < total; ++i) {
    const NodeId src = gpus[rng.uniform_int(gpus.size())];
    NodeId dst = gpus[rng.uniform_int(gpus.size())];
    if (src == dst) dst = gpus[(rng.uniform_int(gpus.size() - 1) + 1 +
                                (src - gpus[0])) % gpus.size()];
    auto p = topo::shortest_path(f.graph, src, dst);
    if (!p || p->empty()) {
      ++completed;  // same node; nothing to move
      continue;
    }
    f.simulator.schedule(rng.uniform(0.0, raw(100.0 * units::us)), [&f, &completed,
                                                               path = *p,
                                                               bytes =
                                                                   rng.uniform(
                                                                       0.1, 4) *
                                                                   units::MB] {
      f.net->start_transfer(path, bytes, TransferOptions{[&](TransferId) {
                              ++completed;
                            }});
    });
  }
  f.simulator.run();
  EXPECT_EQ(completed, total);
  EXPECT_EQ(f.net->active_transfers(), 0u);
}

}  // namespace
}  // namespace hero::net
