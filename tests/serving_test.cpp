// Tests for the serving cluster simulator: request lifecycle, continuous
// batching, KV-memory-gated admission, and metric accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "core/heroserve.hpp"
#include "obs/metrics.hpp"

namespace hero::serve {
namespace {

/// A ready-to-serve HeroServe deployment on the testbed.
struct ServeFixture {
  topo::Graph graph = topo::make_testbed();
  llm::ModelConfig model = llm::opt_66b();
  planner::PlanResult plan;
  sim::Simulator simulator;
  std::unique_ptr<net::FlowNetwork> network;
  std::unique_ptr<sw::SwitchRegistry> switches;
  std::unique_ptr<coll::CollectiveEngine> engine;
  std::unique_ptr<coll::CommScheduler> scheduler;

  explicit ServeFixture(bool hero = true) {
    planner::PlannerInputs in;
    in.graph = &graph;
    in.model = model;
    in.latency = &fitted_model(model);
    in.batch_q = 8;
    in.k_in = 2000;
    in.k_in2 = 600000;
    in.k_out = 1200;
    in.arrival_rate = 1.0;
    in.t_sla_prefill = 2.5;
    in.t_sla_decode = 0.15;
    in.heterogeneous = hero;
    plan = planner::OfflinePlanner(in).plan();
    EXPECT_TRUE(plan.feasible) << plan.infeasible_reason;

    network = std::make_unique<net::FlowNetwork>(simulator, graph);
    switches = std::make_unique<sw::SwitchRegistry>(simulator, graph);
    engine = std::make_unique<coll::CollectiveEngine>(*network, *switches);
    if (hero) {
      scheduler = std::make_unique<online::HeroCommScheduler>(*network);
    } else {
      scheduler = std::make_unique<baselines::StaticCommScheduler>(
          *network, baselines::BaselineKind::kDistServe);
    }
  }

  ServingOptions options() const {
    ServingOptions opts;
    opts.model = model;
    opts.sla_ttft = 2.5;
    opts.sla_tpot = 0.15;
    return opts;
  }

  wl::Trace trace(double rate, std::size_t count,
                  std::uint64_t seed = 3) const {
    wl::TraceOptions w;
    w.rate = rate;
    w.count = count;
    w.lengths = wl::sharegpt_lengths();
    w.seed = seed;
    return wl::generate_trace(w);
  }
};

TEST(ClusterSim, AllRequestsCompleteAtLowRate) {
  ServeFixture f;
  ClusterSim sim(*f.network, *f.engine, *f.scheduler, f.plan, f.options());
  f.scheduler->start();
  const ServingReport report = sim.run(f.trace(0.5, 20));
  EXPECT_EQ(report.submitted, 20u);
  EXPECT_EQ(report.completed, 20u);
  EXPECT_GT(report.makespan, 0.0);
  EXPECT_GT(report.requests_per_second, 0.0);
}

TEST(ClusterSim, MetricsAreConsistent) {
  ServeFixture f;
  ClusterSim sim(*f.network, *f.engine, *f.scheduler, f.plan, f.options());
  f.scheduler->start();
  const ServingReport report = sim.run(f.trace(0.5, 15));
  EXPECT_EQ(report.ttft.count(), report.completed);
  EXPECT_GT(report.ttft.quantile(0.0), 0.0);   // TTFT strictly positive
  EXPECT_GT(report.tpot.quantile(0.0), 0.0);
  EXPECT_GE(report.sla_attainment, 0.0);
  EXPECT_LE(report.sla_attainment, 1.0);
  EXPECT_GE(report.kv_utilization_peak, report.kv_utilization_avg);
  EXPECT_LE(report.kv_utilization_peak, 1.0 + 1e-9);
  EXPECT_GT(report.collectives, 0u);
  EXPECT_EQ(report.gpus_used, f.plan.prefill.all_gpus().size() +
                                  f.plan.decode.all_gpus().size());
  EXPECT_NEAR(raw(report.per_gpu_goodput),
              raw(report.requests_per_second / report.gpus_used),
              1e-12);
}

TEST(ClusterSim, LowRateMeetsSla) {
  ServeFixture f;
  ClusterSim sim(*f.network, *f.engine, *f.scheduler, f.plan, f.options());
  f.scheduler->start();
  const ServingReport report = sim.run(f.trace(0.3, 15));
  EXPECT_GE(report.sla_attainment, 0.9);
  EXPECT_LE(report.ttft.p90(), 2.5);
  EXPECT_LE(report.tpot.p90(), 0.15);
}

TEST(ClusterSim, OverloadDegradesTtftNotTpot) {
  // TTFT queues under overload; TPOT stays near the iteration time.
  ServeFixture lo;
  ClusterSim slo(*lo.network, *lo.engine, *lo.scheduler, lo.plan,
                 lo.options());
  lo.scheduler->start();
  const ServingReport rlo = slo.run(lo.trace(0.3, 20));

  ServeFixture hi;
  ClusterSim shi(*hi.network, *hi.engine, *hi.scheduler, hi.plan,
                 hi.options());
  hi.scheduler->start();
  const ServingReport rhi = shi.run(hi.trace(25.0, 40));

  EXPECT_GT(rhi.ttft.p90(), 2.0 * rlo.ttft.p90());
  EXPECT_LT(rhi.tpot.p90(), 3.0 * rlo.tpot.p90());
  EXPECT_LT(rhi.sla_attainment, rlo.sla_attainment);
}

TEST(ClusterSim, KvMemoryGatesAdmission) {
  // Shrink decode memory to nearly nothing: requests must queue for KV
  // space, serialize through decode, and utilization must peak near 1.
  ServeFixture f;
  for (topo::NodeId id : f.plan.decode.all_gpus()) {
    const Bytes weights =
        f.model.param_bytes() / f.plan.decode.parallel.gpus();
    // Room for ~2 concurrent requests across the whole cluster.
    f.graph.node(id).gpu.memory_free =
        weights + 2.5 * f.model.kv_bytes_per_token() * 600 /
                      f.plan.decode.parallel.gpus();
  }
  ClusterSim sim(*f.network, *f.engine, *f.scheduler, f.plan, f.options());
  f.scheduler->start();
  const ServingReport report = sim.run(f.trace(2.0, 12));
  EXPECT_EQ(report.completed, 12u);
  EXPECT_GT(report.kv_utilization_peak, 0.5);
}

TEST(ClusterSim, InfeasiblePlanRejected) {
  ServeFixture f;
  planner::PlanResult bad;
  bad.feasible = false;
  EXPECT_THROW(ClusterSim(*f.network, *f.engine, *f.scheduler, bad,
                          f.options()),
               std::invalid_argument);
}

TEST(ClusterSim, DeterministicForSeed) {
  auto run_once = [] {
    ServeFixture f;
    ClusterSim sim(*f.network, *f.engine, *f.scheduler, f.plan,
                   f.options());
    f.scheduler->start();
    return sim.run(f.trace(0.8, 15));
  };
  const ServingReport a = run_once();
  const ServingReport b = run_once();
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_DOUBLE_EQ(raw(a.makespan), raw(b.makespan));
  EXPECT_DOUBLE_EQ(a.ttft.p90(), b.ttft.p90());
}

TEST(ClusterSim, SingleTokenRequestsFinishWithoutDecode) {
  ServeFixture f;
  ClusterSim sim(*f.network, *f.engine, *f.scheduler, f.plan, f.options());
  f.scheduler->start();
  wl::Trace trace;
  for (std::uint64_t i = 0; i < 5; ++i) {
    trace.push_back(wl::Request{i, 0.1 * static_cast<double>(i), 256, 1});
  }
  const ServingReport report = sim.run(trace);
  EXPECT_EQ(report.completed, 5u);
  EXPECT_EQ(report.tpot.count(), 0u);  // no decode phase
  EXPECT_EQ(report.sla_attainment, 1.0);
}

TEST(ClusterSim, ArrivalsPastTheDeadlineStillServeLater) {
  // The deadline stops the run loop with arrivals still queued in the
  // simulator. They must stay safe to fire after run() returns: the loop's
  // scheduled closures own what they call.
  ServeFixture f;
  ServingOptions opts = f.options();
  opts.max_sim_time = 5.0;
  ClusterSim sim(*f.network, *f.engine, *f.scheduler, f.plan, opts);
  f.scheduler->start();
  const wl::Trace trace = f.trace(0.5, 20);
  ASSERT_GT(trace.back().arrival, 10.0);
  const ServingReport report = sim.run(trace);
  EXPECT_LT(report.submitted, 20u);
  EXPECT_LT(report.completed, 20u);
  f.simulator.run_until(trace.back().arrival + 600.0);
  EXPECT_EQ(sim.submitted_count(), 20u);
  EXPECT_EQ(sim.retired_count(), 20u);
}

TEST(ClusterSim, BaselineSchedulerAlsoServes) {
  ServeFixture f(/*hero=*/false);
  ClusterSim sim(*f.network, *f.engine, *f.scheduler, f.plan, f.options());
  const ServingReport report = sim.run(f.trace(0.5, 10));
  EXPECT_EQ(report.completed, 10u);
}

// --- prefix/KV tier ---

TEST(ClusterSim, KvSnapshotReplacesAccessorTrio) {
  ServeFixture f;
  ClusterSim sim(*f.network, *f.engine, *f.scheduler, f.plan, f.options());
  const KvSnapshot kv = sim.kv();
  EXPECT_GT(kv.budget, 0.0);
  EXPECT_DOUBLE_EQ(raw(kv.used), 0.0);
  EXPECT_DOUBLE_EQ(raw(kv.cached), 0.0);
  EXPECT_DOUBLE_EQ(raw(kv.bytes_per_token), raw(f.model.kv_bytes_per_token()));
  EXPECT_DOUBLE_EQ(raw(kv.free()), raw(kv.budget));
  EXPECT_DOUBLE_EQ(raw(kv.bytes_for_tokens(100)),
                   100.0 * raw(kv.bytes_per_token));
  EXPECT_DOUBLE_EQ(kv.utilization(), 0.0);
}

TEST(ClusterSim, TierDisabledByDefault) {
  ServeFixture f;
  ClusterSim sim(*f.network, *f.engine, *f.scheduler, f.plan, f.options());
  EXPECT_FALSE(sim.prefix_enabled());
  EXPECT_EQ(sim.cached_prefix_tokens(7), 0u);
  const ServingReport report = sim.run(f.trace(0.5, 8));
  EXPECT_EQ(report.completed, 8u);
  EXPECT_EQ(sim.prefix_stats().lookups, 0u);
}

TEST(ClusterSim, TierIsNoOpOnSessionlessTraces) {
  // Enabling the tier must not change a prefix-free run in any observable
  // way: same completions, bitwise-identical timings.
  auto run_once = [](std::size_t block_tokens) {
    ServeFixture f;
    ServingOptions opts = f.options();
    opts.prefix_block_tokens = block_tokens;
    ClusterSim sim(*f.network, *f.engine, *f.scheduler, f.plan, opts);
    f.scheduler->start();
    return sim.run(f.trace(0.8, 15));
  };
  const ServingReport off = run_once(0);
  const ServingReport on = run_once(128);
  EXPECT_EQ(on.completed, off.completed);
  EXPECT_DOUBLE_EQ(raw(on.makespan), raw(off.makespan));
  EXPECT_DOUBLE_EQ(on.ttft.p90(), off.ttft.p90());
  EXPECT_DOUBLE_EQ(on.tpot.p90(), off.tpot.p90());
  EXPECT_DOUBLE_EQ(on.kv_utilization_avg, off.kv_utilization_avg);
}

wl::Trace multiturn_trace(std::size_t count, std::uint64_t seed = 5) {
  wl::MultiturnOptions mt;
  mt.base.rate = 0.6;
  mt.base.count = count;
  mt.base.lengths = wl::sharegpt_lengths();
  mt.base.seed = seed;
  mt.mean_turns = 4.0;
  mt.think_mean = 60.0;
  return wl::generate_multiturn_trace(mt);
}

TEST(ClusterSim, PrefixReuseSkipsPrefillWork) {
  ServeFixture f;
  ServingOptions opts = f.options();
  opts.prefix_block_tokens = 128;
  ClusterSim sim(*f.network, *f.engine, *f.scheduler, f.plan, opts);
  f.scheduler->start();
  const wl::Trace trace = multiturn_trace(30);
  const ServingReport report = sim.run(trace);
  EXPECT_EQ(report.completed, trace.size());
  const PrefixStats& stats = sim.prefix_stats();
  // Follow-up turns arrive after their session's previous turn retired and
  // published its context, so some must hit the local cache.
  EXPECT_GT(stats.lookups, 0u);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.reused_tokens, 0u);
  EXPECT_GT(stats.published_tokens, 0u);
  EXPECT_LE(stats.hits + stats.recomputes, stats.lookups);
}

TEST(ClusterSim, PrefixReuseImprovesTtftOnMultiturn) {
  auto run_once = [](std::size_t block_tokens) {
    ServeFixture f;
    ServingOptions opts = f.options();
    opts.prefix_block_tokens = block_tokens;
    ClusterSim sim(*f.network, *f.engine, *f.scheduler, f.plan, opts);
    f.scheduler->start();
    return sim.run(multiturn_trace(30));
  };
  const ServingReport blind = run_once(0);
  const ServingReport reuse = run_once(128);
  EXPECT_EQ(reuse.completed, blind.completed);
  // Reused blocks skip prefill compute: mean TTFT cannot get worse and a
  // ~4-turn chat workload must show a real win.
  EXPECT_LT(reuse.ttft.mean(), blind.ttft.mean());
}

TEST(ClusterSim, ChangeHookMirrorsCoverage) {
  ServeFixture f;
  ServingOptions opts = f.options();
  opts.prefix_block_tokens = 128;
  ClusterSim sim(*f.network, *f.engine, *f.scheduler, f.plan, opts);
  f.scheduler->start();
  std::map<std::uint64_t, std::size_t> mirror;
  sim.set_prefix_change_hook(
      [&mirror](std::uint64_t stream, std::size_t tokens) {
        if (tokens == 0) {
          mirror.erase(stream);
        } else {
          mirror[stream] = tokens;
        }
      });
  const ServingReport report = sim.run(multiturn_trace(20));
  EXPECT_GT(report.completed, 0u);
  // The mirror agrees with the cache for every stream it tracks.
  EXPECT_FALSE(mirror.empty());
  for (const auto& [stream, tokens] : mirror) {
    EXPECT_EQ(sim.cached_prefix_tokens(stream), tokens);
  }
}

TEST(ClusterSim, RetirePrefixCacheSilencesHookAndDropsCoverage) {
  ServeFixture f;
  ServingOptions opts = f.options();
  opts.prefix_block_tokens = 128;
  ClusterSim sim(*f.network, *f.engine, *f.scheduler, f.plan, opts);
  f.scheduler->start();
  std::size_t calls_after_retire = 0;
  bool retired = false;
  sim.set_prefix_change_hook(
      [&](std::uint64_t, std::size_t) { calls_after_retire += retired; });
  const ServingReport report = sim.run(multiturn_trace(15));
  EXPECT_GT(report.completed, 0u);
  retired = true;
  sim.retire_prefix_cache();
  EXPECT_EQ(calls_after_retire, 0u);
  EXPECT_DOUBLE_EQ(raw(sim.kv().cached), 0.0);
  // Adoption after retirement is refused.
  sim.adopt_prefix(12345, 256);
  EXPECT_EQ(sim.cached_prefix_tokens(12345), 0u);
}

TEST(ClusterSim, RouteSearchesRunOncePerKvPair) {
  // Every prefill batch moves one KV shard per prefill GPU, but the
  // scheduler searches each (prefill GPU, kv_peer decode GPU) pair's
  // alternates only on its first transfer.
  ServeFixture f;
  obs::MetricsRegistry metrics;
  f.simulator.attach(obs::Sink(nullptr, &metrics));
  ClusterSim sim(*f.network, *f.engine, *f.scheduler, f.plan, f.options());
  f.scheduler->start();
  const std::size_t requests = 20;
  const ServingReport report = sim.run(f.trace(0.5, requests));
  ASSERT_EQ(report.completed, requests);

  auto gpus_of = [](const planner::ClusterPlan& cluster) {
    std::vector<topo::NodeId> gpus;
    for (const planner::GroupPlan& gp : cluster.stages) {
      gpus.insert(gpus.end(), gp.gpus.begin(), gp.gpus.end());
    }
    return gpus;
  };
  const std::vector<topo::NodeId> pre = gpus_of(f.plan.prefill);
  const std::vector<topo::NodeId> dec = gpus_of(f.plan.decode);
  std::set<std::pair<topo::NodeId, topo::NodeId>> pairs;
  for (std::size_t i = 0; i < pre.size(); ++i) {
    pairs.emplace(pre[i], dec[planner::kv_peer(i, pre.size(), dec.size())]);
  }
  EXPECT_EQ(f.scheduler->route_searches(), pairs.size());
  const obs::Counter* transfers = metrics.find_counter("serve.kv_transfers");
  ASSERT_NE(transfers, nullptr);
  EXPECT_GE(transfers->value(), requests);
}

// --- decode iteration events ---

/// The fixture's plan with its decode cluster replaced by TP1 x PP4 over
/// the first four GPUs the prefill cluster does not use.
planner::PlanResult tp1_pp4_decode(const ServeFixture& f) {
  planner::PlanResult plan = f.plan;
  const std::vector<topo::NodeId> prefill = plan.prefill.all_gpus();
  plan.decode = planner::ClusterPlan{};
  plan.decode.parallel = planner::ParallelConfig{1, 4};
  for (const topo::NodeId g : f.graph.gpus()) {
    if (plan.decode.stages.size() == 4) break;
    if (std::find(prefill.begin(), prefill.end(), g) != prefill.end()) {
      continue;
    }
    planner::GroupPlan stage;
    stage.gpus = {g};
    plan.decode.stages.push_back(stage);
  }
  return plan;
}

TEST(ClusterSim, DecodeLocalStagesShareOneEvent) {
  // Per-request times of a TP1 x PP4 decode plan, pinned bit for bit from
  // the build that gave every decode stage its own calendar entry: one
  // entry at the slowest stage's time must change nothing observable.
  struct Pin {
    std::uint64_t id;
    double ttft, finish;
  };
  const std::vector<Pin> want = {
      {2, 0x1.f73aa242abp-3, 0x1.99476eb25828bp+3},
      {4, 0x1.87450b30e3c8p-4, 0x1.df3cfbf0c851dp+3},
      {3, 0x1.baad3c514bfp-4, 0x1.f326f471e9bc7p+3},
      {1, 0x1.91f15aaa2bbp-5, 0x1.1a5cb28af0fd5p+4},
      {0, 0x1.2b78765f4d388p-3, 0x1.23536a4475f2ep+4},
      {5, 0x1.0337a0e905cfp-1, 0x1.302765c98fe84p+5},
  };
  {
    ServeFixture f;
    ClusterSim sim(*f.network, *f.engine, *f.scheduler, tp1_pp4_decode(f),
                   f.options());
    f.scheduler->start();
    const ServingReport report = sim.run(f.trace(0.5, want.size()));
    ASSERT_EQ(report.completed, want.size());
    const std::vector<RetiredSample> got = sim.retired_samples();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].id, want[i].id) << "sample " << i;
      EXPECT_EQ(raw(got[i].ttft), want[i].ttft) << "request " << got[i].id;
      EXPECT_EQ(raw(got[i].finish), want[i].finish)
          << "request " << got[i].id;
    }
  }
  // A lone request takes output_tokens - 1 decode iterations; with the
  // controller stopped nothing else is scheduled per iteration, so the
  // extra entries of a longer generation are the iterations' own: one
  // each, not one per stage.
  auto scheduled = [](std::size_t output_tokens) {
    ServeFixture f;
    ClusterSim sim(*f.network, *f.engine, *f.scheduler, tp1_pp4_decode(f),
                   f.options());
    const ServingReport report =
        sim.run(wl::Trace{wl::Request{0, 0.0, 512, output_tokens}});
    EXPECT_EQ(report.completed, 1u);
    return f.simulator.scheduled_events();
  };
  EXPECT_EQ(scheduled(61) - scheduled(21), 40u);
}

}  // namespace
}  // namespace hero::serve
