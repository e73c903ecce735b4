// End-to-end integration tests through the HeroServe facade: all four
// systems plan and serve; the paper's qualitative claims hold on small
// deterministic runs; failure injection behaves sanely.
#include <gtest/gtest.h>

#include "core/heroserve.hpp"

namespace hero {
namespace {

ExperimentConfig chatbot_config(double rate, std::size_t count) {
  ExperimentConfig cfg;
  cfg.topology = topo::make_testbed();
  cfg.serving.model = llm::opt_66b();
  cfg.workload.rate = rate;
  cfg.workload.count = count;
  cfg.workload.lengths = wl::sharegpt_lengths();
  cfg.workload.seed = 11;
  cfg.serving.sla_ttft = 2.5;
  cfg.serving.sla_tpot = 0.15;
  return cfg;
}

TEST(Experiment, AllSystemsServeTheTrace) {
  // Loose SLAs: this test is about end-to-end mechanics, not the knee.
  ExperimentConfig cfg = chatbot_config(1.0, 20);
  cfg.serving.sla_ttft = 5.0;
  cfg.serving.sla_tpot = 0.3;
  for (SystemKind kind : kAllSystems) {
    const ExperimentResult r = run_experiment(kind, cfg);
    ASSERT_TRUE(r.ok()) << to_string(kind) << ": "
                        << r.plan.infeasible_reason;
    EXPECT_EQ(r.report.completed, 20u) << to_string(kind);
    EXPECT_GT(r.report.sla_attainment, 0.5) << to_string(kind);
  }
}

TEST(Experiment, DeterministicForSeed) {
  const ExperimentConfig cfg = chatbot_config(1.0, 15);
  const ExperimentResult a = run_experiment(SystemKind::kHeroServe, cfg);
  const ExperimentResult b = run_experiment(SystemKind::kHeroServe, cfg);
  EXPECT_DOUBLE_EQ(raw(a.report.makespan), raw(b.report.makespan));
  EXPECT_DOUBLE_EQ(a.report.ttft.p90(), b.report.ttft.p90());
  EXPECT_EQ(a.report.collectives, b.report.collectives);
}

TEST(Experiment, SuppliedTraceMatchesGeneratedTrace) {
  // run_experiment(kind, cfg) is the supplied-trace overload fed
  // generate_trace(cfg.workload): same plan, same serving, same engine work.
  const ExperimentConfig cfg = chatbot_config(1.5, 15);
  for (SystemKind kind : {SystemKind::kHeroServe, SystemKind::kDistServe}) {
    const ExperimentResult a = run_experiment(kind, cfg);
    const ExperimentResult b =
        run_experiment(kind, cfg, wl::generate_trace(cfg.workload));
    ASSERT_TRUE(a.ok()) << to_string(kind);
    ASSERT_TRUE(b.ok()) << to_string(kind);
    EXPECT_EQ(a.plan.prefill.all_gpus(), b.plan.prefill.all_gpus());
    EXPECT_EQ(a.plan.decode.all_gpus(), b.plan.decode.all_gpus());
    EXPECT_EQ(raw(a.plan.t_prefill), raw(b.plan.t_prefill));
    EXPECT_EQ(raw(a.plan.t_decode), raw(b.plan.t_decode));
    EXPECT_EQ(raw(a.plan.t_kv), raw(b.plan.t_kv));
    EXPECT_EQ(a.report.completed, 15u);
    EXPECT_EQ(a.report.completed, b.report.completed);
    for (double q : {0.5, 0.9, 0.99}) {
      EXPECT_EQ(a.report.ttft.quantile(q), b.report.ttft.quantile(q));
      EXPECT_EQ(a.report.tpot.quantile(q), b.report.tpot.quantile(q));
    }
    EXPECT_EQ(a.report.sla_attainment, b.report.sla_attainment);
    EXPECT_EQ(a.report.collectives, b.report.collectives);
    EXPECT_EQ(raw(a.sim_stats.sim_seconds), raw(b.sim_stats.sim_seconds));
    EXPECT_EQ(a.sim_stats.events_executed, b.sim_stats.events_executed);
    EXPECT_EQ(a.sim_stats.events_scheduled, b.sim_stats.events_scheduled);
    EXPECT_EQ(a.sim_stats.events_cancelled, b.sim_stats.events_cancelled);
    EXPECT_EQ(a.sim_stats.flownet.reallocations,
              b.sim_stats.flownet.reallocations);
    EXPECT_EQ(a.sim_stats.flownet.solves, b.sim_stats.flownet.solves);
    EXPECT_EQ(a.sim_stats.flownet.flows_solved,
              b.sim_stats.flownet.flows_solved);
    EXPECT_EQ(a.sim_stats.flownet.flows_active,
              b.sim_stats.flownet.flows_active);
  }
}

TEST(Experiment, HeroBeatsDistServeUnderLoad) {
  // The paper's gap shows where deployments must cross servers: OPT-175B
  // on 4-GPU servers (the Fig. 8 regime). On the 16-GPU testbed the
  // chatbot scenario admits stage-intra-server placements where all four
  // systems honestly tie; see EXPERIMENTS.md.
  topo::TracksOptions tracks;
  tracks.servers = 18;
  tracks.tracks = 2;
  tracks.servers_per_pod = 6;
  tracks.core_switches = 3;
  tracks.gpus_per_server = 4;
  ExperimentConfig cfg;
  cfg.topology = topo::make_tracks_cluster(tracks);
  cfg.serving.model = llm::opt_175b();
  cfg.workload.rate = 3.0;
  cfg.workload.count = 60;
  cfg.workload.lengths = wl::sharegpt_lengths();
  cfg.workload.seed = 23;
  cfg.serving.sla_ttft = 4.0;
  cfg.serving.sla_tpot = 0.2;
  // The paper's deployment premise (SII-B, Fig. 1): instances span servers.
  cfg.min_p_tens = 8;
  const ExperimentResult hero =
      run_experiment(SystemKind::kHeroServe, cfg);
  const ExperimentResult dist =
      run_experiment(SystemKind::kDistServe, cfg);
  ASSERT_TRUE(hero.ok());
  ASSERT_TRUE(dist.ok());
  EXPECT_GT(hero.report.sla_attainment, dist.report.sla_attainment);
  EXPECT_LT(hero.report.ttft.p90(), dist.report.ttft.p90());
  EXPECT_LT(hero.report.tpot.p90(), dist.report.tpot.p90());
}

TEST(Experiment, HeroKeepsKvMemoryLower) {
  // Paper Fig. 10 mechanism: faster token turnaround drains KV sooner.
  const ExperimentConfig cfg = chatbot_config(4.0, 60);
  const ExperimentResult hero =
      run_experiment(SystemKind::kHeroServe, cfg);
  const ExperimentResult dist =
      run_experiment(SystemKind::kDistServe, cfg);
  ASSERT_TRUE(hero.ok() && dist.ok());
  EXPECT_LT(hero.report.kv_utilization_avg,
            dist.report.kv_utilization_avg * 1.05);
}

TEST(Experiment, InfeasibleSlaYieldsNotOk) {
  ExperimentConfig cfg = chatbot_config(1.0, 10);
  cfg.serving.sla_ttft = 1e-6;
  const ExperimentResult r = run_experiment(SystemKind::kHeroServe, cfg);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.report.completed, 0u);
}

TEST(FindMaxRate, BracketsAttainmentTarget) {
  ExperimentConfig cfg = chatbot_config(1.0, 40);
  const RateSearchResult search =
      find_max_rate(SystemKind::kHeroServe, cfg, 0.25, 8.0, 0.9, 4);
  EXPECT_GT(search.max_rate, 0.0);
  EXPECT_LT(search.max_rate, 8.0);
  EXPECT_GE(search.at_max.report.sla_attainment, 0.9);
  EXPECT_GE(search.samples.size(), 2u);
}

TEST(FindMaxRate, ZeroWhenLowerBoundFails) {
  ExperimentConfig cfg = chatbot_config(1.0, 30);
  cfg.serving.sla_tpot = 1e-5;  // unattainable
  const RateSearchResult search =
      find_max_rate(SystemKind::kHeroServe, cfg, 0.25, 4.0, 0.9, 3);
  EXPECT_DOUBLE_EQ(search.max_rate, 0.0);
}

TEST(FailureInjection, DegradedUplinksHurtDistServeMoreThanHero) {
  // Halving a couple of Ethernet uplinks is routed around by HeroServe's
  // heterogeneous paths; DistServe's static Ethernet ring eats the loss.
  ExperimentConfig cfg = chatbot_config(2.0, 40);
  cfg.serving.sla_ttft = 5.0;  // headroom so every system still deploys
  // Degrade the first two GPU uplink edges (Ethernet).
  int degraded = 0;
  for (topo::EdgeId e = 0; e < cfg.topology.edge_count() && degraded < 2;
       ++e) {
    if (cfg.topology.edge(e).kind == topo::LinkKind::kEthernet &&
        cfg.topology.is_gpu(cfg.topology.edge(e).a)) {
      cfg.topology.edge(e).capacity *= 0.25;
      ++degraded;
    }
  }
  ASSERT_EQ(degraded, 2);
  const ExperimentResult hero =
      run_experiment(SystemKind::kHeroServe, cfg);
  const ExperimentResult dist =
      run_experiment(SystemKind::kDistServe, cfg);
  ASSERT_TRUE(hero.ok() && dist.ok());
  EXPECT_GE(hero.report.sla_attainment, dist.report.sla_attainment);
}

TEST(FittedModel, CachedPerModel) {
  const gpu::LatencyModel& a = fitted_model(llm::opt_66b());
  const gpu::LatencyModel& b = fitted_model(llm::opt_66b());
  EXPECT_EQ(&a, &b);
  const gpu::LatencyModel& c = fitted_model(llm::opt_13b());
  EXPECT_NE(&a, &c);
}

TEST(SystemKind, Names) {
  EXPECT_STREQ(to_string(SystemKind::kHeroServe), "HeroServe");
  EXPECT_STREQ(to_string(SystemKind::kDistServe), "DistServe");
  EXPECT_STREQ(to_string(SystemKind::kDsAtp), "DS-ATP");
  EXPECT_STREQ(to_string(SystemKind::kDsSwitchMl), "DS-SwitchML");
}

}  // namespace
}  // namespace hero
