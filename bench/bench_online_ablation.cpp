// Online-scheduler ablations for the design choices DESIGN.md calls out,
// measured where the scheduler's decisions actually bind: the Fig. 9
// contention harness (six TP=8 groups saturating a 2tracks pod) plus a
// mid-run link failure the scheduler must route around.
//
// Variants:
//  * delta model: Eq. 16's literal delta = D/(T_u*b_c) vs the
//    bottleneck-capacity reading (our default);
//  * gamma (Eq. 18 smoothing) sensitivity;
//  * controller staleness: fast counter polling vs never recalibrating;
//  * frozen policy: adaptation disabled after the first choice (what a
//    purely offline-planned heterogeneous system would do).
#include "bench_util.hpp"
#include "online/scheduler.hpp"

namespace {

using namespace hero;

constexpr double kWindowSeconds = 0.5;
constexpr std::size_t kGroups = 6;
constexpr Bytes kMessage = 16 * units::MB;

topo::Graph make_pod() {
  topo::TracksOptions opts;
  opts.servers = 6;
  opts.tracks = 2;
  opts.servers_per_pod = 6;
  opts.core_switches = 2;
  return topo::make_tracks_cluster(opts);
}

struct Variant {
  const char* name;
  online::OnlineConfig config;
  bool frozen = false;       ///< stick to the first selected policy
  bool inject_failure = false;  ///< degrade a leader uplink mid-run
};

/// Aggregate all-reduce goodput under a variant (bytes/s).
double run_variant(const Variant& variant) {
  const topo::Graph graph = make_pod();
  sim::Simulator simulator;
  net::FlowNetwork network(simulator, graph);
  sw::SwitchRegistry switches(simulator, graph);
  coll::CollectiveEngine engine(network, switches);
  online::HeroCommScheduler scheduler(network, variant.config);

  const auto by_server = graph.gpus_by_server();
  std::vector<coll::GroupId> groups;
  std::vector<std::shared_ptr<const coll::AllReducePlan>> first_plan(kGroups);
  for (std::size_t j = 0; j < kGroups; ++j) {
    std::vector<topo::NodeId> members;
    for (std::size_t i = 0; i < 4; ++i) members.push_back(by_server[j][i]);
    for (std::size_t i = 0; i < 4; ++i) {
      members.push_back(by_server[(j + 1) % by_server.size()][i]);
    }
    groups.push_back(scheduler.register_group(members));
  }
  scheduler.start();

  if (variant.inject_failure) {
    // Degrade one access uplink a quarter of the way in: adaptive tables
    // shift traffic, frozen policies keep hammering the degraded route.
    simulator.schedule(kWindowSeconds / 4, [&] {
      // Degrade the NIC uplinks of server 0's first two GPUs (members of
      // groups 0 and 5): adaptive tables shift those shards to other
      // tracks via NVLink forwarding; frozen policies keep hammering them.
      const std::vector<topo::NodeId> victims = graph.gpus_by_server()[0];
      for (std::size_t v = 0; v < 2 && v < victims.size(); ++v) {
        for (const topo::Adjacency& adj : graph.neighbors(victims[v])) {
          if (graph.edge(adj.edge).kind == topo::LinkKind::kEthernet) {
            network.set_link_degradation(adj.edge, 0.1);
          }
        }
      }
    });
  }

  std::uint64_t completed = 0;
  std::function<void(std::size_t)> launch = [&](std::size_t g) {
    if (!variant.frozen || first_plan[g] == nullptr) {
      first_plan[g] = scheduler.all_reduce_plan(groups[g], kMessage);
    }
    engine.all_reduce(first_plan[g], kMessage,
                      [&, g](const coll::AllReduceResult&) {
                        ++completed;
                        if (simulator.now() < kWindowSeconds) launch(g);
                      });
  };
  for (std::size_t g = 0; g < kGroups; ++g) launch(g);
  simulator.run_until(kWindowSeconds * 1.5);
  return static_cast<double>(completed) * raw(kMessage) / kWindowSeconds;
}

hero::bench::FigureTable g_table(
    "Online scheduler ablation: aggregate all-reduce goodput, 2tracks pod "
    "(16 MB ops, 6 groups)",
    {"variant", "healthy (GB/s)", "with link failure (GB/s)"});
hero::bench::JsonReport g_json("online_ablation");

void Ablate(benchmark::State& state, Variant variant) {
  double healthy = 0, failed = 0;
  for (auto _ : state) {
    variant.inject_failure = false;
    healthy = run_variant(variant);
    variant.inject_failure = true;
    failed = run_variant(variant);
  }
  state.counters["healthy_GBps"] = healthy / 1e9;
  state.counters["failure_GBps"] = failed / 1e9;
  g_table.add_row({variant.name, fmt_double(healthy / 1e9, 2),
                   fmt_double(failed / 1e9, 2)});
  g_json.add_row()
      .str("variant", variant.name)
      .num("healthy_gbps", healthy / 1e9)
      .num("failure_gbps", failed / 1e9);
}

Variant make_variant(const char* name, online::OnlineConfig cfg,
                     bool frozen = false) {
  return Variant{name, cfg, frozen, false};
}

BENCHMARK_CAPTURE(Ablate, default_capacity_delta,
                  make_variant("default (capacity delta, gamma 0.3)", {}))
    ->Iterations(1);

BENCHMARK_CAPTURE(Ablate, paper_literal_delta, [] {
  online::OnlineConfig cfg;
  cfg.delta_model = online::DeltaModel::kPaperLiteral;
  return make_variant("Eq.16 literal delta = D/(T_u*b_c)", cfg);
}())->Iterations(1);

BENCHMARK_CAPTURE(Ablate, gamma_low, [] {
  online::OnlineConfig cfg;
  cfg.gamma = 0.05;
  return make_variant("gamma = 0.05 (sluggish penalties)", cfg);
}())->Iterations(1);

BENCHMARK_CAPTURE(Ablate, gamma_high, [] {
  online::OnlineConfig cfg;
  cfg.gamma = 0.9;
  return make_variant("gamma = 0.9 (twitchy penalties)", cfg);
}())->Iterations(1);

BENCHMARK_CAPTURE(Ablate, stale_controller, [] {
  online::OnlineConfig cfg;
  cfg.sync_period = 1e6;
  cfg.controller_delay = 20.0 * units::ms;
  return make_variant("stale controller (no polling, 20ms delay)", cfg);
}())->Iterations(1);

BENCHMARK_CAPTURE(Ablate, frozen_policy, [] {
  return make_variant("frozen policy (offline plan only)", {}, true);
}())->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  (void)hero::bench::init(argc, argv,
                          "bench_online_ablation [google-benchmark flags]", 0);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  g_table.print();
  g_json.write("BENCH_online_ablation.json");
  return 0;
}
