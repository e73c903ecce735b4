// Offline planner performance and ablations (paper SIII-C3).
//
// Claims exercised:
//  * "Our algorithm typically finds a solution within 10 minutes, a
//    reduction of 28.57% compared to DistServe" — we report wall-clock
//    solve time across cluster sizes and candidate budgets (our simulated
//    clusters solve in milliseconds; the point is the scaling shape).
//  * "setting max_candi = twenty usually yields near-optimal solutions" —
//    sweep max_candi and compare the achieved objective H.
//  * "the algorithm typically converges within five iterations" — compare
//    perturbation on/off via the estimated network latency.
#include "bench_util.hpp"

#include <chrono>

namespace {

using namespace hero;

/// Wall-clock belongs to the bench harness, not the deterministic planner
/// (PlanResult reports solve_work_units instead); measure around plan().
double timed_plan(planner::OfflinePlanner& planner,
                  planner::PlanResult& result) {
  const auto start =
      std::chrono::steady_clock::now();  // hero-lint: allow(wall-clock)
  result = planner.plan();
  const auto end =
      std::chrono::steady_clock::now();  // hero-lint: allow(wall-clock)
  return std::chrono::duration<double>(end - start).count();
}

planner::PlannerInputs base_inputs(const topo::Graph& graph) {
  planner::PlannerInputs in;
  in.graph = &graph;
  in.model = llm::opt_66b();
  in.latency = &fitted_model(llm::opt_66b());
  in.batch_q = 8;
  in.k_in = 2500;
  in.k_in2 = 900000;
  in.k_out = 1500;
  in.arrival_rate = 1.0;
  in.t_sla_prefill = 2.5;
  in.t_sla_decode = 0.15;
  return in;
}

topo::Graph sized_cluster(int servers) {
  topo::TracksOptions opts;
  opts.servers = servers;
  opts.tracks = 2;
  opts.servers_per_pod = 6;
  opts.core_switches = 3;
  return topo::make_tracks_cluster(opts);
}

hero::bench::FigureTable g_scaling(
    "Planner solve time vs cluster size (max_candi = 20)",
    {"cluster", "GPUs", "solve (ms)", "work units", "candidates", "swaps",
     "H (1/s)"});
hero::bench::JsonReport g_json("planner");

void Planner_Scale(benchmark::State& state, const char* name, int servers) {
  const topo::Graph graph =
      servers == 0 ? topo::make_testbed() : sized_cluster(servers);
  planner::PlannerInputs in = base_inputs(graph);
  planner::PlanResult result;
  double solve_s = 0.0;
  for (auto _ : state) {
    planner::OfflinePlanner planner(in);
    solve_s = timed_plan(planner, result);
    benchmark::DoNotOptimize(result);
  }
  state.counters["solve_ms"] = solve_s * 1e3;
  state.counters["H"] = raw(result.throughput_h);
  g_scaling.add_row({name, std::to_string(graph.gpus().size()),
                     fmt_double(solve_s * 1e3, 1),
                     std::to_string(result.solve_work_units),
                     std::to_string(result.candidates_evaluated),
                     std::to_string(result.perturbation_swaps),
                     fmt_double(raw(result.throughput_h), 4)});
  // Wall ms stays out of the JSON: the determinism gate byte-compares
  // BENCH_*.json across reruns.
  g_json.add_row()
      .str("cell", std::string("scale/") + name)
      .integer("gpus", graph.gpus().size())
      .integer("solve_work_units", result.solve_work_units)
      .integer("candidates", result.candidates_evaluated)
      .integer("swaps", result.perturbation_swaps)
      .num("throughput_h", raw(result.throughput_h));
}

BENCHMARK_CAPTURE(Planner_Scale, testbed_16gpu, "testbed (16 GPU)", 0)
    ->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(Planner_Scale, tracks_12srv, "2tracks 12 servers", 12)
    ->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(Planner_Scale, tracks_24srv, "2tracks 24 servers", 24)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

hero::bench::FigureTable g_candi(
    "max_candi sweep on the testbed (paper: 20 is near-optimal)",
    {"max_candi", "solve (ms)", "H (1/s)", "feasible"});

void Planner_MaxCandi(benchmark::State& state, std::size_t max_candi) {
  const topo::Graph graph = topo::make_testbed();
  planner::PlannerInputs in = base_inputs(graph);
  in.max_candi = max_candi;
  planner::PlanResult result;
  double solve_s = 0.0;
  for (auto _ : state) {
    planner::OfflinePlanner planner(in);
    solve_s = timed_plan(planner, result);
  }
  state.counters["H"] = raw(result.throughput_h);
  g_candi.add_row({std::to_string(max_candi),
                   fmt_double(solve_s * 1e3, 1),
                   fmt_double(raw(result.throughput_h), 4),
                   result.feasible ? "yes" : "no"});
  g_json.add_row()
      .str("cell", "max_candi/" + std::to_string(max_candi))
      .integer("solve_work_units", result.solve_work_units)
      .num("throughput_h", raw(result.throughput_h))
      .str("feasible", result.feasible ? "yes" : "no");
}

BENCHMARK_CAPTURE(Planner_MaxCandi, c2, 2)->Iterations(1);
BENCHMARK_CAPTURE(Planner_MaxCandi, c5, 5)->Iterations(1);
BENCHMARK_CAPTURE(Planner_MaxCandi, c10, 10)->Iterations(1);
BENCHMARK_CAPTURE(Planner_MaxCandi, c20, 20)->Iterations(1);
BENCHMARK_CAPTURE(Planner_MaxCandi, c40, 40)->Iterations(1);

hero::bench::FigureTable g_perturb(
    "Random-swap perturbation ablation (Alg. 2 step 3)",
    {"perturb rounds", "prefill T_n (ms)", "H (1/s)", "swaps"});

void Planner_Perturb(benchmark::State& state, std::size_t rounds) {
  const topo::Graph graph = sized_cluster(12);
  planner::PlannerInputs in = base_inputs(graph);
  in.perturb_rounds = rounds;
  planner::PlanResult result;
  for (auto _ : state) {
    planner::OfflinePlanner planner(in);
    result = planner.plan();
  }
  state.counters["H"] = raw(result.throughput_h);
  g_perturb.add_row({std::to_string(rounds),
                     fmt_double(raw(result.prefill.t_net) * 1e3, 2),
                     fmt_double(raw(result.throughput_h), 4),
                     std::to_string(result.perturbation_swaps)});
  g_json.add_row()
      .str("cell", "perturb/" + std::to_string(rounds))
      .num("prefill_t_net_ms", raw(result.prefill.t_net) * 1e3)
      .num("throughput_h", raw(result.throughput_h))
      .integer("swaps", result.perturbation_swaps);
}

BENCHMARK_CAPTURE(Planner_Perturb, off, 0)->Iterations(1);
BENCHMARK_CAPTURE(Planner_Perturb, rounds5, 5)->Iterations(1);
BENCHMARK_CAPTURE(Planner_Perturb, rounds10, 10)->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  (void)hero::bench::init(argc, argv,
                          "bench_planner [google-benchmark flags]", 0);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  g_scaling.print();
  g_candi.print();
  g_perturb.print();
  g_json.write("BENCH_planner.json");
  std::printf(
      "paper: solution within 10 min on the real testbed; max_candi=20 "
      "near-optimal; perturbation converges within ~5 rounds\n");
  return 0;
}
