// Simulation-engine speed benchmark: how much simulated time one wall
// second buys.
//
// Replays the repo's standard scenarios — the quickstart chatbot testbed,
// the chaos link-flap plan, and the 4/8/16/32/64-instance fleet — through
// run_experiment / run_fleet_experiment and reports, per scenario:
//   * simulated-seconds-per-wall-second (the headline),
//   * events executed per wall second,
//   * how much max-min work the incremental flow-network engine avoided
//     (flows actually re-solved vs the full-solve baseline's would-be work),
//   * the peak number of live calendar entries (peak_pending_events),
//   * scheduled calendar entries per request (events_per_request),
//   * for the fleets, the planners' single-source Dijkstra runs
//     (plan_route_solves, summed over the instances' PlanResults),
// and the wall-time ratio of the 64- to the 32-instance fleet (how planning
// and serving cost grows per doubling; reported, never gated).
// Deterministic outputs (simulated seconds, event counts, route searches,
// solver counters) are written to BENCH_simspeed.json; wall-clock-derived
// keys carry a `wall_` prefix and solver-mode-dependent keys a `solver_`
// prefix so the determinism gate can filter them (rerun cmp strips wall_*;
// the incremental-vs-full-solve cmp strips wall_* and solver_*).
//
//   ./build/bench/bench_simspeed [--seed N] [--quick] [--full-solve]
//
// --quick shrinks every trace 4x (CI smoke mode); --full-solve swaps the
// incremental engine for the whole-fabric solve (all plain JSON keys must
// stay byte-identical to the incremental run).
#include <chrono>  // hero-lint: allow-file(wall-clock) — wall speed is the product here

#include "bench_util.hpp"
#include "faults/fault_plan.hpp"

namespace {

using namespace hero;

std::uint64_t g_seed = 1;
bool g_quick = false;
bool g_full_solve = false;

std::size_t scaled(std::size_t requests) {
  return g_quick ? std::max<std::size_t>(requests / 4, 8) : requests;
}

ExperimentConfig base_config() {
  ExperimentConfig cfg = bench::opt66b_chat_config(g_seed);
  cfg.netsim.full_solve = g_full_solve;
  return cfg;
}

struct Outcome {
  SimStats stats;
  std::size_t route_solves = 0;  ///< planner Dijkstra runs (fleets only)
  std::size_t requests = 0;
  double wall_seconds = 0.0;
  bool ok = false;
};

template <typename Run>
Outcome timed(std::size_t requests, Run&& run) {
  Outcome out;
  out.requests = requests;
  const auto t0 = std::chrono::steady_clock::now();
  out.ok = run(out.stats);
  const auto t1 = std::chrono::steady_clock::now();
  out.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  return out;
}

Outcome run_quickstart() {
  ExperimentConfig cfg = base_config();
  cfg.topology = topo::make_testbed();
  cfg.workload.rate = 2.0;
  cfg.workload.count = scaled(80);
  return timed(cfg.workload.count, [&](SimStats& stats) {
    const ExperimentResult r = run_experiment(SystemKind::kHeroServe, cfg);
    stats = r.sim_stats;
    return r.ok();
  });
}

Outcome run_chaos() {
  ExperimentConfig cfg = base_config();
  cfg.topology = topo::make_testbed();
  cfg.workload.rate = 1.2;
  cfg.workload.count = scaled(60);
  cfg.min_p_tens = 8;  // cross-server TP: communication on the fault path
  cfg.fault_plan = bench::link_flap_plan();
  return timed(cfg.workload.count, [&](SimStats& stats) {
    const ExperimentResult r = run_experiment(SystemKind::kHeroServe, cfg);
    stats = r.sim_stats;
    return r.ok();
  });
}

Outcome run_fleet(std::size_t instances) {
  ExperimentConfig cfg = base_config();
  topo::FleetClusterOptions fabric;
  fabric.racks = static_cast<std::int32_t>(instances > 4 ? instances : 4);
  cfg.topology = topo::make_fleet_cluster(fabric);
  cfg.fleet.instances = instances;
  cfg.fleet.policy = serve::RouterPolicy::kHeroServe;
  cfg.workload.rate = 1.15 * static_cast<double>(instances);
  cfg.workload.count = scaled(60 * instances);
  std::size_t route_solves = 0;
  Outcome out = timed(cfg.workload.count, [&](SimStats& stats) {
    const FleetExperimentResult r =
        run_fleet_experiment(SystemKind::kHeroServe, cfg);
    stats = r.sim_stats;
    for (const planner::PlanResult& p : r.plan.instances) {
      route_solves += p.route_solves;
    }
    return r.ok();
  });
  out.route_solves = route_solves;
  return out;
}

struct Scenario {
  const char* name = nullptr;
  Outcome (*run)() = nullptr;
  bool fleet = false;
};

const Scenario kScenarios[] = {
    {"quickstart", run_quickstart},
    {"chaos", run_chaos},
    {"fleet4", [] { return run_fleet(4); }, true},
    {"fleet8", [] { return run_fleet(8); }, true},
    {"fleet16", [] { return run_fleet(16); }, true},
    {"fleet32", [] { return run_fleet(32); }, true},
    {"fleet64", [] { return run_fleet(64); }, true},
};

std::map<std::string, Outcome> g_outcomes;

/// Calendar entries scheduled per request of the trace (deterministic).
double events_per_request(const Outcome& o) {
  if (o.requests == 0) return 0.0;
  return static_cast<double>(o.stats.events_scheduled) /
         static_cast<double>(o.requests);
}

/// Fleet ceiling on events_per_request. The fleets decode on TP1 pipeline
/// stages: one entry per iteration for those stages, one per activation
/// batch of same-instant flow hops, keeps them at 80-115 entries per
/// request (full and --quick); an entry per decode stage per iteration
/// puts them at 250-520.
constexpr double kFleetEventsPerRequest = 160.0;

/// Fraction of per-flow max-min solves the incremental engine skipped:
/// a full solve re-rates every in-flight flow each reallocation round
/// (flows_active); the dirty-set solve only touches the affected
/// component (flows_solved).
double solves_avoided(const SimStats& stats) {
  if (stats.flownet.flows_active == 0) return 0.0;
  return 1.0 - static_cast<double>(stats.flownet.flows_solved) /
                   static_cast<double>(stats.flownet.flows_active);
}

void SimSpeed_Cell(benchmark::State& state, const Scenario& scenario) {
  Outcome out;
  for (auto _ : state) out = scenario.run();
  g_outcomes[scenario.name] = out;
  const double wall = out.wall_seconds > 0 ? out.wall_seconds : 1e-9;
  state.counters["sim_per_wall"] = raw(out.stats.sim_seconds) / wall;
  state.counters["events_per_sec"] =
      static_cast<double>(out.stats.events_executed) / wall;
  state.counters["solves_avoided"] = solves_avoided(out.stats);
}

#define SIMSPEED(idx, name)                                       \
  BENCHMARK_CAPTURE(SimSpeed_Cell, name, kScenarios[idx])         \
      ->Iterations(1)->Unit(benchmark::kMillisecond)

SIMSPEED(0, quickstart);
SIMSPEED(1, chaos);
SIMSPEED(2, fleet4);
SIMSPEED(3, fleet8);
SIMSPEED(4, fleet16);
SIMSPEED(5, fleet32);
SIMSPEED(6, fleet64);

/// Wall time of fleet64 over fleet32 (0 when either run failed).
double doubling_ratio() {
  const Outcome& f32 = g_outcomes["fleet32"];
  const Outcome& f64 = g_outcomes["fleet64"];
  if (!f32.ok || !f64.ok || f32.wall_seconds <= 0) return 0.0;
  return f64.wall_seconds / f32.wall_seconds;
}

void print_table() {
  hero::bench::FigureTable table(
      std::string("Simulation engine speed (") +
          (g_full_solve ? "full-solve" : "incremental") + " max-min engine" +
          (g_quick ? ", --quick" : "") + ")",
      {"scenario", "sim s", "events", "sim s / wall s", "events/s",
       "solves avoided"});
  for (const Scenario& s : kScenarios) {
    const Outcome& o = g_outcomes[s.name];
    if (!o.ok) {
      table.add_row({s.name, "plan-fail"});
      continue;
    }
    const double wall = o.wall_seconds > 0 ? o.wall_seconds : 1e-9;
    table.add_row(
        {s.name, fmt_double(raw(o.stats.sim_seconds), 1),
         std::to_string(o.stats.events_executed),
         fmt_double(raw(o.stats.sim_seconds) / wall, 1),
         fmt_double(static_cast<double>(o.stats.events_executed) / wall, 0),
         fmt_double(100.0 * solves_avoided(o.stats), 1) + "%"});
  }
  table.print();
  std::printf("fleet32 -> fleet64 wall ratio: %.2f\n", doubling_ratio());
}

void write_json() {
  hero::bench::JsonReport json("simspeed");
  for (const Scenario& s : kScenarios) {
    const Outcome& o = g_outcomes[s.name];
    auto& row = json.add_row();
    row.str("scenario", s.name)
        .str("solver_engine", g_full_solve ? "full" : "incremental")
        .num("sim_seconds", raw(o.stats.sim_seconds))
        .integer("events_executed", o.stats.events_executed)
        .integer("events_scheduled", o.stats.events_scheduled)
        .integer("events_cancelled", o.stats.events_cancelled)
        .integer("peak_pending_events", o.stats.peak_pending_events)
        .num("events_per_request", events_per_request(o))
        .integer("route_searches", o.stats.route_searches);
    if (s.fleet) row.integer("plan_route_solves", o.route_solves);
    row
        .integer("solver_reallocations", o.stats.flownet.reallocations)
        .integer("solver_solves", o.stats.flownet.solves)
        .integer("solver_flows_solved", o.stats.flownet.flows_solved)
        .integer("solver_flows_active", o.stats.flownet.flows_active)
        .num("solver_solves_avoided", solves_avoided(o.stats))
        .num("wall_seconds", o.wall_seconds)
        .num("wall_sim_per_wall",
             raw(o.stats.sim_seconds) /
                 (o.wall_seconds > 0 ? o.wall_seconds : 1e-9));
    if (std::string(s.name) == "fleet64") {
      row.num("wall_doubling_ratio", doubling_ratio());
    }
  }
  json.write("BENCH_simspeed.json");
}

/// CI floor: the 16-instance fleet trace must buy at least 5 simulated
/// seconds per wall second (the pre-rework engine managed ~1.4), the
/// incremental engine must skip at least half of the per-flow max-min
/// solves a full-solve engine would run, no fleet scenario's calendar
/// may ever hold as many entries as it has requests — arrivals enter as
/// one series, so the calendar holds live events only — and no fleet
/// scenario may schedule more than kFleetEventsPerRequest entries per
/// request. The single-instance scenarios are exempt: under --quick their
/// traces (20 and 15 requests) are no longer than the events a TP8
/// collective keeps live at once.
void print_verdict() {
  const Outcome& fleet16 = g_outcomes["fleet16"];
  bool pass = fleet16.ok;
  for (const Scenario& s : kScenarios) {
    const Outcome& o = g_outcomes[s.name];
    if (!s.fleet || !o.ok) continue;
    if (o.stats.peak_pending_events >= o.requests) {
      pass = false;
      std::printf("verdict: %s peak calendar %llu entries reaches its %zu "
                  "requests\n",
                  s.name,
                  static_cast<unsigned long long>(o.stats.peak_pending_events),
                  o.requests);
    }
    if (events_per_request(o) > kFleetEventsPerRequest) {
      pass = false;
      std::printf("verdict: %s schedules %.1f events per request, above "
                  "%.0f\n",
                  s.name, events_per_request(o), kFleetEventsPerRequest);
    }
  }
  if (fleet16.ok) {
    const double wall =
        fleet16.wall_seconds > 0 ? fleet16.wall_seconds : 1e-9;
    const double sim_per_wall = raw(fleet16.stats.sim_seconds) / wall;
    if (sim_per_wall < 5.0) {
      pass = false;
      std::printf("verdict: fleet16 sim/wall %.1f below the 5.0 floor\n",
                  sim_per_wall);
    }
    if (!g_full_solve && solves_avoided(fleet16.stats) < 0.5) {
      pass = false;
      std::printf("verdict: fleet16 solves avoided %.2f below 0.50\n",
                  solves_avoided(fleet16.stats));
    }
  }
  std::printf("simspeed verdict: %s\n", pass ? "PASS" : "FAIL");
}

}  // namespace

int main(int argc, char** argv) {
  const hero::cli::Options opts = hero::bench::init(
      argc, argv,
      "bench_simspeed [--seed N] [--quick] [--full-solve] "
      "[google-benchmark flags]",
      hero::cli::kSeed | hero::cli::kQuick | hero::cli::kFullSolve);
  if (opts.seed_given) g_seed = opts.seed;
  g_quick = opts.quick;
  g_full_solve = opts.full_solve;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_table();
  write_json();
  print_verdict();
  return 0;
}
