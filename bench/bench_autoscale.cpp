// Elastic-fleet benchmark: arrival-driven autoscaling over mixed GPU pools.
//
// Serves two canonical production traces on a heterogeneous fleet cluster
// (whole racks of A100-80G, L40-48G and V100-32G):
//   * diurnal — sinusoidal day/night load swinging around the mean;
//   * flash   — a viral-moment step burst on steady background traffic.
// Each trace runs twice over identical topology and seed:
//   * static  — PR-4-style fixed fleet, provisioned for the trace's PEAK
//     rate and billed for every GPU from start to finish;
//   * elastic — starts at the minimum fleet; a FleetController watches the
//     router's dispatch counter, plans scale-up replicas out of the spare
//     pool (planner::plan_replica picks the hardware class that fits), and
//     drains + releases replicas when demand falls.
// The controller compares its EWMA against the planner's capacity-model
// service rate — a theoretical ceiling above realized throughput — so the
// elastic cells run a lower target_utilization than the 0.65 default.
//
// Reports SLA attainment, GPU-hours, and the post-burst p99 TTFT per cell,
// writes BENCH_autoscale.json, and prints the verdict line CI asserts:
// on the diurnal trace the elastic fleet must match static SLA attainment
// (within 2 points) on strictly fewer GPU-hours, and on the flash trace it
// must recover post-burst p99 TTFT back under the SLA within the window.
// Fixed seed: reruns are byte-identical (the determinism gate diffs the
// JSON).
#include <algorithm>
#include <cmath>

#include "bench_util.hpp"

namespace {

using namespace hero;

std::uint64_t g_seed = 29;
bool g_quick = false;

constexpr double kSlaTolerance = 0.02;

topo::Graph hetero_cluster() {
  topo::FleetClusterOptions opts;
  opts.racks = 6;
  opts.rack_hardware = {
      {topo::GpuModel::kA100_80, 80.0 * units::GB},
      {topo::GpuModel::kL40_48, 48.0 * units::GB},
      {topo::GpuModel::kV100_32, 32.0 * units::GB},
  };
  return topo::make_fleet_cluster(opts);
}

struct Scenario {
  std::string name;
  wl::Trace trace;
  double mean_rate = 0.0;  ///< elastic planner sizing (expected rate)
  double peak_rate = 0.0;  ///< static planner sizing (peak provisioning)
  std::size_t static_instances = 2;
  Time burst_end = 0.0;  ///< flash only: recovery window starts here
};

Scenario diurnal_scenario() {
  Scenario s;
  s.name = "diurnal";
  wl::DiurnalOptions opts;
  opts.base.rate = 4.0;
  opts.base.count = g_quick ? 400 : 1200;
  opts.base.seed = g_seed;
  opts.base.lengths = wl::sharegpt_lengths();
  opts.period = 180.0;
  opts.amplitude = 0.8;
  s.trace = wl::generate_diurnal_trace(opts);
  s.mean_rate = raw(opts.base.rate);
  s.peak_rate = raw(opts.base.rate) * (1.0 + opts.amplitude);
  s.static_instances = 2;
  return s;
}

Scenario flash_scenario() {
  Scenario s;
  s.name = "flash";
  wl::FlashCrowdOptions opts;
  opts.base.rate = 1.5;
  // ~45 pre-burst + ~270 burst arrivals; everything past that is the
  // post-burst recovery window the verdict measures (30s in quick mode,
  // ~190s in the full run).
  opts.base.count = g_quick ? 360 : 600;
  opts.base.seed = g_seed + 1;
  opts.base.lengths = wl::sharegpt_lengths();
  opts.burst_start = 30.0;
  opts.burst_duration = 30.0;
  opts.burst_multiplier = 6.0;
  s.trace = wl::generate_flash_crowd_trace(opts);
  s.mean_rate = raw(opts.base.rate);
  s.peak_rate = raw(opts.base.rate) * opts.burst_multiplier;
  s.static_instances = 2;
  s.burst_end = opts.burst_start + opts.burst_duration;
  return s;
}

ExperimentConfig base_config(const Scenario& s, bool elastic) {
  // Each scenario supplies its own trace, so the workload seed and lengths
  // set here go unused.
  ExperimentConfig cfg = bench::opt66b_chat_config(g_seed);
  cfg.topology = hetero_cluster();
  cfg.fleet.policy = serve::RouterPolicy::kHeroServe;
  if (elastic) {
    // Min-start: one replica sized for the expected (mean) rate; the
    // controller buys the rest of the peak out of the spare pool.
    cfg.workload.rate = s.mean_rate;
    cfg.fleet.instances = 1;
    cfg.fleet.autoscale.enabled = true;
    cfg.fleet.autoscale.tick_period = 5.0;
    cfg.fleet.autoscale.warmup_delay = 15.0;
    cfg.fleet.autoscale.cooldown = 10.0;
    cfg.fleet.autoscale.target_utilization = 0.5;
  } else {
    // Peak provisioning: the whole static fleet is sized for the worst
    // minute of the trace and held for the full run.
    cfg.workload.rate = s.peak_rate;
    cfg.fleet.instances = s.static_instances;
  }
  return cfg;
}

/// p99 TTFT over the requests that ARRIVED in [from, to) — windowed view
/// of the fleet-wide retired samples (sorted by arrival).
double windowed_ttft_p99(const std::vector<serve::RetiredSample>& samples,
                         Time from, Time to) {
  std::vector<double> ttfts;
  for (const serve::RetiredSample& s : samples) {
    if (s.arrival >= from && s.arrival < to) ttfts.push_back(raw(s.ttft));
  }
  if (ttfts.empty()) return 0.0;
  std::sort(ttfts.begin(), ttfts.end());
  const double idx = 0.99 * static_cast<double>(ttfts.size() - 1);
  return ttfts[static_cast<std::size_t>(idx)];
}

struct Cell {
  FleetExperimentResult result;
  double recovery_p99 = 0.0;  ///< flash only: post-burst window p99 TTFT
  bool ok = false;
};

Cell run_cell(const Scenario& s, bool elastic) {
  const ExperimentConfig cfg = base_config(s, elastic);
  Cell cell;
  cell.result = run_fleet_experiment(SystemKind::kHeroServe, cfg, s.trace);
  cell.ok = cell.result.ok();
  if (cell.ok && s.burst_end > 0.0) {
    const Time end = s.trace.back().arrival;
    cell.recovery_p99 =
        windowed_ttft_p99(cell.result.report.samples, s.burst_end, end + 1.0);
  }
  return cell;
}

std::map<std::string, Cell> g_cells;
std::vector<Scenario> g_scenarios;

std::string cell_key(const std::string& scenario, bool elastic) {
  return scenario + "/" + (elastic ? "elastic" : "static");
}

void Autoscale_Cell(benchmark::State& state, std::size_t scenario_idx,
                    bool elastic) {
  const Scenario& s = g_scenarios[scenario_idx];
  Cell cell;
  for (auto _ : state) cell = run_cell(s, elastic);
  state.counters["sla_attainment"] =
      cell.result.report.aggregate.sla_attainment;
  state.counters["gpu_hours"] = cell.result.report.gpu_hours;
  state.counters["peak_instances"] =
      static_cast<double>(cell.result.report.autoscale.peak_instances);
  g_cells[cell_key(s.name, elastic)] = std::move(cell);
}

void register_cells() {
  for (std::size_t i = 0; i < g_scenarios.size(); ++i) {
    for (const bool elastic : {false, true}) {
      benchmark::RegisterBenchmark(
          ("Autoscale_Cell/" + cell_key(g_scenarios[i].name, elastic))
              .c_str(),
          [i, elastic](benchmark::State& state) {
            Autoscale_Cell(state, i, elastic);
          })
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
  }
}

void print_tables() {
  for (const Scenario& s : g_scenarios) {
    hero::bench::FigureTable table(
        "Elastic vs static fleet: " + s.name +
            " trace, mixed A100/L40/V100 pools",
        {"fleet", "SLA att.", "GPU-hours", "TTFT p99 (s)",
         "post-burst p99 (s)", "peak inst.", "ups/drains/rel"});
    for (const bool elastic : {false, true}) {
      const Cell& c = g_cells[cell_key(s.name, elastic)];
      if (!c.ok) {
        table.add_row({elastic ? "elastic" : "static", "plan-fail"});
        continue;
      }
      const serve::FleetReport& r = c.result.report;
      table.add_row(
          {elastic ? "elastic" : "static",
           fmt_double(r.aggregate.sla_attainment, 3),
           fmt_double(r.gpu_hours, 3), fmt_double(r.aggregate.ttft.p99(), 2),
           s.burst_end > 0.0 ? fmt_double(c.recovery_p99, 2) : "-",
           std::to_string(r.autoscale.peak_instances),
           std::to_string(r.autoscale.scale_ups) + "/" +
               std::to_string(r.autoscale.drains) + "/" +
               std::to_string(r.autoscale.releases)});
    }
    table.print();
  }
}

void write_json() {
  hero::bench::JsonReport json("autoscale");
  for (const Scenario& s : g_scenarios) {
    for (const bool elastic : {false, true}) {
      const Cell& c = g_cells[cell_key(s.name, elastic)];
      auto& row = json.add_row();
      row.str("scenario", s.name)
          .str("fleet", elastic ? "elastic" : "static");
      if (!c.ok) {
        row.integer("feasible", 0);
        continue;
      }
      const serve::FleetReport& r = c.result.report;
      row.integer("feasible", 1);
      hero::bench::report_latency_fields(row, r.aggregate);
      row.num("gpu_hours", r.gpu_hours)
          .num("recovery_ttft_p99_s", c.recovery_p99)
          .integer("completed", r.aggregate.completed)
          .integer("gpus_used", c.result.plan.gpus_used)
          .integer("peak_instances", r.autoscale.peak_instances)
          .integer("scale_ups", r.autoscale.scale_ups)
          .integer("drains", r.autoscale.drains)
          .integer("releases", r.autoscale.releases)
          .integer("plan_failures", r.autoscale.plan_failures)
          .integer("ticks", r.autoscale.ticks);
    }
  }
  json.write("BENCH_autoscale.json");
}

/// The headline claims this harness exists to demonstrate. CI greps for
/// "autoscale verdict: elastic PASSES".
void print_verdict() {
  const double sla_ttft = 2.5;
  bool diurnal_ok = false;
  bool flash_ok = false;

  const Cell& ds = g_cells[cell_key("diurnal", false)];
  const Cell& de = g_cells[cell_key("diurnal", true)];
  if (ds.ok && de.ok) {
    const serve::FleetReport& rs = ds.result.report;
    const serve::FleetReport& re = de.result.report;
    diurnal_ok =
        re.aggregate.sla_attainment >=
            rs.aggregate.sla_attainment - kSlaTolerance &&
        re.gpu_hours < rs.gpu_hours;
    std::printf("diurnal: elastic SLA %.3f vs static %.3f, GPU-hours %.3f "
                "vs %.3f -> %s\n",
                re.aggregate.sla_attainment, rs.aggregate.sla_attainment,
                re.gpu_hours, rs.gpu_hours, diurnal_ok ? "ok" : "FAIL");
  } else {
    std::printf("diurnal: missing cell (static ok=%d elastic ok=%d)\n",
                ds.ok ? 1 : 0, de.ok ? 1 : 0);
  }

  const Cell& fe = g_cells[cell_key("flash", true)];
  if (fe.ok) {
    flash_ok = fe.result.report.autoscale.scale_ups >= 1 &&
               fe.recovery_p99 > 0.0 && fe.recovery_p99 <= sla_ttft;
    std::printf("flash: elastic scale-ups %llu, post-burst p99 TTFT %.2fs "
                "(SLA %.1fs) -> %s\n",
                static_cast<unsigned long long>(
                    fe.result.report.autoscale.scale_ups),
                fe.recovery_p99, sla_ttft, flash_ok ? "ok" : "FAIL");
  } else {
    std::printf("flash: missing elastic cell\n");
  }

  std::printf("autoscale verdict: elastic %s (diurnal: match-SLA on fewer "
              "GPU-hours; flash: p99 TTFT recovered in-window)\n",
              diurnal_ok && flash_ok ? "PASSES" : "FAILS");
}

}  // namespace

int main(int argc, char** argv) {
  const hero::cli::Options opts = hero::bench::init(
      argc, argv,
      "bench_autoscale [--seed N] [--quick] [google-benchmark flags]",
      hero::cli::kSeed | hero::cli::kQuick);
  if (opts.seed_given) g_seed = opts.seed;
  g_quick = opts.quick;
  g_scenarios.push_back(diurnal_scenario());
  g_scenarios.push_back(flash_scenario());
  register_cells();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_tables();
  write_json();
  print_verdict();
  return 0;
}
