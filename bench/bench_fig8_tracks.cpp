// Fig. 8 reproduction: large-scale simulation scalability with 2tracks and
// 8tracks network configurations, OPT-175B.
//
// Paper (SV-B): HeroServe boosts scalability by 1.12x-1.94x (2tracks) and
// 1.09x-1.83x (8tracks) over the baselines, and reduces per-token delay by
// 28.4%-42.1%. Chatbot SLA: 4s TTFT / 0.2s TPOT; summarization SLA: 25s /
// 0.2s.
//
// Scale substitution: the paper simulates 1200 8-GPU servers on APEX; a
// fluid DES at that size exceeds this harness's budget, so we run
// structurally identical pods (same tracks wiring, 8-GPU A100 servers) at
// reduced server counts and compare the *shape* — per-GPU goodput ordering
// and ratios across the same four systems.
#include "bench_util.hpp"

namespace {

using namespace hero;

struct TrackSetup {
  const char* name = nullptr;
  int servers = 0;
  int tracks = 0;
  int servers_per_pod = 0;
  int cores = 0;
};

const TrackSetup kTwoTracks{"2tracks", 18, 2, 6, 3};
const TrackSetup kEightTracks{"8tracks", 16, 8, 16, 4};

struct Cell {
  double max_rate = 0;
  double per_gpu = 0;
  double ttft_p90 = 0;
  double tpot_p90 = 0;
};

topo::Graph make_setup(const TrackSetup& setup) {
  topo::TracksOptions opts;
  opts.servers = setup.servers;
  opts.tracks = setup.tracks;
  opts.servers_per_pod = setup.servers_per_pod;
  opts.core_switches = setup.cores;
  // 4-GPU servers (as on the paper's own testbed): OPT-175B instances must
  // span servers, which is the regime the paper's evaluation exercises.
  opts.gpus_per_server = 4;
  topo::Graph g = topo::make_tracks_cluster(opts);
  // PS host for DS-ATP's fallback, dual-homed on the first pod's switches.
  const auto ps = g.add_server("ps");
  g.add_edge(ps, g.find("p0a0"), topo::LinkKind::kEthernet,
             100 * units::Gbps);
  if (setup.tracks > 1) {
    g.add_edge(ps, g.find("p0a1"), topo::LinkKind::kEthernet,
               100 * units::Gbps);
  }
  return g;
}

Cell run_cell(SystemKind kind, const TrackSetup& setup) {
  ExperimentConfig cfg;
  cfg.topology = make_setup(setup);
  cfg.serving.model = llm::opt_175b();
  cfg.workload.count = 40;
  cfg.workload.lengths = wl::sharegpt_lengths();
  cfg.workload.seed = 23;
  cfg.serving.sla_ttft = 4.0;   // simulation chatbot SLA (SV)
  cfg.serving.sla_tpot = 0.2;
  cfg.min_p_tens = 8;   // cross-server deployments (SII-B premise)

  const RateSearchResult search = find_max_rate(kind, cfg, 0.1, 6.0, 0.9, 4);
  Cell cell;
  cell.max_rate = search.max_rate;
  const std::size_t gpus = search.at_max.report.gpus_used;
  cell.per_gpu = gpus ? search.max_rate / gpus : 0.0;
  cell.ttft_p90 = search.at_max.report.ttft.p90();
  cell.tpot_p90 = search.at_max.report.tpot.p90();
  return cell;
}

std::map<std::string, Cell> g_cells;

void Fig8_Cell(benchmark::State& state, SystemKind kind,
               const TrackSetup& setup) {
  Cell cell;
  for (auto _ : state) cell = run_cell(kind, setup);
  g_cells[std::string(setup.name) + "/" + to_string(kind)] = cell;
  state.counters["max_rate_rps"] = cell.max_rate;
  state.counters["per_gpu_goodput"] = cell.per_gpu;
  state.counters["tpot_p90_s"] = cell.tpot_p90;
}

#define FIG8(setup, system)                                               \
  BENCHMARK_CAPTURE(Fig8_Cell, setup##_##system, SystemKind::k##system,   \
                    k##setup)                                             \
      ->Iterations(1)->Unit(benchmark::kMillisecond)

FIG8(TwoTracks, HeroServe);
FIG8(TwoTracks, DistServe);
FIG8(TwoTracks, DsAtp);
FIG8(TwoTracks, DsSwitchMl);
FIG8(EightTracks, HeroServe);
FIG8(EightTracks, DistServe);
FIG8(EightTracks, DsAtp);
FIG8(EightTracks, DsSwitchMl);

void print_setup(const TrackSetup& setup) {
  hero::bench::FigureTable table(
      std::string("Fig. 8 (") + setup.name +
          "): OPT-175B chatbot, scaled pods, 90% SLA attainment",
      {"system", "max rate (req/s)", "per-GPU goodput", "Hero vs system",
       "TTFT p90 (s)", "TPOT p90 (s)"});
  const Cell hero = g_cells[std::string(setup.name) + "/HeroServe"];
  for (SystemKind kind : kAllSystems) {
    const Cell& c =
        g_cells[std::string(setup.name) + "/" + to_string(kind)];
    table.add_row(
        {to_string(kind), fmt_double(c.max_rate, 2),
         fmt_double(c.per_gpu, 5),
         kind == SystemKind::kHeroServe
             ? "-"
             : fmt_double(c.per_gpu > 0 ? hero.per_gpu / c.per_gpu : 0.0,
                          2) +
                   "x",
         fmt_double(c.ttft_p90, 2), fmt_double(c.tpot_p90, 4)});
  }
  table.print();
}

}  // namespace

int main(int argc, char** argv) {
  (void)hero::bench::init(argc, argv,
                          "bench_fig8_tracks [google-benchmark flags]", 0);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_setup(kTwoTracks);
  std::printf("paper (2tracks): Hero 1.12x-1.94x over baselines\n");
  print_setup(kEightTracks);
  std::printf(
      "paper (8tracks): Hero 1.09x-1.83x; TPOT reduced 28.4%%-42.1%%\n");

  hero::bench::JsonReport json("fig8_tracks");
  for (const TrackSetup* setup : {&kTwoTracks, &kEightTracks}) {
    for (SystemKind kind : kAllSystems) {
      const Cell& c =
          g_cells[std::string(setup->name) + "/" + to_string(kind)];
      json.add_row()
          .str("setup", setup->name)
          .str("system", to_string(kind))
          .num("max_rate_rps", c.max_rate)
          .num("per_gpu_goodput", c.per_gpu)
          .num("ttft_p90_s", c.ttft_p90)
          .num("tpot_p90_s", c.tpot_p90);
    }
  }
  json.write("BENCH_fig8_tracks.json");
  return 0;
}
