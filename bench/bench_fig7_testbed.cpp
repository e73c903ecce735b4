// Fig. 7 reproduction: testbed scalability and latency, OPT-66B.
//
// Paper (SV-A): per-GPU goodput at >=90% SLA attainment —
//   chatbot (ShareGPT, SLA 2.5s TTFT / 0.15s TPOT):
//     HeroServe 1.53x / 1.42x / 1.33x over DistServe / DS-ATP / DS-SwitchML
//   summarization (LongBench, SLA 15s TTFT / 0.15s TPOT):
//     1.68x / 1.58x / 1.35x
//   TPOT reduced by ~18.6%-49.2% (chatbot); TTFT by 15.2%-45.2% and TPOT by
//   11.2%-27.3% (summarization).
//
// Each benchmark case binary-searches the maximum Poisson rate at which a
// system keeps >=90% of requests within both SLAs on the Fig. 6 testbed,
// then reports the per-GPU goodput and the latency percentiles at that
// operating point.
#include "bench_util.hpp"

namespace {

using namespace hero;

struct Scenario {
  const char* name = nullptr;
  wl::LengthDistribution lengths;
  Time sla_ttft = 0.0;
  Time sla_tpot = 0.0;
  double lo = 0.0;
  double hi = 0.0;
  /// Minimum TP width. 8 mandates cross-server tensor groups — the
  /// deployment of the paper's own Fig. 1 profile and SII-B premise; 1
  /// leaves the planner free (on this 4-GPU-server testbed it then packs
  /// stages inside NVLink domains and the systems legitimately tie).
  std::size_t min_p_tens = 1;
};

const Scenario kChatbot{"chatbot (cross-server TP8)", wl::sharegpt_lengths(),
                        2.5, 0.15, 0.1, 8.0, 8};
const Scenario kSummarization{"summarization (cross-server TP8)",
                              wl::longbench_lengths(), 15.0, 0.15, 0.02, 2.0,
                              8};
const Scenario kChatbotFree{"chatbot (free placement)",
                            wl::sharegpt_lengths(), 2.5, 0.15, 0.2, 8.0, 1};

std::uint64_t g_seed = 17;
bool g_seed_given = false;

struct Cell {
  double max_rate = 0;
  double per_gpu = 0;
  double ttft_p90 = 0;
  double tpot_p90 = 0;
  std::size_t gpus = 0;
  serve::ServingReport report;  ///< full report at the knee (JSON output)
};

Cell run_cell(SystemKind kind, const Scenario& scenario) {
  ExperimentConfig cfg;
  cfg.topology = topo::make_testbed();
  cfg.serving.model = llm::opt_66b();
  cfg.workload.count = 60;
  cfg.workload.lengths = scenario.lengths;
  cfg.workload.seed = g_seed;
  if (g_seed_given) cfg.serving.seed = g_seed;
  cfg.serving.sla_ttft = scenario.sla_ttft;
  cfg.serving.sla_tpot = scenario.sla_tpot;
  cfg.min_p_tens = scenario.min_p_tens;

  const RateSearchResult search =
      find_max_rate(kind, cfg, scenario.lo, scenario.hi, 0.9, 6);
  Cell cell;
  cell.max_rate = search.max_rate;
  cell.gpus = search.at_max.report.gpus_used;
  cell.per_gpu = cell.gpus ? search.max_rate / cell.gpus : 0.0;
  cell.ttft_p90 = search.at_max.report.ttft.p90();
  cell.tpot_p90 = search.at_max.report.tpot.p90();
  cell.report = search.at_max.report;
  return cell;
}

std::map<std::string, Cell> g_cells;

void Fig7_Cell(benchmark::State& state, SystemKind kind,
               const Scenario& scenario) {
  Cell cell;
  for (auto _ : state) cell = run_cell(kind, scenario);
  g_cells[std::string(scenario.name) + "/" + to_string(kind)] = cell;
  state.counters["max_rate_rps"] = cell.max_rate;
  state.counters["per_gpu_goodput"] = cell.per_gpu;
  state.counters["ttft_p90_s"] = cell.ttft_p90;
  state.counters["tpot_p90_s"] = cell.tpot_p90;
}

#define FIG7(scenario, system)                                           \
  BENCHMARK_CAPTURE(Fig7_Cell, scenario##_##system, SystemKind::k##system, \
                    k##scenario)                                          \
      ->Iterations(1)->Unit(benchmark::kMillisecond)

FIG7(Chatbot, HeroServe);
FIG7(Chatbot, DistServe);
FIG7(Chatbot, DsAtp);
FIG7(Chatbot, DsSwitchMl);
FIG7(Summarization, HeroServe);
FIG7(Summarization, DistServe);
FIG7(Summarization, DsAtp);
FIG7(Summarization, DsSwitchMl);
FIG7(ChatbotFree, HeroServe);
FIG7(ChatbotFree, DistServe);
FIG7(ChatbotFree, DsAtp);
FIG7(ChatbotFree, DsSwitchMl);

void print_scenario(const Scenario& scenario) {
  hero::bench::FigureTable table(
      std::string("Fig. 7 (") + scenario.name +
          "): OPT-66B on the Fig. 6 testbed, 90% SLA attainment",
      {"system", "max rate (req/s)", "per-GPU goodput", "vs system",
       "TTFT p90 (s)", "TPOT p90 (s)"});
  const Cell hero =
      g_cells[std::string(scenario.name) + "/HeroServe"];
  for (SystemKind kind : kAllSystems) {
    const Cell& c = g_cells[std::string(scenario.name) + "/" +
                            to_string(kind)];
    const std::string gain =
        kind == SystemKind::kHeroServe
            ? "-"
            : "Hero " + fmt_double(c.per_gpu > 0
                                       ? hero.per_gpu / c.per_gpu
                                       : 0.0,
                                   2) +
                  "x";
    table.add_row({to_string(kind), fmt_double(c.max_rate, 2),
                   fmt_double(c.per_gpu, 4), gain,
                   fmt_double(c.ttft_p90, 2), fmt_double(c.tpot_p90, 4)});
  }
  table.print();
}

void write_json() {
  hero::bench::JsonReport json("fig7_testbed");
  for (const Scenario* scenario :
       {&kChatbot, &kSummarization, &kChatbotFree}) {
    for (SystemKind kind : kAllSystems) {
      const Cell& c =
          g_cells[std::string(scenario->name) + "/" + to_string(kind)];
      auto& row = json.add_row();
      row.str("scenario", scenario->name)
          .str("system", to_string(kind))
          .num("max_rate_rps", c.max_rate)
          .integer("gpus", c.gpus);
      hero::bench::report_latency_fields(row, c.report);
    }
  }
  json.write("BENCH_fig7.json");
}

}  // namespace

int main(int argc, char** argv) {
  const hero::cli::Options opts = hero::bench::init(
      argc, argv,
      "bench_fig7_testbed [--seed N] [google-benchmark flags]",
      hero::cli::kSeed);
  g_seed = opts.seed_given ? opts.seed : 17;
  g_seed_given = opts.seed_given;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_json();
  print_scenario(kChatbot);
  std::printf(
      "paper (chatbot): Hero 1.53x/1.42x/1.33x over "
      "DistServe/DS-ATP/DS-SwitchML; TPOT -18.6%%..-49.2%%\n");
  print_scenario(kSummarization);
  std::printf(
      "paper (summarization): Hero 1.68x/1.58x/1.35x; TTFT "
      "-15.2%%..-45.2%%, TPOT -11.2%%..-27.3%%\n");
  print_scenario(kChatbotFree);
  std::printf(
      "(free placement: the planner packs TP stages inside NVLink domains "
      "and all systems honestly tie — see EXPERIMENTS.md)\n");
  return 0;
}
