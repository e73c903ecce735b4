// Summarization serving scenario: OPT-175B on a 2tracks pod cluster of
// 4-GPU servers under a LongBench-like long-input workload (the paper's
// simulation setting, SLA 25 s TTFT / 0.2 s TPOT).
//
// This is the cross-server regime: a 350 GB model on 4-GPU/40 GB servers
// cannot keep tensor-parallel groups inside one NVLink domain, so the
// communication scheduling differences between the four systems surface.
//
//   ./build/examples/summarization_serving [rate] [requests] [--seed N]
//                                          [--faults plan.json]
#include <cstdio>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/heroserve.hpp"

using namespace hero;

namespace {

int run(int argc, char** argv) {
  const cli::Options opts = cli::parse_args(
      argc, argv,
      "summarization_serving [rate] [requests] [--seed N] "
      "[--faults plan.json]",
      cli::kSeed | cli::kFaults);
  const double rate = cli::positional_double(opts, 0, 0.4);
  const std::size_t requests = cli::positional_size(opts, 1, 60);

  topo::TracksOptions topts;
  topts.servers = 18;
  topts.tracks = 2;
  topts.servers_per_pod = 6;
  topts.core_switches = 3;
  topts.gpus_per_server = 4;

  ExperimentConfig cfg;
  cfg.topology = topo::make_tracks_cluster(topts);
  const auto ps = cfg.topology.add_server("ps");
  cfg.topology.add_edge(ps, cfg.topology.find("p0a0"),
                        topo::LinkKind::kEthernet, 100 * units::Gbps);
  cfg.topology.add_edge(ps, cfg.topology.find("p0a1"),
                        topo::LinkKind::kEthernet, 100 * units::Gbps);
  cfg.serving.model = llm::opt_175b();
  cfg.workload.rate = rate;
  cfg.workload.count = requests;
  cfg.workload.lengths = wl::longbench_lengths();
  cfg.workload.seed = opts.seed_given ? opts.seed : 29;
  if (opts.seed_given) cfg.serving.seed = opts.seed;
  cfg.serving.sla_ttft = 25.0;
  cfg.serving.sla_tpot = 0.2;
  if (!opts.faults_path.empty()) {
    cfg.fault_plan = faults::load_fault_plan(opts.faults_path);
    std::printf("loaded fault plan %s (%zu events)\n",
                opts.faults_path.c_str(), cfg.fault_plan.events.size());
  }

  std::printf(
      "Summarization scenario: OPT-175B on a 2tracks cluster (18 x 4-GPU "
      "servers), LongBench-like inputs, rate %.2f req/s, %zu requests\n\n",
      rate, requests);

  Table table({"system", "plan (TPxPP pre|dec)", "SLA att.", "TTFT p90 (s)",
               "TPOT p90 (s)", "KV util avg", "req/s"});
  for (SystemKind kind : kAllSystems) {
    const ExperimentResult r = run_experiment(kind, cfg);
    if (!r.ok()) {
      table.add_row({to_string(kind),
                     "infeasible: " + r.plan.infeasible_reason});
      continue;
    }
    table.add_row(
        {to_string(kind),
         std::to_string(r.plan.prefill.parallel.p_tens) + "x" +
             std::to_string(r.plan.prefill.parallel.p_pipe) + " | " +
             std::to_string(r.plan.decode.parallel.p_tens) + "x" +
             std::to_string(r.plan.decode.parallel.p_pipe),
         fmt_double(r.report.sla_attainment, 3),
         fmt_double(r.report.ttft.p90(), 2),
         fmt_double(r.report.tpot.p90(), 4),
         fmt_double(r.report.kv_utilization_avg, 3),
         fmt_double(raw(r.report.requests_per_second), 3)});
  }
  table.print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hero::cli::guarded_main(argc, argv, run);
}
