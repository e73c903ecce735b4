// Trace replay: serve a recorded request trace from a CSV file, the way
// the paper's traffic host replays ShareGPT/LongBench captures.
//
//   ./build/examples/trace_replay [trace.csv] [rate] [--seed N]
//                                 [--trace out.json] [--faults plan.json]
//
// Without positional arguments, generates a demo trace, saves it next to
// the binary, and replays it at two rates — demonstrating the capture ->
// rescale -> replay loop (workload/trace_io.hpp). With --trace, the first
// replay records a Chrome trace_event JSON viewable in chrome://tracing or
// https://ui.perfetto.dev. With --faults, the plan is replayed against the
// first serve (faults/fault_plan.hpp).
#include <cstdio>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/heroserve.hpp"
#include "faults/injector.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "obs/trace.hpp"
#include "workload/trace_io.hpp"

using namespace hero;

namespace {

void serve_trace(const wl::Trace& trace, const char* label, obs::Sink sink,
                 const faults::FaultPlan* fault_plan = nullptr) {
  // run_experiment generates its own trace from TraceOptions; for replay we
  // drive the pieces directly.
  ExperimentConfig cfg;
  cfg.topology = topo::make_testbed();
  cfg.serving.model = llm::opt_66b();
  cfg.serving.sla_ttft = 2.5;
  cfg.serving.sla_tpot = 0.15;

  wl::WorkloadEstimator estimator;
  for (const wl::Request& r : trace) estimator.observe(r);
  const wl::TraceStats stats = wl::summarize(trace);

  planner::PlannerInputs in;
  in.graph = &cfg.topology;
  in.model = cfg.serving.model;
  in.latency = &fitted_model(cfg.serving.model);
  in.batch_q = 8;
  in.k_in = estimator.k_in(8);
  in.k_in2 = estimator.k_in2(8);
  in.k_out = estimator.k_out(8);
  in.arrival_rate = stats.mean_rate;
  in.t_sla_prefill = cfg.serving.sla_ttft;
  in.t_sla_decode = cfg.serving.sla_tpot;
  planner::OfflinePlanner planner(in);
  const planner::PlanResult plan = planner.plan();
  if (!plan.feasible) {
    std::printf("%s: planner infeasible: %s\n", label,
                plan.infeasible_reason.c_str());
    return;
  }

  sim::Simulator simulator;
  simulator.attach(sink);
  net::FlowNetwork network(simulator, cfg.topology);
  sw::SwitchRegistry switches(simulator, cfg.topology);
  coll::CollectiveEngine engine(network, switches);
  online::HeroCommScheduler scheduler(network);

  serve::ServingOptions serving = cfg.serving;
  serving.max_sim_time =
      3600.0 + (trace.empty() ? 0.0 : trace.back().arrival);

  std::unique_ptr<faults::FaultInjector> injector;
  if (fault_plan != nullptr && !fault_plan->empty()) {
    faults::FaultInjector::Hooks hooks;
    hooks.switches = &switches;
    hooks.online = &scheduler.online();
    scheduler.online().attach_switches(&switches);
    injector =
        std::make_unique<faults::FaultInjector>(network, *fault_plan, hooks);
    serving.compute_scale = [inj = injector.get()](topo::NodeId g) {
      return inj->compute_scale(g);
    };
    injector->arm();
  }
  serve::ClusterSim cluster(network, engine, scheduler, plan, serving);
  scheduler.start();
  const serve::ServingReport report = cluster.run(trace);

  std::printf(
      "%s: %zu reqs @ %.2f req/s -> attainment %.3f, TTFT p90 %.2fs, "
      "TPOT p90 %.4fs\n",
      label, trace.size(), stats.mean_rate, report.sla_attainment,
      report.ttft.p90(), report.tpot.p90());
  if (report.trace_checked) {
    std::printf(
        "%s: trace cross-check: collectives %llu/%llu fallbacks %llu/%llu "
        "(engine/tracer) -> %s\n",
        label, static_cast<unsigned long long>(report.collectives),
        static_cast<unsigned long long>(report.trace_collectives),
        static_cast<unsigned long long>(report.ina_fallbacks),
        static_cast<unsigned long long>(report.trace_ina_fallbacks),
        report.trace_consistent ? "consistent" : "MISMATCH");
  }
}

int run(int argc, char** argv) {
  const cli::Options opts = cli::parse_args(
      argc, argv,
      "trace_replay [trace.csv] [rate] [--seed N] [--trace out.json] "
      "[--faults plan.json]");

  wl::Trace trace;
  if (!opts.positional.empty()) {
    trace = wl::load_trace_csv(opts.positional[0].c_str());
    std::printf("loaded %zu requests from %s\n", trace.size(),
                opts.positional[0].c_str());
  } else {
    wl::TraceOptions gen;
    gen.rate = 1.0;
    gen.count = 60;
    gen.lengths = wl::sharegpt_lengths();
    gen.seed = opts.seed;
    trace = wl::generate_trace(gen);
    wl::save_trace_csv("demo_trace.csv", trace);
    std::printf("generated demo trace -> demo_trace.csv (%zu requests)\n",
                trace.size());
  }

  if (opts.positional.size() > 1) {
    trace = wl::rescale_rate(std::move(trace),
                             cli::positional_double(opts, 1, 1.0));
  }

  faults::FaultPlan fault_plan;
  if (!opts.faults_path.empty()) {
    fault_plan = faults::load_fault_plan(opts.faults_path);
    std::printf("loaded fault plan %s (%zu events)\n",
                opts.faults_path.c_str(), fault_plan.events.size());
  }

  // Record the first replay only: each replay runs on a fresh simulator
  // whose clock restarts at zero, so a shared trace file would interleave.
  obs::EventTracer tracer;
  obs::MetricsRegistry metrics;
  serve_trace(trace, "as recorded",
              opts.trace_path.empty() ? obs::Sink()
                                      : obs::Sink(&tracer, &metrics),
              &fault_plan);
  if (!opts.trace_path.empty()) {
    if (tracer.write_chrome_trace_file(opts.trace_path.c_str())) {
      std::printf("wrote %zu trace events -> %s (load in ui.perfetto.dev)\n",
                  tracer.event_count(), opts.trace_path.c_str());
    }
  }
  serve_trace(wl::rescale_rate(trace, wl::summarize(trace).mean_rate * 2.0),
              "replayed at 2x rate", obs::Sink());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hero::cli::guarded_main(argc, argv, run);
}
