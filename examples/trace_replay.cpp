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
// first serve (faults/fault_plan.hpp). A rate that is not a positive finite
// number is rejected (exit status 2). Each replay runs the same pipeline as
// quickstart: hero::run_experiment over the loaded trace.
#include <cstdio>
#include <utility>

#include "common/cli.hpp"
#include "core/heroserve.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "obs/trace.hpp"
#include "workload/trace_io.hpp"

using namespace hero;

namespace {

void serve_trace(const wl::Trace& trace, const char* label, obs::Sink sink,
                 faults::FaultPlan fault_plan = {}) {
  ExperimentConfig cfg;
  cfg.topology = topo::make_testbed();
  cfg.serving.model = llm::opt_66b();
  const wl::TraceStats stats = wl::summarize(trace);
  cfg.workload.rate = stats.mean_rate;  // size the plan for the replay
  cfg.sink = sink;
  cfg.fault_plan = std::move(fault_plan);
  const ExperimentResult result =
      run_experiment(SystemKind::kHeroServe, cfg, trace);
  if (!result.ok()) {
    std::printf("%s: planner infeasible: %s\n", label,
                result.plan.infeasible_reason.c_str());
    return;
  }
  const serve::ServingReport& report = result.report;

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
      "[--faults plan.json]",
      cli::kSeed | cli::kTrace | cli::kFaults);

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
              std::move(fault_plan));
  if (!opts.trace_path.empty()) {
    if (tracer.write_chrome_trace_file(opts.trace_path.c_str())) {
      std::printf("wrote %zu trace events -> %s (load in ui.perfetto.dev)\n",
                  tracer.event_count(), opts.trace_path.c_str());
    }
  }
  // A trace without an arrival span has no rate to double: replay as is.
  const Rate recorded = wl::summarize(trace).mean_rate;
  serve_trace(recorded > 0 ? wl::rescale_rate(trace, recorded * 2.0) : trace,
              "replayed at 2x rate", obs::Sink());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hero::cli::guarded_main(argc, argv, run);
}
