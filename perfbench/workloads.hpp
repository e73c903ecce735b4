// One measured pass of a benchmark workload.
//
// A pass builds the workload's inputs from the seed and runs them through
// the repository's public entry points — wl::generate_*, hero::fitted_model,
// planner::{Fleet,Offline}Planner::plan and hero::run_experiment /
// hero::run_fleet_experiment — with host-time spans around each call. The
// plan->deploy->serve wiring is the program's own; the benchmark only
// times it and reads what it reports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Named values of one pass, sorted by name.
using Values = std::map<std::string, double>;

struct PassResult {
  std::size_t attempted = 0;  ///< requests in the workload's trace
  /// Requests not retired, refused, or never planned (an infeasible plan
  /// fails every request of the trace).
  std::size_t failed = 0;
  std::vector<std::string> errors;  ///< failed correctness checks
  bool tracer_attached = false;     ///< EventTracer on this (observed) pass

  Values host;    ///< wall-clock seconds per layer; vary run to run
  Values sim;     ///< simulated end-to-end metrics; repeat exactly per seed
  Values counts;  ///< deterministic per-layer counts and simulated times
  Values obs;     ///< per-layer numbers read from the attached obs::Sink
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// part / whole, or 0 when there is no whole.
[[nodiscard]] inline double ratio(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

/// Run `workload` once from `seed`. `observe` attaches an obs::Sink (the
/// traced pass): a MetricsRegistry always, plus an EventTracer on
/// workloads that can afford one. `standalone_plan` makes the benchmark's
/// own plan first (set-up time, and the check against the driver's plan);
/// without it the pass reports no set-up or per-layer host times.
[[nodiscard]] PassResult run_pass(const std::string& workload,
                                  std::uint64_t seed, bool observe,
                                  bool standalone_plan);

}  // namespace perfbench
