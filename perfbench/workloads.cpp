// hero-lint: allow-file(wall-clock) — host time per layer is what this measures
#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <exception>
#include <memory>
#include <optional>
#include <set>

#include "core/heroserve.hpp"
#include "digest.hpp"

namespace perfbench {
namespace {

using namespace hero;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- workloads --------------------------------------------------------------
// All open loop: the arrival schedule is generated from the seed up front
// and latency is simulated time from each request's scheduled arrival.
// OPT-66B, ShareGPT lengths, HeroServe.

ExperimentConfig base_config(std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.serving.model = llm::opt_66b();
  cfg.serving.seed = seed;
  cfg.serving.sla_ttft = 2.5;
  cfg.serving.sla_tpot = 0.15;
  cfg.workload.lengths = wl::sharegpt_lengths();
  cfg.workload.seed = seed;
  return cfg;
}

ExperimentConfig fleet12_burst(std::uint64_t seed) {
  ExperimentConfig cfg = base_config(seed);
  topo::FleetClusterOptions fabric;
  fabric.racks = 12;
  cfg.topology = topo::make_fleet_cluster(fabric);
  cfg.fleet.instances = 12;
  cfg.fleet.policy = serve::RouterPolicy::kHeroServe;
  cfg.workload.rate = 1.15 * 12;
  cfg.workload.count = 1000;
  cfg.workload.bursty = true;
  cfg.workload.burst_multiplier = 3.0;
  cfg.workload.burst_fraction = 0.3;
  return cfg;
}

ExperimentConfig testbed_chaos(std::uint64_t seed) {
  ExperimentConfig cfg = base_config(seed);
  cfg.topology = topo::make_testbed();
  cfg.min_p_tens = 8;  // TP groups span servers: sync crosses the switches
  cfg.workload.rate = 1.2;
  cfg.workload.count = 1000;
  return cfg;
}

ExperimentConfig chat_prefix(std::uint64_t seed) {
  ExperimentConfig cfg = base_config(seed);
  topo::FleetClusterOptions fabric;
  fabric.racks = 4;
  cfg.topology = topo::make_fleet_cluster(fabric);
  cfg.serving.sla_ttft = 6.0;  // multi-thousand-token follow-up contexts
  cfg.serving.prefix_block_tokens = 128;
  cfg.fleet.instances = 4;
  cfg.fleet.policy = serve::RouterPolicy::kHeroServe;
  cfg.fleet.prefix_affinity = true;
  cfg.workload.rate = 2.0;
  cfg.workload.count = 3000;
  return cfg;
}

wl::Trace poisson_trace(ExperimentConfig& cfg) {
  return wl::generate_trace(cfg.workload);
}

wl::Trace multiturn_trace(ExperimentConfig& cfg) {
  wl::MultiturnOptions opts;
  opts.base = cfg.workload;
  opts.multi_turn_fraction = 1.0;
  opts.mean_turns = 5.0;
  opts.think_mean = 45.0;
  opts.max_context_tokens = 4096;
  return wl::generate_multiturn_trace(opts);
}

/// Poisson arrivals under bench_chaos's link flap — two non-leader GPU
/// uplinks at 5% for half of every 4 s cycle — repeated until the last
/// arrival.
wl::Trace flapping_trace(ExperimentConfig& cfg) {
  wl::Trace trace = wl::generate_trace(cfg.workload);
  constexpr double kStart = 2.0;
  constexpr double kPeriod = 4.0;
  const double window = trace.empty() ? 0.0 : raw(trace.back().arrival);
  const auto cycles = static_cast<std::uint32_t>(
      std::max(1.0, std::ceil((window - kStart) / kPeriod) + 1.0));
  for (const char* edge : {"w0g1-sw1", "w1g1-sw1"}) {
    faults::FaultEvent ev;
    ev.kind = faults::FaultKind::kLinkFlap;
    ev.at = kStart;
    ev.period = kPeriod;
    ev.duration = kPeriod / 2.0;
    ev.count = cycles;
    ev.target = edge;
    ev.magnitude = 0.05;
    cfg.fault_plan.events.push_back(ev);
  }
  return trace;
}

struct Workload {
  const char* name;
  ExperimentConfig (*configure)(std::uint64_t seed);
  /// The trace to serve, plus any configuration that depends on it.
  wl::Trace (*generate)(ExperimentConfig& cfg);
  bool fleet = true;  ///< run_fleet_experiment, else run_experiment
  /// An EventTracer over the whole trace fits in memory on the traced
  /// pass. testbed-chaos records ~8.5 M events per 1,000 requests (GBs
  /// resident), so its traced pass attaches only the MetricsRegistry and
  /// takes the tracer's numbers from a probe (kProbeRequests).
  bool tracer = true;
};

const Workload kWorkloads[] = {
    {"fleet12-burst", fleet12_burst, poisson_trace, true, true},
    {"testbed-chaos", testbed_chaos, flapping_trace, false, false},
    {"chat-prefix", chat_prefix, multiturn_trace, true, true},
};

// --- checks -----------------------------------------------------------------

/// Every fault target must name a node (or an "a-b" edge between adjacent
/// nodes) of the topology the run will use.
void check_fault_plan(const faults::FaultPlan& plan, const topo::Graph& graph,
                      std::vector<std::string>& errors) {
  for (const faults::FaultEvent& ev : plan.events) {
    if (ev.kind == faults::FaultKind::kSyncDelay ||
        ev.kind == faults::FaultKind::kSyncDrop) {
      continue;
    }
    const bool link = ev.kind == faults::FaultKind::kLinkDegrade ||
                      ev.kind == faults::FaultKind::kLinkFlap;
    if (!link) {
      if (graph.find(ev.target) == topo::kInvalidNode) {
        errors.push_back("fault plan: no node \"" + ev.target + "\"");
      }
      continue;
    }
    const std::size_t dash = ev.target.find('-');
    const topo::NodeId a = dash == std::string::npos
                               ? topo::kInvalidNode
                               : graph.find(ev.target.substr(0, dash));
    const topo::NodeId b = dash == std::string::npos
                               ? topo::kInvalidNode
                               : graph.find(ev.target.substr(dash + 1));
    bool adjacent = false;
    if (a != topo::kInvalidNode && b != topo::kInvalidNode) {
      for (const topo::Adjacency& adj : graph.neighbors(a)) {
        adjacent = adjacent || adj.peer == b;
      }
    }
    if (!adjacent) {
      errors.push_back("fault plan: no edge \"" + ev.target + "\"");
    }
  }
}

bool same(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_group(const planner::GroupPlan& a, const planner::GroupPlan& b) {
  return a.gpus == b.gpus && a.scheme == b.scheme &&
         a.ina_switch == b.ina_switch && a.hierarchical == b.hierarchical &&
         same(raw(a.step_latency), raw(b.step_latency));
}

bool same_cluster(const planner::ClusterPlan& a,
                  const planner::ClusterPlan& b) {
  return a.parallel == b.parallel &&
         std::equal(a.stages.begin(), a.stages.end(), b.stages.begin(),
                    b.stages.end(), same_group) &&
         same(raw(a.t_net), raw(b.t_net)) && same(raw(a.t_comp), raw(b.t_comp));
}

bool same_plan(const planner::PlanResult& a, const planner::PlanResult& b) {
  return a.feasible == b.feasible &&
         a.infeasible_reason == b.infeasible_reason &&
         same_cluster(a.prefill, b.prefill) &&
         same_cluster(a.decode, b.decode) &&
         same(raw(a.t_prefill), raw(b.t_prefill)) &&
         same(raw(a.t_decode), raw(b.t_decode)) &&
         same(raw(a.t_kv), raw(b.t_kv)) &&
         same(raw(a.t_serve), raw(b.t_serve)) && a.q_decode == b.q_decode &&
         same(raw(a.service_rate), raw(b.service_rate)) &&
         same(raw(a.service_rate_prefill), raw(b.service_rate_prefill)) &&
         same(raw(a.service_rate_decode), raw(b.service_rate_decode)) &&
         a.planned_k_in == b.planned_k_in &&
         same(raw(a.planned_arrival_rate), raw(b.planned_arrival_rate)) &&
         same(a.queue.utilization, b.queue.utilization) &&
         same(raw(a.queue.queue_delay), raw(b.queue.queue_delay)) &&
         a.queue.stable == b.queue.stable &&
         same(raw(a.throughput_h), raw(b.throughput_h)) &&
         a.candidates_evaluated == b.candidates_evaluated &&
         a.perturbation_swaps == b.perturbation_swaps &&
         a.solve_work_units == b.solve_work_units;
}

// --- planning ---------------------------------------------------------------

/// The planner inputs run_experiment / run_fleet_experiment derive from an
/// ExperimentConfig for HeroServe. The standalone plan built from them
/// must equal the driver's plan, which keeps this mirror honest.
planner::PlannerInputs planner_inputs(const ExperimentConfig& cfg,
                                      const wl::Trace& trace,
                                      const gpu::LatencyModel& latency) {
  wl::WorkloadEstimator estimator;
  for (const wl::Request& r : trace) estimator.observe(r);
  planner::PlannerInputs in;
  in.graph = &cfg.topology;
  in.model = cfg.serving.model;
  in.latency = &latency;
  in.batch_q = cfg.batch_q;
  in.k_in = estimator.k_in(cfg.batch_q);
  in.k_in2 = estimator.k_in2(cfg.batch_q);
  in.k_out = estimator.k_out(cfg.batch_q);
  in.arrival_rate = cfg.workload.rate;
  in.t_sla_prefill = cfg.serving.sla_ttft;
  in.t_sla_decode = cfg.serving.sla_tpot;
  in.r_frac = cfg.serving.r_frac;
  in.min_p_tens = cfg.min_p_tens;
  in.max_candi = cfg.max_candi;
  in.decode_batch_limit = cfg.serving.decode_batch_limit;
  in.prefill_token_budget = cfg.serving.prefill_token_budget;
  in.heterogeneous = true;
  in.seed = cfg.serving.seed;
  in.comm_cost = cfg.engine.cost;
  return in;
}

planner::FleetPlan plan_fleet(const ExperimentConfig& cfg,
                              planner::PlannerInputs base) {
  planner::FleetPlannerInputs in;
  in.base = std::move(base);
  in.instances = std::max<std::size_t>(cfg.fleet.instances, 1);
  in.fleet_arrival_rate = cfg.workload.rate;
  in.balance_stage_rates = cfg.fleet.balance_stage_rates;
  in.uniform_hardware_pools = cfg.fleet.uniform_hardware_pools;
  return planner::FleetPlanner(in).plan();
}

// --- one served run, single instance or fleet --------------------------------

struct Served {
  bool feasible = false;
  std::string infeasible_reason;
  bool plan_matches = true;  ///< standalone plan (if any) == driver plan
  std::size_t solve_work_units = 0;
  serve::ServingReport report;  ///< aggregate over the fleet
  SimStats stats;
  double gpu_hours = 0.0;
  std::vector<std::uint64_t> dispatched;
  double dispatch_imbalance = 0.0;
  serve::PrefixStats prefix;
  std::uint64_t prefix_streams = 0;
  double prefix_stream_bytes = 0.0;
  serve::AutoscaleStats autoscale;
  std::optional<std::vector<serve::RetiredSample>> samples;  ///< fleet only
};

Served serve_single(const ExperimentConfig& cfg,
                    const planner::PlanResult* standalone) {
  const ExperimentResult r = run_experiment(SystemKind::kHeroServe, cfg);
  Served s;
  s.feasible = r.ok();
  s.infeasible_reason = r.plan.infeasible_reason;
  s.plan_matches = standalone == nullptr || same_plan(*standalone, r.plan);
  s.solve_work_units = r.plan.solve_work_units;
  s.report = r.report;
  s.stats = r.sim_stats;
  // A static instance holds its GPUs from deployment to the end of the run.
  s.gpu_hours = static_cast<double>(r.report.gpus_used) *
                raw(r.sim_stats.sim_seconds) / 3600.0;
  return s;
}

Served serve_fleet(const ExperimentConfig& cfg, const wl::Trace& trace,
                   const planner::FleetPlan* standalone) {
  const FleetExperimentResult r =
      run_fleet_experiment(SystemKind::kHeroServe, cfg, trace);
  Served s;
  s.feasible = r.ok();
  s.infeasible_reason = r.plan.infeasible_reason;
  s.plan_matches = standalone == nullptr ||
                   (standalone->feasible == r.plan.feasible &&
                    standalone->gpus_used == r.plan.gpus_used &&
                    std::equal(standalone->instances.begin(),
                               standalone->instances.end(),
                               r.plan.instances.begin(),
                               r.plan.instances.end(), same_plan));
  for (const planner::PlanResult& p : r.plan.instances) {
    s.solve_work_units += p.solve_work_units;
  }
  s.report = r.report.aggregate;
  s.stats = r.sim_stats;
  s.gpu_hours = r.report.gpu_hours;
  s.dispatched = r.report.dispatched;
  s.dispatch_imbalance = r.report.dispatch_imbalance;
  s.prefix = r.report.prefix;
  s.prefix_streams = r.report.prefix_streams;
  s.prefix_stream_bytes = raw(r.report.prefix_stream_bytes);
  s.autoscale = r.report.autoscale;
  s.samples = r.report.samples;
  return s;
}

/// Request conservation: every request of the trace retired exactly once.
void check_retired(const Served& s, const wl::Trace& trace,
                   std::vector<std::string>& errors) {
  if (s.report.submitted != trace.size() ||
      s.report.completed != trace.size()) {
    errors.push_back(strfmt("requests: {} in trace, {} submitted, {} retired",
                            trace.size(), s.report.submitted,
                            s.report.completed));
  }
  if (!s.samples) return;
  std::set<std::uint64_t> ids;
  for (const serve::RetiredSample& r : *s.samples) ids.insert(r.id);
  std::set<std::uint64_t> want;
  for (const wl::Request& r : trace) want.insert(r.id);
  if (s.samples->size() != trace.size() || ids != want) {
    errors.push_back(strfmt("retired samples: {} samples, {} unique ids, "
                            "trace has {} ids",
                            s.samples->size(), ids.size(), want.size()));
  }
}

/// The registry's own totals must agree with what the engine and the
/// router reported for the same run.
void check_registry(const obs::MetricsRegistry& metrics, const Served& s,
                    std::vector<std::string>& errors) {
  auto counter = [&](const char* name) -> std::uint64_t {
    const obs::Counter* c = metrics.find_counter(name);
    return c != nullptr ? c->value() : 0;
  };
  std::uint64_t dispatched = 0;
  for (std::uint64_t d : s.dispatched) dispatched += d;
  if (counter("coll.ops") != s.report.collectives ||
      counter("coll.fallbacks") != s.report.ina_fallbacks ||
      counter("router.dispatched") != dispatched ||
      counter("serve.retired") != s.report.completed) {
    errors.push_back(strfmt(
        "registry/engine drift: coll.ops {} vs {}, coll.fallbacks {} vs {}, "
        "router.dispatched {} vs {}, serve.retired {} vs {}",
        counter("coll.ops"), s.report.collectives, counter("coll.fallbacks"),
        s.report.ina_fallbacks, counter("router.dispatched"), dispatched,
        counter("serve.retired"), s.report.completed));
  }
}

// --- metric extraction ------------------------------------------------------

void simulated_metrics(const Served& s, std::size_t attempted,
                       double offered_rate, PassResult& out) {
  const serve::ServingReport& rep = s.report;
  out.sim["ttft_p50_s"] = rep.ttft.median();
  out.sim["ttft_p99_s"] = rep.ttft.p99();
  out.sim["ttft_samples"] = static_cast<double>(rep.ttft.count());
  out.sim["tpot_p50_s"] = rep.tpot.median();
  out.sim["tpot_p99_s"] = rep.tpot.p99();
  out.sim["tpot_samples"] = static_cast<double>(rep.tpot.count());
  out.sim["sla_attainment"] = rep.sla_attainment;
  // GPUs held on average over the run (an elastic fleet's integral over
  // its lifetimes), and the requests inside both SLAs per second per GPU
  // at the workload's offered rate. Both leave out the run's length, which
  // the seed's arrival window sets (bursty arrivals stretch it 2x).
  // ServingReport's per_gpu_goodput counts every completion instead.
  const double sim_s = raw(s.stats.sim_seconds);
  const double mean_gpus = ratio(s.gpu_hours * 3600.0, sim_s);
  out.sim["mean_gpus"] = mean_gpus;
  out.sim["goodput_per_gpu"] =
      ratio(rep.sla_attainment * offered_rate, mean_gpus);
  out.sim["gpu_hours"] = s.gpu_hours;
  out.sim["served_frac"] =
      1.0 - ratio(static_cast<double>(out.failed),
                  static_cast<double>(attempted));
}

void layer_counts(const Served& s, PassResult& out) {
  Values& c = out.counts;
  const net::FlowNetStats& fn = s.stats.flownet;
  c["planner.solve_work_units"] = static_cast<double>(s.solve_work_units);
  c["netsim.events_executed"] = static_cast<double>(s.stats.events_executed);
  c["netsim.events_scheduled"] = static_cast<double>(s.stats.events_scheduled);
  c["netsim.events_cancelled"] = static_cast<double>(s.stats.events_cancelled);
  c["netsim.reallocations"] = static_cast<double>(fn.reallocations);
  c["netsim.solves"] = static_cast<double>(fn.solves);
  c["netsim.flows_solved"] = static_cast<double>(fn.flows_solved);
  c["netsim.flows_active"] = static_cast<double>(fn.flows_active);
  c["netsim.solve_skip_ratio"] =
      fn.flows_active > 0
          ? 1.0 - ratio(static_cast<double>(fn.flows_solved),
                        static_cast<double>(fn.flows_active))
          : 0.0;
  c["collectives.ops"] = static_cast<double>(s.report.collectives);
  c["collectives.ina_fallbacks"] = static_cast<double>(s.report.ina_fallbacks);
  c["collectives.fallback_ratio"] =
      ratio(static_cast<double>(s.report.ina_fallbacks),
            static_cast<double>(s.report.collectives));
  std::uint64_t dispatched = 0;
  for (std::uint64_t d : s.dispatched) dispatched += d;
  c["serving.router.dispatched"] = static_cast<double>(dispatched);
  c["serving.router.dispatch_imbalance"] = s.dispatch_imbalance;
  c["serving.kv_util_avg"] = s.report.kv_utilization_avg;
  c["serving.kv_util_peak"] = s.report.kv_utilization_peak;
  c["kvtier.lookups"] = static_cast<double>(s.prefix.lookups);
  c["kvtier.hits"] = static_cast<double>(s.prefix.hits);
  c["kvtier.hit_ratio"] = ratio(static_cast<double>(s.prefix.hits),
                                static_cast<double>(s.prefix.lookups));
  c["kvtier.reused_tokens"] = static_cast<double>(s.prefix.reused_tokens);
  c["kvtier.recomputes"] = static_cast<double>(s.prefix.recomputes);
  c["kvtier.streams"] = static_cast<double>(s.prefix_streams);
  c["kvtier.stream_bytes"] = s.prefix_stream_bytes;
  c["autoscale.scale_ups"] = static_cast<double>(s.autoscale.scale_ups);
  c["autoscale.drains"] = static_cast<double>(s.autoscale.drains);
  c["autoscale.releases"] = static_cast<double>(s.autoscale.releases);
  c["autoscale.plan_failures"] = static_cast<double>(s.autoscale.plan_failures);
  c["autoscale.peak_instances"] =
      static_cast<double>(s.autoscale.peak_instances);
}

/// testbed-chaos's traced pass holds no tracer over its whole trace; its
/// tracer numbers come from a probe of this many leading arrivals
/// (~250 k events).
constexpr std::size_t kProbeRequests = 30;

/// One end-to-end execution of a workload: generate, fit, plan standalone
/// (unless skipped), then the driver — timed span by span and checked.
struct Execution {
  wl::Trace trace;
  Served served;
  bool ran = false;  ///< the driver ran to completion
  double generate_s = 0.0;
  double fit_s = 0.0;
  std::optional<double> plan_s;  ///< the standalone plan, when made
  double driver_s = 0.0;

  [[nodiscard]] std::size_t failed() const {
    if (!ran || !served.feasible) return trace.size();
    return trace.size() - std::min(trace.size(), served.report.completed);
  }
};

Execution execute(const Workload& w, ExperimentConfig cfg,
                  bool standalone_plan, std::vector<std::string>& errors) {
  Execution ex;
  // Set-up: trace generation, latency-model fit, and a feasible plan.
  auto start = Clock::now();
  ex.trace = w.generate(cfg);
  ex.generate_s = since(start);
  const std::size_t errors_before = errors.size();
  check_fault_plan(cfg.fault_plan, cfg.topology, errors);
  if (errors.size() != errors_before) return ex;

  start = Clock::now();
  const gpu::LatencyModel& latency = fitted_model(cfg.serving.model);
  ex.fit_s = since(start);

  std::optional<planner::FleetPlan> fleet_plan;
  std::optional<planner::PlanResult> single_plan;
  if (standalone_plan) {
    start = Clock::now();
    const planner::PlannerInputs inputs =
        planner_inputs(cfg, ex.trace, latency);
    if (w.fleet) {
      fleet_plan = plan_fleet(cfg, inputs);
    } else {
      single_plan = planner::OfflinePlanner(inputs).plan();
    }
    ex.plan_s = since(start);
  }

  // The driver: plan -> deploy -> serve, as every example runs it.
  start = Clock::now();
  try {
    ex.served = w.fleet ? serve_fleet(cfg, ex.trace, fleet_plan ? &*fleet_plan
                                                                : nullptr)
                        : serve_single(cfg, single_plan ? &*single_plan
                                                        : nullptr);
  } catch (const std::exception& e) {
    errors.push_back(std::string("driver threw: ") + e.what());
    return ex;
  }
  ex.driver_s = since(start);
  ex.ran = true;

  const Served& s = ex.served;
  if (!s.feasible) {
    errors.push_back("plan infeasible: " + s.infeasible_reason);
  }
  if (!s.plan_matches) {
    errors.push_back("standalone plan differs from the driver's plan");
  }
  check_retired(s, ex.trace, errors);
  if (s.report.trace_checked && !s.report.trace_consistent) {
    errors.push_back("ServingReport::trace_consistent is false");
  }
  if (s.stats.flownet.mismatches != 0) {
    errors.push_back(
        strfmt("FlowNetStats::mismatches = {}", s.stats.flownet.mismatches));
  }
  return ex;
}

/// The tracer's collective spans and the registry's in-flight gauge time
/// the same all-reduces.
void check_collective_time(const obs::EventTracer& tracer,
                           const obs::MetricsRegistry& metrics,
                           std::vector<std::string>& errors) {
  const double spans = async_span_seconds(tracer, "collective");
  const double gauge = gauge_integral(metrics, "coll.inflight");
  if (std::abs(spans - gauge) > 1e-6 * std::max(1.0, std::abs(spans))) {
    errors.push_back(
        strfmt("collective time: tracer spans {} s vs registry gauge {} s",
               spans, gauge));
  }
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const Workload& w : kWorkloads) v.emplace_back(w.name);
    return v;
  }();
  return names;
}

PassResult run_pass(const std::string& name, std::uint64_t seed,
                    bool observe, bool standalone_plan) {
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (name == candidate.name) w = &candidate;
  }
  if (w == nullptr) throw std::invalid_argument("unknown workload " + name);

  PassResult out;
  ExperimentConfig cfg = w->configure(seed);
  obs::MetricsRegistry metrics;
  std::unique_ptr<obs::EventTracer> tracer;
  if (observe) {
    if (w->tracer) tracer = std::make_unique<obs::EventTracer>();
    cfg.sink = obs::Sink(tracer.get(), &metrics);
  }
  out.tracer_attached = tracer != nullptr;

  const double offered_rate = raw(cfg.workload.rate);
  const Execution ex =
      execute(*w, std::move(cfg), standalone_plan, out.errors);
  out.attempted = ex.trace.size();
  out.failed = ex.failed();
  if (!ex.ran) return out;

  out.host["workload.generate_s"] = ex.generate_s;
  out.host["gpusim.fit_s"] = ex.fit_s;
  out.host["wall_s"] = ex.generate_s + ex.fit_s + ex.driver_s;
  if (ex.plan_s) {
    out.host["planner.plan_s"] = *ex.plan_s;
    out.host["setup_s"] = ex.generate_s + ex.fit_s + *ex.plan_s;
    // The driver replans internally; its planning is taken to cost what
    // the standalone plan on the same inputs did.
    const double serve_s = std::max(ex.driver_s - *ex.plan_s, 1e-9);
    out.host["core.serve_s"] = serve_s;
    out.host["netsim.events_per_host_s"] =
        static_cast<double>(ex.served.stats.events_executed) / serve_s;
  }
  simulated_metrics(ex.served, ex.trace.size(), offered_rate, out);
  layer_counts(ex.served, out);
  if (!observe) return out;

  check_registry(metrics, ex.served, out.errors);
  digest_metrics(metrics, ex.trace.size(), out.obs);
  if (tracer) {
    check_collective_time(*tracer, metrics, out.errors);
    digest_trace(*tracer, ex.trace.size(), out.obs);
    return out;
  }
  // No tracer fits this workload's whole trace: trace a probe, the same
  // workload cut to its first kProbeRequests arrivals.
  ExperimentConfig probe_cfg = w->configure(seed);
  probe_cfg.workload.count = kProbeRequests;
  obs::EventTracer probe_tracer;
  obs::MetricsRegistry probe_metrics;
  probe_cfg.sink = obs::Sink(&probe_tracer, &probe_metrics);
  const Execution probe =
      execute(*w, std::move(probe_cfg), /*standalone_plan=*/true, out.errors);
  if (probe.ran) {
    check_collective_time(probe_tracer, probe_metrics, out.errors);
    digest_trace(probe_tracer, probe.trace.size(), out.obs);
  }
  return out;
}

}  // namespace perfbench
