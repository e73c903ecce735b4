#include "collectives/engine.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "common/check.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hero::coll {

const char* to_string(Scheme scheme) {
  switch (scheme) {
    case Scheme::kRing: return "ring";
    case Scheme::kInaSync: return "ina-sync";
    case Scheme::kInaAsync: return "ina-async";
  }
  return "?";
}

/// One flow barrier: a step's flows, one per path, and how many are still
/// in flight. A ring pass repeats its step `steps_left` times; every other
/// phase is a single step. Lanes live inside their Op (behind unique_ptr),
/// so flow callbacks may hold their address.
struct CollectiveEngine::Lane {
  const std::vector<topo::Path>* paths = nullptr;
  Bytes bytes = 0;  ///< per flow, before `scale`
  /// Per-path payload fraction; null = every path carries `bytes`.
  const std::vector<double>* scale = nullptr;
  std::size_t steps_left = 1;
  std::size_t pending = 0;
};

struct CollectiveEngine::Op {
  /// What the op does when its current lane (or every local lane) drains.
  enum class Phase : std::uint8_t {
    kLocalRing,
    kWideRing,
    kGather,
    kScatter,
    kBroadcast
  };

  std::uint64_t id = 0;
  std::shared_ptr<const AllReducePlan> plan;
  Bytes bytes = 0;
  Done done;
  AllReduceResult result;
  Phase phase = Phase::kLocalRing;

  std::vector<Lane> local;  ///< one NVLink ring pass per multi-GPU group
  std::size_t local_pending = 0;
  Lane wide;  ///< wide ring, gather, scatter, then broadcast
  bool holds_slots = false;
};

CollectiveEngine::CollectiveEngine(net::FlowNetwork& network,
                                   sw::SwitchRegistry& switches,
                                   EngineConfig config)
    : network_(&network), switches_(&switches), config_(config) {}

CollectiveEngine::~CollectiveEngine() = default;

void CollectiveEngine::all_reduce(std::shared_ptr<const AllReducePlan> plan,
                                  Bytes bytes, Done done) {
  if (plan == nullptr) throw std::invalid_argument("all_reduce: null plan");
  const std::uint64_t id = next_op_++;
  auto op = std::make_unique<Op>();
  op->id = id;
  op->plan = std::move(plan);
  op->bytes = bytes;
  op->done = std::move(done);
  op->result.start = network_->simulator().now();
  op->result.scheme = op->plan->scheme;
  Op& ref = *op;
  const AllReducePlan& p = *ref.plan;
  ops_.emplace(id, std::move(op));

  sim::Simulator& sim = network_->simulator();
  if (obs::EventTracer* tr = sim.tracer()) {
    std::string name = to_string(p.scheme);
    if (!p.flat()) name = "hier-" + name;
    obs::TraceArgs args{obs::arg("bytes", bytes),
                        obs::arg("scheme", to_string(p.scheme)),
                        obs::arg("wide_members", p.wide_members.size()),
                        obs::arg("hierarchical", !p.flat())};
    if (p.switch_node != topo::kInvalidNode) {
      args.push_back(
          obs::arg("switch", network_->graph().node(p.switch_node).name));
    }
    tr->async_begin(sim.now(), id, "collective", std::move(name),
                    std::move(args));
    tr->counter(sim.now(), "coll.inflight",
                static_cast<double>(ops_.size()));
  }
  if (obs::MetricsRegistry* m = sim.metrics()) {
    m->counter("coll.started").add();
    m->gauge("coll.inflight").set(sim.now(),
                                  static_cast<double>(ops_.size()));
  }

  start_local_phase(ref);
}

void CollectiveEngine::start_local_phase(Op& op) {
  // NVLink-local ring all-reduce inside every multi-GPU server group; flat
  // plans have none and go straight to the wide phase.
  op.local.reserve(op.plan->local_rings.size());
  for (const std::vector<topo::Path>& ring : op.plan->local_rings) {
    if (ring.empty()) continue;
    const Bytes chunk = op.bytes / static_cast<double>(ring.size());
    op.local.push_back(Lane{&ring, chunk, nullptr, 2 * (ring.size() - 1)});
  }
  if (op.local.empty()) {
    start_wide_phase(op);
    return;
  }
  op.local_pending = op.local.size();
  for (Lane& lane : op.local) start_ring(op, lane);
}

void CollectiveEngine::start_wide_phase(Op& op) {
  const AllReducePlan& plan = *op.plan;
  op.result.wide_start = network_->simulator().now();
  const std::size_t n = plan.wide_members.size();
  if (n <= 1) {
    op.result.collected = op.result.wide_start;
    start_broadcast_phase(op);
    return;
  }
  switch (plan.scheme) {
    case Scheme::kRing:
      if (plan.ring_paths.size() != n) {
        throw std::invalid_argument("all_reduce: ring_paths size mismatch");
      }
      op.phase = Op::Phase::kWideRing;
      op.wide = Lane{&plan.ring_paths, op.bytes / static_cast<double>(n),
                     nullptr, 2 * (n - 1)};
      start_ring(op, op.wide);
      break;
    case Scheme::kInaSync:
    case Scheme::kInaAsync:
      run_ina(op);
      break;
  }
}

void CollectiveEngine::start_ring(Op& op, Lane& lane) {
  if (lane.bytes <= 0) {
    // Empty payload: complete asynchronously for uniform semantics.
    network_->simulator().schedule_in(0.0, [this, &op] { phase_done(op); });
    return;
  }
  launch(op, lane);
}

void CollectiveEngine::run_ina(Op& op) {
  const AllReducePlan& plan = *op.plan;
  if (plan.switch_node == topo::kInvalidNode ||
      plan.up_paths.size() != plan.wide_members.size() ||
      plan.down_paths.size() != plan.wide_members.size()) {
    throw std::invalid_argument("all_reduce: incomplete INA plan");
  }
  sw::SwitchAgent& agent = switches_->agent(plan.switch_node);
  const bool sync = plan.scheme == Scheme::kInaSync;
  const sw::Admission admission =
      agent.reserve(op.id, plan.slots, /*queue_if_full=*/sync, [this, &op] {
        op.holds_slots = true;
        gather(op);
      });
  if (admission == sw::Admission::kRejected) {
    // ATP best-effort: aggregate at the end-host parameter server instead.
    run_fallback(op);
  }
}

void CollectiveEngine::run_fallback(Op& op) {
  const AllReducePlan& plan = *op.plan;
  // Fallback consistency: only a best-effort (async INA) reservation can
  // be rejected into the end-host path, and never while holding slots.
  HERO_INVARIANT(plan.scheme == Scheme::kInaAsync,
                 "fallback taken for scheme {}", to_string(plan.scheme));
  HERO_INVARIANT(!op.holds_slots, "op {} falls back while holding slots",
                 op.id);
  if (plan.fallback_node == topo::kInvalidNode ||
      plan.fallback_up.size() != plan.wide_members.size() ||
      plan.fallback_down.size() != plan.wide_members.size()) {
    throw std::invalid_argument(
        "all_reduce: async INA rejected and no fallback configured");
  }
  ++fallbacks_taken;
  op.result.used_fallback = true;
  sim::Simulator& sim = network_->simulator();
  if (obs::EventTracer* tr = sim.tracer()) {
    // ATP degradation moment: the switch rejected the reservation and the
    // op re-routes through the end-host parameter server.
    tr->instant(sim.now(), tr->track("collectives"), "ina_fallback",
                "switch-reject->host-ps",
                {obs::arg("op", op.id), obs::arg("bytes", op.bytes),
                 obs::arg("fallback",
                          network_->graph().node(plan.fallback_node).name)});
  }
  if (obs::MetricsRegistry* m = sim.metrics()) {
    m->counter("coll.fallbacks").add();
  }
  gather(op);
}

void CollectiveEngine::gather(Op& op) {
  // Every wide member ships its (shard of the) payload to the aggregation
  // point: the switch, or the end-host PS after a rejection.
  const AllReducePlan& plan = *op.plan;
  op.phase = Op::Phase::kGather;
  op.wide = Lane{op.result.used_fallback ? &plan.fallback_up : &plan.up_paths,
                 op.bytes,
                 plan.wide_scale.empty() ? nullptr : &plan.wide_scale};
  launch(op, op.wide);
}

void CollectiveEngine::scatter(Op& op) {
  const AllReducePlan& plan = *op.plan;
  op.phase = Op::Phase::kScatter;
  op.wide =
      Lane{op.result.used_fallback ? &plan.fallback_down : &plan.down_paths,
           op.bytes, plan.wide_scale.empty() ? nullptr : &plan.wide_scale};
  launch(op, op.wide);
}

void CollectiveEngine::start_broadcast_phase(Op& op) {
  if (op.plan->broadcast_legs.empty()) {
    finish(op);
    return;
  }
  op.phase = Op::Phase::kBroadcast;
  op.wide = Lane{&op.plan->broadcast_legs, op.bytes};
  launch(op, op.wide);
}

void CollectiveEngine::launch(Op& op, Lane& lane) {
  const std::vector<topo::Path>& paths = *lane.paths;
  lane.pending = paths.size();
  for (std::size_t i = 0; i < paths.size(); ++i) {
    network_->start_transfer(
        paths[i],
        lane.scale == nullptr ? lane.bytes : lane.bytes * (*lane.scale)[i],
        net::TransferOptions{[this, &op, &lane](net::TransferId) {
          if (--lane.pending != 0) return;
          if (--lane.steps_left != 0) {
            launch(op, lane);
          } else {
            phase_done(op);
          }
        }});
  }
}

void CollectiveEngine::phase_done(Op& op) {
  sim::Simulator& sim = network_->simulator();
  switch (op.phase) {
    case Op::Phase::kLocalRing:
      if (--op.local_pending == 0) start_wide_phase(op);
      return;
    case Op::Phase::kWideRing:
      op.result.collected = sim.now();
      start_broadcast_phase(op);
      return;
    case Op::Phase::kGather: {
      op.result.collected = sim.now();
      // The switch aggregates at a constant latency; the PS host reduces
      // P payloads through memory bandwidth.
      const Time reduce =
          op.result.used_fallback
              ? static_cast<double>(op.plan->wide_members.size()) * op.bytes /
                    config_.cost.host_agg_bw
              : config_.cost.agg_latency;
      sim.schedule_in(reduce, [this, &op] { scatter(op); });
      return;
    }
    case Op::Phase::kScatter:
      if (op.holds_slots) {
        switches_->agent(op.plan->switch_node).release(op.id);
        op.holds_slots = false;
      }
      start_broadcast_phase(op);
      return;
    case Op::Phase::kBroadcast:
      finish(op);
      return;
  }
}

void CollectiveEngine::finish(Op& op) {
  const AllReducePlan& plan = *op.plan;
  // Every phase barrier must have drained, and the slots been returned,
  // before an op completes.
  HERO_INVARIANT(op.wide.pending == 0, "op {} finished with {} flows pending",
                 op.id, op.wide.pending);
  HERO_INVARIANT(op.local_pending == 0,
                 "op {} finished with {} local rings pending", op.id,
                 op.local_pending);
  HERO_INVARIANT(!op.holds_slots, "op {} finished holding slots", op.id);
  HERO_INVARIANT(op.result.used_fallback ? plan.scheme == Scheme::kInaAsync
                                         : true,
                 "op {} recorded fallback under scheme {}", op.id,
                 to_string(plan.scheme));
  op.result.end = network_->simulator().now();
  ++ops_completed;
  Done done = std::move(op.done);
  const AllReduceResult result = op.result;
  const std::uint64_t id = op.id;
  // Rebuild the begin event's name: legacy async matching is by
  // (category, name, id).
  std::string name = to_string(plan.scheme);
  if (!plan.flat()) name = "hier-" + name;
  ops_.erase(id);
  sim::Simulator& sim = network_->simulator();
  if (obs::EventTracer* tr = sim.tracer()) {
    tr->async_end(sim.now(), id, "collective", std::move(name),
                  {obs::arg("latency", result.latency()),
                   obs::arg("used_fallback", result.used_fallback)});
    tr->counter(sim.now(), "coll.inflight",
                static_cast<double>(ops_.size()));
  }
  if (obs::MetricsRegistry* m = sim.metrics()) {
    m->counter("coll.ops").add();
    m->gauge("coll.inflight").set(sim.now(),
                                  static_cast<double>(ops_.size()));
  }
  if (done) done(result);
}

// --- plan builders -------------------------------------------------------

namespace {

/// oracle.path(a, b), or std::runtime_error naming both nodes.
topo::Path route(const topo::PathOracle& oracle, topo::NodeId a,
                 topo::NodeId b) {
  std::optional<topo::Path> p = oracle.path(a, b);
  if (!p) {
    const topo::Graph& g = oracle.graph();
    throw std::runtime_error("plan builder: unreachable pair " +
                             g.node(a).name + " -> " + g.node(b).name);
  }
  return *std::move(p);
}

/// The direct NVLink edge a -> b between two same-server GPUs, or
/// std::runtime_error naming both GPUs.
topo::Path direct_nvlink_path(const topo::Graph& g, topo::NodeId a,
                              topo::NodeId b) {
  for (const topo::Adjacency& adj : g.neighbors(a)) {
    if (adj.peer == b && g.edge(adj.edge).kind == topo::LinkKind::kNvLink) {
      return topo::Path{{a, b}, {adj.edge}};
    }
  }
  throw std::runtime_error("plan builder: no NVLink edge " + g.node(a).name +
                           " -> " + g.node(b).name);
}

}  // namespace

AllReducePlan make_ring_plan(std::vector<topo::NodeId> members,
                             const topo::PathOracle& oracle) {
  AllReducePlan plan;
  plan.scheme = Scheme::kRing;
  plan.wide_members = std::move(members);
  plan.ring_paths.reserve(plan.wide_members.size());
  if (plan.wide_members.size() > 1) {
    for (std::size_t i = 0; i < plan.wide_members.size(); ++i) {
      plan.ring_paths.push_back(
          route(oracle, plan.wide_members[i],
                plan.wide_members[(i + 1) % plan.wide_members.size()]));
    }
  }
  return plan;
}

AllReducePlan make_ina_plan(std::vector<topo::NodeId> members,
                            topo::NodeId agg_switch, Scheme scheme,
                            const topo::PathOracle& oracle,
                            topo::NodeId fallback, std::uint32_t slots) {
  if (scheme == Scheme::kRing) {
    throw std::invalid_argument("make_ina_plan: scheme must be INA");
  }
  AllReducePlan plan;
  plan.scheme = scheme;
  plan.wide_members = std::move(members);
  plan.switch_node = agg_switch;
  plan.slots = slots;
  plan.up_paths.reserve(plan.wide_members.size());
  plan.down_paths.reserve(plan.wide_members.size());
  for (topo::NodeId m : plan.wide_members) {
    plan.up_paths.push_back(route(oracle, m, agg_switch));
    plan.down_paths.push_back(route(oracle, agg_switch, m));
  }
  if (fallback != topo::kInvalidNode) {
    plan.fallback_node = fallback;
    for (topo::NodeId m : plan.wide_members) {
      plan.fallback_up.push_back(route(oracle, m, fallback));
      plan.fallback_down.push_back(route(oracle, fallback, m));
    }
  }
  return plan;
}

AllReducePlan make_hierarchical_plan(std::vector<topo::NodeId> members,
                                     Scheme wide_scheme,
                                     const topo::PathOracle& oracle,
                                     topo::NodeId agg_switch,
                                     topo::NodeId fallback,
                                     std::uint32_t slots) {
  // Group members by NVLink domain (server id).
  const topo::Graph& g = oracle.graph();
  std::vector<std::vector<topo::NodeId>> groups;
  std::unordered_map<std::int32_t, std::size_t> by_server;
  for (topo::NodeId m : members) {
    const std::int32_t server = g.node(m).gpu.server;
    auto [it, inserted] = by_server.try_emplace(server, groups.size());
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(m);
  }

  AllReducePlan plan;
  if (wide_scheme == Scheme::kRing) {
    std::vector<topo::NodeId> leaders;
    leaders.reserve(groups.size());
    for (const auto& group : groups) leaders.push_back(group.front());
    plan = make_ring_plan(leaders, oracle);
  } else {
    // Sharded INA: every member streams its 1/g shard via its own NIC.
    std::vector<topo::NodeId> all_members;
    std::vector<double> scale;
    for (const auto& group : groups) {
      for (topo::NodeId m : group) {
        all_members.push_back(m);
        scale.push_back(1.0 / static_cast<double>(group.size()));
      }
    }
    plan = make_ina_plan(all_members, agg_switch, wide_scheme, oracle,
                         fallback, slots);
    plan.wide_scale = std::move(scale);
  }
  plan.local_rings.reserve(groups.size());
  for (const auto& group : groups) {
    std::vector<topo::Path>& ring = plan.local_rings.emplace_back();
    if (group.size() <= 1) continue;
    ring.reserve(group.size());
    for (std::size_t i = 0; i < group.size(); ++i) {
      ring.push_back(
          direct_nvlink_path(g, group[i], group[(i + 1) % group.size()]));
    }
    for (std::size_t i = 1; i < group.size(); ++i) {
      plan.broadcast_legs.push_back(direct_nvlink_path(g, group[0], group[i]));
    }
  }
  plan.local_groups = std::move(groups);
  return plan;
}

std::vector<topo::NodeId> rank_aggregation_switches(
    const topo::PathOracle& oracle, const std::vector<topo::NodeId>& members,
    std::size_t count) {
  struct Scored {
    topo::NodeId sw = topo::kInvalidNode;
    Time score = 0.0;
  };
  const topo::Graph& g = oracle.graph();
  std::vector<Scored> scored;
  for (topo::NodeId sw : g.switches()) {
    if (g.node(sw).agg_slots <= 0) continue;
    // Collection latency is a max over members (Eq. 9), so the election
    // minimizes the worst member's path; the sum breaks ties.
    Time worst = 0.0;
    Time total = 0.0;
    bool reachable = true;
    for (topo::NodeId m : members) {
      const Time lat = oracle.latency(m, sw, 1.0 * units::MiB);
      if (std::isinf(raw(lat))) {
        reachable = false;
        break;
      }
      worst = std::max(worst, lat);
      total += lat;
    }
    if (reachable) scored.push_back({sw, worst * 1e6 + total});
  }
  std::sort(scored.begin(), scored.end(),
            [](const Scored& a, const Scored& b) { return a.score < b.score; });
  std::vector<topo::NodeId> out;
  for (const Scored& s : scored) {
    if (out.size() >= count) break;
    out.push_back(s.sw);
  }
  return out;
}

}  // namespace hero::coll
