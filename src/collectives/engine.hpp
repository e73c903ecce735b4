// Collective-communication execution engine over the flow network.
//
// The engine executes fully *resolved* plans: the caller (offline planner
// output or the online scheduler) has already decided the scheme (ring /
// synchronous INA / asynchronous INA), the aggregation switch, and every
// transmission path. A plan is immutable and shared: it is built once per
// policy (or per baseline group) and every op reads it through a
// shared_ptr, with the payload given per op. The engine turns the plan into
// flows, enforces switch slot admission, and reports phase timestamps.
//
// Supported shapes:
//  * flat ring all-reduce           (the NCCL baseline, Eq. 11 semantics)
//  * flat INA all-reduce            (SwitchML/ATP: collect -> agg -> dist)
//  * hierarchical all-reduce        (HeroServe: NVLink-local ring, one leader
//                                    per server joins the inter-server phase,
//                                    NVLink broadcast back — Fig. 2(b))
//
// Point-to-point streams (KV cache, prefix blocks) are not collectives:
// the serving layer starts them on the FlowNetwork directly.
//
// Asynchronous INA (ATP) falls back to end-host PS aggregation when the
// switch rejects the reservation, reproducing ATP's best-effort degradation
// under slot pressure. Both aggregation points run the same gather ->
// reduce -> scatter phases; only the reduce delay differs.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "collectives/cost_model.hpp"
#include "netsim/flownet.hpp"
#include "switchsim/switch_agent.hpp"

namespace hero::coll {

enum class Scheme : std::uint8_t { kRing, kInaSync, kInaAsync };

[[nodiscard]] const char* to_string(Scheme scheme);

/// A resolved all-reduce route set. The payload is not part of the plan:
/// CollectiveEngine::all_reduce takes it per op.
struct AllReducePlan {
  /// Hierarchical phase: same-server groups (leader at index 0). Empty for
  /// flat plans.
  std::vector<std::vector<topo::NodeId>> local_groups;
  /// local_rings[k][i] is the NVLink edge from local_groups[k][i] to
  /// local_groups[k][(i+1) % g]; empty for a single-GPU group.
  std::vector<std::vector<topo::Path>> local_rings;
  /// The NVLink leader -> member legs of every group, in group order: the
  /// final broadcast.
  std::vector<topo::Path> broadcast_legs;

  /// Inter-server phase participants (every member when flat, the leaders
  /// when hierarchical).
  Scheme scheme = Scheme::kRing;
  std::vector<topo::NodeId> wide_members;

  /// scheme == kRing: ring_paths[i] routes wide_members[i] ->
  /// wide_members[(i+1) % n].
  std::vector<topo::Path> ring_paths;

  /// scheme == kIna*: collection/distribution paths per wide member.
  topo::NodeId switch_node = topo::kInvalidNode;
  std::vector<topo::Path> up_paths;
  std::vector<topo::Path> down_paths;
  /// Per-wide-member payload fraction (SwitchML sharding: after a local
  /// reduce-scatter every GPU streams only its 1/g shard through its own
  /// NIC). Empty = every member ships the full payload.
  std::vector<double> wide_scale;
  std::uint32_t slots = 8;  ///< aggregator slots the job reserves

  /// scheme == kInaAsync: end-host fallback aggregator (the testbed PS).
  topo::NodeId fallback_node = topo::kInvalidNode;
  std::vector<topo::Path> fallback_up;
  std::vector<topo::Path> fallback_down;

  [[nodiscard]] bool flat() const { return local_groups.empty(); }
};

struct AllReduceResult {
  Time start = 0;
  Time wide_start = 0;   ///< local phase done / switch granted
  Time collected = 0;    ///< INA: all contributions at aggregation point
  Time end = 0;
  Scheme scheme = Scheme::kRing;
  bool used_fallback = false;

  [[nodiscard]] Time latency() const { return end - start; }
};

struct EngineConfig {
  CostConfig cost;  ///< agg latency, host fallback bandwidth
};

class CollectiveEngine {
 public:
  CollectiveEngine(net::FlowNetwork& network, sw::SwitchRegistry& switches,
                   EngineConfig config = {});

  CollectiveEngine(const CollectiveEngine&) = delete;
  CollectiveEngine& operator=(const CollectiveEngine&) = delete;
  ~CollectiveEngine();  // out of line: Op is incomplete here

  using Done = std::function<void(const AllReduceResult&)>;

  /// Execute an all-reduce of `bytes` per member over `plan`; `done` fires
  /// when every member holds the result. The op keeps `plan` alive.
  void all_reduce(std::shared_ptr<const AllReducePlan> plan, Bytes bytes,
                  Done done);

  [[nodiscard]] net::FlowNetwork& network() { return *network_; }
  [[nodiscard]] sw::SwitchRegistry& switches() { return *switches_; }
  [[nodiscard]] const EngineConfig& config() const { return config_; }

  // --- aggregate statistics ---
  std::uint64_t ops_completed = 0;
  std::uint64_t fallbacks_taken = 0;

 private:
  struct Op;
  struct Lane;

  net::FlowNetwork* network_;
  sw::SwitchRegistry* switches_;
  EngineConfig config_;
  std::uint64_t next_op_ = 1;
  std::unordered_map<std::uint64_t, std::unique_ptr<Op>> ops_;

  void start_local_phase(Op& op);
  void start_wide_phase(Op& op);
  void start_ring(Op& op, Lane& lane);
  void run_ina(Op& op);
  void run_fallback(Op& op);
  void gather(Op& op);
  void scatter(Op& op);
  void start_broadcast_phase(Op& op);
  void launch(Op& op, Lane& lane);
  void phase_done(Op& op);
  void finish(Op& op);
};

// --- plan builders -------------------------------------------------------
//
// Every builder reads its paths from `oracle` (Alg. 2's path store) and
// throws std::runtime_error naming both nodes when a pair is unreachable
// under the oracle's constraints.

/// Flat ring plan over `members` in the given order.
[[nodiscard]] AllReducePlan make_ring_plan(std::vector<topo::NodeId> members,
                                           const topo::PathOracle& oracle);

/// Flat INA plan aggregating at `agg_switch`; async plans may carry a
/// fallback host.
[[nodiscard]] AllReducePlan make_ina_plan(
    std::vector<topo::NodeId> members, topo::NodeId agg_switch, Scheme scheme,
    const topo::PathOracle& oracle,
    topo::NodeId fallback = topo::kInvalidNode, std::uint32_t slots = 8);

/// Hierarchical plan: members grouped by server. For ring schemes the
/// per-server leaders run the wide phase with the full payload; for INA
/// schemes the wide phase is *sharded* — a local reduce-scatter leaves each
/// GPU with a 1/g shard which it streams to `agg_switch` through its own
/// NIC (SwitchML's per-worker streams), followed by a local all-gather.
/// Every local ring leg and broadcast leg is the direct NVLink edge between
/// two same-server GPUs; a missing edge throws std::runtime_error naming
/// both GPUs.
[[nodiscard]] AllReducePlan make_hierarchical_plan(
    std::vector<topo::NodeId> members, Scheme wide_scheme,
    const topo::PathOracle& oracle,
    topo::NodeId agg_switch = topo::kInvalidNode,
    topo::NodeId fallback = topo::kInvalidNode, std::uint32_t slots = 8);

/// Aggregation-switch election: switches with aggregator slots, ranked by
/// the worst, then the total, member latency (1 MiB reference) over
/// `oracle`'s paths; at most `count` returned. Used by the offline planner
/// (Alg. 2 step 2), the online policy builder, and the INA baselines. The
/// caller owns the oracle, so one election's per-member Dijkstra serves
/// every later election and plan over the same graph (the planner scores
/// tens of thousands of candidate groups against one oracle).
[[nodiscard]] std::vector<topo::NodeId> rank_aggregation_switches(
    const topo::PathOracle& oracle, const std::vector<topo::NodeId>& members,
    std::size_t count);

}  // namespace hero::coll
