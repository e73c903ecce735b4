// The communication-scheduling interface the serving layer programs against.
//
// A CommScheduler answers two questions per communication event:
//   * for a tensor-parallel group's all-reduce: which scheme over which
//     paths (returned as a shared, fully resolved AllReducePlan);
//   * for a point-to-point transfer (pipeline boundary, KV cache): which
//     route.
// HeroServe's implementation adapts both per call from the policy cost
// table (online/); the baselines return fixed homogeneous-network plans
// (baselines/).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "collectives/engine.hpp"

namespace hero::coll {

using GroupId = std::size_t;

class CommScheduler {
 public:
  virtual ~CommScheduler() = default;

  /// Register a tensor-parallel GPU group; the returned id keys later
  /// all_reduce_plan calls.
  virtual GroupId register_group(std::vector<topo::NodeId> members) = 0;

  /// Resolve one all-reduce of `bytes` per member for a registered group:
  /// the chosen policy's (or the group's) plan, shared, not copied. The
  /// payload goes to CollectiveEngine::all_reduce.
  virtual std::shared_ptr<const AllReducePlan> all_reduce_plan(
      GroupId group, Bytes bytes) = 0;

  /// Route a one-way transfer (pipeline activations, KV cache).
  virtual topo::Path unicast_path(topo::NodeId src, topo::NodeId dst) = 0;

  /// Hook for periodic work (controller sync); default none.
  virtual void start() {}

  /// Route searches unicast_path() has run so far: misses of the
  /// scheduler's route memo (deterministic; bench_simspeed reports it).
  [[nodiscard]] virtual std::uint64_t route_searches() const = 0;

  [[nodiscard]] virtual const char* name() const = 0;
};

}  // namespace hero::coll
