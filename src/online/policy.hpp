// Transmission policies and the per-group policy cost table (paper SIII-D,
// Fig. 5).
//
// A policy c bundles "the transmission scheme (INA or ring), the next hop,
// the transmission path and etc." for one tensor-parallel GPU group. The
// table keeps, per policy, the virtual bandwidth-utilization cost b_c, and a
// penalty matrix f_{(c*,c)} capturing how much load on a selected policy
// bleeds onto the others through shared links (Eq. 17-18).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "collectives/engine.hpp"
#include "netsim/flownet.hpp"
#include "topology/graph.hpp"

namespace hero::online {

/// How Eq. 16's delta (the estimated additional utilization of assigning D
/// bytes to a policy) is computed. The paper prints delta = D/(T_u * b_c);
/// dividing by the *cost* is dimensionally odd and explodes as b_c -> 0, so
/// the default divides by the policy's bottleneck capacity instead. Both are
/// implemented; bench_online_ablation compares them.
enum class DeltaModel : std::uint8_t { kBottleneckCapacity, kPaperLiteral };

struct OnlineConfig {
  Time estimation_window = 100.0 * units::ms;  ///< T_u
  double gamma = 0.3;                          ///< Eq. 18 smoothing factor
  Time sync_period = 50.0 * units::ms;  ///< controller counter-poll period
  DeltaModel delta_model = DeltaModel::kBottleneckCapacity;
  double cost_floor = 1e-3;  ///< epsilon floor for the literal Eq. 16
  /// Control-plane propagation delay for table updates (0 = instantaneous;
  /// > 0 models a slow controller, used in failure-injection tests).
  Time controller_delay = 0.0;
};

struct Policy {
  std::string name;
  /// Fully resolved plan, built once and shared with every op that selects
  /// this policy (the payload is given per op).
  std::shared_ptr<const coll::AllReducePlan> plan;
  /// Every edge the policy touches (wide paths + NVLink-local edges);
  /// deduplicated. Drives the sharing ratio W and cost measurement.
  std::vector<topo::EdgeId> edges;
  /// b_c: virtual bandwidth utilization ratio of the policy's links.
  double cost = 0.0;
  std::uint64_t times_selected = 0;

  /// Bottleneck capacity over `edges` (bytes/s).
  [[nodiscard]] Bandwidth bottleneck_capacity(const topo::Graph& g) const;
};

/// Collect the deduplicated edge set of a resolved plan: its ring,
/// collection and distribution paths plus the NVLink broadcast legs.
[[nodiscard]] std::vector<topo::EdgeId> plan_edges(
    const coll::AllReducePlan& plan);

class PolicyTable {
 public:
  PolicyTable(std::vector<Policy> policies, const topo::Graph& graph);

  [[nodiscard]] std::size_t size() const { return policies_.size(); }
  [[nodiscard]] const Policy& policy(std::size_t i) const {
    return policies_.at(i);
  }
  /// Mutable for costs; the edge sets are fixed at construction.
  [[nodiscard]] Policy& policy(std::size_t i) { return policies_.at(i); }

  /// Eq. 16: argmin_c J(c, D) with J = b_c + delta(c, D).
  [[nodiscard]] std::size_t select(Bytes data, const OnlineConfig& cfg) const;

  /// The J value select() minimizes (exposed for tests/ablation).
  [[nodiscard]] double cost_of(std::size_t i, Bytes data,
                               const OnlineConfig& cfg) const;

  /// Eq. 17: bump the selected policy by delta and every other policy by
  /// delta * f_{(c*, c)}.
  void apply_selection(std::size_t selected, Bytes data,
                       const OnlineConfig& cfg);

  /// Eq. 18: refresh the penalty matrix from the sharing ratios
  /// W_{(c*,c)} = sum_{e in c* ∩ c} B(e) / sum_{e in c} B(e), where B(e) is
  /// the monitored utilization-weighted bandwidth of edge e (capacity when
  /// no network measurements are available).
  void update_penalties(const net::FlowNetwork* net, const OnlineConfig& cfg);

  /// One controller sync (SIV): set each b_c to the measured maximum link
  /// utilization over the policy's edges, then take one Eq. 18 step. Every
  /// distinct edge's utilization is read once; when all readings are
  /// bitwise the previous ones, the maxima and sharing ratios derived from
  /// them are reused. The cost reset and the smoothing step run every call,
  /// so costs and penalties are bit-identical to recomputing everything.
  void sync(const net::FlowNetwork& net, const OnlineConfig& cfg);

  [[nodiscard]] double penalty(std::size_t selected, std::size_t other) const {
    return penalty_.at(selected).at(other);
  }

 private:
  const topo::Graph* graph_;
  std::vector<Policy> policies_;
  std::vector<std::vector<double>> penalty_;  // f_{(c*, c)}
  /// shared_[c*][c][i]: whether edge i of policy c is also an edge of c*
  /// (the c* ∩ c of Eq. 18), fixed when the table is built.
  std::vector<std::vector<std::vector<bool>>> shared_;
  /// B(e) of each policy's edges, in edge order, and each policy's sum of
  /// them (the Eq. 18 denominator); ratio_[c*][c] is the W_{(c*,c)} they
  /// give. Filled by derive_ratios().
  std::vector<std::vector<Bandwidth>> edge_weight_;
  std::vector<Bandwidth> weight_total_;
  std::vector<std::vector<double>> ratio_;
  /// Network readings: the distinct edges of all policies (ascending),
  /// where each policy's edges sit among them, the last utilization read
  /// per edge, and each policy's maximum of those readings. `measured_`
  /// says util_, max_util_ and ratio_ all derive from the last reading.
  std::vector<topo::EdgeId> read_edges_;
  std::vector<std::vector<std::size_t>> read_index_;
  std::vector<double> util_;
  std::vector<double> max_util_;
  bool measured_ = false;

  /// Re-read every distinct edge's utilization; re-derive max_util_ and
  /// ratio_ only when a reading changed (bitwise) since the last one.
  void read_network(const net::FlowNetwork& net);
  /// ratio_ from edge_weight_ (which the caller has filled).
  void derive_ratios();
  /// The Eq. 18 EWMA step of every penalty toward ratio_.
  void step_penalties(const OnlineConfig& cfg);
};

}  // namespace hero::online
