#include "online/policy.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/check.hpp"

namespace hero::online {

Bandwidth Policy::bottleneck_capacity(const topo::Graph& g) const {
  Bandwidth min_bw = std::numeric_limits<Bandwidth>::infinity();
  for (topo::EdgeId e : edges) min_bw = std::min(min_bw, g.edge(e).capacity);
  return edges.empty() ? 0.0 : min_bw;
}

std::vector<topo::EdgeId> plan_edges(const coll::AllReducePlan& plan) {
  // Sorted + deduplicated: the edge order feeds floating-point
  // accumulations in update_penalties(), so it must not depend on hash
  // order (summation is not associative).
  std::vector<topo::EdgeId> edges;
  auto add_path = [&](const topo::Path& p) {
    edges.insert(edges.end(), p.edges.begin(), p.edges.end());
  };
  for (const topo::Path& p : plan.ring_paths) add_path(p);
  for (const topo::Path& p : plan.up_paths) add_path(p);
  for (const topo::Path& p : plan.down_paths) add_path(p);
  for (const topo::Path& p : plan.broadcast_legs) add_path(p);
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

PolicyTable::PolicyTable(std::vector<Policy> policies,
                         const topo::Graph& graph)
    : graph_(&graph), policies_(std::move(policies)) {
  if (policies_.empty()) {
    throw std::invalid_argument("PolicyTable: no policies");
  }
  shared_.resize(policies_.size());
  for (std::size_t sel = 0; sel < policies_.size(); ++sel) {
    const std::vector<topo::EdgeId>& sel_edges = policies_[sel].edges;
    for (const Policy& other : policies_) {
      std::vector<bool>& mask = shared_[sel].emplace_back();
      for (topo::EdgeId e : other.edges) {
        mask.push_back(std::find(sel_edges.begin(), sel_edges.end(), e) !=
                       sel_edges.end());
      }
    }
  }
  for (const Policy& p : policies_) {
    read_edges_.insert(read_edges_.end(), p.edges.begin(), p.edges.end());
  }
  std::sort(read_edges_.begin(), read_edges_.end());
  read_edges_.erase(std::unique(read_edges_.begin(), read_edges_.end()),
                    read_edges_.end());
  for (const Policy& p : policies_) {
    std::vector<std::size_t>& index = read_index_.emplace_back();
    for (topo::EdgeId e : p.edges) {
      index.push_back(static_cast<std::size_t>(
          std::lower_bound(read_edges_.begin(), read_edges_.end(), e) -
          read_edges_.begin()));
    }
  }
  util_.assign(read_edges_.size(), 0.0);
  max_util_.assign(policies_.size(), 0.0);
  edge_weight_.resize(policies_.size());
  for (std::size_t c = 0; c < policies_.size(); ++c) {
    edge_weight_[c].resize(policies_[c].edges.size());
  }
  ratio_.assign(policies_.size(), std::vector<double>(policies_.size(), 0));
  // Penalties start at the static sharing ratios computed from capacities.
  penalty_.assign(policies_.size(), std::vector<double>(policies_.size(), 0));
  update_penalties(nullptr, OnlineConfig{});
}

double PolicyTable::cost_of(std::size_t i, Bytes data,
                            const OnlineConfig& cfg) const {
  const Policy& p = policies_.at(i);
  double delta = 0.0;
  if (data > 0) {
    switch (cfg.delta_model) {
      case DeltaModel::kBottleneckCapacity: {
        const Bandwidth bw = p.bottleneck_capacity(*graph_);
        delta = bw > 0 ? data / (cfg.estimation_window * bw) : 0.0;
        break;
      }
      case DeltaModel::kPaperLiteral: {
        const double b = std::max(p.cost, cfg.cost_floor);
        delta = raw(data) / (raw(cfg.estimation_window) * b);
        break;
      }
    }
  }
  return p.cost + delta;
}

std::size_t PolicyTable::select(Bytes data, const OnlineConfig& cfg) const {
  std::size_t best = 0;
  double best_cost = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < policies_.size(); ++i) {
    const double j = cost_of(i, data, cfg);
    if (j < best_cost) {
      best_cost = j;
      best = i;
    }
  }
  return best;
}

void PolicyTable::apply_selection(std::size_t selected, Bytes data,
                                  const OnlineConfig& cfg) {
  if (selected >= policies_.size()) {
    throw std::out_of_range("apply_selection: policy index");
  }
  Policy& sel = policies_[selected];
  ++sel.times_selected;
  if (data <= 0) return;

  double delta = 0.0;
  switch (cfg.delta_model) {
    case DeltaModel::kBottleneckCapacity: {
      const Bandwidth bw = sel.bottleneck_capacity(*graph_);
      delta = bw > 0 ? data / (cfg.estimation_window * bw) : 0.0;
      break;
    }
    case DeltaModel::kPaperLiteral: {
      const double b = std::max(sel.cost, cfg.cost_floor);
      delta = raw(data) / (raw(cfg.estimation_window) * b);
      break;
    }
  }
  HERO_INVARIANT(delta >= 0.0 && std::isfinite(delta),
                 "Eq. 16 delta {} for policy {}", delta, sel.name);
  for (std::size_t c = 0; c < policies_.size(); ++c) {
    if (c == selected) {
      policies_[c].cost += delta;
    } else {
      policies_[c].cost += delta * penalty_[selected][c];
    }
    // The cost table only ever accumulates non-negative bumps on top of
    // measured utilization; a negative or non-finite entry means the
    // Eq. 17 bookkeeping (or a penalty weight) is corrupt.
    HERO_INVARIANT(policies_[c].cost >= 0.0 && std::isfinite(policies_[c].cost),
                   "cost table corrupt: b[{}] = {}", c, policies_[c].cost);
  }
}

void PolicyTable::update_penalties(const net::FlowNetwork* net,
                                   const OnlineConfig& cfg) {
  if (net != nullptr) {
    read_network(*net);
  } else {
    // No measurements: weigh each edge by its static capacity.
    for (std::size_t c = 0; c < policies_.size(); ++c) {
      const std::vector<topo::EdgeId>& edges = policies_[c].edges;
      for (std::size_t i = 0; i < edges.size(); ++i) {
        edge_weight_[c][i] = graph_->edge(edges[i]).capacity;
      }
    }
    derive_ratios();
    measured_ = false;  // ratio_ no longer follows util_
  }
  step_penalties(cfg);
}

void PolicyTable::sync(const net::FlowNetwork& net, const OnlineConfig& cfg) {
  read_network(net);
  // The reset also undoes every Eq. 17 bump and switch-health surcharge
  // applied since the last sync.
  for (std::size_t c = 0; c < policies_.size(); ++c) {
    policies_[c].cost = max_util_[c];
  }
  step_penalties(cfg);
}

void PolicyTable::read_network(const net::FlowNetwork& net) {
  bool changed = !measured_;
  for (std::size_t k = 0; k < read_edges_.size(); ++k) {
    const double u = net.edge_utilization(read_edges_[k]);
    if (std::bit_cast<std::uint64_t>(u) !=
        std::bit_cast<std::uint64_t>(util_[k])) {
      util_[k] = u;
      changed = true;
    }
  }
  if (!changed) return;
  measured_ = true;
  for (std::size_t c = 0; c < policies_.size(); ++c) {
    const std::vector<topo::EdgeId>& edges = policies_[c].edges;
    const std::vector<std::size_t>& index = read_index_[c];
    double max_util = 0.0;
    for (std::size_t i = 0; i < edges.size(); ++i) {
      const double u = util_[index[i]];
      max_util = std::max(max_util, u);
      // Weight of an edge inside the sharing ratio: the monitored busy
      // bandwidth (B(e*) "monitored by GPUs and programmable switches"),
      // floored so idle shared links still register.
      edge_weight_[c][i] =
          std::max(u, 0.05) * graph_->edge(edges[i]).capacity;
    }
    max_util_[c] = max_util;
  }
  derive_ratios();
}

void PolicyTable::derive_ratios() {
  // Each policy's total is summed in edge order, so every ratio is bitwise
  // the one a per-(sel, other) sum would give.
  weight_total_.assign(policies_.size(), 0.0);
  for (std::size_t other = 0; other < policies_.size(); ++other) {
    for (Bandwidth w : edge_weight_[other]) weight_total_[other] += w;
  }
  for (std::size_t sel = 0; sel < policies_.size(); ++sel) {
    for (std::size_t other = 0; other < policies_.size(); ++other) {
      if (other == sel) continue;
      const std::vector<Bandwidth>& weights = edge_weight_[other];
      const std::vector<bool>& in_sel = shared_[sel][other];
      Bandwidth shared = 0.0;
      for (std::size_t i = 0; i < weights.size(); ++i) {
        if (in_sel[i]) shared += weights[i];
      }
      const Bandwidth total = weight_total_[other];
      ratio_[sel][other] = total > 0 ? shared / total : 0.0;
    }
  }
}

void PolicyTable::step_penalties(const OnlineConfig& cfg) {
  for (std::size_t sel = 0; sel < policies_.size(); ++sel) {
    for (std::size_t other = 0; other < policies_.size(); ++other) {
      if (other == sel) {
        penalty_[sel][other] = 1.0;
        continue;
      }
      penalty_[sel][other] = (1.0 - cfg.gamma) * penalty_[sel][other] +
                             cfg.gamma * ratio_[sel][other];
      // Eq. 18 sharing ratios are convex combinations of values in [0,1].
      HERO_INVARIANT(penalty_[sel][other] >= 0.0 &&
                         penalty_[sel][other] <= 1.0 + 1e-12,
                     "penalty f[{}][{}] = {}", sel, other,
                     penalty_[sel][other]);
    }
  }
}

}  // namespace hero::online
