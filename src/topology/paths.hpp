// Shortest-path machinery (paper Alg. 2 lines 1-3: "gen_latency_matrix /
// store_shortest_path, alg=dijkstra").
//
// Path latency follows the paper's store-and-forward model (Eq. 10 and the
// Fig. 2 walk-through): a D-byte transfer over path e_1..e_n costs
// sum_n (D / B(e_n) + hop_latency(e_n)). Routing respects the physical
// forwarding rules of the testbed:
//   * switches forward anything;
//   * plain servers never relay;
//   * a GPU relays traffic only if the relay enters or leaves over NVLink
//     (a GPU forwarding a peer's tensor out of its own NIC -- the
//     heterogeneous trick of Fig. 2(b)). Ethernet-in/Ethernet-out GPU
//     relaying is forbidden for every scheme.
// Homogeneous baselines (DistServe / DS-ATP / DS-SwitchML) set
// `allow_nvlink = false`, which restricts them to pure Ethernet routes.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <tuple>
#include <vector>

#include "topology/graph.hpp"

namespace hero::topo {

struct PathConstraints {
  bool allow_nvlink = true;
  bool allow_ethernet = true;
  /// When allow_nvlink is false, still permit a *single direct* NVLink edge
  /// between the two endpoints. This is NCCL reality for the homogeneous
  /// baselines: intra-node legs always ride NVLink, but multi-hop NVLink
  /// forwarding (detouring through a peer GPU's NIC — HeroServe's trick)
  /// stays forbidden.
  bool allow_nvlink_direct = false;
};

struct PathOptions {
  /// Reference transfer size used to weigh bandwidth against fixed hop
  /// latency during route search.
  Bytes ref_bytes = 1.0 * units::MiB;
  PathConstraints constraints;
  /// Optional per-edge residual bandwidth `B(e)` (Table I); when empty the
  /// static capacity `C(e)` is used.
  std::span<const Bandwidth> residual_bw = {};
};

struct Path {
  std::vector<NodeId> nodes;  ///< src .. dst (size = edges.size() + 1)
  std::vector<EdgeId> edges;

  [[nodiscard]] bool empty() const { return edges.empty(); }
  [[nodiscard]] std::size_t hops() const { return edges.size(); }
  [[nodiscard]] NodeId src() const { return nodes.front(); }
  [[nodiscard]] NodeId dst() const { return nodes.back(); }

  /// Store-and-forward latency of a `bytes` transfer (Eq. 10).
  [[nodiscard]] Time latency(const Graph& g, Bytes bytes,
                             std::span<const Bandwidth> residual_bw = {}) const;
  /// Minimum bandwidth along the path.
  [[nodiscard]] Bandwidth bottleneck(
      const Graph& g, std::span<const Bandwidth> residual_bw = {}) const;
  /// True if the path uses at least one NVLink edge.
  [[nodiscard]] bool uses_nvlink(const Graph& g) const;
};

/// Single-pair shortest path; nullopt when unreachable under the constraints.
[[nodiscard]] std::optional<Path> shortest_path(const Graph& g, NodeId src,
                                                NodeId dst,
                                                const PathOptions& opts = {});

/// Up to k edge-diverse routes between src and dst, cheapest first, found by
/// iterative edge-penalty re-search. The first entry is the true shortest
/// path. The online scheduler's KV routing picks among these through
/// PathOracle::alternates(), which memoizes them per pair.
[[nodiscard]] std::vector<Path> alternate_paths(const Graph& g, NodeId src,
                                                NodeId dst, std::size_t k,
                                                const PathOptions& opts = {});

namespace detail {
struct Sssp;  // single-source Dijkstra result (defined in paths.cpp)
}  // namespace detail

/// Memoized route queries over a fixed graph and options: the planner's
/// `D_(i,j)` latency matrix and `P_(k,a)` path store (Alg. 2 lines 1-3),
/// solved on first use instead of precomputed, and the online scheduler's
/// edge-diverse KV-transfer alternates. The Dijkstra underneath
/// shortest_path() is target-independent, so one solve per distinct source
/// answers every (src, dst) query with a path bit-identical to a fresh
/// shortest_path() call; alternates() keeps one alternate_paths() result
/// per (src, dst, k). Safe to query from several threads at once: each
/// source and each alternates key is solved exactly once. Only valid while
/// the graph outlives the oracle and stays unchanged (its version() is
/// checked on every query); `opts.residual_bw` is snapshotted at
/// construction.
class PathOracle {
 public:
  explicit PathOracle(const Graph& g, const PathOptions& opts = {});
  ~PathOracle();
  PathOracle(const PathOracle&) = delete;
  PathOracle& operator=(const PathOracle&) = delete;

  /// Same contract as shortest_path(g, src, dst, opts).
  [[nodiscard]] std::optional<Path> path(NodeId src, NodeId dst) const;
  /// Eq. 10 latency of a `bytes` transfer along path(src, dst), bitwise
  /// path(src, dst)->latency(g, bytes, residual_bw); infinity when the pair
  /// is unreachable under the constraints. Read off src's Dijkstra tree:
  /// no Path is built and nothing is allocated once src is solved.
  [[nodiscard]] Time latency(NodeId src, NodeId dst, Bytes bytes) const;
  /// Same paths as alternate_paths(g, src, dst, k, opts), edge for edge.
  /// The reference stays valid for the oracle's lifetime.
  [[nodiscard]] const std::vector<Path>& alternates(NodeId src, NodeId dst,
                                                    std::size_t k) const;
  [[nodiscard]] const Graph& graph() const { return *graph_; }
  /// Distinct sources solved so far (cache effectiveness / tests).
  [[nodiscard]] std::size_t sources_solved() const {
    return sources_solved_;
  }
  /// Distinct (src, dst, k) alternates searches run so far.
  [[nodiscard]] std::size_t alternates_solved() const {
    return alternates_solved_;
  }

 private:
  struct Slot {
    std::once_flag once;
    std::unique_ptr<detail::Sssp> sssp;
  };
  struct AltSlot {
    std::once_flag once;
    std::vector<Path> paths;
  };

  const Graph* graph_;
  std::uint64_t graph_version_;
  PathOptions opts_;
  std::vector<Bandwidth> residual_copy_;
  mutable std::vector<Slot> slots_;  // per source, filled once on first use
  mutable std::atomic<std::size_t> sources_solved_{0};
  mutable std::mutex alt_mutex_;  // guards the map, not the slots
  mutable std::map<std::tuple<NodeId, NodeId, std::size_t>, AltSlot> alts_;
  mutable std::atomic<std::size_t> alternates_solved_{0};

  [[nodiscard]] const detail::Sssp& solved(NodeId src) const;
  void check_graph_unchanged() const;
};

}  // namespace hero::topo
