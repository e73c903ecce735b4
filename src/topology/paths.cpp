#include "topology/paths.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <queue>

#include "common/check.hpp"

namespace hero::topo {

// Single-source Dijkstra result, shared by the one-shot queries and the
// memoizing PathOracle (which is why it is not in the anonymous namespace).
struct detail::Sssp {
  // prev[(node, via)] = (prev_node, prev_via, edge)
  struct Prev {
    NodeId node = kInvalidNode;
    std::uint8_t via = 0;
    EdgeId edge = kInvalidEdge;
  };
  std::vector<std::array<Time, 2>> dist;
  std::vector<std::array<Prev, 2>> prev;
};

namespace {

using SearchResult = detail::Sssp;

Bandwidth edge_bandwidth(const Graph& g, EdgeId e,
                         std::span<const Bandwidth> residual) {
  if (!residual.empty()) return residual[e];
  return g.edge(e).capacity;
}

// Dijkstra over (node, arrived-via-NVLink) states so the GPU-relay rule can
// be enforced: leaving an interior GPU requires the incoming or outgoing hop
// to be NVLink.
struct State {
  Time dist = 0.0;
  NodeId node = kInvalidNode;
  std::uint8_t via_nvlink = 0;  // 1 if the edge that reached `node` was NVLink
  bool operator>(const State& o) const { return dist > o.dist; }
};

SearchResult dijkstra(const Graph& g, NodeId src, const PathOptions& opts,
                      std::span<const double> edge_weight_scale) {
  const Time inf = std::numeric_limits<Time>::infinity();
  SearchResult r;
  r.dist.assign(g.node_count(), {inf, inf});
  r.prev.assign(g.node_count(), {});

  std::priority_queue<State, std::vector<State>, std::greater<>> pq;
  r.dist[src][0] = 0.0;
  pq.push(State{0.0, src, 0});

  while (!pq.empty()) {
    const State cur = pq.top();
    pq.pop();
    if (cur.dist > r.dist[cur.node][cur.via_nvlink]) continue;

    const Node& n = g.node(cur.node);
    const bool is_source = cur.node == src;
    // Plain servers never relay traffic.
    if (!is_source && n.kind == NodeKind::kServer) continue;

    for (const Adjacency& adj : g.neighbors(cur.node)) {
      const Edge& e = g.edge(adj.edge);
      if (e.kind == LinkKind::kNvLink && !opts.constraints.allow_nvlink)
        continue;
      if (e.kind == LinkKind::kEthernet && !opts.constraints.allow_ethernet)
        continue;
      // GPU relay rule: an interior GPU must touch NVLink on one side.
      if (!is_source && n.kind == NodeKind::kGpu && cur.via_nvlink == 0 &&
          e.kind != LinkKind::kNvLink) {
        continue;
      }
      const Bandwidth bw = edge_bandwidth(g, adj.edge, opts.residual_bw);
      if (bw <= 0) continue;
      Time w = opts.ref_bytes / bw + e.latency;
      if (!edge_weight_scale.empty()) w *= edge_weight_scale[adj.edge];
      const Time nd = cur.dist + w;
      const std::uint8_t via = e.kind == LinkKind::kNvLink ? 1 : 0;
      if (nd < r.dist[adj.peer][via]) {
        r.dist[adj.peer][via] = nd;
        r.prev[adj.peer][via] = SearchResult::Prev{cur.node, cur.via_nvlink,
                                                   adj.edge};
        pq.push(State{nd, adj.peer, via});
      }
    }
  }
  return r;
}

/// The arrival state (NVLink or not) that reaches dst cheapest; nullopt when
/// dst is unreachable under the constraints.
std::optional<std::uint8_t> best_via(const SearchResult& r, NodeId dst) {
  const std::uint8_t via =
      r.dist[dst][0] <= r.dist[dst][1] ? std::uint8_t{0} : std::uint8_t{1};
  if (r.dist[dst][via] == std::numeric_limits<Time>::infinity()) {
    return std::nullopt;
  }
  return via;
}

std::optional<Path> extract_path(const SearchResult& r, NodeId src,
                                 NodeId dst) {
  const std::optional<std::uint8_t> best = best_via(r, dst);
  if (!best) return std::nullopt;
  Path p;
  NodeId node = dst;
  std::uint8_t via = *best;
  while (node != src) {
    const auto& prev = r.prev[node][via];
    p.nodes.push_back(node);
    p.edges.push_back(prev.edge);
    const NodeId pn = prev.node;
    via = prev.via;
    node = pn;
  }
  p.nodes.push_back(src);
  std::reverse(p.nodes.begin(), p.nodes.end());
  std::reverse(p.edges.begin(), p.edges.end());
  return p;
}

/// Eq. 10 cost of one hop: what Path::latency() adds per edge.
Time hop_time(const Graph& g, EdgeId e, Bytes bytes,
              std::span<const Bandwidth> residual) {
  return transfer_time(bytes, edge_bandwidth(g, e, residual)) +
         g.edge(e).latency;
}

/// Eq. 10 latency of the tree route src -> (node, via), read off the
/// predecessor chain without building a Path. The hops are summed on the
/// unwind, i.e. in src -> dst order, so the result is bitwise the
/// Path::latency() of extract_path()'s route.
Time tree_latency(const Graph& g, const SearchResult& r, NodeId src,
                  NodeId node, std::uint8_t via, Bytes bytes,
                  std::span<const Bandwidth> residual) {
  if (node == src) return 0.0;
  const SearchResult::Prev& prev = r.prev[node][via];
  return tree_latency(g, r, src, prev.node, prev.via, bytes, residual) +
         hop_time(g, prev.edge, bytes, residual);
}

}  // namespace

Time Path::latency(const Graph& g, Bytes bytes,
                   std::span<const Bandwidth> residual_bw) const {
  Time total = 0.0;
  for (EdgeId e : edges) total += hop_time(g, e, bytes, residual_bw);
  return total;
}

Bandwidth Path::bottleneck(const Graph& g,
                           std::span<const Bandwidth> residual_bw) const {
  Bandwidth min_bw = std::numeric_limits<Bandwidth>::infinity();
  for (EdgeId e : edges) {
    min_bw = std::min(min_bw, edge_bandwidth(g, e, residual_bw));
  }
  return edges.empty() ? 0.0 : min_bw;
}

bool Path::uses_nvlink(const Graph& g) const {
  return std::any_of(edges.begin(), edges.end(), [&](EdgeId e) {
    return g.edge(e).kind == LinkKind::kNvLink;
  });
}

namespace {

/// Direct NVLink edge between src and dst, if any.
std::optional<EdgeId> direct_nvlink(const Graph& g, NodeId src, NodeId dst) {
  for (const Adjacency& adj : g.neighbors(src)) {
    if (adj.peer == dst && g.edge(adj.edge).kind == LinkKind::kNvLink) {
      return adj.edge;
    }
  }
  return std::nullopt;
}

/// The homogeneous baselines' direct-NVLink override (allow_nvlink off,
/// allow_nvlink_direct on): a direct src-dst NVLink edge replaces the
/// Dijkstra route when there is none or the edge is strictly faster at the
/// reference size. route() and PathOracle::latency() both ask this one
/// function, so the path and its latency cannot disagree.
std::optional<EdgeId> direct_override(const Graph& g, const SearchResult& r,
                                      NodeId src, NodeId dst,
                                      const PathOptions& opts) {
  if (opts.constraints.allow_nvlink || !opts.constraints.allow_nvlink_direct) {
    return std::nullopt;
  }
  const std::optional<EdgeId> direct = direct_nvlink(g, src, dst);
  if (!direct) return std::nullopt;
  const std::optional<std::uint8_t> via = best_via(r, dst);
  if (!via) return direct;
  const Time direct_t = hop_time(g, *direct, opts.ref_bytes, opts.residual_bw);
  const Time found_t = tree_latency(g, r, src, dst, *via, opts.ref_bytes,
                                    opts.residual_bw);
  if (direct_t < found_t) return direct;
  return std::nullopt;
}

/// The src -> dst route out of src's Dijkstra, with direct_override()
/// applied. Shared by shortest_path() and PathOracle::path(), which is what
/// keeps the two bit-identical.
std::optional<Path> route(const Graph& g, const SearchResult& r, NodeId src,
                          NodeId dst, const PathOptions& opts) {
  if (const std::optional<EdgeId> direct =
          direct_override(g, r, src, dst, opts)) {
    return Path{{src, dst}, {*direct}};
  }
  return extract_path(r, src, dst);
}

}  // namespace

std::optional<Path> shortest_path(const Graph& g, NodeId src, NodeId dst,
                                  const PathOptions& opts) {
  if (src == dst) return Path{{src}, {}};
  return route(g, dijkstra(g, src, opts, {}), src, dst, opts);
}

PathOracle::PathOracle(const Graph& g, const PathOptions& opts)
    : graph_(&g),
      graph_version_(g.version()),
      opts_(opts),
      slots_(g.node_count()) {
  // Snapshot residual bandwidth so the oracle stays valid after caller
  // mutations.
  residual_copy_.assign(opts.residual_bw.begin(), opts.residual_bw.end());
  opts_.residual_bw = residual_copy_;
}

PathOracle::~PathOracle() = default;

void PathOracle::check_graph_unchanged() const {
  HERO_INVARIANT(graph_->version() == graph_version_,
                 "PathOracle: graph changed under the memo (version {} -> {})",
                 graph_version_, graph_->version());
}

const detail::Sssp& PathOracle::solved(NodeId src) const {
  // The planner's prefill and decode threads query the same sources (the
  // elected switches); call_once makes the first caller solve and the rest
  // wait for its result.
  Slot& slot = slots_.at(src);
  std::call_once(slot.once, [&] {
    slot.sssp =
        std::make_unique<detail::Sssp>(dijkstra(*graph_, src, opts_, {}));
    ++sources_solved_;
  });
  return *slot.sssp;
}

std::optional<Path> PathOracle::path(NodeId src, NodeId dst) const {
  check_graph_unchanged();
  if (src == dst) return Path{{src}, {}};
  return route(*graph_, solved(src), src, dst, opts_);
}

Time PathOracle::latency(NodeId src, NodeId dst, Bytes bytes) const {
  check_graph_unchanged();
  if (src == dst) return 0.0;
  const detail::Sssp& r = solved(src);
  if (const std::optional<EdgeId> direct =
          direct_override(*graph_, r, src, dst, opts_)) {
    return hop_time(*graph_, *direct, bytes, opts_.residual_bw);
  }
  const std::optional<std::uint8_t> via = best_via(r, dst);
  if (!via) return std::numeric_limits<Time>::infinity();
  return tree_latency(*graph_, r, src, dst, *via, bytes, opts_.residual_bw);
}

const std::vector<Path>& PathOracle::alternates(NodeId src, NodeId dst,
                                                std::size_t k) const {
  check_graph_unchanged();
  AltSlot* slot = nullptr;
  {
    // Map nodes never move, so the slot outlives the lock.
    const std::lock_guard<std::mutex> lock(alt_mutex_);
    slot = &alts_[{src, dst, k}];
  }
  // The search runs outside the map lock, so distinct pairs solve in
  // parallel; callers of the same pair wait for the first one.
  std::call_once(slot->once, [&] {
    slot->paths = alternate_paths(*graph_, src, dst, k, opts_);
    ++alternates_solved_;
  });
  return slot->paths;
}

std::vector<Path> alternate_paths(const Graph& g, NodeId src, NodeId dst,
                                  std::size_t k, const PathOptions& opts) {
  std::vector<Path> result;
  if (k == 0) return result;
  std::vector<double> scale(g.edge_count(), 1.0);
  constexpr double kPenalty = 4.0;
  for (std::size_t round = 0; round < 2 * k && result.size() < k; ++round) {
    const SearchResult r = dijkstra(g, src, opts, scale);
    auto path = extract_path(r, src, dst);
    if (!path) break;
    const bool duplicate =
        std::any_of(result.begin(), result.end(),
                    [&](const Path& p) { return p.edges == path->edges; });
    for (EdgeId e : path->edges) scale[e] *= kPenalty;
    if (!duplicate) result.push_back(std::move(*path));
  }
  return result;
}

}  // namespace hero::topo
