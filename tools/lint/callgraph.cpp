#include "callgraph.hpp"

#include <algorithm>
#include <deque>
#include <sstream>

namespace herolint {
namespace {

/// Per-file rule -> transitive rule. Sinks are exactly the direct
/// findings of these rules (pre-suppression: an allowed direct use is
/// still a sink when dispatch can reach it — that is a different bug
/// than the one the direct allow justified).
const std::map<std::string, std::string>& sink_rule_map() {
  static const std::map<std::string, std::string> kMap = {
      {"wall-clock", "transitive-wall-clock"},
      {"ambient-rng", "transitive-rng"},
      {"unordered-iter", "transitive-unordered-iter"},
  };
  return kMap;
}

/// Shortest entry->target chain using BFS parents, rendered as
/// "A::m (file:12) -> helper (file:34)".
std::string render_chain(const ProjectIndex& index,
                         const std::vector<int>& parent, int target) {
  std::vector<int> chain;
  for (int cur = target; cur >= 0; cur = parent[cur]) {
    chain.push_back(cur);
    if (parent[cur] == cur) break;  // entry points are their own parent
  }
  std::reverse(chain.begin(), chain.end());
  std::string out;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const FunctionDef& fn = index.functions()[chain[i]];
    if (i != 0) out += " -> ";
    out += fn.display() + " (" + index.files()[fn.file].path + ":" +
           std::to_string(fn.line) + ")";
  }
  return out;
}

/// Multi-source BFS over the call graph from every entry point. Returns
/// the parent array: parent[f] == -1 unreachable, parent[entry] == entry.
std::vector<int> reach_from_entries(const ProjectIndex& index,
                                    const CallGraph& graph) {
  const auto& fns = index.functions();
  std::vector<int> parent(fns.size(), -1);
  std::deque<int> queue;
  for (std::size_t i = 0; i < fns.size(); ++i) {
    if (is_entry(fns[i])) {
      parent[i] = static_cast<int>(i);
      queue.push_back(static_cast<int>(i));
    }
  }
  while (!queue.empty()) {
    const int cur = queue.front();
    queue.pop_front();
    for (int next : graph.out[cur]) {
      if (parent[next] >= 0) continue;
      parent[next] = cur;
      queue.push_back(next);
    }
  }
  return parent;
}

/// Raw sink findings (rule -> lines) grouped by enclosing function.
std::map<int, std::vector<Finding>> collect_sinks(
    const ProjectIndex& index,
    const std::vector<std::vector<Finding>>& raw_per_file) {
  std::map<int, std::vector<Finding>> sinks;
  for (std::size_t i = 0; i < raw_per_file.size(); ++i) {
    for (const Finding& f : raw_per_file[i]) {
      if (!sink_rule_map().contains(f.rule)) continue;
      const int fn = index.enclosing_function(static_cast<int>(i), f.line);
      if (fn >= 0) sinks[fn].push_back(f);
    }
  }
  return sinks;
}

std::vector<std::vector<Finding>> raw_findings_per_file(
    const ProjectIndex& index) {
  std::vector<std::vector<Finding>> raw;
  raw.reserve(index.files().size());
  for (const FileRecord& file : index.files()) {
    raw.push_back(
        raw_file_findings(file.path, file.src, file.tokens, file.ctx));
  }
  return raw;
}

/// Include adjacency: for each file, the (target file, include line)
/// edges that resolve inside the index.
std::vector<std::vector<std::pair<int, int>>> include_edges(
    const ProjectIndex& index) {
  std::vector<std::vector<std::pair<int, int>>> adj(index.files().size());
  for (std::size_t i = 0; i < index.files().size(); ++i) {
    for (const IncludeDecl& inc : index.files()[i].includes) {
      const int target =
          index.resolve_include(static_cast<int>(i), inc.target);
      if (target >= 0 && target != static_cast<int>(i)) {
        adj[i].push_back({target, inc.line});
      }
    }
  }
  return adj;
}

void check_layers(ProjectIndex& index, const AnalyzeOptions& opts,
                  LintReport& out) {
  const LayerSpec spec = LayerSpec::parse(opts.layers_text);
  for (const std::string& err : spec.errors) {
    out.findings.push_back({opts.layers_path, 1, "layer-violation", err});
  }
  if (!spec.cycle.empty()) {
    out.findings.push_back(
        {opts.layers_path, 1, "layer-violation",
         "declared layer graph is not a DAG: " + spec.cycle});
  }
  for (std::size_t i = 0; i < index.files().size(); ++i) {
    FileRecord& file = index.files()[i];
    if (file.subsystem.empty()) continue;  // drivers/tools are unlayered
    for (const IncludeDecl& inc : file.includes) {
      // Target subsystem: from the resolved file when the include
      // resolves, else from the path prefix when it names a declared
      // subsystem (so a violation is caught even in a partial scan).
      std::string target;
      const int resolved =
          index.resolve_include(static_cast<int>(i), inc.target);
      if (resolved >= 0) {
        target = index.files()[resolved].subsystem;
      } else {
        const std::size_t slash = inc.target.find('/');
        if (slash != std::string::npos) {
          const std::string prefix = inc.target.substr(0, slash);
          if (spec.declared(prefix)) target = prefix;
        }
      }
      if (target.empty() || target == file.subsystem) continue;
      std::string message;
      if (!spec.declared(file.subsystem)) {
        message = "subsystem '" + file.subsystem +
                  "' is not declared in " + opts.layers_path +
                  "; add it with its allowed dependencies";
      } else if (!spec.allowed.at(file.subsystem).contains(target)) {
        message = "include of '" + inc.target + "': layer DAG (" +
                  opts.layers_path + ") does not allow " + file.subsystem +
                  " -> " + target;
      } else {
        continue;
      }
      Finding f{file.path, inc.line, "layer-violation", message};
      (file.sup.consume(f.rule, f.line) ? out.suppressed : out.findings)
          .push_back(std::move(f));
    }
  }
}

void check_include_cycles(ProjectIndex& index, LintReport& out) {
  const auto adj = include_edges(index);
  const std::size_t n = index.files().size();
  // Iterate in path order so the reported representative of each cycle
  // is stable regardless of scan order.
  std::vector<int> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return index.files()[a].path < index.files()[b].path;
  });

  enum : char { kWhite, kGray, kBlack };
  std::vector<char> color(n, kWhite);
  std::vector<int> stack;  // current DFS path (file ids)
  std::set<std::set<int>> seen_cycles;

  // Recursive DFS via explicit frames (file, next edge index).
  for (int root : order) {
    if (color[root] != kWhite) continue;
    std::vector<std::pair<int, std::size_t>> frames{{root, 0}};
    color[root] = kGray;
    stack.push_back(root);
    while (!frames.empty()) {
      auto& [cur, edge] = frames.back();
      if (edge >= adj[cur].size()) {
        color[cur] = kBlack;
        stack.pop_back();
        frames.pop_back();
        continue;
      }
      const auto [next, line] = adj[cur][edge++];
      if (color[next] == kGray) {
        // Back edge: the cycle is stack[pos(next)..] plus this edge.
        auto it = std::find(stack.begin(), stack.end(), next);
        std::set<int> key(it, stack.end());
        if (seen_cycles.insert(key).second) {
          std::string chain;
          for (auto p = it; p != stack.end(); ++p) {
            chain += index.files()[*p].path + " -> ";
          }
          chain += index.files()[next].path;
          FileRecord& file = index.files()[cur];
          Finding f{file.path, line, "include-cycle",
                    "header include cycle: " + chain +
                        "; break it with a forward declaration or a "
                        "split header"};
          (file.sup.consume(f.rule, f.line) ? out.suppressed
                                            : out.findings)
              .push_back(std::move(f));
        }
      } else if (color[next] == kWhite) {
        color[next] = kGray;
        stack.push_back(next);
        frames.push_back({next, 0});
      }
    }
  }
}

void check_stale_suppressions(ProjectIndex& index, LintReport& out) {
  for (FileRecord& file : index.files()) {
    const std::vector<AllowSite> sites = file.sup.sites();
    for (std::size_t i = 0; i < sites.size(); ++i) {
      const AllowSite& site = sites[i];
      // An allow(stale-suppression) exists only to quiet this very rule;
      // exempting it avoids self-reference.
      if (site.rule == "stale-suppression") continue;
      if (file.sup.used(i)) continue;
      const bool known =
          std::find(rule_ids().begin(), rule_ids().end(), site.rule) !=
          rule_ids().end();
      std::string message =
          std::string("suppression '") +
          (site.file_wide ? "allow-file(" : "allow(") + site.rule +
          ")' no longer suppresses any finding; delete it";
      if (!known) {
        message += " (unknown rule '" + site.rule + "')";
      }
      Finding f{file.path, site.line, "stale-suppression",
                std::move(message)};
      (file.sup.consume(f.rule, f.line) ? out.suppressed : out.findings)
          .push_back(std::move(f));
    }
  }
}

}  // namespace

LayerSpec LayerSpec::parse(const std::string& text) {
  LayerSpec spec;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    const std::size_t colon = line.find(':');
    if (line.find_first_not_of(" \t") == std::string::npos) continue;
    if (colon == std::string::npos) {
      spec.errors.push_back("layers.txt line " + std::to_string(line_no) +
                            ": expected 'subsystem: dep dep ...'");
      continue;
    }
    std::string name = line.substr(0, colon);
    const auto nb = name.find_first_not_of(" \t");
    const auto ne = name.find_last_not_of(" \t");
    name = nb == std::string::npos ? "" : name.substr(nb, ne - nb + 1);
    if (name.empty()) {
      spec.errors.push_back("layers.txt line " + std::to_string(line_no) +
                            ": empty subsystem name");
      continue;
    }
    if (spec.allowed.contains(name)) {
      spec.errors.push_back("layers.txt line " + std::to_string(line_no) +
                            ": duplicate subsystem '" + name + "'");
      continue;
    }
    std::set<std::string>& deps = spec.allowed[name];
    std::istringstream rest(line.substr(colon + 1));
    std::string dep;
    while (rest >> dep) deps.insert(dep);
    deps.insert(name);  // self always allowed
  }
  // Every named dependency must itself be declared, and the declared
  // graph must be a DAG (DFS cycle check, deterministic map order).
  for (const auto& [name, deps] : spec.allowed) {
    for (const std::string& dep : deps) {
      if (!spec.allowed.contains(dep)) {
        spec.errors.push_back("layers.txt: '" + name +
                              "' depends on undeclared subsystem '" + dep +
                              "'");
      }
    }
  }
  std::map<std::string, char> color;  // 0 white, 1 gray, 2 black
  std::vector<std::string> path;
  // NOLINTNEXTLINE(misc-no-recursion): bounded by subsystem count
  auto dfs = [&](auto&& self, const std::string& node) -> bool {
    color[node] = 1;
    path.push_back(node);
    auto it = spec.allowed.find(node);
    if (it != spec.allowed.end()) {
      for (const std::string& dep : it->second) {
        if (dep == node || !spec.allowed.contains(dep)) continue;
        if (color[dep] == 1) {
          auto start = std::find(path.begin(), path.end(), dep);
          std::string chain;
          for (auto p = start; p != path.end(); ++p) chain += *p + " -> ";
          spec.cycle = chain + dep;
          return false;
        }
        if (color[dep] == 0 && !self(self, dep)) return false;
      }
    }
    color[node] = 2;
    path.pop_back();
    return true;
  };
  for (const auto& [name, deps] : spec.allowed) {
    if (color[name] == 0 && !dfs(dfs, name)) break;
  }
  return spec;
}

CallGraph CallGraph::build(const ProjectIndex& index) {
  CallGraph graph;
  const auto& fns = index.functions();
  graph.out.resize(fns.size());
  for (std::size_t i = 0; i < fns.size(); ++i) {
    std::set<int> targets;
    for (const CallSite& call : fns[i].calls) {
      if (call.qualifier == "std") continue;  // never a project function
      const std::vector<int> candidates = index.functions_named(call.name);
      if (candidates.empty()) continue;
      // Qualified calls prefer methods of the named class; member calls
      // link to methods only (a free function cannot be a receiver
      // call). Everything else is an over-approximate name match.
      std::vector<int> chosen;
      if (!call.qualifier.empty()) {
        for (int c : candidates) {
          if (fns[c].class_name == call.qualifier) chosen.push_back(c);
        }
      }
      if (chosen.empty() && call.member) {
        for (int c : candidates) {
          if (!fns[c].class_name.empty()) chosen.push_back(c);
        }
      }
      if (chosen.empty() && !call.member) chosen = candidates;
      for (int c : chosen) {
        if (c != static_cast<int>(i)) targets.insert(c);
      }
    }
    graph.out[i].assign(targets.begin(), targets.end());
  }
  return graph;
}

const std::vector<std::string>& entry_classes() {
  // The dispatch side of the simulation: event execution, serving step
  // paths, routing/scheduling decision points, collective/switch
  // engines, fault replay. Mirrors the table in DESIGN.md
  // ("Whole-program analysis").
  static const std::vector<std::string> kEntryClasses = {
      "ClusterSim",       "CollectiveEngine", "FaultInjector",
      "FleetSim",         "HeroCommScheduler", "OnlineScheduler",
      "Router",           "Simulator",        "StaticCommScheduler",
      "SwitchAgent",      "SwitchRegistry"};
  return kEntryClasses;
}

bool is_entry(const FunctionDef& fn) {
  const auto& classes = entry_classes();
  return std::find(classes.begin(), classes.end(), fn.class_name) !=
         classes.end();
}

LintReport analyze_project(ProjectIndex& index, const AnalyzeOptions& opts) {
  LintReport out;

  // Tier 1: per-file rules, suppressions consumed per file.
  const std::vector<std::vector<Finding>> raw = raw_findings_per_file(index);
  for (std::size_t i = 0; i < raw.size(); ++i) {
    FileRecord& file = index.files()[i];
    for (const Finding& f : raw[i]) {
      (file.sup.consume(f.rule, f.line) ? out.suppressed : out.findings)
          .push_back(f);
    }
  }

  // Tier 2: call-graph reachability from dispatch to sinks.
  const CallGraph graph = CallGraph::build(index);
  const std::vector<int> parent = reach_from_entries(index, graph);
  const std::map<int, std::vector<Finding>> sinks =
      collect_sinks(index, raw);
  for (const auto& [fn, fn_sinks] : sinks) {
    if (parent[fn] < 0) continue;  // not reachable from dispatch
    const std::string chain = render_chain(index, parent, fn);
    for (const Finding& sink : fn_sinks) {
      FileRecord& file = index.files()[index.functions()[fn].file];
      Finding f{file.path, sink.line, sink_rule_map().at(sink.rule),
                sink.message + " — reachable from simulator dispatch: " +
                    chain};
      (file.sup.consume(f.rule, f.line) ? out.suppressed : out.findings)
          .push_back(std::move(f));
    }
  }

  // Tier 3: architecture rules over the include graph.
  if (!opts.layers_text.empty()) check_layers(index, opts, out);
  check_include_cycles(index, out);

  // Last: anything still unconsumed in the suppression inventory rotted.
  check_stale_suppressions(index, out);

  const auto by_pos = [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  };
  std::sort(out.findings.begin(), out.findings.end(), by_pos);
  std::sort(out.suppressed.begin(), out.suppressed.end(), by_pos);
  return out;
}

std::string callgraph_dot(const ProjectIndex& index) {
  const CallGraph graph = CallGraph::build(index);
  const std::vector<int> parent = reach_from_entries(index, graph);
  const std::map<int, std::vector<Finding>> sinks =
      collect_sinks(index, raw_findings_per_file(index));
  const auto& fns = index.functions();

  std::string dot = "digraph herolint_calls {\n  rankdir=LR;\n"
                    "  node [fontsize=10, shape=ellipse];\n";
  auto node_id = [](int fn) { return "f" + std::to_string(fn); };
  for (std::size_t i = 0; i < fns.size(); ++i) {
    if (parent[i] < 0) continue;
    std::string attrs = "label=\"" + fns[i].display() + "\\n" +
                        index.files()[fns[i].file].path + ":" +
                        std::to_string(fns[i].line) + "\"";
    if (is_entry(fns[i])) attrs += ", shape=box";
    if (sinks.contains(static_cast<int>(i))) {
      attrs += ", color=red, fontcolor=red";
    }
    dot += "  " + node_id(static_cast<int>(i)) + " [" + attrs + "];\n";
  }
  for (std::size_t i = 0; i < fns.size(); ++i) {
    if (parent[i] < 0) continue;
    for (int next : graph.out[i]) {
      if (parent[next] < 0) continue;
      dot += "  " + node_id(static_cast<int>(i)) + " -> " + node_id(next) +
             ";\n";
    }
  }
  dot += "}\n";
  return dot;
}

std::string include_dot(const ProjectIndex& index) {
  const auto adj = include_edges(index);
  std::string dot = "digraph herolint_includes {\n  rankdir=LR;\n"
                    "  node [fontsize=10, shape=note];\n";
  auto node_id = [](int file) { return "n" + std::to_string(file); };
  for (std::size_t i = 0; i < index.files().size(); ++i) {
    dot += "  " + node_id(static_cast<int>(i)) + " [label=\"" +
           index.files()[i].path + "\"];\n";
  }
  for (std::size_t i = 0; i < adj.size(); ++i) {
    for (const auto& [target, line] : adj[i]) {
      dot += "  " + node_id(static_cast<int>(i)) + " -> " +
             node_id(target) + ";\n";
    }
  }
  dot += "}\n";
  return dot;
}

}  // namespace herolint
