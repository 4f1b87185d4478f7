#include "liplib/graph/analysis.hpp"

#include <functional>

namespace liplib::graph {

Rational loop_throughput(std::size_t num_shells, std::size_t num_stations) {
  LIPLIB_EXPECT(num_shells > 0, "loop with no shells");
  return Rational(static_cast<std::int64_t>(num_shells),
                  static_cast<std::int64_t>(num_shells + num_stations));
}

Rational reconvergent_throughput(std::size_t m, std::size_t i) {
  LIPLIB_EXPECT(m > 0, "reconvergent formula with m == 0");
  LIPLIB_EXPECT(i <= m, "imbalance larger than loop length");
  return Rational(static_cast<std::int64_t>(m - i),
                  static_cast<std::int64_t>(m));
}

std::vector<CycleInfo> enumerate_cycles(
    const Topology& topo, std::size_t max_cycles,
    const std::function<bool(ChannelId)>& keep) {
  // Every simple cycle through a node stays in that node's strongly
  // connected component, so the walk never leaves the root's component.
  const std::size_t n = topo.nodes().size();
  std::vector<std::size_t> comp_of(n, 0);
  const auto sccs = topo.process_sccs(keep);
  for (std::size_t i = 0; i < sccs.size(); ++i) {
    for (NodeId v : sccs[i]) comp_of[v] = i;
  }

  std::vector<CycleInfo> cycles;
  std::vector<bool> on_path(n, false);
  std::vector<NodeId> path_nodes;
  std::vector<ChannelId> path_channels;

  // To report each cycle once, only enumerate cycles whose smallest node
  // id equals the DFS root.
  std::function<void(NodeId, NodeId)> dfs = [&](NodeId root, NodeId v) {
    for (ChannelId c : topo.channels_from(v)) {
      const NodeId w = topo.channel(c).to.node;
      if (w < root || comp_of[w] != comp_of[root] || (keep && !keep(c))) {
        continue;
      }
      if (w == root) {
        LIPLIB_EXPECT(cycles.size() < max_cycles,
                      "cycle enumeration budget exceeded");
        CycleInfo info;
        info.nodes = path_nodes;
        info.channels = path_channels;
        info.channels.push_back(c);
        info.shells = path_nodes.size();
        info.stations = 0;
        for (ChannelId hop : info.channels) {
          info.stations += topo.channel(hop).num_stations();
        }
        info.throughput = loop_throughput(info.shells, info.stations);
        cycles.push_back(std::move(info));
        continue;
      }
      if (on_path[w]) continue;
      on_path[w] = true;
      path_nodes.push_back(w);
      path_channels.push_back(c);
      dfs(root, w);
      path_channels.pop_back();
      path_nodes.pop_back();
      on_path[w] = false;
    }
  };

  for (NodeId root = 0; root < n; ++root) {
    if (topo.node(root).kind != NodeKind::kProcess) continue;
    on_path[root] = true;
    path_nodes.push_back(root);
    dfs(root, root);
    path_nodes.pop_back();
    on_path[root] = false;
  }
  return cycles;
}

namespace {

/// A simple path fork -> join, as its channels in order.
using Path = std::vector<ChannelId>;

/// The one fork -> join walker: the simple paths from `fork` to `join`
/// through process nodes, in depth-first order over channel ids, at most
/// `max_paths` of them (ApiError beyond).  The walk enters only nodes
/// that reach the join, found by one reverse search over the input index,
/// so a pair the fork cannot complete costs no more than that search.
std::vector<Path> fork_join_paths(const Topology& topo, NodeId fork,
                                  NodeId join, std::size_t max_paths) {
  const std::size_t n = topo.nodes().size();
  std::vector<bool> reaches(n, false);
  std::vector<NodeId> stack{join};
  reaches[join] = true;
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    for (std::size_t p = 0; p < topo.node(v).num_inputs; ++p) {
      const auto c = topo.channel_into({v, p});
      if (!c || reaches[topo.channel(*c).from.node]) continue;
      stack.push_back(topo.channel(*c).from.node);
      reaches[stack.back()] = true;
    }
  }

  std::vector<Path> results;
  std::vector<bool> on_path(n, false);
  Path cur;
  std::function<void(NodeId)> dfs = [&](NodeId v) {
    for (ChannelId c : topo.channels_from(v)) {
      const NodeId w = topo.channel(c).to.node;
      if (w == join) {
        LIPLIB_EXPECT(results.size() < max_paths,
                      "path enumeration budget exceeded");
        results.push_back(cur);
        results.back().push_back(c);
        continue;
      }
      if (on_path[w] || !reaches[w] ||
          topo.node(w).kind != NodeKind::kProcess) {
        continue;
      }
      on_path[w] = true;
      cur.push_back(c);
      dfs(w);
      cur.pop_back();
      on_path[w] = false;
    }
  };
  on_path[fork] = true;
  dfs(fork);
  return results;
}

/// Calls `visit(fork, join, paths)` for every fork/join pair with at
/// least two simple paths between them, in (fork, join) id order: a fork
/// is any non-sink with two or more outgoing channels, a join any other
/// process with two or more driven inputs.
void for_each_reconvergence(
    const Topology& topo, std::size_t max_paths,
    const std::function<void(NodeId, NodeId, const std::vector<Path>&)>&
        visit) {
  const std::size_t n = topo.nodes().size();
  std::vector<NodeId> joins;
  for (NodeId v = 0; v < n; ++v) {
    if (topo.node(v).kind == NodeKind::kProcess &&
        topo.channels_into(v).size() >= 2) {
      joins.push_back(v);
    }
  }
  for (NodeId fork = 0; fork < n; ++fork) {
    if (topo.node(fork).kind == NodeKind::kSink) continue;
    if (topo.channels_from(fork).size() < 2) continue;
    for (NodeId join : joins) {
      if (join == fork) continue;
      const auto paths = fork_join_paths(topo, fork, join, max_paths);
      if (paths.size() >= 2) visit(fork, join, paths);
    }
  }
}

/// Shells strictly between a path's endpoints.
std::size_t interior_shells(const Path& p) { return p.size() - 1; }

std::size_t path_stations(const Topology& topo, const Path& p) {
  std::size_t st = 0;
  for (ChannelId c : p) st += topo.channel(c).num_stations();
  return st;
}

bool interiors_disjoint(const std::vector<NodeId>& a,
                        const std::vector<NodeId>& b) {
  for (NodeId x : a) {
    for (NodeId y : b) {
      if (x == y) return false;
    }
  }
  return true;
}

}  // namespace

std::vector<ReconvergenceInfo> analyze_reconvergence(const Topology& topo,
                                                     std::size_t max_paths) {
  std::vector<ReconvergenceInfo> found;
  for_each_reconvergence(topo, max_paths, [&](NodeId fork, NodeId join,
                                              const std::vector<Path>& paths) {
    ReconvergenceInfo info;
    info.fork = fork;
    info.join = join;
    info.min_stations = path_stations(topo, paths.front());
    info.max_stations = info.min_stations;
    std::size_t heavy_shells = interior_shells(paths.front());
    for (const auto& p : paths) {
      const std::size_t st = path_stations(topo, p);
      if (st < info.min_stations) info.min_stations = st;
      if (st > info.max_stations ||
          (st == info.max_stations && interior_shells(p) > heavy_shells)) {
        info.max_stations = st;
        heavy_shells = interior_shells(p);
      }
    }
    // The paper counts the shells on the heaviest branch as part of the
    // implicit loop: the intermediate shells plus the join shell.
    info.heavy_path_shells = heavy_shells + 1;
    found.push_back(info);
  });
  return found;
}

std::vector<ImplicitLoopInfo> analyze_implicit_loops(const Topology& topo,
                                                     std::size_t max_paths) {
  std::vector<ImplicitLoopInfo> loops;
  for_each_reconvergence(topo, max_paths, [&](NodeId fork, NodeId join,
                                              const std::vector<Path>& paths) {
    // Nodes strictly between fork and join, per path.
    std::vector<std::vector<NodeId>> interior(paths.size());
    for (std::size_t i = 0; i < paths.size(); ++i) {
      for (std::size_t h = 0; h + 1 < paths[i].size(); ++h) {
        interior[i].push_back(topo.channel(paths[i][h]).to.node);
      }
    }
    for (std::size_t f = 0; f < paths.size(); ++f) {
      for (std::size_t b = 0; b < paths.size(); ++b) {
        if (f == b) continue;
        if (!interiors_disjoint(interior[f], interior[b])) continue;
        ImplicitLoopInfo info;
        info.fork = fork;
        info.join = join;
        for (ChannelId c : paths[f]) {
          info.registers_fwd += topo.channel(c).num_stations() + 1;
          info.tokens_fwd += 1;
        }
        for (ChannelId c : paths[b]) {
          info.slack_back +=
              2 * topo.channel(c).num_full() + topo.channel(c).num_half();
          info.stops_back += topo.channel(c).num_full();
        }
        loops.push_back(info);
      }
    }
  });
  return loops;
}

Rational exact_implicit_loop_bound(const Topology& topo,
                                   std::size_t max_paths) {
  Rational best(1);
  for (const auto& loop : analyze_implicit_loops(topo, max_paths)) {
    const auto t = loop.throughput();
    if (t < best) best = t;
  }
  return best;
}

ThroughputPrediction predict_throughput(const Topology& topo) {
  ThroughputPrediction pred;
  pred.cycles = enumerate_cycles(topo);
  for (const auto& c : pred.cycles) {
    if (c.throughput < pred.cycle_bound) pred.cycle_bound = c.throughput;
  }
  pred.reconvergences = analyze_reconvergence(topo);
  for (const auto& r : pred.reconvergences) {
    if (r.throughput() < pred.reconvergence_bound) {
      pred.reconvergence_bound = r.throughput();
    }
  }
  return pred;
}

std::vector<StopCycleInfo> find_stop_cycles(const Topology& topo,
                                            std::size_t max_cycles) {
  // A cycle's stop path is combinational iff none of its channels
  // carries a full station: enumerate the cycles of those channels only.
  const auto stop_transparent = [&](ChannelId c) {
    return topo.channel(c).num_full() == 0;
  };
  std::vector<StopCycleInfo> out;
  for (const auto& c : enumerate_cycles(topo, max_cycles, stop_transparent)) {
    out.push_back({c.nodes, c.stations});
  }
  return out;
}

namespace {

std::uint64_t total_positions(const Topology& topo) {
  std::uint64_t pos = 0;
  for (const auto& node : topo.nodes()) {
    if (node.kind == NodeKind::kProcess) pos += node.num_outputs;
    if (node.kind == NodeKind::kSource) pos += 1;
  }
  for (const auto& ch : topo.channels()) {
    pos += 2 * ch.num_full() + ch.num_half();
  }
  return pos;
}

}  // namespace

std::uint64_t transient_bound(const Topology& topo) {
  // Conservative but predictable-upfront, as the paper requires: the
  // protocol state is made of the register positions, and empirically the
  // transient is close to the longest register path; a quadratic envelope
  // in the position count covers every topology class we generate.
  const std::uint64_t p = total_positions(topo);
  return 2 * p * p + 16;
}

std::optional<std::uint64_t> longest_register_path(const Topology& topo) {
  const auto order = topo.topological_order();
  if (order.size() != topo.nodes().size()) return std::nullopt;
  // Longest path over the channel DAG with weight = stations + 1 (the
  // producing node's output register).
  std::vector<std::uint64_t> dist(order.size(), 0);
  std::uint64_t best = 0;
  for (NodeId v : order) {
    for (ChannelId c : topo.channels_from(v)) {
      const auto& ch = topo.channel(c);
      const std::uint64_t d = dist[v] + ch.num_stations() + 1;
      if (d > dist[ch.to.node]) dist[ch.to.node] = d;
      if (d > best) best = d;
    }
  }
  return best;
}

}  // namespace liplib::graph
