#include "liplib/graph/analysis.hpp"

#include <algorithm>
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

std::vector<CycleInfo> enumerate_cycles(const Topology& topo,
                                        std::size_t max_cycles) {
  // Adjacency over all nodes via channels; only process nodes can lie on
  // cycles (sources have no inputs, sinks no outputs).
  const std::size_t n = topo.nodes().size();
  std::vector<std::vector<ChannelId>> out(n);
  for (ChannelId c = 0; c < topo.channels().size(); ++c) {
    out[topo.channel(c).from.node].push_back(c);
  }

  std::vector<CycleInfo> cycles;
  std::vector<bool> on_path(n, false);
  std::vector<NodeId> path_nodes;
  std::vector<ChannelId> path_channels;

  // To report each cycle once, only enumerate cycles whose smallest node
  // id equals the DFS root.
  std::function<void(NodeId, NodeId)> dfs = [&](NodeId root, NodeId v) {
    for (ChannelId c : out[v]) {
      const NodeId w = topo.channel(c).to.node;
      if (w < root) continue;
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

struct PathStats {
  std::size_t stations = 0;
  std::size_t intermediate_shells = 0;
};

/// Enumerates simple paths fork->join, accumulating stations and the
/// shells strictly between the endpoints.
void enumerate_paths(const Topology& topo,
                     const std::vector<std::vector<ChannelId>>& out,
                     NodeId fork, NodeId join, std::size_t max_paths,
                     std::vector<PathStats>& results) {
  std::vector<bool> on_path(topo.nodes().size(), false);
  PathStats cur;
  std::function<void(NodeId)> dfs = [&](NodeId v) {
    for (ChannelId c : out[v]) {
      const NodeId w = topo.channel(c).to.node;
      const std::size_t st = topo.channel(c).num_stations();
      if (w == join) {
        LIPLIB_EXPECT(results.size() < max_paths,
                      "path enumeration budget exceeded");
        results.push_back({cur.stations + st, cur.intermediate_shells});
        continue;
      }
      if (on_path[w] || topo.node(w).kind != NodeKind::kProcess) continue;
      on_path[w] = true;
      cur.stations += st;
      cur.intermediate_shells += 1;
      dfs(w);
      cur.intermediate_shells -= 1;
      cur.stations -= st;
      on_path[w] = false;
    }
  };
  on_path[fork] = true;
  dfs(fork);
}

}  // namespace

std::vector<ReconvergenceInfo> analyze_reconvergence(const Topology& topo,
                                                     std::size_t max_paths) {
  const std::size_t n = topo.nodes().size();
  std::vector<std::vector<ChannelId>> out(n);
  std::vector<std::size_t> in_deg(n, 0);
  for (ChannelId c = 0; c < topo.channels().size(); ++c) {
    out[topo.channel(c).from.node].push_back(c);
    in_deg[topo.channel(c).to.node]++;
  }

  std::vector<ReconvergenceInfo> found;
  for (NodeId fork = 0; fork < n; ++fork) {
    if (topo.node(fork).kind == NodeKind::kSink) continue;
    if (out[fork].size() < 2) continue;  // cannot start two branches
    for (NodeId join = 0; join < n; ++join) {
      if (topo.node(join).kind != NodeKind::kProcess) continue;
      if (in_deg[join] < 2 || join == fork) continue;
      std::vector<PathStats> paths;
      enumerate_paths(topo, out, fork, join, max_paths, paths);
      if (paths.size() < 2) continue;
      ReconvergenceInfo info;
      info.fork = fork;
      info.join = join;
      info.min_stations = paths.front().stations;
      info.max_stations = paths.front().stations;
      std::size_t heavy_shells = paths.front().intermediate_shells;
      for (const auto& p : paths) {
        if (p.stations < info.min_stations) info.min_stations = p.stations;
        if (p.stations > info.max_stations ||
            (p.stations == info.max_stations &&
             p.intermediate_shells > heavy_shells)) {
          info.max_stations = p.stations;
          heavy_shells = p.intermediate_shells;
        }
      }
      // The paper counts the shells on the heaviest branch as part of the
      // implicit loop: the intermediate shells plus the join shell.
      info.heavy_path_shells = heavy_shells + 1;
      found.push_back(info);
    }
  }
  return found;
}

namespace {

struct PathDetail {
  std::vector<ChannelId> channels;
  std::vector<NodeId> interior;  // nodes strictly between fork and join
};

/// Enumerates simple paths fork->join with full channel/interior detail.
void enumerate_paths_detailed(const Topology& topo,
                              const std::vector<std::vector<ChannelId>>& out,
                              NodeId fork, NodeId join,
                              std::size_t max_paths,
                              std::vector<PathDetail>& results) {
  std::vector<bool> on_path(topo.nodes().size(), false);
  PathDetail cur;
  std::function<void(NodeId)> dfs = [&](NodeId v) {
    for (ChannelId c : out[v]) {
      const NodeId w = topo.channel(c).to.node;
      if (w == join) {
        LIPLIB_EXPECT(results.size() < max_paths,
                      "path enumeration budget exceeded");
        PathDetail done = cur;
        done.channels.push_back(c);
        results.push_back(std::move(done));
        continue;
      }
      if (on_path[w] || topo.node(w).kind != NodeKind::kProcess) continue;
      on_path[w] = true;
      cur.channels.push_back(c);
      cur.interior.push_back(w);
      dfs(w);
      cur.interior.pop_back();
      cur.channels.pop_back();
      on_path[w] = false;
    }
  };
  on_path[fork] = true;
  dfs(fork);
}

bool interiors_disjoint(const PathDetail& a, const PathDetail& b) {
  for (NodeId x : a.interior) {
    for (NodeId y : b.interior) {
      if (x == y) return false;
    }
  }
  return true;
}

}  // namespace

std::vector<ImplicitLoopInfo> analyze_implicit_loops(const Topology& topo,
                                                     std::size_t max_paths) {
  const std::size_t n = topo.nodes().size();
  std::vector<std::vector<ChannelId>> out(n);
  std::vector<std::size_t> in_deg(n, 0);
  for (ChannelId c = 0; c < topo.channels().size(); ++c) {
    out[topo.channel(c).from.node].push_back(c);
    in_deg[topo.channel(c).to.node]++;
  }

  std::vector<ImplicitLoopInfo> loops;
  for (NodeId fork = 0; fork < n; ++fork) {
    if (topo.node(fork).kind == NodeKind::kSink) continue;
    if (out[fork].size() < 2) continue;
    for (NodeId join = 0; join < n; ++join) {
      if (topo.node(join).kind != NodeKind::kProcess) continue;
      if (in_deg[join] < 2 || join == fork) continue;
      std::vector<PathDetail> paths;
      enumerate_paths_detailed(topo, out, fork, join, max_paths, paths);
      if (paths.size() < 2) continue;
      for (std::size_t f = 0; f < paths.size(); ++f) {
        for (std::size_t b = 0; b < paths.size(); ++b) {
          if (f == b) continue;
          if (!interiors_disjoint(paths[f], paths[b])) continue;
          ImplicitLoopInfo info;
          info.fork = fork;
          info.join = join;
          for (ChannelId c : paths[f].channels) {
            info.registers_fwd += topo.channel(c).num_stations() + 1;
            info.tokens_fwd += 1;
          }
          for (ChannelId c : paths[b].channels) {
            info.slack_back +=
                2 * topo.channel(c).num_full() + topo.channel(c).num_half();
            info.stops_back += topo.channel(c).num_full();
          }
          loops.push_back(info);
        }
      }
    }
  }
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
  // carries a full station; enumerate cycles over the subgraph of
  // full-station-free channels only.
  Topology pruned;
  // Rebuild with the same nodes; keep only channels with zero full
  // stations.  Node ids are preserved by construction order.
  for (const auto& node : topo.nodes()) {
    switch (node.kind) {
      case NodeKind::kProcess:
        pruned.add_process(node.name, node.num_inputs, node.num_outputs);
        break;
      case NodeKind::kSource:
        pruned.add_source(node.name);
        break;
      case NodeKind::kSink:
        pruned.add_sink(node.name);
        break;
    }
  }
  for (const auto& ch : topo.channels()) {
    if (ch.num_full() == 0) {
      pruned.connect(ch.from, ch.to, ch.stations);
    }
  }
  std::vector<StopCycleInfo> out;
  for (const auto& c : enumerate_cycles(pruned, max_cycles)) {
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
  if (!topo.is_feedforward()) return std::nullopt;
  // Longest path over the channel DAG with weight = stations + 1 (the
  // producing node's output register).
  const std::size_t n = topo.nodes().size();
  std::vector<std::size_t> in_deg(n, 0);
  std::vector<std::vector<ChannelId>> out(n);
  for (ChannelId c = 0; c < topo.channels().size(); ++c) {
    out[topo.channel(c).from.node].push_back(c);
    in_deg[topo.channel(c).to.node]++;
  }
  std::vector<NodeId> order;
  std::vector<std::size_t> deg = in_deg;
  for (NodeId v = 0; v < n; ++v) {
    if (deg[v] == 0) order.push_back(v);
  }
  for (std::size_t i = 0; i < order.size(); ++i) {
    for (ChannelId c : out[order[i]]) {
      if (--deg[topo.channel(c).to.node] == 0) {
        order.push_back(topo.channel(c).to.node);
      }
    }
  }
  LIPLIB_ENSURE(order.size() == n, "feedforward topology failed toposort");
  std::vector<std::uint64_t> dist(n, 0);
  std::uint64_t best = 0;
  for (NodeId v : order) {
    for (ChannelId c : out[v]) {
      const auto& ch = topo.channel(c);
      const std::uint64_t d = dist[v] + ch.num_stations() + 1;
      if (d > dist[ch.to.node]) dist[ch.to.node] = d;
      if (d > best) best = d;
    }
  }
  return best;
}

}  // namespace liplib::graph
