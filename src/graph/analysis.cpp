#include "liplib/graph/analysis.hpp"

#include <algorithm>
#include <functional>
#include <utility>

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
  const std::size_t n = topo.nodes().size();
  const auto kept = [&](ChannelId c) { return !keep || keep(c); };
  std::vector<CycleInfo> cycles;
  // Every simple cycle through a node stays in that node's strongly
  // connected component.  reaches[v] == root: v is in the root's
  // component, above the root, and reaches it through such nodes.  To
  // report each cycle once, a root's walk enters only those, so it finds
  // the cycles whose smallest node is the root; a root on no cycle costs
  // a look at its channels.
  const auto comp = topo.components(keep);
  const auto inside = [&](NodeId root, NodeId v) {
    return v >= root && comp[v] == comp[root];
  };
  std::vector<NodeId> reaches(n, n);
  std::vector<bool> on_path(n, false);
  std::vector<NodeId> work;
  struct Frame {
    NodeId v;
    std::size_t next;  // position in channels_from(v)
    ChannelId via;     // channel that entered v
  };
  std::vector<Frame> path;
  std::size_t ids = 0;  // node and channel ids held by `cycles`

  for (NodeId root = 0; root < n; ++root) {
    if (topo.node(root).kind != NodeKind::kProcess) continue;
    const auto& out = topo.channels_from(root);
    if (std::none_of(out.begin(), out.end(), [&](ChannelId c) {
          return inside(root, topo.channel(c).to.node) && kept(c);
        })) {
      continue;
    }
    reaches[root] = root;
    work.assign(1, root);
    while (!work.empty()) {
      const NodeId v = work.back();
      work.pop_back();
      for (std::size_t p = 0; p < topo.node(v).num_inputs; ++p) {
        const auto c = topo.channel_into({v, p});
        if (!c || !kept(*c)) continue;
        const NodeId u = topo.channel(*c).from.node;
        if (!inside(root, u) || reaches[u] == root) continue;
        reaches[u] = root;
        work.push_back(u);
      }
    }

    on_path[root] = true;
    path.assign(1, {root, 0, 0});
    while (!path.empty()) {
      Frame& f = path.back();
      const auto& next = topo.channels_from(f.v);
      if (f.next == next.size()) {
        on_path[f.v] = false;
        path.pop_back();
        continue;
      }
      const ChannelId c = next[f.next++];
      const NodeId w = topo.channel(c).to.node;
      if (reaches[w] != root || !kept(c)) continue;
      if (w == root) {
        ids += 2 * path.size();
        LIPLIB_EXPECT(cycles.size() < max_cycles && ids <= kCycleIdBudget,
                      "cycle enumeration budget exceeded");
        CycleInfo info;
        for (std::size_t k = 0; k < path.size(); ++k) {
          info.nodes.push_back(path[k].v);
          if (k > 0) info.channels.push_back(path[k].via);
        }
        info.channels.push_back(c);
        info.shells = info.nodes.size();
        for (ChannelId h : info.channels) {
          info.stations += topo.channel(h).num_stations();
        }
        info.throughput = loop_throughput(info.shells, info.stations);
        cycles.push_back(std::move(info));
        continue;
      }
      if (on_path[w]) continue;
      on_path[w] = true;
      path.push_back({w, 0, c});
    }
  }
  return cycles;
}

std::vector<ReconvergenceInfo> analyze_reconvergence(const Topology& topo) {
  const std::size_t n = topo.nodes().size();
  const auto order = topo.topological_order();
  if (order.size() != n) return {};
  // to_join[v]: v reaches a join.  A fork that reaches none (a sink
  // among them) pairs with nothing, so it costs a look at its channels.
  std::vector<bool> is_join(n, false), to_join(n, false);
  for (auto v = order.rbegin(); v != order.rend(); ++v) {
    is_join[*v] = topo.node(*v).kind == NodeKind::kProcess &&
                  topo.channels_into(*v).size() >= 2;
    to_join[*v] = is_join[*v];
    for (ChannelId c : topo.channels_from(*v)) {
      if (to_join[topo.channel(c).to.node]) to_join[*v] = true;
    }
  }
  std::vector<std::size_t> position(n);
  for (std::size_t i = 0; i < n; ++i) position[order[i]] = i;

  // Per node, over the paths from the fork: how many (counted to 2), and
  // the lightest and heaviest station sums, with the most channels on a
  // heaviest path (the paper counts its intermediate shells plus the join
  // shell as part of the implicit loop: one per channel).
  std::vector<std::size_t> count(n);
  std::vector<ReconvergenceInfo> paths(n);
  std::vector<ReconvergenceInfo> found;
  for (NodeId fork = 0; fork < n; ++fork) {
    if (!to_join[fork] || topo.channels_from(fork).size() < 2) continue;
    std::fill(count.begin(), count.end(), 0);
    count[fork] = 1;
    paths[fork] = {fork, fork};
    for (std::size_t i = position[fork]; i < n; ++i) {
      if (count[order[i]] == 0) continue;
      for (ChannelId c : topo.channels_from(order[i])) {
        const NodeId w = topo.channel(c).to.node;
        ReconvergenceInfo via = paths[order[i]];
        via.min_stations += topo.channel(c).num_stations();
        via.max_stations += topo.channel(c).num_stations();
        ++via.heavy_path_shells;
        ReconvergenceInfo& to = paths[w];
        if (count[w] == 0) to = {fork, w, via.min_stations};  // heaviest: below
        to.min_stations = std::min(to.min_stations, via.min_stations);
        if (std::pair(via.max_stations, via.heavy_path_shells) >
            std::pair(to.max_stations, to.heavy_path_shells)) {
          to.max_stations = via.max_stations;
          to.heavy_path_shells = via.heavy_path_shells;
        }
        count[w] = std::min<std::size_t>(2, count[w] + count[order[i]]);
      }
    }
    for (NodeId join = 0; join < n; ++join) {
      if (is_join[join] && count[join] >= 2) found.push_back(paths[join]);
    }
  }
  return found;
}

ThroughputPrediction predict_throughput(const Topology& topo) {
  ThroughputPrediction pred;
  if (const auto loop = min_cycle_ratio(topo)) pred.cycle_bound = loop->ratio;
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
