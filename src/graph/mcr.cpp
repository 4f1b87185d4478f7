#include "liplib/graph/mcr.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

namespace liplib::graph {

namespace {

constexpr std::size_t kNone = ~std::size_t{0};

struct Edge {
  NodeId from;
  NodeId to;
  std::int64_t tokens;
  std::int64_t length;
  Hop hop;
};

/// The one minimum cycle ratio solver (see mcr.hpp): Howard's policy
/// iteration over the edges inside strongly connected components.  Each
/// node follows one edge (its policy) and takes the ratio num/den of the
/// policy cycle it reaches, and a potential: the weight
/// tokens * den - length * num of its policy path, the cycle's smallest
/// node at 0.  A node moves to an edge whose target has a lower ratio or,
/// when no node can, to one whose weight plus target potential is below
/// its own potential.  A move lowers some node's (ratio, potential) and
/// raises none, so no policy repeats; when none moves, each node's ratio
/// is the least it reaches, and at the least ratio no edge has negative
/// reduced cost weight + potential[to] - potential[from].  The first
/// policy takes data edges first, so no policy cycle has length 0.
class Solver {
 public:
  Solver(std::size_t n, std::vector<Edge> edges)
      : n_(n), edges_(std::move(edges)),
        comp_(strongly_connected_components(
            index([](std::size_t) { return true; }))),
        inside_(index([&](std::size_t e) {
          return comp_[edges_[e].from] == comp_[edges_[e].to];
        })),
        policy_(n, kNone), ratio_(n), potential_(n, 0) {
    for (NodeId v = 0; v < n_; ++v) {
      if (inside_.begin[v] < inside_.begin[v + 1]) {
        policy_[v] = inside_.ids[inside_.begin[v]];
      }
    }
  }

  CriticalCycle solve() {
    do {
      evaluate();
    } while (improve());
    CriticalCycle best;
    for (NodeId v = 0; v < n_; ++v) {
      if (policy_[v] != kNone && ratio_[v] < best.ratio) {
        best.ratio = ratio_[v];
      }
    }
    if (best.ratio < Rational(1)) best.hops = critical_cycle(best.ratio);
    return best;
  }

 private:
  /// The edges `keep` accepts, by source node.
  template <class Keep>
  EdgeIndex index(Keep keep) const {
    return EdgeIndex(
        n_, edges_.size(),
        [&](std::size_t e) { return std::pair(edges_[e].from, edges_[e].to); },
        keep);
  }

  std::int64_t weight(std::size_t e, const Rational& r) const {
    return edges_[e].tokens * r.den() - edges_[e].length * r.num();
  }

  NodeId next(NodeId v) const { return edges_[policy_[v]].to; }

  void evaluate() {
    std::vector<std::uint8_t> state(n_, 0);  // 1 on the walk, 2 valued
    std::vector<NodeId> walk;
    for (NodeId s = 0; s < n_; ++s) {
      walk.clear();
      NodeId v = s;
      for (; policy_[v] != kNone && state[v] == 0; v = next(v)) {
        state[v] = 1;
        walk.push_back(v);
      }
      if (!walk.empty() && state[v] == 1) {
        // The walk closed a policy cycle: rotate its smallest node to the
        // front, where it takes the cycle's ratio and potential 0.
        const auto cycle = std::find(walk.begin(), walk.end(), v);
        std::rotate(cycle, std::min_element(cycle, walk.end()), walk.end());
        std::int64_t tokens = 0;
        std::int64_t length = 0;
        for (auto it = cycle; it != walk.end(); ++it) {
          tokens += edges_[policy_[*it]].tokens;
          length += edges_[policy_[*it]].length;
        }
        ratio_[*cycle] = Rational(tokens, length);
        potential_[*cycle] = 0;
        state[*cycle] = 2;
      }
      for (auto it = walk.rbegin(); it != walk.rend(); ++it) {
        if (state[*it] == 2) continue;
        ratio_[*it] = ratio_[next(*it)];
        potential_[*it] =
            weight(policy_[*it], ratio_[*it]) + potential_[next(*it)];
        state[*it] = 2;
      }
    }
  }

  bool improve() {
    bool moved = false;
    for (NodeId v = 0; v < n_; ++v) {
      for (std::size_t i = inside_.begin[v]; i < inside_.begin[v + 1]; ++i) {
        if (ratio_[inside_.succ[i]] < ratio_[next(v)]) {
          policy_[v] = inside_.ids[i];
          moved = true;
        }
      }
    }
    if (moved) return true;
    for (NodeId v = 0; v < n_; ++v) {
      std::int64_t best = potential_[v];
      for (std::size_t i = inside_.begin[v]; i < inside_.begin[v + 1]; ++i) {
        const NodeId u = inside_.succ[i];
        if (ratio_[u] != ratio_[v]) continue;
        const std::int64_t via =
            weight(inside_.ids[i], ratio_[v]) + potential_[u];
        if (via < best) {
          best = via;
          policy_[v] = inside_.ids[i];
          moved = true;
        }
      }
    }
    return moved;
  }

  /// The first tight cycle in cycle-enumeration order.  Every cycle at
  /// the least ratio `r` runs through nodes at ratio `r` on tight edges
  /// (reduced cost 0), and a tight cycle has weight 0, so ratio `r`,
  /// unless its length is 0 too (stop edges of station-less channels).
  /// So the root is the smallest node with a tight edge of positive length
  /// inside its tight component, and a depth-first walk inside the
  /// component closes that edge back to the root.
  std::vector<Hop> critical_cycle(const Rational& r) const {
    const EdgeIndex tight = index([&](std::size_t e) {
      const NodeId v = edges_[e].from;
      const NodeId u = edges_[e].to;
      return comp_[v] == comp_[u] && ratio_[v] == r && ratio_[u] == r &&
             weight(e, r) + potential_[u] == potential_[v];
    });
    const auto comp = strongly_connected_components(tight);
    for (NodeId root = 0; root < n_; ++root) {
      for (std::size_t i = tight.begin[root]; i < tight.begin[root + 1];
           ++i) {
        const Edge& first = edges_[tight.ids[i]];
        if (first.length == 0 || comp[first.to] != comp[root]) continue;
        std::vector<Hop> hops{first.hop};
        if (first.to == root) return hops;
        std::vector<bool> seen(n_, false);
        seen[first.to] = true;
        std::vector<std::pair<NodeId, std::size_t>> path{
            {first.to, tight.begin[first.to]}};
        for (;;) {
          auto& [v, at] = path.back();
          if (at == tight.begin[v + 1]) {
            path.pop_back();
            continue;
          }
          const NodeId w = tight.succ[at++];
          if (w == root) break;
          if (seen[w] || comp[w] != comp[root]) continue;
          seen[w] = true;
          path.push_back({w, tight.begin[w]});
        }
        for (const auto& frame : path) {
          hops.push_back(edges_[tight.ids[frame.second - 1]].hop);
        }
        return hops;
      }
    }
    return {};
  }

  std::size_t n_;
  std::vector<Edge> edges_;
  std::vector<std::size_t> comp_;  // strongly connected component
  EdgeIndex inside_;               // the edges inside components
  std::vector<std::size_t> policy_;  // kNone: the node is on no cycle
  std::vector<Rational> ratio_;
  std::vector<std::int64_t> potential_;
};

std::vector<Edge> data_edges(const Topology& topo) {
  std::vector<Edge> edges;
  edges.reserve(2 * topo.channels().size());
  for (ChannelId c = 0; c < topo.channels().size(); ++c) {
    const Channel& ch = topo.channel(c);
    edges.push_back({ch.from.node, ch.to.node, 1,
                     1 + static_cast<std::int64_t>(ch.num_stations()),
                     {c, false}});
  }
  return edges;
}

}  // namespace

std::optional<CriticalCycle> min_cycle_ratio(const Topology& topo) {
  if (topo.is_feedforward()) return std::nullopt;
  return Solver(topo.nodes().size(), data_edges(topo)).solve();
}

CriticalCycle throughput_bound(const Topology& topo) {
  std::vector<Edge> edges = data_edges(topo);
  for (ChannelId c = 0; c < topo.channels().size(); ++c) {
    const Channel& ch = topo.channel(c);
    const auto full = static_cast<std::int64_t>(ch.num_full());
    edges.push_back({ch.to.node, ch.from.node,
                     2 * full + static_cast<std::int64_t>(ch.num_half()),
                     full, {c, true}});
  }
  return Solver(topo.nodes().size(), std::move(edges)).solve();
}

NodeId hop_from(const Topology& topo, const Hop& hop) {
  const Channel& ch = topo.channel(hop.channel);
  return hop.stop ? ch.to.node : ch.from.node;
}

std::string hops_str(const Topology& topo, const std::vector<Hop>& hops) {
  if (hops.empty()) return "";
  std::string s = topo.node(hop_from(topo, hops.front())).name;
  for (const Hop& hop : hops) {
    const Channel& ch = topo.channel(hop.channel);
    s += hop.stop ? " <- " + topo.node(ch.from.node).name
                  : " -> " + topo.node(ch.to.node).name;
  }
  return s;
}

}  // namespace liplib::graph
