#include "liplib/graph/topology.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

namespace liplib::graph {

std::size_t Channel::num_full() const {
  return static_cast<std::size_t>(
      std::count(stations.begin(), stations.end(), RsKind::kFull));
}

std::size_t Channel::num_half() const {
  return static_cast<std::size_t>(
      std::count(stations.begin(), stations.end(), RsKind::kHalf));
}

std::string ValidationReport::to_string() const {
  std::ostringstream os;
  for (const auto& i : issues) {
    os << (i.severity == ValidationIssue::Severity::kError ? "error: "
                                                           : "warning: ")
       << i.message << '\n';
  }
  return os.str();
}

NodeId Topology::add_node(Node node) {
  in_begin_.push_back(in_channel_.size());
  in_channel_.resize(in_channel_.size() + node.num_inputs, kUndriven);
  out_channels_.emplace_back();
  nodes_.push_back(std::move(node));
  return nodes_.size() - 1;
}

NodeId Topology::add_process(std::string name, std::size_t num_inputs,
                             std::size_t num_outputs) {
  LIPLIB_EXPECT(num_inputs + num_outputs > 0, "process with no ports");
  return add_node(
      {std::move(name), NodeKind::kProcess, num_inputs, num_outputs});
}

NodeId Topology::add_source(std::string name) {
  return add_node({std::move(name), NodeKind::kSource, 0, 1});
}

NodeId Topology::add_sink(std::string name) {
  return add_node({std::move(name), NodeKind::kSink, 1, 0});
}

void Topology::check_out(OutRef r) const {
  LIPLIB_EXPECT(r.node < nodes_.size(), "output ref: node out of range");
  LIPLIB_EXPECT(r.port < nodes_[r.node].num_outputs,
                "output ref: port out of range for node " +
                    nodes_[r.node].name);
}

void Topology::check_in(InRef r) const {
  LIPLIB_EXPECT(r.node < nodes_.size(), "input ref: node out of range");
  LIPLIB_EXPECT(
      r.port < nodes_[r.node].num_inputs,
      "input ref: port out of range for node " + nodes_[r.node].name);
}

ChannelId Topology::connect(OutRef from, InRef to,
                            std::vector<RsKind> stations) {
  check_out(from);
  check_in(to);
  ChannelId& slot = in_channel_[in_begin_[to.node] + to.port];
  LIPLIB_EXPECT(slot == kUndriven,
                "input port of " + nodes_[to.node].name + " driven twice");
  channels_.push_back({from, to, std::move(stations)});
  slot = channels_.size() - 1;
  out_channels_[from.node].emplace_back(slot);
  return slot;
}

std::vector<ChannelId> Topology::channels_into(NodeId n) const {
  std::vector<ChannelId> out;
  for (std::size_t p = 0; p < node(n).num_inputs; ++p) {
    const ChannelId c = in_channel_[in_begin_[n] + p];
    if (c != kUndriven) out.push_back(c);
  }
  return out;
}

std::optional<ChannelId> Topology::channel_into(InRef in) const {
  if (in.node >= nodes_.size() || in.port >= nodes_[in.node].num_inputs) {
    return std::nullopt;
  }
  const ChannelId c = in_channel_[in_begin_[in.node] + in.port];
  if (c == kUndriven) return std::nullopt;
  return c;
}

std::vector<ChannelId> Topology::channels_of(OutRef out) const {
  std::vector<ChannelId> r;
  for (ChannelId c : channels_from(out.node)) {
    if (channels_[c].from.port == out.port) r.push_back(c);
  }
  return r;
}

std::size_t Topology::total_stations() const {
  std::size_t n = 0;
  for (const auto& c : channels_) n += c.num_stations();
  return n;
}

std::size_t Topology::total_full_stations() const {
  std::size_t n = 0;
  for (const auto& c : channels_) n += c.num_full();
  return n;
}

std::size_t Topology::total_half_stations() const {
  std::size_t n = 0;
  for (const auto& c : channels_) n += c.num_half();
  return n;
}

std::size_t Topology::num_processes() const {
  std::size_t n = 0;
  for (const auto& node : nodes_) {
    if (node.kind == NodeKind::kProcess) ++n;
  }
  return n;
}

std::size_t Topology::num_sources() const {
  std::size_t n = 0;
  for (const auto& node : nodes_) {
    if (node.kind == NodeKind::kSource) ++n;
  }
  return n;
}

std::size_t Topology::num_sinks() const {
  std::size_t n = 0;
  for (const auto& node : nodes_) {
    if (node.kind == NodeKind::kSink) ++n;
  }
  return n;
}

std::vector<std::size_t> strongly_connected_components(const EdgeIndex& g) {
  // Iterative Tarjan.
  const std::size_t n = g.begin.size() - 1;
  std::vector<int> index(n, -1), low(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<NodeId> stack;
  std::vector<std::size_t> comp(n, 0);
  std::size_t num_comps = 0;
  int next_index = 0;

  struct Frame {
    NodeId v;
    std::size_t next;
  };
  std::vector<Frame> frames;

  for (NodeId root = 0; root < n; ++root) {
    if (index[root] != -1) continue;
    frames.assign(1, {root, g.begin[root]});
    index[root] = low[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = true;
    while (!frames.empty()) {
      Frame& f = frames.back();
      if (f.next < g.begin[f.v + 1]) {
        const NodeId w = g.succ[f.next++];
        if (index[w] == -1) {
          index[w] = low[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = true;
          frames.push_back({w, g.begin[w]});
        } else if (on_stack[w]) {
          low[f.v] = std::min(low[f.v], index[w]);
        }
      } else {
        if (low[f.v] == index[f.v]) {
          for (NodeId w = ~NodeId{0}; w != f.v;) {
            w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            comp[w] = num_comps;
          }
          ++num_comps;
        }
        NodeId v = f.v;
        frames.pop_back();
        if (!frames.empty()) {
          low[frames.back().v] = std::min(low[frames.back().v], low[v]);
        }
      }
    }
  }
  return comp;
}

std::vector<std::uint32_t> writers_first(const EdgeIndex& g) {
  // Tarjan numbers the components in reverse topological order.
  const auto comp = strongly_connected_components(g);
  std::vector<std::uint32_t> order(comp.size());
  for (std::uint32_t v = 0; v < order.size(); ++v) order[v] = v;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return comp[a] > comp[b];
                   });
  return order;
}

std::vector<std::size_t> Topology::components(
    const std::function<bool(ChannelId)>& keep) const {
  return strongly_connected_components(EdgeIndex(
      nodes_.size(), channels_.size(),
      [&](ChannelId c) {
        return std::pair(channels_[c].from.node, channels_[c].to.node);
      },
      [&](ChannelId c) { return !keep || keep(c); }));
}

std::vector<bool> Topology::channels_on_cycles() const {
  // A channel lies on a directed cycle iff its endpoints share a strongly
  // connected component (a self-loop's always do).
  const auto comp = components();
  std::vector<bool> on_cycle(channels_.size());
  for (ChannelId c = 0; c < channels_.size(); ++c) {
    on_cycle[c] = comp[channels_[c].from.node] == comp[channels_[c].to.node];
  }
  return on_cycle;
}

std::vector<NodeId> Topology::topological_order() const {
  std::vector<std::size_t> deg(nodes_.size(), 0);
  for (const auto& ch : channels_) ++deg[ch.to.node];
  std::vector<NodeId> order;
  for (NodeId v = 0; v < nodes_.size(); ++v) {
    if (deg[v] == 0) order.push_back(v);
  }
  for (std::size_t i = 0; i < order.size(); ++i) {
    for (ChannelId c : out_channels_[order[i]]) {
      if (--deg[channels_[c].to.node] == 0) {
        order.push_back(channels_[c].to.node);
      }
    }
  }
  return order;
}

// Topology::validate() is defined in src/lint/validate_compat.cpp: it is
// the structural subset of the lint engine, kept there so the graph
// library has no dependency on liplib_lint.

std::string Topology::to_dot() const {
  std::ostringstream os;
  os << "digraph lid {\n  rankdir=LR;\n";
  for (NodeId v = 0; v < nodes_.size(); ++v) {
    const char* shape = "box";
    if (nodes_[v].kind == NodeKind::kSource) shape = "invtriangle";
    if (nodes_[v].kind == NodeKind::kSink) shape = "triangle";
    os << "  n" << v << " [label=\"" << nodes_[v].name << "\" shape=" << shape
       << "];\n";
  }
  for (ChannelId c = 0; c < channels_.size(); ++c) {
    const auto& ch = channels_[c];
    std::string label;
    for (RsKind k : ch.stations) label += (k == RsKind::kFull ? 'F' : 'H');
    os << "  n" << ch.from.node << " -> n" << ch.to.node << " [label=\""
       << label << "\"];\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace liplib::graph
