#include "liplib/lip/reference.hpp"

namespace liplib::lip {

namespace {
constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);
}

ReferenceExecutor::ReferenceExecutor(const graph::Topology& topo)
    : topo_(topo) {
  node_index_.assign(topo_.nodes().size(), kNoIndex);
  for (graph::NodeId v = 0; v < topo_.nodes().size(); ++v) {
    switch (topo_.node(v).kind) {
      case graph::NodeKind::kProcess: {
        Proc p;
        p.node = v;
        node_index_[v] = procs_.size();
        procs_.push_back(std::move(p));
        break;
      }
      case graph::NodeKind::kSource: {
        node_index_[v] = srcs_.size();
        srcs_.push_back({v, [](std::uint64_t k) { return k; }});
        break;
      }
      case graph::NodeKind::kSink: {
        node_index_[v] = snks_.size();
        snks_.emplace_back().node = v;
        break;
      }
    }
  }
}

void ReferenceExecutor::bind_pearl(graph::NodeId node,
                                   std::unique_ptr<Pearl> pearl) {
  LIPLIB_EXPECT(node < topo_.nodes().size() &&
                    topo_.node(node).kind == graph::NodeKind::kProcess,
                "bind_pearl target is not a process node");
  LIPLIB_EXPECT(pearl != nullptr, "null pearl");
  LIPLIB_EXPECT(pearl->num_inputs() == topo_.node(node).num_inputs &&
                    pearl->num_outputs() == topo_.node(node).num_outputs,
                "pearl arity does not match node");
  Proc& p = procs_[node_index_[node]];
  p.pearl = std::move(pearl);
  p.regs.resize(p.pearl->num_outputs());
  p.next_regs.resize(p.pearl->num_outputs());
  p.in_scratch.resize(p.pearl->num_inputs());
  for (std::size_t m = 0; m < p.regs.size(); ++m) {
    p.regs[m] = p.pearl->initial_output(m);
  }
}

void ReferenceExecutor::bind_source_values(
    graph::NodeId node, std::function<std::uint64_t(std::uint64_t)> value) {
  LIPLIB_EXPECT(node < topo_.nodes().size() &&
                    topo_.node(node).kind == graph::NodeKind::kSource,
                "bind_source_values target is not a source node");
  LIPLIB_EXPECT(value != nullptr, "empty source value function");
  srcs_[node_index_[node]].value = std::move(value);
}

ReferenceExecutor::Driver ReferenceExecutor::driver_of(
    graph::InRef in) const {
  const auto c = topo_.channel_into(in);
  LIPLIB_ENSURE(c.has_value(),
                topo_.node(in.node).kind == graph::NodeKind::kSink
                    ? "sink input not driven"
                    : "process input not driven");
  const graph::OutRef from = topo_.channel(*c).from;
  const auto& n = topo_.node(from.node);
  LIPLIB_ENSURE(n.kind != graph::NodeKind::kSink, "sink cannot drive");
  return {n.kind == graph::NodeKind::kSource, node_index_[from.node],
          from.port};
}

void ReferenceExecutor::run(std::uint64_t cycles) {
  if (!checked_) {
    for (const auto& p : procs_) {
      LIPLIB_EXPECT(p.pearl != nullptr,
                    "process node " + topo_.node(p.node).name +
                        " has no pearl bound in the reference executor");
    }
    if (cycles == 0) return;
    for (auto& s : snks_) s.driver = driver_of({s.node, 0});
    for (auto& p : procs_) {
      for (std::size_t port = 0; port < p.in_scratch.size(); ++port) {
        p.in_driver.push_back(driver_of({p.node, port}));
      }
    }
    checked_ = true;
  }
  for (std::uint64_t i = 0; i < cycles; ++i) {
    // Observe: every sink records what its input wire carries this cycle.
    for (auto& s : snks_) s.stream.push_back(read(s.driver));
    // Fire: every pearl steps simultaneously on the current wire values.
    for (auto& p : procs_) {
      for (std::size_t port = 0; port < p.in_scratch.size(); ++port) {
        p.in_scratch[port] = read(p.in_driver[port]);
      }
      p.pearl->step(p.in_scratch, p.next_regs);
    }
    for (auto& p : procs_) p.regs = p.next_regs;
    ++cycle_;
  }
}

const std::vector<std::uint64_t>& ReferenceExecutor::sink_stream(
    graph::NodeId sink) const {
  LIPLIB_EXPECT(sink < topo_.nodes().size() &&
                    topo_.node(sink).kind == graph::NodeKind::kSink,
                "node is not a sink");
  return snks_[node_index_[sink]].stream;
}

}  // namespace liplib::lip
