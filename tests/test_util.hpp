// Shared helpers for the liplib test suite.

#pragma once

#include <memory>
#include <ostream>

#include "liplib/graph/generators.hpp"
#include "liplib/lip/design.hpp"
#include "liplib/lip/steady_state.hpp"
#include "liplib/pearls/design_io.hpp"
#include "liplib/pearls/pearls.hpp"

namespace liplib::testutil {

/// Default pearl for a node arity: identity (1→1), adder (2→1),
/// fork (1→2), butterfly (2→2), generator (0→1) — the netlist default,
/// pearls::pearl_from_spec with no spec.
inline std::unique_ptr<lip::Pearl> default_pearl(std::size_t num_in,
                                                 std::size_t num_out) {
  return pearls::pearl_from_spec("", num_in, num_out);
}

/// Wraps a topology into a Design with default pearls bound to every
/// process node (counter sources and greedy sinks, the defaults).
inline lip::Design make_design(graph::Topology topo) {
  lip::Design d(std::move(topo));
  const auto& t = d.topology();
  for (graph::NodeId v = 0; v < t.nodes().size(); ++v) {
    const auto& node = t.node(v);
    if (node.kind != graph::NodeKind::kProcess) continue;
    d.set_pearl(v, default_pearl(node.num_inputs, node.num_outputs));
  }
  return d;
}

inline lip::Design make_design(graph::Generated g) {
  return make_design(std::move(g.topo));
}

}  // namespace liplib::testutil

namespace liplib::lip {

/// gtest's printer for whole-result comparisons of steady states.
inline void PrintTo(const SteadyState& s, std::ostream* os) {
  *os << "{found " << s.found << ", transient " << s.transient
      << ", period " << s.period << ", cycles " << s.cycles << ", T";
  for (std::size_t i = 0; i < s.shell_throughput.size(); ++i) {
    *os << (i ? " " : " [") << s.shell_ids[i] << ":"
        << s.shell_throughput[i].str();
  }
  *os << (s.shell_throughput.empty() ? "" : "]") << ", deadlocked "
      << s.deadlocked << ", starved " << s.has_starved_shell << "}";
}

}  // namespace liplib::lip
