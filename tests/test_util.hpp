// Shared helpers for the liplib test suite.

#pragma once

#include <memory>

#include "liplib/graph/generators.hpp"
#include "liplib/lip/design.hpp"
#include "liplib/pearls/pearls.hpp"

namespace liplib::testutil {

/// Default pearl for a node arity: identity (1→1), adder (2→1),
/// fork (1→2), butterfly (2→2), generator (0→1).
inline std::unique_ptr<lip::Pearl> default_pearl(std::size_t num_in,
                                                 std::size_t num_out) {
  if (num_in == 1 && num_out == 1) return pearls::make_identity();
  if (num_in == 2 && num_out == 1) return pearls::make_adder();
  if (num_in == 1 && num_out == 2) return pearls::make_fork2();
  if (num_in == 2 && num_out == 2) return pearls::make_butterfly();
  if (num_in == 0 && num_out == 1) return pearls::make_generator(0, 1);
  throw ApiError("no default pearl for arity " + std::to_string(num_in) +
                 "->" + std::to_string(num_out));
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
