// liplib/graph/mcr.hpp
//
// Exact throughput bounds as minimum cycle ratios of one constraint graph.
// Each channel is two edges: its data edge from -> to, with 1 token (the
// producer's initialized output register) and length 1 + stations, and
// its stop edge to -> from, with 2F + H tokens (the slack of its full and
// half stations) and length F (each full station registers the stop for
// a cycle; half stations and shells pass it on combinationally).  A
// cycle's tokens/length caps the rate data can go round it.  Over data
// edges alone the minimum is the paper's loop bound S/(S+R); over both it
// is the system bound, which adds the implicit loops of reconvergent
// paths (data forward on one branch, stops back on another) and every mix
// of loops and implicit loops: exact under the variant protocol, an upper
// bound under strict.  One solver (Howard's policy iteration, exact
// integer arithmetic) serves both.

#pragma once

#include <optional>
#include <string>
#include <vector>

#include "liplib/graph/topology.hpp"
#include "liplib/support/rational.hpp"

namespace liplib::graph {

/// One edge of the constraint graph: a channel's data edge (from -> to)
/// or its stop edge (to -> from).
struct Hop {
  ChannelId channel = 0;
  bool stop = false;
};

/// A minimum cycle ratio and one cycle that attains it.
struct CriticalCycle {
  /// The minimum ratio, capped at 1.
  Rational ratio{1};
  /// The critical cycle, hop by hop, empty when `ratio` is 1: the first
  /// such cycle in cycle-enumeration order (rooted at its smallest node,
  /// data edges by channel id before stop edges by channel id).
  std::vector<Hop> hops;
};

/// The loop bound: the minimum of S_C/(S_C + R_C) over directed cycles,
/// or nullopt when the topology is feedforward.  Its critical cycle is
/// the first slowest cycle enumerate_cycles() finds (the test suite locks
/// them together).
std::optional<CriticalCycle> min_cycle_ratio(const Topology& topo);

/// The system bound: the minimum cycle ratio over data and stop edges,
/// capped at 1.  Equals the steady-state throughput under the variant
/// protocol and bounds it from above under strict.
CriticalCycle throughput_bound(const Topology& topo);

/// The node a hop leaves.
NodeId hop_from(const Topology& topo, const Hop& hop);

/// A cycle's node names, data hops drawn "->" and stop hops "<-" (the
/// arrow keeps the channel's direction): "A -> B -> C <- A".
std::string hops_str(const Topology& topo, const std::vector<Hop>& hops);

}  // namespace liplib::graph
