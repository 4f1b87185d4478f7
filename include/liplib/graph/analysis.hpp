// liplib/graph/analysis.hpp
//
// Analytic performance model of latency-insensitive designs — the paper's
// closed-form results:
//   - trees:                    T = 1
//   - feedback loops:           T = S / (S + R)
//   - reconvergent feedforward: T = (m − i) / m
//   - general topologies:       the slowest subtopology dictates T
// plus a transient-length bound ("the transient length is related to the
// number of relay stations and shells, and can be predicted upfront").

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "liplib/graph/topology.hpp"
#include "liplib/support/rational.hpp"

namespace liplib::graph {

/// Throughput of a feedback loop with S shells and R relay stations:
/// at most S valid data circulate among S+R register positions.
Rational loop_throughput(std::size_t num_shells, std::size_t num_stations);

/// Throughput of a reconvergent feedforward pair per the paper's formula
/// T = (m − i)/m, where `i` is the relay-station imbalance between the
/// reconvergent branches and `m` the total relay stations in the implicit
/// loop plus the shells on the branch with the most relay stations.
Rational reconvergent_throughput(std::size_t m, std::size_t i);

/// One directed cycle through process nodes, with its register statistics.
struct CycleInfo {
  std::vector<NodeId> nodes;   ///< process nodes on the cycle, in order
  /// Hop channels, in order: channels[i] leaves nodes[i].
  std::vector<ChannelId> channels;
  std::size_t shells = 0;      ///< == nodes.size()
  std::size_t stations = 0;    ///< relay stations on the cycle's channels
  Rational throughput{1};      ///< shells / (shells + stations)
};

/// Enumerates simple directed cycles over process nodes (Johnson-style
/// DFS), up to `max_cycles`; throws ApiError when the budget is exceeded.
/// Each cycle is rooted at its smallest node id and channels are walked
/// in id order, so the order is deterministic.  Self-loops count.
/// Sources and sinks never lie on cycles.  When `keep` is given, only
/// the channels it accepts are walked.  The walk stays inside the root's
/// strongly connected component, so acyclic parts cost nothing.
std::vector<CycleInfo> enumerate_cycles(
    const Topology& topo, std::size_t max_cycles = 4096,
    const std::function<bool(ChannelId)>& keep = {});

/// One reconvergent fork/join pair in a feedforward topology, with the
/// paper's parameters.
struct ReconvergenceInfo {
  NodeId fork = 0;
  NodeId join = 0;
  /// Register statistics of the two extremal branches: relay stations on
  /// the lightest and heaviest (by station count) simple path fork→join.
  std::size_t min_stations = 0;
  std::size_t max_stations = 0;
  /// Shells strictly between fork and join on the heaviest path, plus the
  /// join shell itself (the paper counts "the shells on the path with the
  /// highest number of relay stations" as part of the implicit loop).
  std::size_t heavy_path_shells = 0;
  std::size_t i() const { return max_stations - min_stations; }
  std::size_t m() const {
    return min_stations + max_stations + heavy_path_shells;
  }
  Rational throughput() const {
    return reconvergent_throughput(m(), i());
  }
};

/// Scans a feedforward topology for fork/join pairs and computes the
/// paper's implicit-loop parameters for each.  Path enumeration is
/// budgeted by `max_paths` per pair (ApiError beyond it); the walk
/// visits only nodes that reach the join.
///
/// Accuracy note: the paper's closed form T = (m−i)/m is exact when the
/// heavier branch is uniformly pipelined (the whole Fig. 1 family and the
/// sweeps in bench_throughput_reconvergent) but only approximate for
/// irregular station distributions; exact_implicit_loop_bound() below is
/// exact in all cases (for the paper's variant protocol).
std::vector<ReconvergenceInfo> analyze_reconvergence(
    const Topology& topo, std::size_t max_paths = 4096);

/// One implicit loop: an ordered pair of interior-disjoint directed paths
/// between a fork and a join, one traversed forward (data) and one
/// backward (stops), with its exact throughput bound under the variant
/// protocol:
///
///   T = min(1, (tokens_fwd + slack_back) / (registers_fwd + stops_back))
///
/// where, over the forward path's channels, registers_fwd = Σ(stations+1)
/// (each channel's producer register plus its stations) and tokens_fwd =
/// #channels (every producer register is initialized valid); and over the
/// backward path's channels, slack_back = Σ(2·full + half) (empty
/// steady-state station capacity; interior shell registers hold live
/// tokens and contribute no slack) and stops_back = Σ full (each
/// registered stop adds one cycle to the loop; half stations and shells
/// are stop-transparent).  This generalizes the paper's (m−i)/m — the two
/// coincide on uniformly pipelined branches — and is validated cycle-
/// exactly against simulation in the test suite.
struct ImplicitLoopInfo {
  NodeId fork = 0;
  NodeId join = 0;
  std::size_t registers_fwd = 0;
  std::size_t tokens_fwd = 0;
  std::size_t slack_back = 0;
  std::size_t stops_back = 0;
  Rational throughput() const {
    const Rational t(
        static_cast<std::int64_t>(tokens_fwd + slack_back),
        static_cast<std::int64_t>(registers_fwd + stops_back));
    return t < Rational(1) ? t : Rational(1);
  }
};

/// Exact implicit-loop analysis (variant protocol): enumerates fork/join
/// pairs and interior-disjoint ordered path pairs, returning every
/// implicit loop found.  Budgeted like analyze_reconvergence.
std::vector<ImplicitLoopInfo> analyze_implicit_loops(
    const Topology& topo, std::size_t max_paths = 4096);

/// min over analyze_implicit_loops of the exact bound (1 when none).
Rational exact_implicit_loop_bound(const Topology& topo,
                                   std::size_t max_paths = 4096);

/// Full analytic prediction for a topology.
struct ThroughputPrediction {
  /// min over cycles of S/(S+R); 1 when the topology is feedforward.
  Rational cycle_bound{1};
  /// min over reconvergent pairs of (m−i)/m; 1 when none reconverge.
  /// Only computed for feedforward topologies (implicit loops interact
  /// with explicit loops in ways the closed form does not cover).
  Rational reconvergence_bound{1};
  /// min of the two — the paper's "slowest subtopology" rule.
  Rational system() const {
    return cycle_bound < reconvergence_bound ? cycle_bound
                                             : reconvergence_bound;
  }
  std::vector<CycleInfo> cycles;
  std::vector<ReconvergenceInfo> reconvergences;
};

/// Applies the paper's formulas to an arbitrary topology.
ThroughputPrediction predict_throughput(const Topology& topo);

/// A directed cycle whose backward stop path is fully combinational:
/// every relay station on it is a half station, so the stop wires close
/// a combinational loop (a latch) — the structural precondition of the
/// paper's "potential deadlock iff half relay stations are present in
/// loops".  One full station anywhere on the cycle grounds the latch.
struct StopCycleInfo {
  std::vector<NodeId> nodes;      ///< shells on the cycle
  std::size_t half_stations = 0;  ///< all stations on it are half
};

/// Enumerates the combinational stop cycles of a topology (budgeted like
/// enumerate_cycles).  Empty result == no latent stop latch anywhere ==
/// worst-case-occupancy screening is guaranteed live; the test suite
/// locks this equivalence against xir::screen_for_deadlock.
std::vector<StopCycleInfo> find_stop_cycles(const Topology& topo,
                                            std::size_t max_cycles = 4096);

/// Upper bound on the transient length: the number of cycles after which
/// the system is periodic.  Computed as the total number of register
/// positions (shell output registers + relay-station registers) times a
/// small safety factor for cyclic topologies; for trees this reduces to
/// (a bound on) the longest register path.  Measured transients in the
/// test suite must never exceed it.
std::uint64_t transient_bound(const Topology& topo);

/// Longest register path (shell output registers + stations) from any
/// source to any sink, following channels; the paper's tree-transient
/// figure ("the initial latency can be as much as the longest path").
/// Returns nullopt for cyclic topologies.
std::optional<std::uint64_t> longest_register_path(const Topology& topo);

}  // namespace liplib::graph
