// liplib/graph/analysis.hpp
//
// Analytic performance model of latency-insensitive designs — the paper's
// closed-form results:
//   - trees:                    T = 1
//   - feedback loops:           T = S / (S + R)
//   - reconvergent feedforward: T = (m − i) / m
//   - general topologies:       the slowest subtopology dictates T
//                               (exactly: throughput_bound in mcr.hpp)
// plus a transient-length bound ("the transient length is related to the
// number of relay stations and shells, and can be predicted upfront").

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "liplib/graph/mcr.hpp"
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

/// The most node and channel ids enumerate_cycles holds (32 MiB): one
/// cycle can be as long as the design, so a cycle count alone does not
/// bound the walk's memory.
inline constexpr std::size_t kCycleIdBudget = std::size_t{1} << 22;

/// Enumerates simple directed cycles over process nodes, up to
/// `max_cycles` holding at most kCycleIdBudget node and channel ids;
/// throws ApiError when either budget is exceeded.  Each cycle
/// is rooted at its smallest node id and channels are walked in id order,
/// so the order is deterministic.  Self-loops count.  Sources and sinks
/// never lie on cycles.  When `keep` is given, only the channels it
/// accepts are walked.  The walk keeps an explicit stack (no recursion,
/// whatever the cycle length), and a root's walk enters only the nodes
/// of its strongly connected component above the root that reach it,
/// found by one reverse search over the input index, so a node on no
/// cycle costs a look at its channels, whatever the declaration order.
std::vector<CycleInfo> enumerate_cycles(
    const Topology& topo, std::size_t max_cycles = 4096,
    const std::function<bool(ChannelId)>& keep = {});

/// One reconvergent fork/join pair in a feedforward topology, with the
/// paper's parameters.
struct ReconvergenceInfo {
  NodeId fork = 0;
  NodeId join = 0;
  /// Register statistics of the two extremal branches: relay stations on
  /// the lightest and heaviest (by station count) path fork→join.
  std::size_t min_stations = 0;
  std::size_t max_stations = 0;
  /// Shells strictly between fork and join on the heaviest path, plus the
  /// join shell itself (the paper counts "the shells on the path with the
  /// highest number of relay stations" as part of the implicit loop); the
  /// most such shells among the heaviest paths.
  std::size_t heavy_path_shells = 0;
  std::size_t i() const { return max_stations - min_stations; }
  std::size_t m() const {
    return min_stations + max_stations + heavy_path_shells;
  }
  Rational throughput() const {
    return reconvergent_throughput(m(), i());
  }
};

/// The paper's implicit-loop parameters of every fork/join pair joined by
/// two or more paths, in (fork, join) id order (a fork: two or more
/// outgoing channels; a join: a process with two or more driven inputs),
/// from one shortest/longest-path pass over Topology::topological_order
/// per fork that reaches a join; empty on a cyclic topology.
///
/// Accuracy note: the paper's closed form T = (m−i)/m is exact when the
/// heavier branch is uniformly pipelined (the whole Fig. 1 family and the
/// sweeps in bench_throughput_reconvergent) but only approximate for
/// irregular station distributions; throughput_bound() (mcr.hpp) is exact
/// in all cases (for the paper's variant protocol).
std::vector<ReconvergenceInfo> analyze_reconvergence(const Topology& topo);

/// Same as throughput_bound(topo).ratio.  Kept only for perfbench's
/// screen check, the one caller; it goes with the next change there.
inline Rational exact_implicit_loop_bound(const Topology& topo) {
  return throughput_bound(topo).ratio;
}

/// The paper's closed-form prediction for a topology.
struct ThroughputPrediction {
  /// min over cycles of S/(S+R) (min_cycle_ratio); 1 when the topology is
  /// feedforward.
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
