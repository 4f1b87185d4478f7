// liplib/graph/topology.hpp
//
// Structural description of a latency-insensitive design: a directed graph
// of synchronous processes ("pearls", to be wrapped in shells), environment
// sources and sinks, and channels each carrying an ordered chain of relay
// stations (full or half).
//
// A Topology is purely structural — it knows nothing about data or about
// the protocol.  It is the single artifact shared by:
//   - lip::System        (full-data cycle-accurate simulation)
//   - xir engines        (valid/stop-only skeleton simulation)
//   - graph analyses     (throughput, transient bound, equalization)
//   - rtl elaboration    (event-driven RTL netlist)

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "liplib/support/check.hpp"

namespace liplib::graph {

/// Index of a node within a Topology.
using NodeId = std::size_t;

/// Index of a channel within a Topology.
using ChannelId = std::size_t;

/// Kind of a topology node.
enum class NodeKind {
  kProcess,  ///< a synchronous module, wrapped in a shell in the LID
  kSource,   ///< environment producer (primary input)
  kSink,     ///< environment consumer (primary output)
};

/// Kind of relay station on a channel.
enum class RsKind {
  kFull,  ///< two registers, registered stop (classic skid buffer)
  kHalf,  ///< one register, combinational stop gating (the paper's novelty)
};

/// Reference to an output port of a node.
struct OutRef {
  NodeId node = 0;
  std::size_t port = 0;
};

/// Reference to an input port of a node.
struct InRef {
  NodeId node = 0;
  std::size_t port = 0;
};

/// One node of the topology.
struct Node {
  std::string name;
  NodeKind kind = NodeKind::kProcess;
  std::size_t num_inputs = 0;
  std::size_t num_outputs = 0;
};

/// One channel: a point-to-point connection from an output port to an
/// input port, traversing `stations` relay stations in order (the first
/// element is the station closest to the producer).
struct Channel {
  OutRef from;
  InRef to;
  std::vector<RsKind> stations;

  std::size_t num_stations() const { return stations.size(); }
  std::size_t num_full() const;
  std::size_t num_half() const;
};

/// Structural problems found by Topology::validate().
struct ValidationIssue {
  enum class Severity { kError, kWarning };
  Severity severity = Severity::kError;
  std::string message;
};

/// Result of Topology::validate().
struct ValidationReport {
  std::vector<ValidationIssue> issues;

  bool ok() const {
    for (const auto& i : issues) {
      if (i.severity == ValidationIssue::Severity::kError) return false;
    }
    return true;
  }
  std::string to_string() const;
};

/// A latency-insensitive design's structure.
///
/// Builder usage:
///   Topology t;
///   NodeId src = t.add_source("src");
///   NodeId a = t.add_process("A", 1, 1);
///   NodeId out = t.add_sink("out");
///   t.connect({src, 0}, {a, 0}, {RsKind::kFull});
///   t.connect({a, 0}, {out, 0}, {RsKind::kFull});
///   auto report = t.validate();
class Topology {
 public:
  /// Adds a synchronous process node with the given port arity.
  NodeId add_process(std::string name, std::size_t num_inputs,
                     std::size_t num_outputs);

  /// Adds an environment source (one output port, no inputs).
  NodeId add_source(std::string name);

  /// Adds an environment sink (one input port, no outputs).
  NodeId add_sink(std::string name);

  /// Connects an output port to an input port through the given relay
  /// station chain.  An output port may drive several channels (fanout);
  /// an input port accepts exactly one channel.
  ChannelId connect(OutRef from, InRef to, std::vector<RsKind> stations = {});

  /// Convenience: connect through `n` full relay stations.
  ChannelId connect_full(OutRef from, InRef to, std::size_t n) {
    return connect(from, to, std::vector<RsKind>(n, RsKind::kFull));
  }

  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<Channel>& channels() const { return channels_; }
  const Node& node(NodeId id) const { return nodes_.at(id); }
  const Channel& channel(ChannelId id) const { return channels_.at(id); }
  /// A channel's relay stations, the one part of a channel that may
  /// change after connect (its endpoints key both port indexes).
  std::vector<RsKind>& stations_mut(ChannelId id) {
    return channels_.at(id).stations;
  }

  /// Channels leaving any output port of `n`, in channel-id order: the
  /// adjacency every graph walk reads.
  const std::vector<ChannelId>& channels_from(NodeId n) const {
    return out_channels_.at(n);
  }
  /// Channels entering `n`, in input-port order (undriven ports skipped).
  std::vector<ChannelId> channels_into(NodeId n) const;
  /// The unique channel driving this input port, if connected.
  std::optional<ChannelId> channel_into(InRef in) const;
  /// Channels driven by this output port (fanout set), in channel-id
  /// order.
  std::vector<ChannelId> channels_of(OutRef out) const;

  /// Totals over all channels.
  std::size_t total_stations() const;
  std::size_t total_full_stations() const;
  std::size_t total_half_stations() const;
  std::size_t num_processes() const;
  std::size_t num_sources() const;
  std::size_t num_sinks() const;

  /// Structural checks:
  ///  errors   — unconnected input port, input port driven twice,
  ///             out-of-range port references;
  ///  errors   — a process→process channel with no relay station
  ///             (the paper: >= 1 memory element between two shells);
  ///             demoted to nothing when `require_station_between_shells`
  ///             is false (shells with input queues — the Carloni-style
  ///             baseline — provide the memory element themselves);
  ///  warnings — half relay stations on channels that lie on a cycle
  ///             (potential deadlock, paper §liveness);
  ///  warnings — source→sink channels (degenerate).
  ValidationReport validate(bool require_station_between_shells = true) const;

  /// True if the process/channel graph (ignoring sources and sinks) has
  /// no directed cycle — the "feed-forward (possibly reconvergent)" class.
  bool is_feedforward() const {
    return topological_order().size() == nodes_.size();
  }

  /// Kahn order of the nodes: the nodes with no driven input by id, then
  /// each node's successors as their last input channel is consumed, in
  /// channel-id order.  Shorter than nodes() iff the graph has a cycle.
  std::vector<NodeId> topological_order() const;

  /// Node ids of every directed cycle's channel set is expensive to
  /// enumerate in general; this returns, per channel, whether it lies on
  /// some directed cycle (computed via strongly connected components).
  std::vector<bool> channels_on_cycles() const;

  /// Strongly connected components of the node graph (sources and sinks
  /// land in singletons), restricted to the channels `keep` accepts when
  /// it is given; each inner vector is one SCC with >= 1 node.
  /// Components are listed in reverse topological order.  The one SCC
  /// routine: channels_on_cycles, enumerate_cycles and lint's stop-cycle
  /// rule run on it.
  std::vector<std::vector<NodeId>> process_sccs(
      const std::function<bool(ChannelId)>& keep = {}) const;

  /// Graphviz dot rendering (relay stations drawn as boxes on edges).
  std::string to_dot() const;

 private:
  static constexpr ChannelId kUndriven = ~ChannelId{0};

  NodeId add_node(Node node);
  void check_out(OutRef r) const;
  void check_in(InRef r) const;

  std::vector<Node> nodes_;
  std::vector<Channel> channels_;
  /// Input port p of node n is driven by channel
  /// in_channel_[in_begin_[n] + p] (kUndriven until connect): one flat
  /// index, so connect and channel_into need no channel scan.
  std::vector<std::size_t> in_begin_;
  std::vector<ChannelId> in_channel_;
  /// out_channels_[n]: the channels leaving node n, appended by connect.
  std::vector<std::vector<ChannelId>> out_channels_;
};

}  // namespace liplib::graph
