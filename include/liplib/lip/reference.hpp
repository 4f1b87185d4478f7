// liplib/lip/reference.hpp
//
// The zero-latency reference executor: runs the *original* synchronous
// system — the same pearls, connected directly, with relay stations
// treated as ideal zero-delay wires and every module firing every cycle.
//
// The defining property of a latency-insensitive design (the paper's
// safety definition) is that any composition of shells and relay stations
// behaves "exactly as an equally connected system without shells and
// non-pipelined connections": the sequence of *valid* data observed on any
// LID channel must equal the sequence of data the reference system
// produces on the corresponding wire.  This executor produces those golden
// streams.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "liplib/graph/topology.hpp"
#include "liplib/lip/pearl.hpp"
#include "liplib/support/check.hpp"

namespace liplib::lip {

/// Executes the ideal (zero-delay interconnect) version of a topology.
class ReferenceExecutor {
 public:
  explicit ReferenceExecutor(const graph::Topology& topo);

  /// Binds a fresh pearl for a process node (must be in its reset state).
  void bind_pearl(graph::NodeId node, std::unique_ptr<Pearl> pearl);

  /// Binds the data stream of a source: value(k) is the k-th datum.
  /// In the reference run the source produces one datum per cycle.
  void bind_source_values(graph::NodeId node,
                          std::function<std::uint64_t(std::uint64_t)> value);

  /// Runs `cycles` cycles.  Every cycle each sink records the datum on
  /// its input wire and then every pearl fires simultaneously.  The first
  /// run of at least one cycle resolves the driver of every sink and
  /// pearl input once.
  void run(std::uint64_t cycles);

  /// Golden stream observed by a sink so far (one datum per cycle run).
  const std::vector<std::uint64_t>& sink_stream(graph::NodeId sink) const;

  std::uint64_t cycle() const { return cycle_; }

 private:
  /// The driver of a wire: output register `port` of process `index`, or
  /// source `index`.
  struct Driver {
    bool source = false;
    std::size_t index = 0;
    std::size_t port = 0;
  };
  struct Proc {
    graph::NodeId node = 0;
    std::unique_ptr<Pearl> pearl;
    std::vector<std::uint64_t> regs;      // current output registers
    std::vector<std::uint64_t> next_regs;
    std::vector<std::uint64_t> in_scratch;
    std::vector<Driver> in_driver;        // one per input port
  };
  struct Src {
    graph::NodeId node = 0;
    std::function<std::uint64_t(std::uint64_t)> value;
  };
  struct Snk {
    graph::NodeId node = 0;
    Driver driver;
    std::vector<std::uint64_t> stream;
  };

  Driver driver_of(graph::InRef in) const;
  std::uint64_t read(const Driver& d) const {
    return d.source ? srcs_[d.index].value(cycle_)
                    : procs_[d.index].regs[d.port];
  }

  graph::Topology topo_;
  std::vector<Proc> procs_;
  std::vector<Src> srcs_;
  std::vector<Snk> snks_;
  std::vector<std::size_t> node_index_;
  std::uint64_t cycle_ = 0;
  bool checked_ = false;
};

}  // namespace liplib::lip
