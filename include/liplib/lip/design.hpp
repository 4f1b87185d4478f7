// liplib/lip/design.hpp
//
// A Design bundles a topology with its functional content (pearls) and its
// environment (source/sink behaviours), and can instantiate any number of
// independent executions of it: latency-insensitive Systems under either
// stop policy, or the zero-latency ReferenceExecutor.  This is the
// top-level entry point of the library; see examples/quickstart.cpp.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "liplib/graph/topology.hpp"
#include "liplib/lip/environment.hpp"
#include "liplib/lip/pearl.hpp"
#include "liplib/lip/reference.hpp"
#include "liplib/lip/system.hpp"

namespace liplib::lip {

/// Topology + pearls + environment, instantiable many times.
class Design {
 public:
  explicit Design(graph::Topology topo) : topo_(std::move(topo)) {}

  const graph::Topology& topology() const { return topo_; }

  /// Assigns the functional pearl of a process node.  The stored pearl is
  /// only used as a prototype: every instantiation receives a fresh
  /// clone_reset() copy.
  void set_pearl(graph::NodeId node, std::unique_ptr<Pearl> pearl) {
    LIPLIB_EXPECT(node < topo_.nodes().size() &&
                      topo_.node(node).kind == graph::NodeKind::kProcess,
                  "set_pearl target is not a process node");
    pearls_[node] = std::move(pearl);
  }

  /// Assigns the behaviour of a source node (default: counter stream).
  void set_source(graph::NodeId node, SourceBehavior behavior) {
    sources_[node] = std::move(behavior);
  }

  /// Assigns the behaviour of a sink node (default: greedy consumer).
  void set_sink(graph::NodeId node, SinkBehavior behavior) {
    sinks_[node] = std::move(behavior);
  }

  /// Builds a latency-insensitive execution of this design.
  std::unique_ptr<System> instantiate(System::Options opts = {}) const {
    auto sys = std::make_unique<System>(topo_, opts);
    for (const auto& [node, pearl] : pearls_) {
      sys->bind_pearl(node, pearl->clone_reset());
    }
    for (const auto& [node, beh] : sources_) sys->bind_source(node, beh);
    for (const auto& [node, beh] : sinks_) sys->bind_sink(node, beh);
    sys->finalize();
    return sys;
  }

  /// Builds the zero-latency reference execution of this design.  Source
  /// gaps and sink back pressure do not exist in the reference; only the
  /// data streams matter.
  std::unique_ptr<ReferenceExecutor> instantiate_reference() const {
    auto ref = std::make_unique<ReferenceExecutor>(topo_);
    for (const auto& [node, pearl] : pearls_) {
      ref->bind_pearl(node, pearl->clone_reset());
    }
    for (const auto& [node, beh] : sources_) {
      ref->bind_source_values(node, beh.value);
    }
    return ref;
  }

 private:
  graph::Topology topo_;
  std::map<graph::NodeId, std::unique_ptr<Pearl>> pearls_;
  std::map<graph::NodeId, SourceBehavior> sources_;
  std::map<graph::NodeId, SinkBehavior> sinks_;
};

/// Result of a latency-equivalence check.
struct EquivalenceReport {
  bool ok = false;
  /// Total valid tokens compared across all sinks.
  std::uint64_t tokens_checked = 0;
  /// Human-readable mismatch description when !ok.
  std::string detail;
};

/// The paper's safety definition, checked dynamically: runs the LID for
/// `lid_cycles`, runs the reference for as many cycles as the longest LID
/// sink stream has tokens (it produces one datum per sink per cycle), and
/// verifies that every sink's valid token sequence is a prefix of the
/// reference stream on the same wire.  Any policy, any relay-station mix,
/// any environment must pass.
EquivalenceReport check_latency_equivalence(const Design& design,
                                            System::Options opts,
                                            std::uint64_t lid_cycles);

}  // namespace liplib::lip
