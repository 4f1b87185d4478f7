// liplib/flow/design_flow.hpp
//
// The end-to-end latency-insensitive design flow the paper implies, as
// one call:
//
//   1. structural validation (station rule, half-RS-on-loop warnings);
//   2. wire-length-driven relay station planning (half off-cycle, full
//      on-cycle);
//   3. skeleton deadlock screening, from reset and under worst-case
//      occupancy, with the substitution cure when a latch is found;
//   4. path equalization (feed-forward designs);
//   5. analytic performance sign-off: loop bound (exact MCR), implicit-
//      loop bound (exact model), paper formulas, transient bound.
//
// The result carries the finished topology plus a human-readable report,
// so a caller can go from a bare structural netlist to a performance-
// signed-off LID in one step (see lidtool's `flow` command).

#pragma once

#include <optional>
#include <string>
#include <vector>

#include "liplib/graph/topology.hpp"
#include "liplib/graph/wire_plan.hpp"
#include "liplib/lint/lint.hpp"
#include "liplib/support/rational.hpp"

namespace liplib::flow {

/// Inputs to the flow.
struct FlowOptions {
  /// Per-channel wire lengths; empty = keep the topology's stations as
  /// given (skip the planning step).
  std::vector<double> wire_lengths;
  graph::WirePlanOptions wire;
};

/// Everything the flow decided and proved.
struct FlowResult {
  graph::Topology topology;  ///< the finished design

  bool ok = false;  ///< structure valid, screened live (after cure)
  std::vector<std::string> log;  ///< one line per flow step

  // Step outcomes.
  /// Full lint report (all rules): of the input when validation fails or
  /// the flow aborts early, of the finished topology otherwise.
  lint::Report lint;
  /// Structural subset of `lint` in the legacy shape (gates the flow).
  graph::ValidationReport validation;
  std::size_t stations_inserted = 0;
  std::size_t spare_inserted = 0;
  std::size_t cure_substitutions = 0;
  bool deadlock_from_reset = false;
  bool latch_found = false;
  bool latch_cured = false;

  // Performance sign-off.
  std::optional<Rational> loop_bound;       ///< exact MCR (cyclic only)
  Rational implicit_loop_bound{1};          ///< exact reconvergence model
  Rational predicted_throughput{1};         ///< min of the two
  std::uint64_t transient_bound = 0;
  std::uint64_t measured_transient = 0;     ///< from skeleton screening
  Rational measured_throughput{0};          ///< from skeleton screening

  std::string summary() const;
};

/// Runs the flow on a copy of `topo`.
FlowResult run_design_flow(const graph::Topology& topo,
                           const FlowOptions& options = {});

}  // namespace liplib::flow
