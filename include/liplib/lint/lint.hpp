// liplib/lint/lint.hpp
//
// The static protocol analyzer: a pass framework over graph::Topology
// that turns the paper's structural correctness results into first-class
// machine-readable diagnostics, checked *before* any simulation runs:
//
//   LIP001  dangling port             (error)    undriven input / unread output
//   LIP002  fanout beyond 32         (error)    protocol engines track pending
//                                               consumers in a 32-bit mask
//   LIP003  missing relay station    (error)    shell->shell channel with no
//                                               memory element; fix-it: insert
//                                               one half station
//   LIP004  source feeds sink        (warning)  degenerate channel
//   LIP005  half station on a cycle  (info)     the paper's coarse hazard cue,
//                                               refined by LIP006
//   LIP006  combinational stop cycle (warning / error)  a directed cycle whose
//             stop path has no registered station: a latent stop latch.
//             Classified by token conservation (paper §liveness): from reset a
//             cycle of S shells and H half-station slots holds exactly S of
//             S+H tokens, so the latch is reset-unreachable when H >= 1
//             (warning: reachable only under worst-case occupancy) and
//             reset-reachable when the cycle has no station slack at all
//             (error).  Fix-it: substitute one half station with a full one.
//   LIP007  reconvergence imbalance  (info)     predicted T = (m-i)/m < 1;
//                                               fix-it: equalization plan
//   LIP008  slowest cycle bottleneck (info)     loop bound via the exact MCR
//   LIP009  transient bound          (info)     predictable-upfront transient
//
// The dynamic screening these rules replace (xir::screen_for_deadlock
// under worst-case occupancy) is locked against LIP006 by the test suite
// and by campaign::make_lint_crosscheck_campaign: on randomized topologies
// the static hazard verdict must agree with the simulator exactly.

#pragma once

#include <string>
#include <vector>

#include "liplib/graph/topology.hpp"
#include "liplib/lint/diagnostic.hpp"

namespace liplib::lint {

/// Lint configuration.
struct Options {
  /// Enforce LIP003 (a shell->shell channel needs >= 1 memory element).
  /// Off for Carloni-style input-queued shells, which provide the memory
  /// element themselves (mirrors Topology::validate's parameter).
  bool require_station_between_shells = true;
  /// Run only the structural rules LIP001..LIP006 (every rule that is
  /// polynomial and has no analysis budget).  This subset backs
  /// Topology::validate().
  bool structural_only = false;
  /// Rule ids to skip entirely (e.g. {"LIP009"}).
  std::vector<std::string> disabled_rules;
};

/// Catalog entry for one rule (docs/lint.md is generated from this).
struct RuleInfo {
  const char* id;        ///< "LIP001"
  const char* name;      ///< short kebab-case name
  Severity severity;     ///< default / maximum severity
  bool has_fixit;        ///< the rule can emit machine-applicable fix-its
  const char* summary;   ///< one-line description
  const char* citation;  ///< the paper result behind the rule
};

/// The full rule catalog in id order.
const std::vector<RuleInfo>& rule_catalog();

/// Runs every enabled pass over `topo` and returns the findings, ordered
/// by rule id, then by locus.  Deterministic.
Report run_lint(const graph::Topology& topo, const Options& options = {});

/// Applies the report's fix-its to `topo` (deduplicated; edits that no
/// longer apply — e.g. a station already substituted — are skipped).
/// Returns the number of station edits performed.
std::size_t apply_fixits(graph::Topology& topo, const Report& report);

/// Result of the lint-fix loop.
struct FixResult {
  graph::Topology fixed;   ///< the cured topology
  Report report;           ///< lint report of `fixed`
  std::size_t applied = 0; ///< total station edits across iterations
  std::size_t iterations = 0;
};

/// Iterates run_lint + apply_fixits until no fix-it applies (each
/// iteration strictly reduces the number of curable findings, so the
/// loop terminates).  The fixed-point report is returned alongside the
/// cured topology; `lidtool lint --fix` is this function.
FixResult lint_and_fix(const graph::Topology& topo,
                       const Options& options = {});

/// Converts a lint report into the legacy ValidationReport shape
/// (Topology::validate is implemented on top of this): errors map to
/// errors, everything else to warnings.
graph::ValidationReport to_validation_report(const Report& report);

}  // namespace liplib::lint
