// Lint driver: rule catalog, fix-it application, the lint-fix fixed
// point, and the adapter backing the legacy ValidationReport shape.

#include <algorithm>
#include <vector>

#include "liplib/lint/lint.hpp"

namespace liplib::lint {

const std::vector<RuleInfo>& rule_catalog() {
  static const std::vector<RuleInfo> kCatalog = {
      {"LIP001", "dangling-port", Severity::kError, false,
       "every input port must be driven and every output port must drive "
       "at least one channel",
       "structural precondition of the shell encapsulation (paper, "
       "section 3)"},
      {"LIP002", "fanout-overflow", Severity::kError, false,
       "an output port may drive at most 32 branches (the protocol "
       "engines track pending consumers in a 32-bit mask)",
       "implementation limit of the relay-station fanout logic"},
      {"LIP003", "missing-relay-station", Severity::kError, true,
       "a shell-to-shell channel needs at least one relay station; the "
       "stop signal cannot back-propagate combinationally through "
       "stop-transparent shells",
       "paper, section 4: at least one memory element between two shells"},
      {"LIP004", "source-to-sink", Severity::kWarning, false,
       "a channel from an environment source straight to a sink is "
       "degenerate",
       "structural sanity check"},
      {"LIP005", "half-station-on-cycle", Severity::kInfo, true,
       "a half relay station on a directed cycle is the paper's coarse "
       "deadlock cue; LIP006 refines it to an exact verdict",
       "paper, section 5: half relay stations are safe everywhere except "
       "on loops"},
      {"LIP006", "combinational-stop-cycle", Severity::kError, true,
       "a directed cycle whose stations are all half has an unregistered "
       "stop path (a latent stop latch); classified reset-reachable vs "
       "worst-case-reachable by token conservation",
       "paper, section 5a: a cycle of S shells conserves S tokens among "
       "S+H register positions, so the latch closes from reset only when "
       "the cycle has no station slack"},
      {"LIP007", "reconvergence-imbalance", Severity::kInfo, true,
       "an implicit loop (data forward, stops back) caps T below the loop "
       "bound; the fix-it is the equalization plan (feedforward designs)",
       "paper, section 6: reconvergent feedforward throughput"},
      {"LIP008", "slowest-cycle-bottleneck", Severity::kInfo, false,
       "the slowest feedback loop bounds system throughput at "
       "T = S/(S+R) (exact min cycle ratio)",
       "paper, section 6: the slowest subtopology dictates T"},
      {"LIP009", "transient-bound", Severity::kInfo, false,
       "steady state is reached within a bound predictable from register "
       "counts alone",
       "paper, section 6: the transient length can be predicted upfront"},
  };
  return kCatalog;
}

std::size_t apply_fixits(graph::Topology& topo, const Report& report) {
  std::vector<FixIt> seen;
  std::size_t edits = 0;
  for (const auto& d : report.diagnostics) {
    for (const auto& f : d.fixits) {
      if (std::find(seen.begin(), seen.end(), f) != seen.end()) continue;
      seen.push_back(f);
      if (f.channel >= topo.channels().size()) continue;
      auto& stations = topo.stations_mut(f.channel);
      switch (f.kind) {
        case FixIt::Kind::kInsertStation:
          if (f.index > stations.size()) break;  // stale edit
          stations.insert(stations.begin() +
                              static_cast<std::ptrdiff_t>(f.index),
                          f.count, f.station);
          edits += f.count;
          break;
        case FixIt::Kind::kSubstituteStation:
          if (f.index >= stations.size()) break;          // stale edit
          if (stations[f.index] == f.station) break;      // already applied
          stations[f.index] = f.station;
          edits += 1;
          break;
        case FixIt::Kind::kAppendStations:
          stations.insert(stations.end(), f.count, f.station);
          edits += f.count;
          break;
      }
    }
  }
  return edits;
}

FixResult lint_and_fix(const graph::Topology& topo, const Options& options) {
  // Each iteration either applies at least one station edit or stops, and
  // every curable finding disappears once its edit lands (LIP003 inserts
  // the missing station, LIP006 substitutions shrink the stop-transparent
  // channel set, LIP007 plans are recomputed from the edited topology),
  // so the loop reaches a fixed point; the iteration cap is a backstop.
  constexpr std::size_t kMaxIterations = 64;
  FixResult result;
  result.fixed = topo;
  result.report = run_lint(result.fixed, options);
  while (result.iterations < kMaxIterations &&
         result.report.num_fixits() > 0) {
    const std::size_t applied = apply_fixits(result.fixed, result.report);
    ++result.iterations;
    result.applied += applied;
    result.report = run_lint(result.fixed, options);
    if (applied == 0) break;  // every remaining fix-it was stale
  }
  return result;
}

graph::ValidationReport to_validation_report(const Report& report) {
  graph::ValidationReport out;
  out.issues.reserve(report.diagnostics.size());
  for (const auto& d : report.diagnostics) {
    out.issues.push_back({d.severity == Severity::kError
                              ? graph::ValidationIssue::Severity::kError
                              : graph::ValidationIssue::Severity::kWarning,
                          d.message});
  }
  return out;
}

}  // namespace liplib::lint
