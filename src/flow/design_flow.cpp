#include "liplib/flow/design_flow.hpp"

#include <sstream>

#include "liplib/graph/analysis.hpp"
#include "liplib/graph/equalize.hpp"
#include "liplib/graph/mcr.hpp"
#include "liplib/lint/lint.hpp"
#include "liplib/skeleton/skeleton.hpp"
#include "liplib/xir/xir.hpp"

namespace liplib::flow {

std::string FlowResult::summary() const {
  std::ostringstream os;
  for (const auto& line : log) os << line << '\n';
  return os.str();
}

FlowResult run_design_flow(const graph::Topology& topo,
                           const FlowOptions& options) {
  FlowResult r;
  r.topology = topo;
  auto say = [&](std::string line) { r.log.push_back(std::move(line)); };

  // 1. Validation via the lint engine (station rule only enforced when
  //    we are not about to insert stations ourselves).  The flow gates on
  //    the structural rules; the performance rules become log notes.
  const bool planning = !options.wire_lengths.empty();
  lint::Options lint_options;
  lint_options.require_station_between_shells = !planning;
  r.lint = lint::run_lint(r.topology, lint_options);
  lint::Report structural;
  for (const auto& d : r.lint.diagnostics) {
    if (d.rule <= "LIP006") structural.diagnostics.push_back(d);
  }
  r.validation = lint::to_validation_report(structural);
  if (!r.validation.ok()) {
    say("validation FAILED:");
    for (const auto& issue : r.validation.issues) {
      say("  " + issue.message);
    }
    return r;
  }
  say("validation: ok (" +
      std::to_string(r.lint.count(lint::Severity::kWarning)) +
      " warning(s), " + std::to_string(r.lint.count(lint::Severity::kInfo)) +
      " note(s))");

  // 2. Wire planning.
  if (planning) {
    graph::WirePlanOptions wire = options.wire;
    wire.equalize = false;  // equalization runs as an explicit step below
    const auto plan =
        graph::plan_wire_pipelining(r.topology, options.wire_lengths, wire);
    r.stations_inserted = plan.stations_inserted;
    say("wire planning: inserted " + std::to_string(plan.stations_inserted) +
        " stations (" + std::to_string(r.topology.total_full_stations()) +
        " full, " + std::to_string(r.topology.total_half_stations()) +
        " half)");
  }
  const bool equalize_now = options.wire.equalize;

  // 2b. Static latch check (structural counterpart of worst-case
  //     screening): LIP006 on the planned topology.
  {
    lint::Options structural_options;
    structural_options.structural_only = true;
    const auto planned = lint::run_lint(r.topology, structural_options);
    say("static stop-cycle check: " +
        std::to_string(planned.count_rule("LIP006")) +
        " combinational stop cycle(s)");
  }

  // 3. Screening (reset + worst case), with cure.
  {
    skeleton::ScreeningOptions reset_opts;
    const auto reset = xir::screen_for_deadlock(r.topology, reset_opts,
                                                options.screen_budget);
    r.deadlock_from_reset = reset.deadlock_found();
    r.measured_transient = reset.transient;
    r.measured_throughput = reset.system_throughput();
    say("screening from reset: " +
        std::string(reset.deadlock_found() ? "DEADLOCK" : "live") + ", T = " +
        reset.system_throughput().str() + " (transient " +
        std::to_string(reset.transient) + ", period " +
        std::to_string(reset.period) + ")");
    if (reset.deadlock_found()) return r;

    if (options.worst_case_screening) {
      skeleton::ScreeningOptions wc;
      wc.worst_case_occupancy = true;
      const auto worst =
          xir::screen_for_deadlock(r.topology, wc, options.screen_budget);
      r.latch_found = worst.deadlock_found();
      if (worst.deadlock_found()) {
        say("worst-case screening: stop latch found");
        if (options.cure) {
          const auto cure =
              xir::cure_deadlocks(r.topology, wc, options.screen_budget);
          r.cure_substitutions = cure.substitutions;
          r.latch_cured = cure.success;
          if (!cure.success) {
            say("cure FAILED");
            return r;
          }
          r.topology = cure.cured;
          say("cure: " + std::to_string(cure.substitutions) +
              " half->full substitution(s)");
        } else {
          say("cure disabled; design left with a latent latch");
          return r;
        }
      } else {
        say("worst-case screening: live");
      }
    }
  }

  // 4. Equalization.
  if (equalize_now && r.topology.is_feedforward()) {
    r.spare_inserted = graph::equalize_paths(r.topology);
    say("equalization: " + std::to_string(r.spare_inserted) +
        " spare station(s)");
  }

  // 5. Analytic sign-off.
  r.loop_bound = graph::min_cycle_ratio(r.topology);
  r.implicit_loop_bound = graph::exact_implicit_loop_bound(r.topology);
  r.predicted_throughput = r.implicit_loop_bound;
  if (r.loop_bound && *r.loop_bound < r.predicted_throughput) {
    r.predicted_throughput = *r.loop_bound;
  }
  r.transient_bound = graph::transient_bound(r.topology);
  say("sign-off: T = " + r.predicted_throughput.str() +
      (r.loop_bound ? " (loop bound " + r.loop_bound->str() + ")" : "") +
      ", transient bound " + std::to_string(r.transient_bound));

  // Final lint of the finished design; the flow only signs off a design
  // the linter considers clean of errors.
  r.lint = lint::run_lint(r.topology);
  say("lint: " + std::to_string(r.lint.count(lint::Severity::kError)) +
      " error(s), " + std::to_string(r.lint.count(lint::Severity::kWarning)) +
      " warning(s), " + std::to_string(r.lint.count(lint::Severity::kInfo)) +
      " note(s)");

  r.ok = r.lint.count(lint::Severity::kError) == 0;
  return r;
}

}  // namespace liplib::flow
