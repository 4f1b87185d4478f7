// deadlock_screening — the paper's liveness methodology, end to end.
//
// A control loop pipelined with cheap *half* relay stations (one register
// each) closes a combinational cycle on the stop wires: a potential
// deadlock.  Following the paper:
//   1. the structural validator warns about half stations on loops;
//   2. the skeleton simulator (valid/stop bits only — "the simulation
//      cost is absolutely negligible") screens the design up to the
//      transient's extinction: from reset the deadlock never injects;
//   3. worst-case-occupancy screening exposes the latent stop latch;
//   4. the cure substitutes a single full relay station — a "low
//      intrusive change" — and re-screening proves the design safe.
//
//   $ ./deadlock_screening

#include <iostream>

#include "liplib/graph/analysis.hpp"
#include "liplib/graph/generators.hpp"
#include "liplib/skeleton/skeleton.hpp"
#include "liplib/xir/xir.hpp"

using namespace liplib;

int main() {
  std::cout << "Control loop pipelined with half relay stations\n\n";

  // A 3-stage control loop: controller -> plant model -> estimator ->
  // controller, every hop pipelined with one half relay station.
  auto gen = graph::make_closed_ring({1, 1, 1}, graph::RsKind::kHalf);

  // 1. Structural validation + static latch analysis.
  const auto report = gen.topo.validate();
  std::cout << "validator says:\n" << report.to_string() << "\n";
  const auto latches = graph::find_stop_cycles(gen.topo);
  std::cout << "static analysis: " << latches.size()
            << " combinational stop cycle(s) — the latent latch\n\n";

  // 2. Reset-state screening (the paper's recipe).
  skeleton::ScreeningOptions reset_opts;
  const auto from_reset = xir::screen_for_deadlock(gen.topo, reset_opts);
  std::cout << "screening from reset: "
            << (from_reset.deadlock_found() ? "deadlock" : "live") << ", T = "
            << from_reset.system_throughput().str() << " (simulated "
            << from_reset.cycles << " cycles: transient "
            << from_reset.transient << " + period " << from_reset.period
            << ")\n";

  // 3. Worst-case-occupancy screening: every station holding a token.
  skeleton::ScreeningOptions wc_opts;
  wc_opts.worst_case_occupancy = true;
  const auto worst = xir::screen_for_deadlock(gen.topo, wc_opts);
  std::cout << "screening under worst-case occupancy: "
            << (worst.deadlock_found() ? "DEADLOCK (stop latch asserted)"
                                       : "live")
            << "\n";
  wc_opts.skeleton.resolution = lip::StopResolution::kOptimistic;
  const auto worst_opt = xir::screen_for_deadlock(gen.topo, wc_opts);
  std::cout << "same state, optimistic settling: "
            << (worst_opt.deadlock_found() ? "deadlock" : "live") << ", T = "
            << worst_opt.system_throughput().str()
            << "  (the latch is bistable — that is the hazard)\n\n";

  // 4. Cure: substitute as few relay stations as possible.
  wc_opts.skeleton.resolution = lip::StopResolution::kPessimistic;
  const auto cure = xir::cure_deadlocks(gen.topo, wc_opts);
  std::cout << "cure: " << (cure.success ? "succeeded" : "failed") << " with "
            << cure.substitutions << " half->full substitution(s); station "
            << "count unchanged ("
            << cure.cured.total_stations() << ")\n";
  const auto after = xir::screen_for_deadlock(cure.cured, wc_opts);
  std::cout << "re-screen cured design under worst case: "
            << (after.deadlock_found() ? "deadlock" : "live") << ", T = "
            << after.system_throughput().str() << "\n";

  std::cout << "\ncured topology (graphviz):\n" << cure.cured.to_dot();
  return 0;
}
