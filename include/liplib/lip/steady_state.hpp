// liplib/lip/steady_state.hpp
//
// Exact steady-state detection: the paper observes that after a transient
// whose length is predictable, every part of a latency-insensitive system
// behaves periodically.  This module detects that period *exactly* by
// hashing the protocol state (validity/occupancy/stop registers — no data,
// no counters) each cycle and waiting for a repeat.  From the repeat it
// derives exact rational throughputs, the transient length, the period and
// a deadlock verdict.

#pragma once

#include <cstdint>
#include <vector>

#include "liplib/graph/topology.hpp"
#include "liplib/lip/system.hpp"
#include "liplib/support/rational.hpp"

namespace liplib::lip {

/// Result of steady-state detection.
struct SteadyState {
  /// False when no repeat occurred within the cycle budget.
  bool found = false;

  /// First cycle of the periodic regime (the transient's length).
  std::uint64_t transient = 0;

  /// Length of the steady-state period in cycles.
  std::uint64_t period = 0;

  /// Exact tokens-per-cycle consumed by each sink in the steady state,
  /// in topology node-id order of the sinks.
  std::vector<Rational> sink_throughput;

  /// Exact firings-per-cycle of each shell, in topology node-id order of
  /// the process nodes.
  std::vector<Rational> shell_throughput;

  /// True when the steady state makes no progress at all: no shell fires
  /// and no sink consumes during the period.  This is the paper's
  /// deadlock ("its injection will never occur [after the transient]" —
  /// so a progress-free period is a proof of deadlock, and a progressing
  /// period is a proof of deadlock freedom).
  bool deadlocked = false;

  /// True when at least one shell never fires in the steady state
  /// (partial starvation: some subsystem is dead even if others run).
  bool has_starved_shell = false;

  /// Minimum shell throughput (the system throughput the paper quotes).
  Rational system_throughput() const {
    Rational best(1);
    for (const auto& t : shell_throughput) {
      if (t < best) best = t;
    }
    return shell_throughput.empty() ? Rational(0) : best;
  }
};

/// Runs `sys` until its protocol state (combined with the environment
/// phase, `env_period`) repeats, or `max_cycles` elapse.  The environments
/// bound to the system must be periodic with period dividing `env_period`
/// for the detection to be sound (greedy/counter environments have period
/// 1); System::environment_period() is such a period, when one exists.
/// The system is left at the cycle where the repeat was detected.
SteadyState measure_steady_state(System& sys,
                                 std::uint64_t max_cycles = 200000,
                                 std::uint64_t env_period = 1);

}  // namespace liplib::lip
