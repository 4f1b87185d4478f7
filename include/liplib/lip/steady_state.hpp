// liplib/lip/steady_state.hpp
//
// Exact steady-state detection: the paper observes that after a transient
// whose length is predictable, every part of a latency-insensitive system
// behaves periodically.  A host detects that period *exactly* by keying
// its protocol state (validity/occupancy/stop registers — no data, no
// counters) each cycle and waiting for a repeat.
//
// SteadyState is the one answer to "where does this run settle?".
// lip::System (measure_steady_state), xir::ScalarEngine::analyze and
// every lane of xir::SlicedEngine::analyze report it, and
// derive_steady_state turns every host's repeat into transient, period,
// exact rates and the deadlock verdict under one rule.  The two scalar
// hosts share one search, first_repeat; the sliced engine keeps its own
// per-lane repeat tables.

#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "liplib/graph/topology.hpp"
#include "liplib/lip/system.hpp"
#include "liplib/support/rational.hpp"

namespace liplib::lip {

/// Result of steady-state detection.  When no repeat occurred within the
/// budget, only `cycles` is set.
struct SteadyState {
  /// False when no repeat occurred within the cycle budget.
  bool found = false;

  /// First cycle of the periodic regime (the transient's length).
  std::uint64_t transient = 0;

  /// Length of the steady-state period in cycles.
  std::uint64_t period = 0;

  /// The host's cycle when the search stopped: transient + period for a
  /// run from cycle 0 that found a repeat, max_cycles + 1 for one that
  /// ran out of budget.
  std::uint64_t cycles = 0;

  /// Exact firings-per-cycle of each shell, in topology node-id order of
  /// the process nodes.
  std::vector<Rational> shell_throughput;

  /// The process nodes shell_throughput describes, in node-id order.
  std::vector<graph::NodeId> shell_ids;

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
  Rational system_throughput() const;

  /// Node ids of the shells that never fire in the steady state.
  std::vector<graph::NodeId> starved_shells() const;

  /// The screening rule: a deadlock, or a starved shell.
  bool deadlock_found() const { return deadlocked || has_starved_shell; }

  bool operator==(const SteadyState&) const = default;
};

/// A host's run at one cycle, as the derivation reads it: the cycle,
/// each shell's firings so far (node-id order) and the tokens the
/// host's counted sinks have taken so far.
struct RunCounts {
  std::uint64_t cycle = 0;
  std::vector<std::uint64_t> fires;
  std::uint64_t sink_tokens = 0;
};

/// The one derivation: the steady state of a run whose protocol state at
/// `now` repeats the state at `first`.  Deadlocked means no shell fired
/// and no counted sink took a token during the period.  System counts
/// every sink; the xir engines count only the sinks whose channel starts
/// at a source, since in a repeating state a sink behind a shell takes
/// exactly what that shell's firings put in.
SteadyState derive_steady_state(const RunCounts& first, const RunCounts& now,
                                const std::vector<graph::NodeId>& shell_ids);

/// The first-repeat search of a scalar host (System, xir::ScalarEngine):
/// for at most max_cycles + 1 cycles, keys the host's protocol state
/// `key()` (with the environment phase appended when `env_period`
/// exceeds 1) and either derives the steady state from the run counts
/// `counts()` of the key's two visits or records it and calls `step()`.
template <class Key, class Counts, class Step>
SteadyState first_repeat(std::uint64_t env_period, std::uint64_t max_cycles,
                         const std::vector<graph::NodeId>& shell_ids,
                         Key key, Counts counts, Step step) {
  std::unordered_map<std::string, RunCounts> seen;
  for (std::uint64_t i = 0; i <= max_cycles; ++i) {
    RunCounts now = counts();
    std::string k = key();
    if (env_period > 1) {
      const std::uint64_t phase = now.cycle % env_period;
      k.append(reinterpret_cast<const char*>(&phase), sizeof phase);
    }
    // try_emplace leaves `now` intact when the key is already there.
    const auto [it, inserted] = seen.try_emplace(std::move(k), std::move(now));
    if (!inserted) return derive_steady_state(it->second, now, shell_ids);
    step();
  }
  SteadyState none;
  none.cycles = counts().cycle;
  return none;
}

/// Runs `sys` until its protocol state, combined with the phase of
/// System::environment_period(), repeats, or `max_cycles` elapse.  An
/// aperiodic environment (period 0) has no exact steady state: it
/// returns found = false without stepping.  The system is left at the
/// cycle where the repeat was detected.
SteadyState measure_steady_state(System& sys,
                                 std::uint64_t max_cycles = 200000);

}  // namespace liplib::lip
