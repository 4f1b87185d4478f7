// liplib/lip/environment.hpp
//
// Environment models: how primary inputs produce tokens and how primary
// outputs exert back pressure.  Both honor the protocol's environment
// assumption — a presented valid datum is held unchanged while its stop is
// asserted — which the simulator enforces structurally.

#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "liplib/support/rng.hpp"

namespace liplib::lip {

/// The period of two periodic parts of an environment run side by side:
/// the lcm of `a` and `b`, saturating at the largest uint64, or 0
/// (aperiodic) when either is 0.  System::environment_period() and both
/// xir engines fold their environments with it.
inline std::uint64_t lcm_period(std::uint64_t a, std::uint64_t b) {
  if (a == 0 || b == 0) return 0;
  const std::uint64_t step = b / std::gcd(a, b);
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  return a > kMax / step ? kMax : a * step;
}

/// Behaviour of a primary input.  `value(k)` is the k-th datum of the
/// (conceptually infinite) input stream; `ready(cycle)` decides whether
/// the source offers a new datum in a cycle where it is idle.  Once a
/// datum is offered, it stays offered until consumed.
struct SourceBehavior {
  std::function<std::uint64_t(std::uint64_t k)> value;
  std::function<bool(std::uint64_t cycle)> ready;
  /// A period of `ready` in cycles (the data stream does not count: the
  /// protocol never looks at values), or 0 when `ready` is aperiodic.
  /// The named factories set it; a hand-built behaviour is aperiodic
  /// unless its author sets it.
  std::uint64_t period = 0;

  /// Emits 0,1,2,... with no gaps — the standard test stream, which also
  /// makes in-order delivery checkable at sinks.
  static SourceBehavior counter() {
    return {[](std::uint64_t k) { return k; },
            [](std::uint64_t) { return true; }, 1};
  }

  /// Emits `values` cyclically, no gaps.
  static SourceBehavior cyclic(std::vector<std::uint64_t> values) {
    auto vals = std::make_shared<std::vector<std::uint64_t>>(std::move(values));
    return {[vals](std::uint64_t k) { return (*vals)[k % vals->size()]; },
            [](std::uint64_t) { return true; }, 1};
  }

  /// Counter stream but only ready with probability num/den each idle
  /// cycle (bursty input model).  Deterministic given the seed.
  static SourceBehavior sparse_counter(std::uint64_t seed, std::uint64_t num,
                                       std::uint64_t den) {
    auto rng = std::make_shared<Rng>(seed);
    return {[](std::uint64_t k) { return k; },
            [rng, num, den](std::uint64_t) { return rng->chance(num, den); },
            0};
  }
};

/// Behaviour of a primary output: `stop(cycle)` is the back-pressure the
/// environment applies in that cycle.
struct SinkBehavior {
  std::function<bool(std::uint64_t cycle)> stop;
  /// A period of `stop` in cycles, or 0 when it is aperiodic; set by the
  /// named factories, as for SourceBehavior::period.
  std::uint64_t period = 0;

  /// Ideal consumer: never stops.
  static SinkBehavior greedy() {
    return {[](std::uint64_t) { return false; }, 1};
  }

  /// Stops with probability num/den each cycle (jittery consumer).
  static SinkBehavior random_stop(std::uint64_t seed, std::uint64_t num,
                                  std::uint64_t den) {
    auto rng = std::make_shared<Rng>(seed);
    return {[rng, num, den](std::uint64_t) { return rng->chance(num, den); },
            0};
  }

  /// Follows a scripted pattern cyclically (true = stop).
  static SinkBehavior script(std::vector<bool> pattern) {
    auto p = std::make_shared<std::vector<bool>>(std::move(pattern));
    const std::uint64_t length = p->size();
    return {[p](std::uint64_t cycle) { return (*p)[cycle % p->size()]; },
            length};
  }

  /// Consumes one datum every `period` cycles (rate-limited consumer):
  /// stop is asserted except when cycle % period == phase.
  static SinkBehavior periodic(std::uint64_t period, std::uint64_t phase = 0) {
    return {[period, phase](std::uint64_t cycle) {
              return cycle % period != phase % period;
            },
            period};
  }
};

}  // namespace liplib::lip
