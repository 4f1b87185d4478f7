// The stop settle both xir engines run each cycle, after setting the
// roots (sink stops, full stations' registered stops): every unit of
// the plan is evaluated once, writers first, and a unit that changes a
// stop whose reader was already evaluated queues that reader again.
// Every stop rule is monotone and every stop starts at an extreme value,
// so each stop (each lane bit of a sliced stop word) changes at most
// once: the queued evaluations are bounded by `max_evals`, and the
// settle lands on the extreme fixpoint every evaluation order reaches,
// lip::System's.
//
// The cursor and the queue's tail are locals of this one function, and
// callers keep their arrays in locals too: a store into a stop array may
// alias any member, which would reload them after every store.

#pragma once

#include <cstdint>

#include "liplib/support/check.hpp"
#include "liplib/xir/xir.hpp"

namespace liplib::xir {

/// `eval(unit, set)` evaluates one unit, calling set(segment, value) for
/// each stop it writes.  `queue` and `queued` hold one entry per unit.
template <class Word, class Eval>
void settle_units(const SettlePlan& plan, Word* stop, std::uint32_t* queue,
                  std::uint8_t* queued, std::size_t max_evals, Eval&& eval) {
  const std::uint32_t* const units = plan.units.data();
  const std::uint32_t* const reader = plan.reader.data();
  const std::size_t n_units = plan.units.size();
  std::size_t cursor = 0;
  std::size_t tail = 0;
  auto set = [&](std::uint32_t seg, Word up) {
    if (stop[seg] == up) return;
    stop[seg] = up;
    const std::uint32_t r = reader[seg];
    if (r > cursor || queued[r]) return;  // due in the pass, or queued
    queued[r] = 1;
    queue[tail++] = r;
  };
  for (; cursor < n_units; ++cursor) eval(units[cursor], set);
  for (std::size_t evals = 0; tail != 0;) {
    LIPLIB_ENSURE(++evals <= max_evals, "stop fixpoint failed to converge");
    const std::uint32_t at = queue[--tail];
    queued[at] = 0;
    eval(units[at], set);
  }
}

}  // namespace liplib::xir
