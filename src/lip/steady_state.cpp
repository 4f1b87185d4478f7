#include "liplib/lip/steady_state.hpp"

#include <unordered_map>

namespace liplib::lip {

Rational SteadyState::system_throughput() const {
  if (shell_throughput.empty()) return Rational(0);
  Rational best(1);
  for (const auto& t : shell_throughput) {
    if (t < best) best = t;
  }
  return best;
}

std::vector<graph::NodeId> SteadyState::starved_shells() const {
  std::vector<graph::NodeId> out;
  for (std::size_t i = 0; i < shell_throughput.size(); ++i) {
    if (shell_throughput[i].num() == 0) out.push_back(shell_ids[i]);
  }
  return out;
}

SteadyState derive_steady_state(const RunCounts& first, const RunCounts& now,
                                const std::vector<graph::NodeId>& shell_ids) {
  SteadyState r;
  r.found = true;
  r.transient = first.cycle;
  r.period = now.cycle - first.cycle;
  r.cycles = now.cycle;
  r.shell_ids = shell_ids;
  LIPLIB_ENSURE(r.period > 0, "zero-length period");
  bool progress = now.sink_tokens != first.sink_tokens;
  for (std::size_t k = 0; k < shell_ids.size(); ++k) {
    const std::uint64_t delta = now.fires[k] - first.fires[k];
    if (delta > 0) progress = true;
    if (delta == 0) r.has_starved_shell = true;
    r.shell_throughput.emplace_back(static_cast<std::int64_t>(delta),
                                    static_cast<std::int64_t>(r.period));
  }
  r.deadlocked = !progress;
  return r;
}

SteadyState measure_steady_state(System& sys, std::uint64_t max_cycles) {
  sys.finalize();
  const std::uint64_t env_period = sys.environment_period();
  const auto& topo = sys.topology();
  std::vector<graph::NodeId> shell_ids;
  for (graph::NodeId v = 0; v < topo.nodes().size(); ++v) {
    if (topo.node(v).kind == graph::NodeKind::kProcess) shell_ids.push_back(v);
  }
  // The reference search: every visited state keeps its exact key (with
  // the environment phase) and run counts.
  std::unordered_map<std::string, RunCounts> seen;
  for (std::uint64_t i = 0; env_period != 0 && i <= max_cycles; ++i) {
    RunCounts now{sys.cycle(), {}, sys.total_consumed()};
    for (const auto id : shell_ids) {
      now.fires.push_back(sys.shell_fire_count(id));
    }
    std::string k = sys.protocol_state();
    const std::uint64_t phase = now.cycle % env_period;
    k.append(reinterpret_cast<const char*>(&phase), sizeof phase);
    // try_emplace leaves `now` intact when the key is already there.
    const auto [it, inserted] = seen.try_emplace(std::move(k), std::move(now));
    if (!inserted) return derive_steady_state(it->second, now, shell_ids);
    sys.step();
  }
  SteadyState none;
  none.cycles = sys.cycle();
  return none;
}

}  // namespace liplib::lip
