#include "liplib/lip/steady_state.hpp"

#include <unordered_map>

namespace liplib::lip {

namespace {

struct Snapshot {
  std::uint64_t cycle = 0;
  std::vector<std::uint64_t> sink_counts;
  std::vector<std::uint64_t> shell_fires;
};

}  // namespace

SteadyState measure_steady_state(System& sys, std::uint64_t max_cycles,
                                 std::uint64_t env_period) {
  LIPLIB_EXPECT(env_period >= 1, "environment period must be >= 1");
  sys.finalize();

  const auto& topo = sys.topology();
  std::vector<graph::NodeId> sink_ids;
  std::vector<graph::NodeId> shell_ids;
  for (graph::NodeId v = 0; v < topo.nodes().size(); ++v) {
    if (topo.node(v).kind == graph::NodeKind::kSink) sink_ids.push_back(v);
    if (topo.node(v).kind == graph::NodeKind::kProcess) shell_ids.push_back(v);
  }

  auto snap = [&] {
    Snapshot s;
    s.cycle = sys.cycle();
    for (auto id : sink_ids) s.sink_counts.push_back(sys.sink_count(id));
    for (auto id : shell_ids) s.shell_fires.push_back(sys.shell_fire_count(id));
    return s;
  };

  std::unordered_map<std::string, Snapshot> seen;
  SteadyState result;

  for (std::uint64_t i = 0; i <= max_cycles; ++i) {
    std::string key = sys.protocol_state();
    const std::uint64_t phase = sys.cycle() % env_period;
    key.append(reinterpret_cast<const char*>(&phase), sizeof phase);
    auto [it, inserted] = seen.emplace(std::move(key), snap());
    if (!inserted) {
      const Snapshot& first = it->second;
      const Snapshot now = snap();
      result.found = true;
      result.transient = first.cycle;
      result.period = now.cycle - first.cycle;
      LIPLIB_ENSURE(result.period > 0, "zero-length period");
      bool any_progress = false;
      for (std::size_t k = 0; k < sink_ids.size(); ++k) {
        const auto delta = now.sink_counts[k] - first.sink_counts[k];
        if (delta > 0) any_progress = true;
        result.sink_throughput.emplace_back(
            static_cast<std::int64_t>(delta),
            static_cast<std::int64_t>(result.period));
      }
      for (std::size_t k = 0; k < shell_ids.size(); ++k) {
        const auto delta = now.shell_fires[k] - first.shell_fires[k];
        if (delta > 0) any_progress = true;
        if (delta == 0) result.has_starved_shell = true;
        result.shell_throughput.emplace_back(
            static_cast<std::int64_t>(delta),
            static_cast<std::int64_t>(result.period));
      }
      result.deadlocked = !any_progress;
      return result;
    }
    sys.step();
  }
  return result;  // found == false
}

}  // namespace liplib::lip
