#include "liplib/skeleton/skeleton.hpp"

namespace liplib::skeleton {

std::vector<graph::NodeId> SkeletonResult::starved_shells() const {
  std::vector<graph::NodeId> out;
  for (std::size_t i = 0; i < shell_throughput.size(); ++i) {
    if (shell_throughput[i].num() == 0) out.push_back(shell_ids[i]);
  }
  return out;
}

ScreeningVerdict screening_verdict(const SkeletonResult& r,
                                   std::uint64_t cycles_simulated) {
  ScreeningVerdict v;
  v.ran_to_steady_state = r.found;
  v.deadlock_found = r.deadlocked || r.has_starved_shell;
  v.transient = r.transient;
  v.period = r.period;
  v.cycles_simulated = cycles_simulated;
  v.min_throughput = r.system_throughput();
  v.starved = r.starved_shells();
  return v;
}

}  // namespace liplib::skeleton
