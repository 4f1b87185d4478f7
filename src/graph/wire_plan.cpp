#include "liplib/graph/wire_plan.hpp"

#include <cmath>

#include "liplib/graph/equalize.hpp"

namespace liplib::graph {

WirePlanResult plan_wire_pipelining(Topology& topo,
                                    const std::vector<double>& lengths,
                                    const WirePlanOptions& options) {
  LIPLIB_EXPECT(lengths.size() == topo.channels().size(),
                "one wire length per channel required");
  LIPLIB_EXPECT(options.reach_per_cycle > 0, "reach must be positive");

  WirePlanResult result;
  const auto on_cycle = topo.channels_on_cycles();

  for (ChannelId c = 0; c < topo.channels().size(); ++c) {
    LIPLIB_EXPECT(lengths[c] >= 0, "negative wire length");
    const double hops_needed = lengths[c] / options.reach_per_cycle;
    std::size_t need =
        hops_needed <= 1.0
            ? 0
            : static_cast<std::size_t>(std::ceil(hops_needed)) - 1;
    const auto& ch = topo.channel(c);
    auto& stations = topo.stations_mut(c);
    // The structural rule still applies even to short wires: a channel
    // between two shells needs at least one memory element.
    const bool shell_to_shell =
        topo.node(ch.from.node).kind == NodeKind::kProcess &&
        topo.node(ch.to.node).kind == NodeKind::kProcess;
    if (shell_to_shell && need == 0 && stations.empty()) need = 1;
    while (stations.size() < need) {
      const RsKind kind = (!on_cycle[c] && options.prefer_half_off_cycle)
                              ? RsKind::kHalf
                              : RsKind::kFull;
      stations.push_back(kind);
      ++result.stations_inserted;
    }
  }

  if (options.equalize && topo.is_feedforward()) {
    result.spare_inserted = equalize_paths(topo, RsKind::kFull);
  }

  for (const auto& ch : topo.channels()) {
    result.full_count += ch.num_full();
    result.half_count += ch.num_half();
  }
  return result;
}

}  // namespace liplib::graph
