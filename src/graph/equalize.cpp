#include "liplib/graph/equalize.hpp"

namespace liplib::graph {

EqualizationPlan plan_equalization(const Topology& topo) {
  LIPLIB_EXPECT(topo.is_feedforward(),
                "path equalization requires a feedforward topology");
  const auto order = topo.topological_order();

  EqualizationPlan plan;
  plan.level.assign(order.size(), 0);
  // Longest-path levels over *station* counts: level(v) = max over
  // in-channels of level(u) + stations(c).  Shells do not count — a
  // shell's output register is initialized with a valid token, so it adds
  // latency but no void; only relay stations (initialized void) create
  // the imbalance `i` of the paper's formula.  This matches the paper's
  // definition of i as "the difference of relay stations between the
  // feedforward branches".
  for (NodeId v : order) {
    for (ChannelId c : topo.channels_from(v)) {
      const auto& ch = topo.channel(c);
      const std::uint64_t lv = plan.level[v] + ch.num_stations();
      if (lv > plan.level[ch.to.node]) plan.level[ch.to.node] = lv;
    }
  }
  // Slack on each channel becomes spare stations.
  plan.stations_to_add.assign(topo.channels().size(), 0);
  for (ChannelId c = 0; c < topo.channels().size(); ++c) {
    const auto& ch = topo.channel(c);
    const std::uint64_t have = plan.level[ch.from.node] + ch.num_stations();
    const std::uint64_t want = plan.level[ch.to.node];
    LIPLIB_ENSURE(want >= have, "levelling produced negative slack");
    plan.stations_to_add[c] = static_cast<std::size_t>(want - have);
    plan.total_added += plan.stations_to_add[c];
  }
  return plan;
}

std::size_t apply_equalization(Topology& topo, const EqualizationPlan& plan,
                               RsKind kind) {
  LIPLIB_EXPECT(plan.stations_to_add.size() == topo.channels().size(),
                "plan does not match topology");
  std::size_t added = 0;
  for (ChannelId c = 0; c < topo.channels().size(); ++c) {
    topo.stations_mut(c).insert(topo.stations_mut(c).end(),
                                plan.stations_to_add[c], kind);
    added += plan.stations_to_add[c];
  }
  return added;
}

std::size_t equalize_paths(Topology& topo, RsKind kind) {
  const auto plan = plan_equalization(topo);
  return apply_equalization(topo, plan, kind);
}

}  // namespace liplib::graph
