// Wire-length-driven relay station planning.

#include <gtest/gtest.h>

#include "liplib/graph/analysis.hpp"
#include "liplib/graph/wire_plan.hpp"
#include "liplib/lip/steady_state.hpp"
#include "liplib/skeleton/skeleton.hpp"
#include "liplib/xir/xir.hpp"
#include "test_util.hpp"

namespace {

using namespace liplib;
using graph::RsKind;

graph::Topology bare_pipeline(std::size_t n) {
  graph::Topology t;
  auto prev = t.add_source("src");
  for (std::size_t i = 0; i < n; ++i) {
    const auto p = t.add_process("P" + std::to_string(i), 1, 1);
    t.connect({prev, 0}, {p, 0});
    prev = p;
  }
  const auto snk = t.add_sink("out");
  t.connect({prev, 0}, {snk, 0});
  return t;
}

TEST(WirePlan, InsertsCeilLengthMinusOne) {
  auto topo = bare_pipeline(2);  // 3 channels
  graph::WirePlanOptions opts;
  opts.equalize = false;
  const auto r = graph::plan_wire_pipelining(topo, {0.5, 3.0, 2.2}, opts);
  // 0.5 -> 0 needed but shell-to-shell? src->P0 is source channel: 0.
  // 3.0 -> ceil(3)-1 = 2; 2.2 -> ceil(2.2)-1 = 2.
  EXPECT_EQ(topo.channel(0).num_stations(), 0u);
  EXPECT_EQ(topo.channel(1).num_stations(), 2u);
  EXPECT_EQ(topo.channel(2).num_stations(), 2u);
  EXPECT_EQ(r.stations_inserted, 4u);
  EXPECT_TRUE(topo.validate().ok());
}

TEST(WirePlan, ShortShellToShellWireStillGetsOneStation) {
  auto topo = bare_pipeline(2);
  graph::WirePlanOptions opts;
  opts.equalize = false;
  graph::plan_wire_pipelining(topo, {0.1, 0.1, 0.1}, opts);
  EXPECT_EQ(topo.channel(1).num_stations(), 1u);  // the P0->P1 channel
  EXPECT_TRUE(topo.validate().ok());
}

TEST(WirePlan, RespectsReach) {
  auto topo = bare_pipeline(1);
  graph::WirePlanOptions opts;
  opts.reach_per_cycle = 2.0;
  opts.equalize = false;
  graph::plan_wire_pipelining(topo, {10.0, 4.0}, opts);
  EXPECT_EQ(topo.channel(0).num_stations(), 4u);  // ceil(5)-1
  EXPECT_EQ(topo.channel(1).num_stations(), 1u);  // ceil(2)-1
}

TEST(WirePlan, ExistingStationsCountTowardRequirement) {
  graph::Topology t;
  const auto src = t.add_source("src");
  const auto p = t.add_process("P", 1, 1);
  const auto snk = t.add_sink("out");
  t.connect({src, 0}, {p, 0}, {RsKind::kFull, RsKind::kFull, RsKind::kFull});
  t.connect({p, 0}, {snk, 0});
  graph::WirePlanOptions opts;
  opts.equalize = false;
  const auto r = graph::plan_wire_pipelining(t, {2.5, 0.0}, opts);
  EXPECT_EQ(r.stations_inserted, 0u);  // 3 already there, 2 needed
  EXPECT_EQ(t.channel(0).num_stations(), 3u);
}

TEST(WirePlan, HalfOffCycleFullOnCycle) {
  // A loop plus a feed-forward tail: loop channels must get full
  // stations, the tail can use cheap halves.
  graph::Topology t;
  const auto src = t.add_source("src");
  const auto port = t.add_process("port", 2, 2);
  const auto tail = t.add_process("tail", 1, 1);
  const auto snk = t.add_sink("out");
  t.connect({src, 0}, {port, 0});
  t.connect({port, 1}, {port, 1});  // self loop, long wire
  t.connect({port, 0}, {tail, 0});  // long feed-forward wire
  t.connect({tail, 0}, {snk, 0});
  const auto r =
      graph::plan_wire_pipelining(t, {0.5, 4.0, 4.0, 0.5}, {});
  EXPECT_GT(r.full_count, 0u);
  EXPECT_GT(r.half_count, 0u);
  for (graph::ChannelId c = 0; c < t.channels().size(); ++c) {
    const bool cyc = t.channels_on_cycles()[c];
    for (RsKind k : t.channel(c).stations) {
      if (cyc) {
        EXPECT_EQ(k, RsKind::kFull);
      }
    }
  }
  // Deadlock free by construction, even under worst-case occupancy.
  skeleton::ScreeningOptions wc;
  wc.worst_case_occupancy = true;
  EXPECT_FALSE(xir::screen_for_deadlock(t, wc).deadlock_found());
}

TEST(WirePlan, EqualizationKeepsFullThroughputOnDags) {
  // An unbalanced diamond with long wires: planned + equalized, T = 1.
  graph::Topology t;
  const auto src = t.add_source("src");
  const auto fork = t.add_process("fork", 1, 2);
  const auto body = t.add_process("body", 1, 1);
  const auto join = t.add_process("join", 2, 1);
  const auto snk = t.add_sink("out");
  t.connect({src, 0}, {fork, 0});
  const auto long1 = t.connect({fork, 0}, {body, 0});
  const auto long2 = t.connect({body, 0}, {join, 0});
  const auto shortc = t.connect({fork, 1}, {join, 1});
  t.connect({join, 0}, {snk, 0});
  std::vector<double> lengths(t.channels().size(), 0.0);
  lengths[long1] = 3.0;
  lengths[long2] = 2.0;
  lengths[shortc] = 1.0;
  const auto r = graph::plan_wire_pipelining(t, lengths, {});
  EXPECT_GT(r.spare_inserted, 0u);

  lip::Design d(t);
  d.set_pearl(fork, pearls::make_fork2());
  d.set_pearl(body, pearls::make_bit_mixer());
  d.set_pearl(join, pearls::make_adder());
  auto sys = d.instantiate();
  const auto ss = lip::measure_steady_state(*sys);
  ASSERT_TRUE(ss.found);
  EXPECT_EQ(ss.system_throughput(), Rational(1));
}

TEST(WirePlan, RejectsBadInput) {
  auto topo = bare_pipeline(1);
  EXPECT_THROW(graph::plan_wire_pipelining(topo, {1.0}, {}), ApiError);
  graph::WirePlanOptions bad;
  bad.reach_per_cycle = 0;
  EXPECT_THROW(graph::plan_wire_pipelining(topo, {1.0, 1.0}, bad), ApiError);
  EXPECT_THROW(graph::plan_wire_pipelining(topo, {-1.0, 1.0}, {}), ApiError);
}

}  // namespace
