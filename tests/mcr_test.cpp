// Minimum cycle ratio analysis vs explicit cycle enumeration: the two
// must agree exactly on every cyclic topology, the loop solve's critical
// cycle is the first slowest cycle the enumeration finds, and the system
// bound must agree with measured throughput.

#include <gtest/gtest.h>

#include "liplib/graph/analysis.hpp"
#include "liplib/graph/mcr.hpp"
#include "liplib/graph/generators.hpp"
#include "liplib/lip/steady_state.hpp"
#include "test_util.hpp"

namespace {

using namespace liplib;

Rational enumeration_bound(const graph::Topology& topo) {
  Rational best(1);
  for (const auto& c : graph::enumerate_cycles(topo)) {
    if (c.throughput < best) best = c.throughput;
  }
  return best;
}

TEST(Mcr, FeedforwardHasNoCycleRatio) {
  EXPECT_FALSE(graph::min_cycle_ratio(graph::make_fig1().topo).has_value());
  EXPECT_FALSE(
      graph::min_cycle_ratio(graph::make_pipeline(3, 2).topo).has_value());
}

TEST(Mcr, MatchesEnumerationOnRings) {
  for (std::size_t s : {1u, 2u, 3u, 5u}) {
    for (std::size_t per : {1u, 2u, 4u}) {
      auto gen = graph::make_closed_ring(std::vector<std::size_t>(s, per));
      const auto mcr = graph::min_cycle_ratio(gen.topo);
      ASSERT_TRUE(mcr.has_value());
      EXPECT_EQ(mcr->ratio, graph::loop_throughput(s, s * per))
          << "S=" << s << " per=" << per;
    }
  }
}

TEST(Mcr, MatchesEnumerationOnLoopChains) {
  const std::vector<std::vector<graph::RingSpec>> cases = {
      {{1, 2}, {1, 4}},
      {{2, 3}, {1, 2}, {2, 7}},
      {{3, 4}, {1, 5}},
  };
  for (const auto& specs : cases) {
    auto gen = graph::make_loop_chain(specs);
    const auto mcr = graph::min_cycle_ratio(gen.topo);
    ASSERT_TRUE(mcr.has_value());
    EXPECT_EQ(mcr->ratio, enumeration_bound(gen.topo));
  }
}

TEST(Mcr, MatchesEnumerationOnParallelChannelMeshes) {
  // Dense parallel channels create many cycles; MCR must still match.
  graph::Topology t;
  const auto a = t.add_process("A", 2, 2);
  const auto b = t.add_process("B", 2, 2);
  t.connect({a, 0}, {b, 0}, {graph::RsKind::kFull});
  t.connect({a, 1}, {b, 1},
            {graph::RsKind::kFull, graph::RsKind::kFull, graph::RsKind::kFull});
  t.connect({b, 0}, {a, 0}, {graph::RsKind::kFull, graph::RsKind::kFull});
  t.connect({b, 1}, {a, 1}, {graph::RsKind::kFull});
  const auto mcr = graph::min_cycle_ratio(t);
  ASSERT_TRUE(mcr.has_value());
  // The binding (slowest) cycle combines the 3-station and 2-station
  // channels: 2 shells / (2 + 5) positions.
  EXPECT_EQ(mcr->ratio, Rational(2, 7));
  EXPECT_EQ(mcr->ratio, enumeration_bound(t));
}

TEST(Mcr, MatchesEnumerationOnRandomComposites) {
  Rng rng(123);
  for (int i = 0; i < 20; ++i) {
    auto gen = graph::make_random_composite(rng, 1 + i % 5, true, false);
    const auto mcr = graph::min_cycle_ratio(gen.topo);
    if (gen.topo.is_feedforward()) {
      EXPECT_FALSE(mcr.has_value());
      continue;
    }
    ASSERT_TRUE(mcr.has_value()) << "iteration " << i;
    EXPECT_EQ(mcr->ratio, enumeration_bound(gen.topo)) << "iteration " << i;
  }
}

// LIP008 names the loop solve's critical cycle: the first cycle in
// enumeration order whose ratio is the minimum, hop for hop.
TEST(Mcr, CriticalCycleIsTheFirstSlowestEnumeratedCycle) {
  Rng rng(321);
  std::size_t checked = 0;
  for (int i = 0; i < 300; ++i) {
    auto gen = graph::make_random_composite(rng, 1 + i % 5, true, false);
    const auto mcr = graph::min_cycle_ratio(gen.topo);
    if (!mcr || !(mcr->ratio < Rational(1))) continue;
    std::vector<graph::ChannelId> first;
    for (const auto& c : graph::enumerate_cycles(gen.topo)) {
      if (c.throughput == mcr->ratio) {
        first = c.channels;
        break;
      }
    }
    std::vector<graph::ChannelId> hops;
    for (const auto& hop : mcr->hops) {
      EXPECT_FALSE(hop.stop);
      hops.push_back(hop.channel);
    }
    EXPECT_EQ(hops, first) << "iteration " << i;
    ++checked;
  }
  EXPECT_GE(checked, 100u);
}

TEST(Mcr, MatchesMeasuredThroughputOnComposites) {
  Rng rng(77);
  for (int i = 0; i < 6; ++i) {
    auto gen = graph::make_random_composite(rng, 3, /*allow_half=*/false);
    if (gen.topo.is_feedforward()) continue;
    const auto mcr = graph::min_cycle_ratio(gen.topo);
    ASSERT_TRUE(mcr.has_value());
    const auto bound = graph::throughput_bound(gen.topo);
    EXPECT_LE(bound.ratio, mcr->ratio);
    auto d = testutil::make_design(std::move(gen));
    auto sys = d.instantiate();
    const auto ss = lip::measure_steady_state(*sys, 1u << 20);
    ASSERT_TRUE(ss.found) << "iteration " << i;
    // The system runs at the system bound (loops and implicit loops).
    EXPECT_EQ(ss.system_throughput(), bound.ratio) << "iteration " << i;
  }
}

TEST(Mcr, UnvalidatedZeroStationLoop) {
  // A degenerate loop with no stations (invalid as a LID, but the
  // analysis is defined): ratio 1.
  graph::Topology t;
  const auto a = t.add_process("A", 1, 1);
  t.connect({a, 0}, {a, 0});
  const auto mcr = graph::min_cycle_ratio(t);
  ASSERT_TRUE(mcr.has_value());
  EXPECT_EQ(mcr->ratio, Rational(1));
  EXPECT_TRUE(mcr->hops.empty());
}

}  // namespace
