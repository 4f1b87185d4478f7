// Static stop-cycle analysis vs dynamic worst-case screening: a design
// has a latent stop latch exactly when find_stop_cycles() is nonempty.

#include <gtest/gtest.h>

#include "liplib/graph/analysis.hpp"
#include "liplib/graph/generators.hpp"
#include "liplib/skeleton/skeleton.hpp"
#include "liplib/xir/xir.hpp"

namespace {

using namespace liplib;
using graph::RsKind;

TEST(StopCycles, HalfRingHasOne) {
  auto gen = graph::make_closed_ring({1, 1}, RsKind::kHalf);
  const auto cycles = graph::find_stop_cycles(gen.topo);
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0].nodes.size(), 2u);
  EXPECT_EQ(cycles[0].half_stations, 2u);
}

TEST(StopCycles, FullRingHasNone) {
  auto gen = graph::make_closed_ring({1, 1}, RsKind::kFull);
  EXPECT_TRUE(graph::find_stop_cycles(gen.topo).empty());
}

TEST(StopCycles, OneFullStationGroundsTheLoop) {
  graph::Topology t;
  const auto a = t.add_process("A", 1, 1);
  const auto b = t.add_process("B", 1, 1);
  t.connect({a, 0}, {b, 0}, {RsKind::kHalf});
  t.connect({b, 0}, {a, 0}, {RsKind::kFull});
  EXPECT_TRUE(graph::find_stop_cycles(t).empty());
}

TEST(StopCycles, FeedforwardHasNone) {
  auto gen = graph::make_reconvergent(1, 2, 1, RsKind::kHalf);
  EXPECT_TRUE(graph::find_stop_cycles(gen.topo).empty());
}

TEST(StopCycles, StaticAnalysisMatchesWorstCaseScreening) {
  // Over random composites (half stations allowed in loops), the static
  // verdict "has a combinational stop cycle" must coincide with the
  // dynamic verdict "deadlocks under worst-case occupancy, pessimistic".
  Rng rng(60601);
  std::size_t latched = 0, clean = 0;
  for (int i = 0; i < 24; ++i) {
    auto gen = graph::make_random_composite(rng, 1 + i % 4, true,
                                            /*allow_half_in_loops=*/true);
    const bool has_latch = !graph::find_stop_cycles(gen.topo).empty();
    skeleton::ScreeningOptions wc;
    wc.worst_case_occupancy = true;
    const auto verdict = xir::screen_for_deadlock(gen.topo, wc);
    ASSERT_TRUE(verdict.found);
    EXPECT_EQ(verdict.deadlock_found(), has_latch) << "iteration " << i;
    (has_latch ? latched : clean) += 1;
  }
  // The sweep must have exercised both sides of the equivalence.
  EXPECT_GT(latched, 0u);
  EXPECT_GT(clean, 0u);
}

}  // namespace
