// The one-call design flow: bare structure + wire lengths in, validated,
// planned, screened, cured, equalized, performance-signed-off LID out.

#include <gtest/gtest.h>

#include "liplib/flow/design_flow.hpp"
#include "liplib/graph/generators.hpp"
#include "liplib/lip/steady_state.hpp"
#include "liplib/skeleton/skeleton.hpp"
#include "liplib/xir/xir.hpp"
#include "test_util.hpp"

namespace {

using namespace liplib;

TEST(Flow, BareDiamondEndsSignedOffAtFullThroughput) {
  graph::Topology t;
  const auto src = t.add_source("src");
  const auto fork = t.add_process("fork", 1, 2);
  const auto body = t.add_process("body", 1, 1);
  const auto join = t.add_process("join", 2, 1);
  t.connect({src, 0}, {fork, 0});
  t.connect({fork, 0}, {body, 0});
  t.connect({body, 0}, {join, 0});
  t.connect({fork, 1}, {join, 1});
  t.connect({join, 0}, {t.add_sink("out"), 0});

  flow::FlowOptions opts;
  opts.wire_lengths = {0.5, 3.0, 2.5, 1.0, 0.5};
  const auto result = flow::run_design_flow(t, opts);
  EXPECT_TRUE(result.ok) << result.summary();
  EXPECT_GT(result.stations_inserted, 0u);
  EXPECT_GT(result.spare_inserted, 0u);  // equalized
  EXPECT_EQ(result.predicted_throughput, Rational(1));
  EXPECT_FALSE(result.deadlock_from_reset);
  EXPECT_TRUE(result.topology.validate().ok());

  // The signed-off design really runs at the predicted rate.
  graph::Generated g;
  g.topo = result.topology;
  for (graph::NodeId v = 0; v < g.topo.nodes().size(); ++v) {
    if (g.topo.node(v).kind == graph::NodeKind::kProcess) {
      g.processes.push_back(v);
    }
  }
  auto d = testutil::make_design(std::move(g));
  auto sys = d.instantiate();
  const auto ss = lip::measure_steady_state(*sys);
  ASSERT_TRUE(ss.found);
  EXPECT_EQ(ss.system_throughput(), Rational(1));
  EXPECT_LE(ss.transient, result.transient_bound);
}

TEST(Flow, CuresHalfLatchedLoop) {
  auto gen = graph::make_closed_ring({1, 1}, graph::RsKind::kHalf);
  flow::FlowOptions opts;  // no wire lengths: keep stations as given
  const auto result = flow::run_design_flow(gen.topo, opts);
  EXPECT_TRUE(result.ok) << result.summary();
  EXPECT_TRUE(result.latch_found);
  EXPECT_TRUE(result.latch_cured);
  EXPECT_EQ(result.cure_substitutions, 1u);
  ASSERT_TRUE(result.loop_bound.has_value());
  EXPECT_EQ(*result.loop_bound, Rational(1, 2));
  // Cured design screens clean even under worst case.
  skeleton::ScreeningOptions wc;
  wc.worst_case_occupancy = true;
  EXPECT_FALSE(
      xir::screen_for_deadlock(result.topology, wc).deadlock_found());
}

TEST(Flow, ReportsValidationFailure) {
  graph::Topology t;
  t.add_process("floating", 1, 1);
  const auto result = flow::run_design_flow(t, {});
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.validation.ok());
  EXPECT_NE(result.summary().find("validation FAILED"), std::string::npos);
}

TEST(Flow, SignOffMatchesSimulationOnComposites) {
  Rng rng(808);
  for (int i = 0; i < 5; ++i) {
    auto gen = graph::make_random_composite(rng, 2, true, false);
    const auto result = flow::run_design_flow(gen.topo, {});
    ASSERT_TRUE(result.ok) << result.summary();
    // Simulate the flow's *output* (it may have equalized or cured).
    graph::Generated finished;
    finished.topo = result.topology;
    for (graph::NodeId v = 0; v < finished.topo.nodes().size(); ++v) {
      if (finished.topo.node(v).kind == graph::NodeKind::kProcess) {
        finished.processes.push_back(v);
      }
    }
    auto d = testutil::make_design(std::move(finished));
    auto sys = d.instantiate();
    const auto ss = lip::measure_steady_state(*sys, 1u << 20);
    ASSERT_TRUE(ss.found);
    EXPECT_EQ(ss.system_throughput(), result.predicted_throughput)
        << "iteration " << i << "\n"
        << result.summary();
  }
}

}  // namespace
