// The skeleton simulator (xir::ScalarEngine) must reproduce the protocol
// dynamics of the full-data simulator exactly (same throughputs,
// transient and period), while carrying no data at all.

#include <gtest/gtest.h>

#include "liplib/graph/generators.hpp"
#include "liplib/lip/steady_state.hpp"
#include "liplib/xir/xir.hpp"
#include "test_util.hpp"

namespace {

using namespace liplib;
using lip::StopPolicy;
using lip::StopResolution;

/// Runs both simulators to steady state and compares the protocol-level
/// results.
void expect_agreement(graph::Generated gen, StopPolicy policy,
                      StopResolution res = StopResolution::kPessimistic) {
  xir::ScalarEngine sk(gen.topo, {policy, res});
  const auto sk_result = sk.analyze();
  ASSERT_TRUE(sk_result.found);

  auto d = testutil::make_design(std::move(gen));
  auto sys = d.instantiate({policy, res});
  const auto ss = lip::measure_steady_state(*sys);
  ASSERT_TRUE(ss.found);

  EXPECT_EQ(sk_result.transient, ss.transient);
  EXPECT_EQ(sk_result.period, ss.period);
  EXPECT_EQ(sk_result.deadlocked, ss.deadlocked);
  ASSERT_EQ(sk_result.shell_throughput.size(), ss.shell_throughput.size());
  for (std::size_t i = 0; i < ss.shell_throughput.size(); ++i) {
    EXPECT_EQ(sk_result.shell_throughput[i], ss.shell_throughput[i])
        << "shell " << i;
  }
}

TEST(Skeleton, AgreesOnPipeline) {
  for (auto pol : {StopPolicy::kCarloniStrict, StopPolicy::kCasuDiscardOnVoid}) {
    expect_agreement(graph::make_pipeline(4, 2), pol);
  }
}

TEST(Skeleton, AgreesOnFig1) {
  for (auto pol : {StopPolicy::kCarloniStrict, StopPolicy::kCasuDiscardOnVoid}) {
    expect_agreement(graph::make_fig1(), pol);
  }
}

TEST(Skeleton, AgreesOnFig2) {
  for (auto pol : {StopPolicy::kCarloniStrict, StopPolicy::kCasuDiscardOnVoid}) {
    expect_agreement(graph::make_fig2(), pol);
  }
}

TEST(Skeleton, AgreesOnRings) {
  expect_agreement(graph::make_closed_ring({2, 1, 2}),
                   StopPolicy::kCasuDiscardOnVoid);
  expect_agreement(graph::make_closed_ring({1, 1}, graph::RsKind::kHalf),
                   StopPolicy::kCasuDiscardOnVoid);
  expect_agreement(graph::make_closed_ring({1, 1}, graph::RsKind::kHalf),
                   StopPolicy::kCasuDiscardOnVoid, StopResolution::kOptimistic);
}

TEST(Skeleton, AgreesOnLoopChains) {
  expect_agreement(graph::make_loop_chain({{1, 2}, {2, 3}}),
                   StopPolicy::kCasuDiscardOnVoid);
}

TEST(Skeleton, AgreesOnRandomFeedforward) {
  Rng rng(2026);
  for (int i = 0; i < 8; ++i) {
    auto gen = graph::make_random_feedforward(rng, 5, 2, true);
    for (auto pol :
         {StopPolicy::kCarloniStrict, StopPolicy::kCasuDiscardOnVoid}) {
      expect_agreement(gen, pol);
    }
  }
}

TEST(Skeleton, SinkPatternsThrottleThroughput) {
  auto gen = graph::make_pipeline(2, 1);
  xir::ScalarEngine sk(gen.topo);
  // Consume only one token every 4 cycles.
  sk.set_sink_pattern(gen.sinks[0], {false, true, true, true});
  const auto result = sk.analyze(1 << 16);
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.system_throughput(), Rational(1, 4));
}

TEST(Skeleton, FiresAccessorCounts) {
  auto gen = graph::make_pipeline(1, 1);
  xir::ScalarEngine sk(gen.topo);
  sk.run(20);
  // After the 2-cycle fill the single shell fires every cycle.
  EXPECT_GE(sk.fires(gen.processes[0]), 17u);
  EXPECT_LE(sk.fires(gen.processes[0]), 20u);
}

TEST(Skeleton, StateSignatureIsCompact) {
  auto gen = graph::make_loop_chain({{2, 3}, {1, 2}});
  xir::ScalarEngine sk(gen.topo);
  // A few bytes per block, not per datum.
  EXPECT_LT(sk.state_key().size(), 64u);
}

}  // namespace
