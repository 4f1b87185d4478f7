// Property tests on random composite (cyclic) topologies — the paper's
// "most general topology": latency equivalence, skeleton/system
// agreement, prediction accuracy and new-pearl coverage.

#include <gtest/gtest.h>

#include "liplib/graph/analysis.hpp"
#include "liplib/graph/mcr.hpp"
#include "liplib/graph/generators.hpp"
#include "liplib/lip/design.hpp"
#include "liplib/lip/steady_state.hpp"
#include "liplib/skeleton/skeleton.hpp"
#include "liplib/xir/xir.hpp"
#include "test_util.hpp"

namespace {

using namespace liplib;
using lip::StopPolicy;

struct CompositeCase {
  std::uint64_t seed;
  StopPolicy policy;
};

class CompositeEquivalence
    : public ::testing::TestWithParam<CompositeCase> {};

TEST_P(CompositeEquivalence, LidMatchesReference) {
  const auto p = GetParam();
  Rng rng(p.seed);
  auto gen = graph::make_random_composite(rng, 1 + p.seed % 4, true, false);
  lip::Design d(std::move(gen.topo));
  const auto& names = pearls::unary_pearl_names();
  for (graph::NodeId proc : gen.processes) {
    const auto& node = d.topology().node(proc);
    if (node.num_inputs == 1 && node.num_outputs == 1) {
      d.set_pearl(proc,
                  pearls::make_by_name(names[rng.below(names.size())],
                                       rng.next_u64()));
    } else if (node.num_inputs == 2 && node.num_outputs == 2) {
      d.set_pearl(proc, rng.chance(1, 2)
                            ? pearls::make_butterfly(rng.next_u64() & 0xff,
                                                     rng.next_u64() & 0xff)
                            : pearls::make_cordic_stage(
                                  1 + rng.below(5), rng.next_u64() & 0xff,
                                  rng.next_u64() & 0xff));
    } else {
      d.set_pearl(proc,
                  testutil::default_pearl(node.num_inputs, node.num_outputs));
    }
  }
  const auto report = lip::check_latency_equivalence(
      d, {p.policy, lip::StopResolution::kPessimistic, /*hold_monitor=*/true},
      400);
  EXPECT_TRUE(report.ok) << report.detail;
  EXPECT_GT(report.tokens_checked, 0u);
}

std::vector<CompositeCase> composite_cases() {
  std::vector<CompositeCase> cases;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    for (auto pol :
         {StopPolicy::kCarloniStrict, StopPolicy::kCasuDiscardOnVoid}) {
      cases.push_back({seed, pol});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CompositeEquivalence, ::testing::ValuesIn(composite_cases()),
    [](const auto& info) {
      return "seed" + std::to_string(info.param.seed) +
             (info.param.policy == StopPolicy::kCarloniStrict ? "_strict"
                                                              : "_variant");
    });

TEST(Composite, SkeletonAgreesOnRandomComposites) {
  Rng rng(4242);
  for (int i = 0; i < 8; ++i) {
    auto gen = graph::make_random_composite(rng, 1 + i % 3, true, false);
    xir::ScalarEngine sk(gen.topo);
    const auto sk_result = sk.analyze(1 << 18);
    ASSERT_TRUE(sk_result.found) << "iteration " << i;

    auto d = testutil::make_design(std::move(gen));
    auto sys = d.instantiate();
    const auto ss = lip::measure_steady_state(*sys, 1 << 18);
    ASSERT_TRUE(ss.found) << "iteration " << i;
    EXPECT_EQ(sk_result.transient, ss.transient) << "iteration " << i;
    EXPECT_EQ(sk_result.period, ss.period) << "iteration " << i;
    EXPECT_EQ(sk_result.system_throughput(), ss.system_throughput())
        << "iteration " << i;
  }
}

TEST(Composite, HalfLoopsScreenCleanFromResetAndCureWhenLatched) {
  Rng rng(31337);
  std::size_t latched = 0;
  for (int i = 0; i < 10; ++i) {
    auto gen = graph::make_random_composite(rng, 3, true,
                                            /*allow_half_in_loops=*/true);
    skeleton::ScreeningOptions reset_opts;
    const auto reset = xir::screen_for_deadlock(gen.topo, reset_opts);
    ASSERT_TRUE(reset.found);
    EXPECT_FALSE(reset.deadlock_found()) << "iteration " << i;

    skeleton::ScreeningOptions wc;
    wc.worst_case_occupancy = true;
    const auto worst = xir::screen_for_deadlock(gen.topo, wc);
    if (worst.deadlock_found()) {
      ++latched;
      const auto cure = xir::cure_deadlocks(gen.topo, wc);
      EXPECT_TRUE(cure.success) << "iteration " << i;
    }
  }
  // With halves allowed in loops, a decent fraction of samples latch.
  EXPECT_GT(latched, 0u);
}

TEST(Composite, TransientWithinBound) {
  Rng rng(5150);
  for (int i = 0; i < 6; ++i) {
    auto gen = graph::make_random_composite(rng, 2, false);
    const auto bound = graph::transient_bound(gen.topo);
    auto d = testutil::make_design(std::move(gen));
    auto sys = d.instantiate();
    const auto ss = lip::measure_steady_state(*sys, 1 << 20);
    ASSERT_TRUE(ss.found);
    EXPECT_LE(ss.transient, bound) << "iteration " << i;
  }
}

}  // namespace
