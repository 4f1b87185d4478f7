// The paper's liveness results, reproduced with a sharpened model:
//  - feedforward LIDs (with reconvergence) are deadlock free;
//  - LIDs with only full relay stations are deadlock free;
//  - half relay stations create a *potential* deadlock iff they lie on
//    loops: the loop's stop path is then a combinational cycle — a
//    bistable latch.  The latch can only assert when every station on the
//    loop holds a token, and a directed cycle provably keeps exactly its
//    shells' tokens forever, so the latch is unreachable from reset —
//    the paper's observation that "its injection will never occur" in
//    many cases.  Worst-case-occupancy screening (token injection)
//    exposes it; the full station's second register is exactly the slack
//    that makes full-only loops immune;
//  - skeleton screening up to transient extinction decides liveness;
//  - deadlocking designs are cured by substituting few relay stations.

#include <gtest/gtest.h>

#include "liplib/graph/generators.hpp"
#include "liplib/lip/steady_state.hpp"
#include "liplib/skeleton/skeleton.hpp"
#include "liplib/xir/xir.hpp"
#include "test_util.hpp"

namespace {

using namespace liplib;
using graph::RsKind;
using lip::StopPolicy;
using lip::StopResolution;

skeleton::ScreeningOptions from_reset(
    StopPolicy p = StopPolicy::kCasuDiscardOnVoid) {
  return {{p, StopResolution::kPessimistic}, /*worst_case_occupancy=*/false};
}

skeleton::ScreeningOptions worst_case(
    StopPolicy p = StopPolicy::kCasuDiscardOnVoid,
    StopResolution r = StopResolution::kPessimistic) {
  return {{p, r}, /*worst_case_occupancy=*/true};
}

TEST(Deadlock, FeedforwardWithHalfStationsIsFree) {
  // Half stations off-cycle are safe, even many of them, even under
  // worst-case occupancy: the stop network is acyclic.
  Rng rng(42);
  for (int i = 0; i < 10; ++i) {
    auto gen = graph::make_random_feedforward(rng, 6, 3, /*allow_half=*/true);
    for (auto pol : {StopPolicy::kCarloniStrict,
                     StopPolicy::kCasuDiscardOnVoid}) {
      for (bool wc : {false, true}) {
        auto opts = wc ? worst_case(pol) : from_reset(pol);
        const auto verdict = xir::screen_for_deadlock(gen.topo, opts);
        ASSERT_TRUE(verdict.found);
        EXPECT_FALSE(verdict.deadlock_found())
            << "iteration " << i << " policy " << to_string(pol)
            << " worst_case=" << wc;
      }
    }
  }
}

TEST(Deadlock, FullOnlyLoopsAreFreeEvenUnderWorstCase) {
  // The full relay station's second register is the slack that keeps a
  // saturated loop moving.
  for (std::size_t s : {1u, 2u, 4u}) {
    for (std::size_t per : {1u, 2u, 3u}) {
      auto gen = graph::make_closed_ring(
          std::vector<std::size_t>(s, per), RsKind::kFull);
      for (bool wc : {false, true}) {
        auto opts = wc ? worst_case() : from_reset();
        const auto verdict = xir::screen_for_deadlock(gen.topo, opts);
        ASSERT_TRUE(verdict.found);
        EXPECT_FALSE(verdict.deadlock_found())
            << "S=" << s << " per=" << per << " worst_case=" << wc;
      }
    }
  }
}

TEST(Deadlock, HalfRingIsFreeFromReset) {
  // From reset, a directed cycle holds exactly its shells' tokens, so the
  // latch precondition (every station occupied) never arises: the paper's
  // "simulate up to the transient's extinction ... or [the deadlock] will
  // be forever avoided".
  auto gen = graph::make_closed_ring({1, 1}, RsKind::kHalf);
  const auto verdict = xir::screen_for_deadlock(gen.topo, from_reset());
  ASSERT_TRUE(verdict.found);
  EXPECT_FALSE(verdict.deadlock_found());
  EXPECT_EQ(verdict.system_throughput(), Rational(1, 2));  // S/(S+R) = 2/4
}

TEST(Deadlock, HalfRingLatchesUnderWorstCaseOccupancy) {
  // Saturated, the all-half ring's stop cycle is self-sustaining: the
  // pessimistic settling freezes the ring forever.
  auto gen = graph::make_closed_ring({1, 1}, RsKind::kHalf);
  const auto verdict = xir::screen_for_deadlock(gen.topo, worst_case());
  ASSERT_TRUE(verdict.found);
  EXPECT_TRUE(verdict.deadlock_found());
  EXPECT_EQ(verdict.system_throughput(), Rational(0));
}

TEST(Deadlock, HalfRingLatchIsBistable) {
  // The same saturated ring under optimistic settling rotates in lockstep
  // at full rate: the two fixed points of the stop latch are "frozen
  // forever" and "everything moves" — real hardware may land on either,
  // which is exactly why the paper calls it a potential deadlock.
  auto gen = graph::make_closed_ring({1, 1}, RsKind::kHalf);
  const auto verdict = xir::screen_for_deadlock(
      gen.topo,
      worst_case(StopPolicy::kCasuDiscardOnVoid, StopResolution::kOptimistic));
  ASSERT_TRUE(verdict.found);
  EXPECT_FALSE(verdict.deadlock_found());
  EXPECT_EQ(verdict.system_throughput(), Rational(1));
}

TEST(Deadlock, OneFullStationBreaksTheLatch) {
  // One full station anywhere on the loop registers the stop path and
  // breaks the combinational cycle; worst-case occupancy then drains.
  graph::Topology t;
  const auto a = t.add_process("A", 1, 1);
  const auto b = t.add_process("B", 1, 1);
  t.connect({a, 0}, {b, 0}, {RsKind::kHalf});
  t.connect({b, 0}, {a, 0}, {RsKind::kFull});
  const auto verdict = xir::screen_for_deadlock(t, worst_case());
  ASSERT_TRUE(verdict.found);
  EXPECT_FALSE(verdict.deadlock_found());
}

TEST(Deadlock, ValidatorWarnsOnHalfStationsInLoops) {
  auto gen = graph::make_closed_ring({1, 1}, RsKind::kHalf);
  const auto report = gen.topo.validate();
  EXPECT_TRUE(report.ok());  // warnings only
  bool warned = false;
  for (const auto& issue : report.issues) {
    if (issue.severity == graph::ValidationIssue::Severity::kWarning &&
        issue.message.find("half relay station") != std::string::npos) {
      warned = true;
    }
  }
  EXPECT_TRUE(warned);
}

TEST(Deadlock, FullSystemAgreesWithSkeleton) {
  auto gen = graph::make_closed_ring({1, 1}, RsKind::kHalf);
  auto d = testutil::make_design(gen);

  auto sys = d.instantiate({StopPolicy::kCasuDiscardOnVoid,
                            StopResolution::kPessimistic});
  sys->saturate_stations(99);
  const auto ss = lip::measure_steady_state(*sys);
  ASSERT_TRUE(ss.found);
  EXPECT_TRUE(ss.deadlocked);

  auto sys_opt = d.instantiate({StopPolicy::kCasuDiscardOnVoid,
                                StopResolution::kOptimistic});
  sys_opt->saturate_stations(99);
  const auto ss_opt = lip::measure_steady_state(*sys_opt);
  ASSERT_TRUE(ss_opt.found);
  EXPECT_FALSE(ss_opt.deadlocked);
}

TEST(Deadlock, CureUpgradesFewStations) {
  auto gen = graph::make_closed_ring({1, 1, 1}, RsKind::kHalf);
  const auto before = xir::screen_for_deadlock(gen.topo, worst_case());
  ASSERT_TRUE(before.deadlock_found());

  const auto cure = xir::cure_deadlocks(gen.topo, worst_case());
  EXPECT_TRUE(cure.success);
  EXPECT_GE(cure.substitutions, 1u);
  EXPECT_LE(cure.substitutions, 3u);  // "low intrusive changes"
  const auto after = xir::screen_for_deadlock(cure.cured, worst_case());
  EXPECT_FALSE(after.deadlock_found());
  // The cure preserves the station count (substitution, not insertion).
  EXPECT_EQ(cure.cured.total_stations(), gen.topo.total_stations());
}

TEST(Deadlock, CureLeavesHealthyDesignAlone) {
  auto gen = graph::make_loop_chain({{1, 2}, {2, 3}});
  const auto cure = xir::cure_deadlocks(gen.topo, worst_case());
  EXPECT_TRUE(cure.success);
  EXPECT_EQ(cure.substitutions, 0u);
}

TEST(Deadlock, LoopChainWithHalfLoopDetectedAndCured) {
  // A chain where the middle loop uses half stations: latent latch there,
  // detected under worst-case occupancy and cured locally.
  std::vector<graph::RingSpec> specs = {
      {1, 2, RsKind::kFull}, {1, 2, RsKind::kHalf}, {1, 2, RsKind::kFull}};
  auto gen = graph::make_loop_chain(specs);
  const auto reset_verdict =
      xir::screen_for_deadlock(gen.topo, from_reset());
  ASSERT_TRUE(reset_verdict.found);
  EXPECT_FALSE(reset_verdict.deadlock_found());

  const auto wc_verdict = xir::screen_for_deadlock(gen.topo, worst_case());
  ASSERT_TRUE(wc_verdict.found);
  ASSERT_TRUE(wc_verdict.deadlock_found());
  // Only the half-station loop starves.
  EXPECT_FALSE(wc_verdict.starved_shells().empty());

  const auto cure = xir::cure_deadlocks(gen.topo, worst_case());
  EXPECT_TRUE(cure.success);
  EXPECT_LE(cure.substitutions, 2u);
}

}  // namespace
