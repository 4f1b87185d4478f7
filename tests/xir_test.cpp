// Differential suite for liplib::xir: the compiled scalar engine and
// the 64-way bit-sliced engine against the interpreted skeleton, the
// reference model no product path runs.
//
// The xir engines advertise *bit-exactness*, not approximation: same
// verdict, same settle cycle (transient + period), same exact Rational
// throughputs, same probe observations, same watchdog trip cycle.  The
// tests here hold both engines to the interpreter over hundreds of
// random "most general topology" instances (the same generator family
// the lint cross-check campaign uses) under both stop policies, both
// stop resolutions and both starting states, plus targeted checks for
// lane independence, probe/watchdog parity and the campaign jobs that
// run on the engines.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "liplib/campaign/campaign.hpp"
#include "liplib/campaign/jobs.hpp"
#include "liplib/graph/generators.hpp"
#include "liplib/probe/probe.hpp"
#include "liplib/skeleton/skeleton.hpp"
#include "liplib/support/rng.hpp"
#include "liplib/telemetry/watchdog.hpp"
#include "liplib/xir/sliced.hpp"
#include "liplib/xir/xir.hpp"

using namespace liplib;

namespace {

// The lint cross-check generator's recipe: a random composite whose
// half stations may sit on loops for half the draws, so live, starved
// and deadlocked dynamics all appear in the corpus.
graph::Topology random_composite(std::uint64_t seed,
                                 std::size_t max_segments = 4) {
  Rng rng(seed);
  const std::size_t segments = 1 + rng.below(max_segments);
  const bool risky = rng.chance(1, 2);
  return graph::make_random_composite(rng, segments, /*allow_half=*/true,
                                      /*allow_half_in_loops=*/risky)
      .topo;
}

// The oracle: the interpreter's steady-state analysis, and the cycles it
// simulated to reach it.
struct InterpOutcome {
  skeleton::SkeletonResult result;
  std::uint64_t cycles = 0;
};

InterpOutcome interp_analyze(const graph::Topology& topo,
                             skeleton::SkeletonOptions opts,
                             std::uint64_t budget, bool worst_case) {
  skeleton::Skeleton sk(topo, opts);
  if (worst_case) sk.saturate_stations();
  InterpOutcome out;
  out.result = sk.analyze(budget);
  out.cycles = sk.cycle();
  return out;
}

// The paper's screening recipe on the interpreter.
skeleton::ScreeningVerdict interp_screen(const graph::Topology& topo,
                                         skeleton::ScreeningOptions opts,
                                         std::uint64_t budget) {
  const auto out = interp_analyze(topo, opts.skeleton, budget,
                                  opts.worst_case_occupancy);
  return skeleton::screening_verdict(out.result, out.cycles);
}

void expect_same_result(const skeleton::SkeletonResult& want,
                        const skeleton::SkeletonResult& got,
                        const std::string& what) {
  EXPECT_EQ(want.found, got.found) << what;
  EXPECT_EQ(want.transient, got.transient) << what;
  EXPECT_EQ(want.period, got.period) << what;
  EXPECT_EQ(want.deadlocked, got.deadlocked) << what;
  EXPECT_EQ(want.has_starved_shell, got.has_starved_shell) << what;
  EXPECT_EQ(want.shell_ids, got.shell_ids) << what;
  ASSERT_EQ(want.shell_throughput.size(), got.shell_throughput.size())
      << what;
  for (std::size_t i = 0; i < want.shell_throughput.size(); ++i) {
    EXPECT_EQ(want.shell_throughput[i], got.shell_throughput[i])
        << what << " shell " << i;
  }
  EXPECT_EQ(want.system_throughput(), got.system_throughput()) << what;
}

void expect_same_verdict(const skeleton::ScreeningVerdict& want,
                         const skeleton::ScreeningVerdict& got,
                         const std::string& what) {
  EXPECT_EQ(want.ran_to_steady_state, got.ran_to_steady_state) << what;
  EXPECT_EQ(want.deadlock_found, got.deadlock_found) << what;
  EXPECT_EQ(want.transient, got.transient) << what;
  EXPECT_EQ(want.period, got.period) << what;
  EXPECT_EQ(want.cycles_simulated, got.cycles_simulated) << what;
  EXPECT_EQ(want.min_throughput, got.min_throughput) << what;
  EXPECT_EQ(want.starved, got.starved) << what;
}

// Variant kinds are drawn in program station order (channel-major);
// writing them back channel-major reconstructs the variant topology the
// sliced lane evaluates.
graph::Topology with_station_kinds(const graph::Topology& topo,
                                   const std::vector<graph::RsKind>& kinds) {
  graph::Topology out = topo;
  std::size_t next = 0;
  for (graph::ChannelId c = 0; c < out.channels().size(); ++c) {
    for (auto& k : out.channel_mut(c).stations) k = kinds.at(next++);
  }
  EXPECT_EQ(next, kinds.size());
  return out;
}

// Both stop resolutions: pessimistic settling is the product default;
// optimistic settling is what telemetry::replay and the latch's
// bistability checks exercise.
constexpr lip::StopResolution kResolutions[] = {
    lip::StopResolution::kPessimistic, lip::StopResolution::kOptimistic};

const char* resolution_name(lip::StopResolution r) {
  return r == lip::StopResolution::kOptimistic ? "optimistic"
                                               : "pessimistic";
}

// ---- the 300-topology differential -------------------------------------

TEST(XirDifferential, ThreeHundredRandomComposites) {
  constexpr std::uint64_t kBudget = 1u << 16;
  for (std::uint64_t i = 0; i < 300; ++i) {
    const std::uint64_t seed = campaign::job_seed(7, i);
    const graph::Topology topo = random_composite(seed);
    const bool worst_case = (i % 3) == 0;
    for (const lip::StopResolution resolution : kResolutions) {
      skeleton::SkeletonOptions opts;
      opts.policy = (i % 2) ? lip::StopPolicy::kCarloniStrict
                            : lip::StopPolicy::kCasuDiscardOnVoid;
      opts.resolution = resolution;
      const std::string what = "topology " + std::to_string(i) + " " +
                               resolution_name(resolution);

      const auto interp = interp_analyze(topo, opts, kBudget, worst_case);

      xir::ScalarEngine compiled(topo, opts);
      if (worst_case) compiled.saturate_stations();
      expect_same_result(interp.result, compiled.analyze(kBudget),
                         what + " compiled");
      EXPECT_EQ(interp.cycles, compiled.cycle()) << what;

      xir::SlicedEngine sliced(topo, opts, /*num_lanes=*/1);
      if (worst_case) sliced.saturate_stations(1ull);
      const auto lanes = sliced.analyze(kBudget);
      expect_same_result(interp.result, lanes[0].result, what + " sliced");
      EXPECT_EQ(interp.cycles, lanes[0].cycles) << what;
    }
  }
}

TEST(XirDifferential, ScreeningVerdictsAgree) {
  for (std::uint64_t i = 0; i < 60; ++i) {
    const graph::Topology topo = random_composite(campaign::job_seed(11, i));
    for (const lip::StopResolution resolution : kResolutions) {
      skeleton::ScreeningOptions opts;
      opts.skeleton.resolution = resolution;
      opts.worst_case_occupancy = (i % 2) == 0;
      const std::string what = "topology " + std::to_string(i) + " " +
                               resolution_name(resolution);

      const auto interp = interp_screen(topo, opts, 1u << 16);
      const auto compiled = xir::screen_for_deadlock(topo, opts, 1u << 16);
      xir::VariantSpec lane;
      lane.worst_case_occupancy = opts.worst_case_occupancy;
      const auto sliced =
          xir::screen_variants(topo, {lane}, opts.skeleton, 1u << 16);
      expect_same_verdict(interp, compiled, what + " compiled");
      expect_same_verdict(interp, sliced.at(0), what + " sliced");
    }
  }
}

// The engine's own API surface (not just analyze()): step/cycle/fires
// track the interpreter cycle by cycle.
TEST(XirDifferential, StepLevelFireCounts) {
  const graph::Topology topo = random_composite(42);
  skeleton::SkeletonOptions opts;
  skeleton::Skeleton sk(topo, opts);
  xir::ScalarEngine eng(topo, opts);
  for (int c = 0; c < 200; ++c) {
    sk.step();
    eng.step();
  }
  EXPECT_EQ(sk.cycle(), eng.cycle());
  for (graph::NodeId n = 0; n < topo.nodes().size(); ++n) {
    if (topo.node(n).kind != graph::NodeKind::kProcess) continue;
    EXPECT_EQ(sk.fires(n), eng.fires(n)) << topo.node(n).name;
  }
}

// ---- sliced lane independence -------------------------------------------

TEST(XirSliced, LaneSignatureMatchesScalarEveryCycle) {
  const graph::Topology topo = random_composite(99);
  skeleton::SkeletonOptions opts;
  xir::ScalarEngine scalar(topo, opts);
  xir::SlicedEngine sliced(topo, opts);
  for (int c = 0; c < 100; ++c) {
    for (std::size_t lane : {std::size_t{0}, std::size_t{17},
                             std::size_t{63}}) {
      EXPECT_EQ(scalar.state_signature(), sliced.lane_signature(lane))
          << "cycle " << c << " lane " << lane;
    }
    scalar.step();
    sliced.step();
  }
}

TEST(XirSliced, SixtyFourVariantLanesMatchInterpreter) {
  // A composite with loops so half-station variants actually diverge
  // (some lanes deadlock from worst-case occupancy, others stay live).
  Rng rng(5);
  const graph::Topology base =
      graph::make_random_composite(rng, 3, true, true).topo;
  ASSERT_GT(base.total_stations(), 0u);

  std::vector<xir::VariantSpec> variants(64);
  for (std::size_t v = 0; v < 64; ++v) {
    variants[v].kinds = campaign::mix_screen_variant_kinds(base, 1, v);
    variants[v].worst_case_occupancy = true;
  }
  const auto batched = xir::screen_variants(base, variants, {}, 1u << 14);
  ASSERT_EQ(batched.size(), 64u);

  bool saw_deadlock = false, saw_live = false;
  for (std::size_t v = 0; v < 64; ++v) {
    const graph::Topology variant =
        with_station_kinds(base, variants[v].kinds);
    skeleton::ScreeningOptions opts;
    opts.worst_case_occupancy = true;
    const auto interp = interp_screen(variant, opts, 1u << 14);
    expect_same_verdict(interp, batched[v], "variant " + std::to_string(v));
    (interp.deadlock_found ? saw_deadlock : saw_live) = true;
  }
  // The corpus must exercise both verdicts or the test proves nothing.
  EXPECT_TRUE(saw_deadlock);
  EXPECT_TRUE(saw_live);
}

// ---- probe and watchdog parity ------------------------------------------

TEST(XirProbe, ReportMatchesInterpreter) {
  const graph::Topology topo = random_composite(123);
  skeleton::SkeletonOptions opts;

  skeleton::Skeleton sk(topo, opts);
  probe::Probe sk_probe;
  sk.attach_probe(sk_probe);
  sk.run(300);

  xir::ScalarEngine eng(topo, opts);
  probe::Probe eng_probe;
  eng.attach_probe(eng_probe);
  eng.run(300);

  EXPECT_EQ(sk_probe.report().to_json().dump(),
            eng_probe.report().to_json().dump());
}

TEST(XirWatchdog, TripCycleMatchesInterpreter) {
  // A half-station loop saturated from worst-case occupancy: the
  // paper's latent stop latch, guaranteed to freeze.
  const graph::Topology topo =
      graph::make_ring_with_tap(1, 1, graph::RsKind::kHalf).topo;

  telemetry::Watchdog dog_sk{};
  skeleton::Skeleton sk(topo, {});
  sk.saturate_stations();
  dog_sk.attach(sk);
  const auto run_sk = telemetry::run_guarded(sk, dog_sk, 4096);

  telemetry::Watchdog dog_eng{};
  xir::ScalarEngine eng(topo, {});
  eng.saturate_stations();
  dog_eng.attach(eng);
  const auto run_eng = telemetry::run_guarded(eng, dog_eng, 4096);

  ASSERT_TRUE(dog_sk.tripped());
  ASSERT_TRUE(dog_eng.tripped());
  EXPECT_EQ(run_sk.cycles, run_eng.cycles);
  EXPECT_EQ(dog_sk.reason(), dog_eng.reason());
  EXPECT_EQ(dog_sk.trip_cycle(), dog_eng.trip_cycle());
  EXPECT_EQ(dog_sk.no_progress_since(), dog_eng.no_progress_since());
}

// ---- campaign integration -----------------------------------------------

// Outcome severity of a screening verdict, as campaign jobs fold it
// (worst lane wins).
int severity(const skeleton::ScreeningVerdict& v) {
  if (!v.ran_to_steady_state) return 3;  // budget exhausted
  if (!v.deadlock_found) return 0;       // live
  return (!v.starved.empty() && v.min_throughput > Rational(0)) ? 1  // starved
                                                                : 2;  // dead
}

int severity(campaign::Outcome o) {
  switch (o) {
    case campaign::Outcome::kBudgetExhausted: return 3;
    case campaign::Outcome::kDeadlock: return 2;
    case campaign::Outcome::kStarvation: return 1;
    default: return 0;
  }
}

TEST(XirCampaign, MixScreenBatchesFoldInterpreterVerdicts) {
  Rng rng(5);
  const graph::Topology base =
      graph::make_random_composite(rng, 3, true, true).topo;

  campaign::MixScreenSpec spec;
  spec.topo = base;
  spec.variants = 100;
  campaign::EngineOptions eopts;
  eopts.threads = 2;
  eopts.cycle_budget = 1u << 14;
  const auto sliced =
      campaign::Engine(eopts).run(campaign::make_mix_screen_campaign(spec));

  // Each variant on its own through the interpreter.
  std::vector<skeleton::ScreeningVerdict> interp;
  skeleton::ScreeningOptions wc;
  wc.worst_case_occupancy = true;
  for (std::size_t v = 0; v < spec.variants; ++v) {
    const auto kinds =
        campaign::mix_screen_variant_kinds(base, eopts.base_seed, v);
    interp.push_back(interp_screen(with_station_kinds(base, kinds), wc,
                                   eopts.cycle_budget));
  }

  // 64 variants per job; each job folds its batch to the worst
  // per-variant outcome and the summed cycles.
  ASSERT_EQ(sliced.size(), 2u);  // ceil(100 / 64)
  std::size_t lo = 0;
  for (const auto& job : sliced) {
    const std::size_t hi = std::min<std::size_t>(lo + 64, 100);
    int worst = 0;
    std::uint64_t cycles = 0;
    for (std::size_t v = lo; v < hi; ++v) {
      worst = std::max(worst, severity(interp[v]));
      cycles += interp[v].cycles_simulated;
    }
    EXPECT_EQ(severity(job.outcome), worst) << job.name;
    EXPECT_EQ(job.cycles, cycles) << job.name;
    lo = hi;
  }
}

// Fuzz jobs analyze on the scalar engine; replaying each job's topology
// (the composite recipe, from the job's own seed) through the
// interpreter reproduces its verdict, cycle count and exact throughput.
TEST(XirCampaign, FuzzJobsEngineInvariant) {
  campaign::FuzzSpec spec;
  spec.shape = campaign::FuzzSpec::Shape::kComposite;
  spec.check_equivalence = false;  // full-data path: not a skeleton
  std::vector<campaign::Job> jobs;
  for (std::size_t i = 0; i < 20; ++i) {
    jobs.push_back(campaign::make_fuzz_job("fuzz/" + std::to_string(i), spec));
  }
  campaign::EngineOptions eopts;
  eopts.threads = 2;
  eopts.cycle_budget = 1u << 14;
  const auto results = campaign::Engine(eopts).run(jobs);

  for (std::size_t i = 0; i < results.size(); ++i) {
    Rng rng(campaign::job_seed(eopts.base_seed, i));
    const std::size_t segments = 1 + rng.below(spec.size);
    const auto gen = graph::make_random_composite(
        rng, segments, /*allow_half=*/true, /*allow_half_in_loops=*/false);
    const auto interp = interp_analyze(gen.topo, {spec.policy},
                                       eopts.cycle_budget, false);
    const auto& r = interp.result;
    const campaign::Outcome want =
        !r.found              ? campaign::Outcome::kBudgetExhausted
        : r.deadlocked        ? campaign::Outcome::kDeadlock
        : r.has_starved_shell ? campaign::Outcome::kStarvation
                              : campaign::Outcome::kLive;
    EXPECT_EQ(results[i].outcome, want) << i;
    EXPECT_EQ(results[i].cycles, interp.cycles) << i;
    EXPECT_EQ(results[i].has_throughput, r.found) << i;
    EXPECT_EQ(results[i].throughput, r.system_throughput()) << i;
  }
}

}  // namespace
