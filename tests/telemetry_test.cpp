// liplib::telemetry — watchdog trip points, flight-recorder bundles and
// their replay, fleet metrics determinism, and the bench regression gate.
//
// The acceptance spine: a seeded half-RS-in-loop design trips the
// watchdog at the earliest no-progress cycle, the post-mortem bundle
// survives a JSON round trip, and replaying the bundle's netlist
// reproduces the identical deadlock cycle.  A (m−i)/m reconvergent
// design and a 100-composite live corpus never trip (no false
// positives).  Fleet percentiles are byte-identical at 1/2/8 worker
// threads.  `bench diff` flags an injected ≥10% regression and passes
// identical files.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "liplib/campaign/campaign.hpp"
#include "liplib/campaign/jobs.hpp"
#include "liplib/campaign/report.hpp"
#include "liplib/graph/generators.hpp"
#include "liplib/graph/netlist_io.hpp"
#include "liplib/pearls/design_io.hpp"
#include "liplib/pearls/pearls.hpp"
#include "liplib/skeleton/skeleton.hpp"
#include "liplib/support/metrics.hpp"
#include "liplib/telemetry/bench_diff.hpp"
#include "liplib/telemetry/watchdog.hpp"
#include "liplib/xir/xir.hpp"
#include "test_util.hpp"

namespace {

using namespace liplib;
using graph::RsKind;

// ---- watchdog trip points ----------------------------------------------

TEST(Watchdog, SaturatedHalfRingTripsAtEarliestNoProgressCycle) {
  // The paper's latent stop latch: a two-shell ring with one half station
  // per channel deadlocks under worst-case occupancy (deadlock_test locks
  // the screening verdict; here the *runtime* watchdog catches it live).
  auto gen = graph::make_closed_ring({1, 1}, RsKind::kHalf);
  xir::ScalarEngine sk(gen.topo);
  sk.saturate_stations();

  telemetry::WatchdogOptions opts;
  opts.no_progress_threshold = 8;
  opts.seed = 0xDEADBEEF;
  opts.worst_case_occupancy = true;
  telemetry::Watchdog dog(opts);
  dog.attach(sk);

  const auto run = telemetry::run_guarded(sk, dog, 10000);
  ASSERT_TRUE(dog.tripped());
  ASSERT_TRUE(run.deadlocked);
  // Saturated from reset: frozen from the very first cycle, tripped
  // exactly at the K-th frozen frame — and every pending token is
  // back-pressured, which is the stop-saturation signature.
  EXPECT_EQ(dog.reason(), telemetry::TripReason::kStopSaturation);
  EXPECT_EQ(dog.no_progress_since(), 0u);
  EXPECT_EQ(dog.trip_cycle(),
            dog.no_progress_since() + opts.no_progress_threshold - 1);
  EXPECT_EQ(run.cycles, opts.no_progress_threshold);
}

TEST(Watchdog, BundleRoundTripsAndReplayReproducesIdenticalCycle) {
  auto gen = graph::make_closed_ring({1, 1}, RsKind::kHalf);
  xir::ScalarEngine sk(gen.topo);
  sk.saturate_stations();

  telemetry::WatchdogOptions opts;
  opts.no_progress_threshold = 8;
  opts.ring_cycles = 32;
  opts.seed = 0xDEADBEEF;
  opts.worst_case_occupancy = true;
  telemetry::Watchdog dog(opts);
  dog.attach(sk);
  telemetry::run_guarded(sk, dog, 10000);
  ASSERT_TRUE(dog.tripped());

  const auto pm = dog.post_mortem();
  EXPECT_EQ(pm.seed, 0xDEADBEEFu);
  EXPECT_TRUE(pm.worst_case_occupancy);
  EXPECT_FALSE(pm.netlist.empty());
  // The bundle's trace is a well-formed trace-event document covering
  // the recorded window.
  const Json trace = Json::parse(pm.trace_json);
  ASSERT_NE(trace.find("traceEvents"), nullptr);
  EXPECT_GT(trace.find("traceEvents")->size(), 0u);
  // Deadlock evidence: the blame histogram is non-empty (every shell is
  // stalled, someone is to blame).
  EXPECT_FALSE(pm.blame.empty());

  // Byte-level round trip through the JSON bundle.
  const std::string bundle = pm.to_json().dump(2);
  const auto back = telemetry::PostMortem::from_json(Json::parse(bundle));
  EXPECT_EQ(back.to_json().dump(2), bundle);

  // Replay from the bundle alone: identical deadlock cycle.
  const auto r = telemetry::replay(back);
  EXPECT_TRUE(r.tripped);
  EXPECT_TRUE(r.reproduced);
  EXPECT_EQ(r.trip_cycle, pm.trip_cycle);
  EXPECT_EQ(r.no_progress_since, pm.no_progress_since);
  EXPECT_EQ(r.reason, pm.reason);
}

// A bundle arrives from another process (a file, a daemon answer): a
// blame row that lacks a member is an ApiError naming it, not a crash.
TEST(Watchdog, BundleWithAMalformedBlameRowIsRejectedByName) {
  auto gen = graph::make_closed_ring({1, 1}, RsKind::kHalf);
  xir::ScalarEngine sk(gen.topo);
  sk.saturate_stations();
  telemetry::WatchdogOptions opts;
  opts.no_progress_threshold = 8;
  opts.worst_case_occupancy = true;
  telemetry::Watchdog dog(opts);
  dog.attach(sk);
  telemetry::run_guarded(sk, dog, 10000);
  ASSERT_TRUE(dog.tripped());

  const Json bundle = dog.post_mortem().to_json();
  Json bad = Json::object();
  for (const auto& [key, value] : bundle.members()) {
    bad.set(key, key == "blame" ? Json::array().push(
                                      Json::object().set("why", "x"))
                                : value);
  }
  try {
    telemetry::PostMortem::from_json(bad);
    ADD_FAILURE() << "a blame row without a victim was accepted";
  } catch (const ApiError& e) {
    EXPECT_NE(std::string(e.what()).find("\"victim\""), std::string::npos)
        << e.what();
  }
}

TEST(Watchdog, FullDataSystemTripsLikeTheSkeleton) {
  // lip::System and the skeleton (xir::ScalarEngine) share one protocol
  // trajectory; the watchdog verdict (the satellite surfaced through
  // lidtool run) must agree cycle-for-cycle.
  auto gen = graph::make_closed_ring({1, 1}, RsKind::kHalf);

  xir::ScalarEngine sk(gen.topo);
  sk.saturate_stations();
  telemetry::WatchdogOptions opts;
  opts.no_progress_threshold = 8;
  telemetry::Watchdog sk_dog(opts);
  sk_dog.attach(sk);
  telemetry::run_guarded(sk, sk_dog, 10000);
  ASSERT_TRUE(sk_dog.tripped());

  auto design = testutil::make_design(gen);
  auto sys = design.instantiate();
  telemetry::Watchdog sys_dog(opts);
  sys_dog.attach(*sys);
  sys->saturate_stations();
  const auto run = telemetry::run_guarded(*sys, sys_dog, 10000);
  ASSERT_TRUE(run.deadlocked);
  EXPECT_EQ(sys_dog.reason(), sk_dog.reason());
  EXPECT_EQ(sys_dog.trip_cycle(), sk_dog.trip_cycle());
  EXPECT_EQ(sys_dog.no_progress_since(), sk_dog.no_progress_since());
}

TEST(Watchdog, ReconvergentDegradedThroughputNeverTrips) {
  // T = (m−i)/m < 1 is degradation, not deadlock: tokens keep moving
  // every cycle, so the watchdog must stay silent over many periods.
  auto gen = graph::make_reconvergent(/*short_stations=*/1,
                                      /*long_shells=*/3,
                                      /*long_stations_per_hop=*/1);
  xir::ScalarEngine sk(gen.topo);
  telemetry::Watchdog dog;
  dog.attach(sk);
  const auto run = telemetry::run_guarded(sk, dog, 5000);
  EXPECT_FALSE(dog.tripped());
  EXPECT_FALSE(run.deadlocked);
  EXPECT_EQ(run.cycles, 5000u);
}

TEST(Watchdog, HundredCompositeCorpusHasNoFalsePositives) {
  // Live random composites (half stations allowed, but not inside
  // loops): the watchdog must never trip on any of them.
  Rng rng(0xC0FFEE);
  for (int i = 0; i < 100; ++i) {
    const std::size_t segments = 1 + rng.below(4);
    auto gen = graph::make_random_composite(rng, segments,
                                            /*allow_half=*/true,
                                            /*allow_half_in_loops=*/false);
    xir::ScalarEngine sk(gen.topo);
    telemetry::Watchdog dog;
    dog.attach(sk);
    telemetry::run_guarded(sk, dog, 1500);
    EXPECT_FALSE(dog.tripped()) << "composite " << i;
  }
}

TEST(Watchdog, FlightRecorderRingIsBounded) {
  auto gen = graph::make_fig2();
  xir::ScalarEngine sk(gen.topo);
  telemetry::WatchdogOptions opts;
  opts.ring_cycles = 16;
  telemetry::Watchdog dog(opts);
  dog.attach(sk);
  sk.run(100);
  EXPECT_FALSE(dog.tripped());
  EXPECT_EQ(dog.recorded_cycles(), 16u);
}

TEST(Watchdog, RejectsDegenerateOptions) {
  telemetry::WatchdogOptions zero_k;
  zero_k.no_progress_threshold = 0;
  EXPECT_THROW(telemetry::Watchdog{zero_k}, ApiError);
  telemetry::WatchdogOptions zero_ring;
  zero_ring.ring_cycles = 0;
  EXPECT_THROW(telemetry::Watchdog{zero_ring}, ApiError);
}

TEST(KernelWatchdog, TripsOnDeltaStormAtOneTimePoint) {
  telemetry::KernelWatchdog dog(/*max_deltas_per_time=*/16);
  for (int i = 0; i < 15; ++i) dog.on_delta(7, 1, 1);
  EXPECT_FALSE(dog.tripped());
  dog.on_delta(7, 1, 1);
  ASSERT_TRUE(dog.tripped());
  EXPECT_EQ(dog.trip_time(), 7u);
  EXPECT_EQ(dog.deltas_at_trip(), 16u);
  // A new time point resets the per-time budget (already tripped stays).
  telemetry::KernelWatchdog fresh(16);
  for (int i = 0; i < 15; ++i) fresh.on_delta(7, 1, 1);
  fresh.on_time_serviced(7, 15);
  for (int i = 0; i < 15; ++i) fresh.on_delta(8, 1, 1);
  EXPECT_FALSE(fresh.tripped());
}

// ---- the one screen against the full-budget guard ----------------------
//
// Serve's screen, `lidtool simulate` and prove's counterexample replay
// answer from xir::screen_for_deadlock and take a deadlock's evidence
// from telemetry::deadlock_evidence.  The reference kept here is the
// rule they replaced: a watchdog guard over the whole budget.  The guard
// must trip exactly when the search finds a deadlock, and the evidence
// re-run must reproduce the guard's trip: reason, cycle indices, cycles
// stepped and the post-mortem bundle byte for byte.

// The lint cross-check generator's recipe (tests/xir_test.cpp).
graph::Topology random_composite(std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t segments = 1 + rng.below(4);
  const bool risky = rng.chance(1, 2);
  return graph::make_random_composite(rng, segments, /*allow_half=*/true,
                                      /*allow_half_in_loops=*/risky)
      .topo;
}

void expect_one_screen_matches_guard(const graph::Topology& topo,
                                     skeleton::SkeletonOptions sopts,
                                     bool worst_case,
                                     const std::string& what) {
  constexpr std::uint64_t kBudget = 4096;
  const xir::ProgramRef prog = xir::lower(topo, sopts);
  telemetry::WatchdogOptions wopts;
  wopts.worst_case_occupancy = worst_case;
  wopts.optimistic = sopts.resolution == lip::StopResolution::kOptimistic;

  xir::ScalarEngine guard(prog);
  if (worst_case) guard.saturate_stations();
  telemetry::Watchdog dog(wopts);
  dog.attach(guard);
  const auto run = telemetry::run_guarded(guard, dog, kBudget);

  const auto v = xir::screen_for_deadlock(prog, worst_case, kBudget);
  xir::ScalarEngine eng(prog);
  if (worst_case) eng.saturate_stations();
  const auto want = eng.analyze(kBudget);
  ASSERT_TRUE(want.found) << what;
  EXPECT_EQ(v, want) << what;

  EXPECT_EQ(dog.tripped(), v.deadlock_found()) << what;
  const auto pm = telemetry::deadlock_evidence(prog, v, wopts);
  ASSERT_EQ(pm.has_value(), dog.tripped()) << what;
  if (!pm) return;
  EXPECT_EQ(pm->reason, dog.reason()) << what;
  EXPECT_EQ(pm->trip_cycle, dog.trip_cycle()) << what;
  EXPECT_EQ(pm->no_progress_since, dog.no_progress_since()) << what;
  EXPECT_EQ(pm->trip_cycle + 1, run.cycles) << what;
  EXPECT_EQ(pm->to_json().dump(), dog.post_mortem().to_json().dump()) << what;
}

void expect_one_screen_matches_guard_everywhere(const graph::Topology& topo,
                                                const std::string& what) {
  for (const bool worst_case : {false, true}) {
    for (const auto policy : {lip::StopPolicy::kCasuDiscardOnVoid,
                              lip::StopPolicy::kCarloniStrict}) {
      for (const auto resolution : {lip::StopResolution::kPessimistic,
                                    lip::StopResolution::kOptimistic}) {
        expect_one_screen_matches_guard(
            topo, {policy, resolution}, worst_case,
            what + (worst_case ? " worst-case " : " reset ") +
                lip::policy_name(policy) +
                (resolution == lip::StopResolution::kOptimistic
                     ? " optimistic"
                     : " pessimistic"));
      }
    }
  }
}

// The recipe's 300 topologies in four quarters, so ctest -j runs the
// full-budget guards (the expensive half of the check) in parallel.
void expect_one_screen_matches_guard_on_recipe(std::uint64_t quarter) {
  for (std::uint64_t i = quarter * 75; i < (quarter + 1) * 75; ++i) {
    expect_one_screen_matches_guard_everywhere(
        random_composite(campaign::job_seed(7, i)),
        "topology " + std::to_string(i));
  }
}

TEST(OneScreen, EvidenceReproducesTheFullBudgetGuardOnRecipeQuarter0) {
  expect_one_screen_matches_guard_on_recipe(0);
}
TEST(OneScreen, EvidenceReproducesTheFullBudgetGuardOnRecipeQuarter1) {
  expect_one_screen_matches_guard_on_recipe(1);
}
TEST(OneScreen, EvidenceReproducesTheFullBudgetGuardOnRecipeQuarter2) {
  expect_one_screen_matches_guard_on_recipe(2);
}
TEST(OneScreen, EvidenceReproducesTheFullBudgetGuardOnRecipeQuarter3) {
  expect_one_screen_matches_guard_on_recipe(3);
}

TEST(OneScreen, EvidenceReproducesTheFullBudgetGuardOnExampleDesigns) {
  std::size_t designs = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(LIPLIB_DESIGNS_DIR)) {
    if (entry.path().extension() != ".lid") continue;
    std::ifstream is(entry.path());
    std::stringstream text;
    text << is.rdbuf();
    expect_one_screen_matches_guard_everywhere(
        graph::parse_netlist_annotated_string(text.str()).topo,
        entry.path().filename().string());
    ++designs;
  }
  EXPECT_GE(designs, 3u);
}

// ---- whole-period profiles against the stepped guard --------------------
//
// telemetry::run_profiled stops stepping once the design's protocol
// state and environment phase repeat and the watchdog can no longer
// trip, then counts the remaining whole periods.  The reference is
// run_guarded on a fresh System of the same design: the cycle count,
// verdict, trip fields, post-mortem and probe report must agree byte
// for byte, at budgets that end before, at and after the watchdog's
// threshold and long after the design settled.

const std::uint64_t kProfileBudgets[] = {1, 63, 64, 65, 1000, 10000};

/// The fields of the daemon's profile document for one run, plus the
/// cycles the System actually stepped.
struct ProfileRun {
  std::string doc;
  std::uint64_t stepped = 0;
};

ProfileRun profile_run(const graph::AnnotatedNetlist& net,
                       std::uint64_t cycles, bool whole_periods) {
  // A fresh Design per run: random environments share their generator
  // between instantiations of one Design.
  const lip::Design design = pearls::build_design(net);
  auto sys = design.instantiate();
  telemetry::Watchdog dog;
  dog.attach(*sys);
  const auto run = whole_periods ? telemetry::run_profiled(*sys, dog, cycles)
                                 : telemetry::run_guarded(*sys, dog, cycles);
  Json j = Json::object()
               .set("cycles", run.cycles)
               .set("deadlocked", run.deadlocked)
               .set("tripped", dog.tripped());
  if (dog.tripped()) {
    j.set("reason", telemetry::trip_reason_str(dog.reason()))
        .set("no_progress_since", dog.no_progress_since())
        .set("trip_cycle", dog.trip_cycle())
        .set("post_mortem", dog.post_mortem().to_json());
  }
  j.set("report", dog.probe().report().to_json());
  return {j.dump(), sys->cycle()};
}

/// Compares both loops at every budget; returns the cycles run_profiled
/// stepped at the largest one.
std::uint64_t expect_whole_periods_match_stepping(
    const graph::AnnotatedNetlist& net, const std::string& what) {
  std::uint64_t stepped = 0;
  for (const std::uint64_t cycles : kProfileBudgets) {
    const ProfileRun fast = profile_run(net, cycles, /*whole_periods=*/true);
    const ProfileRun full = profile_run(net, cycles, /*whole_periods=*/false);
    EXPECT_EQ(fast.doc, full.doc) << what << " at " << cycles << " cycles";
    stepped = fast.stepped;
  }
  return stepped;
}

/// The sink and source annotations of one differential environment.
enum class ProfileEnv { kDefault, kPeriodic2, kMixed, kLongStall, kAperiodic };

graph::AnnotatedNetlist with_environment(graph::Topology topo,
                                         ProfileEnv env) {
  graph::AnnotatedNetlist net;
  net.node_annotation.assign(topo.nodes().size(), "");
  std::size_t sinks = 0;
  std::size_t sources = 0;
  for (graph::NodeId v = 0; v < topo.nodes().size(); ++v) {
    std::string& ann = net.node_annotation[v];
    const graph::NodeKind kind = topo.node(v).kind;
    if (kind == graph::NodeKind::kSink) {
      const bool even = sinks++ % 2 == 0;
      switch (env) {
        case ProfileEnv::kDefault: break;
        case ProfileEnv::kPeriodic2: ann = "periodic(2)"; break;
        case ProfileEnv::kMixed:
          ann = even ? "periodic(3,1)" : "script(1,0,0,1,0)";
          break;
        case ProfileEnv::kLongStall:
          ann = even ? "periodic(100)" : "script(0,0,0,0,0,0,0,0,1)";
          break;
        case ProfileEnv::kAperiodic:
          ann = "random(" + std::to_string(sinks) + ",1,3)";
          break;
      }
    } else if (kind == graph::NodeKind::kSource &&
               env == ProfileEnv::kAperiodic) {
      ann = "sparse(" + std::to_string(++sources) + ",2,3)";
    }
  }
  net.topo = std::move(topo);
  return net;
}

void expect_whole_periods_match_stepping_on_recipe(ProfileEnv env) {
  for (std::uint64_t i = 0; i < 300; ++i) {
    const std::uint64_t stepped = expect_whole_periods_match_stepping(
        with_environment(random_composite(campaign::job_seed(7, i)), env),
        "topology " + std::to_string(i));
    // The fast path must stay fast: the default environment settles
    // within a few hundred cycles on every recipe design.
    if (env == ProfileEnv::kDefault) {
      EXPECT_LT(stepped, 1000u) << "topology " << i;
    }
  }
}

TEST(WholePeriods, MatchStepping300RecipeDesignsDefaultEnvironment) {
  expect_whole_periods_match_stepping_on_recipe(ProfileEnv::kDefault);
}
TEST(WholePeriods, MatchStepping300RecipeDesignsPeriodicSinks) {
  expect_whole_periods_match_stepping_on_recipe(ProfileEnv::kPeriodic2);
}
TEST(WholePeriods, MatchStepping300RecipeDesignsMixedPeriodsAndScripts) {
  expect_whole_periods_match_stepping_on_recipe(ProfileEnv::kMixed);
}
TEST(WholePeriods, MatchStepping300RecipeDesignsLongStalls) {
  expect_whole_periods_match_stepping_on_recipe(ProfileEnv::kLongStall);
}
TEST(WholePeriods, MatchStepping300RecipeDesignsAperiodicEnvironments) {
  expect_whole_periods_match_stepping_on_recipe(ProfileEnv::kAperiodic);
}

TEST(WholePeriods, MatchSteppingOnExampleDesignsAndFixtures) {
  std::vector<std::pair<std::string, std::string>> texts;
  for (const auto& entry :
       std::filesystem::directory_iterator(LIPLIB_DESIGNS_DIR)) {
    if (entry.path().extension() != ".lid") continue;
    std::ifstream is(entry.path());
    std::stringstream text;
    text << is.rdbuf();
    texts.emplace_back(entry.path().filename().string(), text.str());
  }
  EXPECT_GE(texts.size(), 3u);
  auto chain = [](const std::string& sink) {
    return "source src\nprocess p 1 1\nsink out " + sink +
           "\nchannel src.0 -> p.0 : F\nchannel p.0 -> out.0 : F\n";
  };
  // Periodic sinks whose throughput a one-cycle environment period
  // gets wrong, and a sink that never consumes: the pipeline freezes
  // into a one-cycle period long before the watchdog's threshold, so
  // only the K-cycle margin keeps the trip.
  for (const char* sink : {"periodic(3)", "script(0,1,1,1,1)", "script(1)"}) {
    texts.emplace_back(std::string(sink) + " sink", chain(sink));
  }
  for (const auto& [name, text] : texts) {
    expect_whole_periods_match_stepping(
        graph::parse_netlist_annotated_string(text), name);
  }
  const auto frozen = profile_run(
      graph::parse_netlist_annotated_string(chain("script(1)")),
      10000, /*whole_periods=*/true);
  EXPECT_NE(frozen.doc.find("\"deadlocked\":true"), std::string::npos);
}

TEST(WholePeriods, SettlesOnAnUnfinalizedHandBuiltSystem) {
  // run_profiled finalizes the System before it takes the first state.
  graph::Topology topo;
  const auto src = topo.add_source("src");
  const auto p = topo.add_process("p", 1, 1);
  const auto out = topo.add_sink("out");
  topo.connect({src, 0}, {p, 0}, {graph::RsKind::kFull});
  topo.connect({p, 0}, {out, 0}, {graph::RsKind::kFull});
  auto run = [&](bool whole_periods, std::uint64_t* stepped) {
    lip::System sys(topo);
    sys.bind_pearl(p, pearls::make_identity());
    sys.bind_sink(out, lip::SinkBehavior::periodic(4, 1));
    telemetry::Watchdog dog;
    dog.attach(sys);
    const auto r = whole_periods ? telemetry::run_profiled(sys, dog, 5000)
                                 : telemetry::run_guarded(sys, dog, 5000);
    *stepped = sys.cycle();
    return std::to_string(r.cycles) + dog.probe().report().to_json().dump();
  };
  std::uint64_t fast_steps = 0;
  std::uint64_t full_steps = 0;
  EXPECT_EQ(run(true, &fast_steps), run(false, &full_steps));
  EXPECT_EQ(full_steps, 5000u);
  EXPECT_LT(fast_steps, 200u);
}

TEST(WholePeriods, EnvironmentPeriodIsTheLcmOrZero) {
  graph::Topology topo;
  const auto a = topo.add_sink("a");
  const auto b = topo.add_sink("b");
  const auto s = topo.add_source("s");
  topo.connect({s, 0}, {a, 0}, {graph::RsKind::kFull});
  const auto s2 = topo.add_source("s2");
  topo.connect({s2, 0}, {b, 0}, {graph::RsKind::kFull});
  auto period = [&](lip::SinkBehavior sa, lip::SinkBehavior sb,
                    lip::SourceBehavior src) {
    lip::Design d(topo);
    d.set_sink(a, std::move(sa));
    d.set_sink(b, std::move(sb));
    d.set_source(s, std::move(src));
    return d.instantiate()->environment_period();
  };
  using lip::SinkBehavior;
  using lip::SourceBehavior;
  EXPECT_EQ(period(SinkBehavior::greedy(), SinkBehavior::greedy(),
                   SourceBehavior::counter()),
            1u);
  EXPECT_EQ(period(SinkBehavior::periodic(4), SinkBehavior::periodic(6, 1),
                   SourceBehavior::cyclic({1, 2, 3})),
            12u);
  EXPECT_EQ(period(SinkBehavior::script({true, false, false}),
                   SinkBehavior::periodic(2), SourceBehavior::counter()),
            6u);
  EXPECT_EQ(period(SinkBehavior::random_stop(1, 1, 2), SinkBehavior::greedy(),
                   SourceBehavior::counter()),
            0u);
  EXPECT_EQ(period(SinkBehavior::greedy(), SinkBehavior::greedy(),
                   SourceBehavior::sparse_counter(1, 1, 2)),
            0u);
  EXPECT_EQ(period({[](std::uint64_t c) { return c % 2 == 0; }},
                   SinkBehavior::greedy(), SourceBehavior::counter()),
            0u);
  // Saturates instead of wrapping.
  const std::uint64_t big = std::uint64_t{1} << 40;
  EXPECT_EQ(period(SinkBehavior::periodic(big), SinkBehavior::periodic(big - 1),
                   SourceBehavior::counter()),
            std::numeric_limits<std::uint64_t>::max());
}

// ---- fleet metrics ------------------------------------------------------

TEST(Metrics, LogHistogramBucketsAndPercentiles) {
  metrics::LogHistogram h;
  EXPECT_EQ(h.percentile(50), 0u);
  for (std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 4ull, 100ull}) h.record(v);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.total(), 110u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_EQ(metrics::LogHistogram::bucket_of(0), 0u);
  EXPECT_EQ(metrics::LogHistogram::bucket_of(1), 1u);
  EXPECT_EQ(metrics::LogHistogram::bucket_of(2), 2u);
  EXPECT_EQ(metrics::LogHistogram::bucket_of(3), 2u);
  EXPECT_EQ(metrics::LogHistogram::bucket_of(4), 3u);
  // p0 is the exact min; p50 lands in bucket [2,3] (hi = 3); p100 is
  // clamped by the exact max.
  EXPECT_EQ(h.percentile(0), 0u);
  EXPECT_EQ(h.percentile(50), 3u);
  EXPECT_EQ(h.percentile(100), 100u);

  metrics::LogHistogram other;
  other.record(7);
  other.merge(h);
  EXPECT_EQ(other.count(), 7u);
  EXPECT_EQ(other.min(), 0u);
  EXPECT_EQ(other.max(), 100u);

  const std::string json = h.to_json().dump();
  EXPECT_NE(json.find("\"schema\":\"liplib.loghist/1\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":6"), std::string::npos);
}

TEST(Metrics, CounterAndGauge) {
  metrics::Counter c;
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  metrics::Gauge g;
  g.set(-5);
  g.add(15);
  EXPECT_EQ(g.value(), 10);
}

TEST(Fleet, MinMaxThroughputAreOptional) {
  // Satellite: no-throughput campaigns must be distinguishable from a
  // real zero-throughput deadlock.
  std::vector<campaign::JobResult> results(2);
  results[0].index = 0;
  results[0].outcome = campaign::Outcome::kError;
  results[1].index = 1;
  results[1].outcome = campaign::Outcome::kBudgetExhausted;
  const auto agg = campaign::aggregate(results);
  EXPECT_FALSE(agg.min_throughput().has_value());
  EXPECT_FALSE(agg.max_throughput().has_value());
  const std::string json = campaign::to_json(agg).dump();
  EXPECT_NE(json.find("\"min_throughput\":null"), std::string::npos);
  EXPECT_NE(json.find("\"max_throughput\":null"), std::string::npos);
  EXPECT_NE(json.find("\"throughput_percentiles\":null"), std::string::npos);

  campaign::JobResult live;
  live.index = 2;
  live.outcome = campaign::Outcome::kLive;
  live.has_throughput = true;
  live.throughput = Rational(0);  // a genuine zero-throughput verdict
  results.push_back(live);
  const auto agg2 = campaign::aggregate(results);
  ASSERT_TRUE(agg2.min_throughput().has_value());
  EXPECT_EQ(*agg2.min_throughput(), Rational(0));
}

TEST(Fleet, PercentilesAreExactNearestRank) {
  std::vector<campaign::JobResult> results;
  for (int i = 1; i <= 4; ++i) {
    campaign::JobResult r;
    r.index = static_cast<std::size_t>(i - 1);
    r.outcome = campaign::Outcome::kLive;
    r.has_throughput = true;
    r.throughput = Rational(i, 5);  // 1/5, 2/5, 3/5, 4/5
    r.transient = static_cast<std::uint64_t>(i);
    r.period = 5;
    r.blame.emplace_back("A_to_B.rs0", 10u * static_cast<std::uint64_t>(i));
    results.push_back(r);
  }
  const auto agg = campaign::aggregate(results);
  const auto& pct = agg.fleet.throughput_percentiles;
  ASSERT_EQ(pct.size(), 7u);  // p0 p25 p50 p75 p90 p99 p100
  EXPECT_EQ(pct[0].first, "p0");
  EXPECT_EQ(pct[0].second, Rational(1, 5));
  EXPECT_EQ(pct[1].first, "p25");
  EXPECT_EQ(pct[1].second, Rational(1, 5));  // rank ceil(25*4/100) = 1
  EXPECT_EQ(pct[2].first, "p50");
  EXPECT_EQ(pct[2].second, Rational(2, 5));  // rank 2
  EXPECT_EQ(pct[3].first, "p75");
  EXPECT_EQ(pct[3].second, Rational(3, 5));  // rank 3
  EXPECT_EQ(pct[4].first, "p90");
  EXPECT_EQ(pct[4].second, Rational(4, 5));  // rank 4
  EXPECT_EQ(pct[6].first, "p100");
  EXPECT_EQ(pct[6].second, Rational(4, 5));
  ASSERT_EQ(agg.fleet.blame_by_culprit.size(), 1u);
  EXPECT_EQ(agg.fleet.blame_by_culprit[0].first, "A_to_B.rs0");
  EXPECT_EQ(agg.fleet.blame_by_culprit[0].second, 100u);
  EXPECT_EQ(agg.fleet.transient.count(), 4u);
  EXPECT_EQ(agg.fleet.period.percentile(50), 5u);

  const std::string csv = campaign::fleet_to_csv(agg);
  EXPECT_NE(csv.find("throughput_p50,2/5"), std::string::npos);
  EXPECT_NE(csv.find("\"blame.A_to_B.rs0\",100"), std::string::npos);
}

TEST(Fleet, PercentilesByteIdenticalAcrossWorkerThreadCounts) {
  // The acceptance bar: fold a probe campaign's per-job windows into the
  // fleet distributions at 1, 2 and 8 worker threads — the JSON report
  // (percentiles, histograms, blame-by-culprit) must be byte-identical.
  const auto jobs = campaign::make_probe_campaign(24);
  std::string golden_json;
  std::string golden_csv;
  for (unsigned threads : {1u, 2u, 8u}) {
    campaign::EngineOptions opts;
    opts.threads = threads;
    opts.base_seed = 7;
    opts.cycle_budget = 1u << 16;
    const auto results = campaign::Engine(opts).run(jobs);
    const auto agg = campaign::aggregate(results);
    const std::string json = campaign::to_json(agg).dump(2);
    const std::string csv =
        campaign::fleet_to_csv(agg) + campaign::to_csv(results);
    if (golden_json.empty()) {
      golden_json = json;
      golden_csv = csv;
      // Sanity: the fleet section actually carries data.
      EXPECT_NE(json.find("\"fleet\""), std::string::npos);
      EXPECT_NE(json.find("\"throughput_percentiles\""), std::string::npos);
    } else {
      EXPECT_EQ(json, golden_json) << "threads=" << threads;
      EXPECT_EQ(csv, golden_csv) << "threads=" << threads;
    }
  }
}

// ---- bench regression gate ---------------------------------------------

Json bench_doc(const char* bench, double mcps, double seconds,
               std::uint64_t cycles) {
  return Json::object()
      .set("schema", "liplib.bench/1")
      .set("bench", bench)
      .set("records", Json::array().push(Json::object()
                                             .set("config", "hot loop")
                                             .set("cycles", cycles)
                                             .set("seconds", seconds)
                                             .set("mcycles_per_s", mcps)));
}

TEST(BenchDiff, PassesIdenticalFiles) {
  const Json doc = bench_doc("probe", 12.5, 1.0, 100000);
  const auto diff = telemetry::bench_diff(doc, doc);
  EXPECT_FALSE(diff.has_regression());
  EXPECT_EQ(diff.exit_code(), 0);
  EXPECT_EQ(diff.improvements(), 0u);
  // cycles is informational, seconds and mcycles_per_s are gated.
  std::size_t gated = 0;
  for (const auto& d : diff.deltas) {
    if (d.cls != telemetry::DeltaClass::kInfo) ++gated;
  }
  EXPECT_EQ(gated, 2u);
}

TEST(BenchDiff, FlagsInjectedTenPercentRegression) {
  const Json oldb = bench_doc("probe", 100.0, 1.0, 100000);
  // 12% throughput drop: beyond the default 10% threshold.
  const Json newb = bench_doc("probe", 88.0, 1.0, 100000);
  const auto diff = telemetry::bench_diff(oldb, newb);
  ASSERT_TRUE(diff.has_regression());
  EXPECT_EQ(diff.exit_code(), 1);
  bool found = false;
  for (const auto& d : diff.deltas) {
    if (d.field == "mcycles_per_s") {
      found = true;
      EXPECT_TRUE(d.regression);
      EXPECT_NEAR(d.change_pct, -12.0, 1e-9);
      EXPECT_EQ(d.cls, telemetry::DeltaClass::kHigherBetter);
    }
  }
  EXPECT_TRUE(found);
  EXPECT_NE(diff.to_text().find("REGRESSION"), std::string::npos);

  // The same delta passes under a 20% threshold (noise-aware gating).
  telemetry::BenchDiffOptions loose;
  loose.threshold_pct = 20.0;
  EXPECT_FALSE(telemetry::bench_diff(oldb, newb, loose).has_regression());
}

TEST(BenchDiff, LowerIsBetterFieldsGateTheOtherWay) {
  const Json oldb = bench_doc("probe", 100.0, 1.0, 100000);
  const Json slower = bench_doc("probe", 100.0, 1.2, 100000);
  EXPECT_TRUE(telemetry::bench_diff(oldb, slower).has_regression());
  const Json faster = bench_doc("probe", 100.0, 0.8, 100000);
  const auto diff = telemetry::bench_diff(oldb, faster);
  EXPECT_FALSE(diff.has_regression());
  EXPECT_EQ(diff.improvements(), 1u);
}

TEST(BenchDiff, StructuralAsymmetriesAreNotedNotGated) {
  Json oldb = bench_doc("probe", 100.0, 1.0, 100000);
  Json newb = bench_doc("probe", 100.0, 1.0, 100000);
  newb.find("records");  // (lookup only; mutation below via rebuild)
  Json extra = Json::object()
                   .set("schema", "liplib.bench/1")
                   .set("bench", "probe")
                   .set("records",
                        Json::array().push(
                            Json::object().set("config", "other case").set(
                                "seconds", 2.0)));
  const auto diff = telemetry::bench_diff(oldb, extra);
  EXPECT_FALSE(diff.has_regression());
  EXPECT_FALSE(diff.notes.empty());
}

TEST(BenchDiff, RejectsMismatchedOrMalformedDocuments) {
  const Json a = bench_doc("probe", 100.0, 1.0, 100000);
  const Json b = bench_doc("campaign", 100.0, 1.0, 100000);
  EXPECT_THROW(telemetry::bench_diff(a, b), ApiError);
  EXPECT_THROW(telemetry::bench_diff(Json::object(), a), ApiError);
  EXPECT_THROW(
      telemetry::bench_diff_files("/nonexistent/old.json",
                                  "/nonexistent/new.json"),
      ApiError);
}

// ---- Json::parse --------------------------------------------------------

TEST(JsonParse, RoundTripsTheRepoDialect) {
  Json doc = Json::object()
                 .set("schema", "liplib.bench/1")
                 .set("neg", -3)
                 .set("big", std::numeric_limits<std::uint64_t>::max())
                 .set("pi", 3.25)
                 .set("flag", true)
                 .set("none", Json())
                 .set("text", "a \"quoted\" line\nwith\ttabs")
                 .set("list", Json::array().push(1).push("two").push(
                          Json::object().set("k", "v")));
  const std::string text = doc.dump(2);
  EXPECT_EQ(Json::parse(text).dump(2), text);
  EXPECT_EQ(Json::parse(doc.dump()).dump(), doc.dump());
}

TEST(JsonParse, HandlesEscapesAndRejectsGarbage) {
  const Json u = Json::parse("\"\\u0041\\u00e9\\n\"");
  EXPECT_EQ(u.as_string(), "A\xc3\xa9\n");
  EXPECT_THROW(Json::parse(""), ApiError);
  EXPECT_THROW(Json::parse("{\"a\":1,}"), ApiError);
  EXPECT_THROW(Json::parse("[1, 2"), ApiError);
  EXPECT_THROW(Json::parse("true false"), ApiError);
  EXPECT_THROW(Json::parse("{'a': 1}"), ApiError);
  try {
    Json::parse("[1, @]");
    FAIL() << "expected ApiError";
  } catch (const ApiError& e) {
    EXPECT_NE(std::string(e.what()).find("byte"), std::string::npos);
  }
}

}  // namespace
