// Differential suite for liplib::xir: the compiled scalar engine and
// the 64-way bit-sliced engine against lip::System, the full-data
// reference model the RTL differential holds to the netlist.
//
// The xir engines advertise *bit-exactness*, not approximation: same
// verdict, same settle cycle (transient + period), same exact Rational
// throughputs, same probe observations, same watchdog trip cycle as
// System's protocol trajectory.  The tests here hold both engines to
// System (default pearls, counter sources, greedy sinks) over hundreds
// of random "most general topology" instances (the same generator
// family the lint cross-check campaign uses) under both stop policies,
// both stop resolutions and both starting states, plus targeted checks
// for periodic environments, lane independence, probe/watchdog parity
// and the campaign jobs that run on the engines.

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "liplib/campaign/campaign.hpp"
#include "liplib/campaign/jobs.hpp"
#include "liplib/graph/generators.hpp"
#include "liplib/graph/netlist_io.hpp"
#include "liplib/lip/steady_state.hpp"
#include "liplib/pearls/design_io.hpp"
#include "liplib/probe/probe.hpp"
#include "liplib/skeleton/skeleton.hpp"
#include "liplib/support/rng.hpp"
#include "liplib/telemetry/watchdog.hpp"
#include "liplib/xir/sliced.hpp"
#include "liplib/xir/xir.hpp"
#include "test_util.hpp"

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

// The oracle: System's exact steady state (its `cycles` is the cycle the
// search stopped at).
lip::SteadyState system_analyze(const graph::Topology& topo,
                                skeleton::SkeletonOptions opts,
                                std::uint64_t budget, bool worst_case) {
  const auto sys =
      testutil::make_design(topo).instantiate({opts.policy, opts.resolution});
  if (worst_case) sys->saturate_stations();
  return lip::measure_steady_state(*sys, budget);
}

// The paper's screening recipe on System.
lip::SteadyState system_screen(const graph::Topology& topo,
                               skeleton::ScreeningOptions opts,
                               std::uint64_t budget) {
  return system_analyze(topo, opts.skeleton, budget,
                        opts.worst_case_occupancy);
}

// Variant kinds are drawn in program station order (channel-major);
// writing them back channel-major reconstructs the variant topology the
// sliced lane evaluates.
graph::Topology with_station_kinds(const graph::Topology& topo,
                                   const std::vector<graph::RsKind>& kinds) {
  graph::Topology out = topo;
  std::size_t next = 0;
  for (graph::ChannelId c = 0; c < out.channels().size(); ++c) {
    for (auto& k : out.stations_mut(c)) k = kinds.at(next++);
  }
  EXPECT_EQ(next, kinds.size());
  return out;
}

// Both stop policies, and both stop resolutions: pessimistic settling
// is the product default; optimistic settling is what telemetry::replay
// and the latch's bistability checks exercise.
constexpr lip::StopPolicy kPolicies[] = {lip::StopPolicy::kCasuDiscardOnVoid,
                                         lip::StopPolicy::kCarloniStrict};
constexpr lip::StopResolution kResolutions[] = {
    lip::StopResolution::kPessimistic, lip::StopResolution::kOptimistic};

std::string scenario_name(std::uint64_t i, skeleton::SkeletonOptions opts,
                          bool worst_case) {
  return "topology " + std::to_string(i) +
         (opts.policy == lip::StopPolicy::kCarloniStrict ? " strict"
                                                         : " variant") +
         (opts.resolution == lip::StopResolution::kOptimistic
              ? " optimistic"
              : " pessimistic") +
         (worst_case ? " worst-case" : " reset");
}

// ---- the 300-topology differential -------------------------------------

TEST(XirDifferential, ThreeHundredRandomComposites) {
  constexpr std::uint64_t kBudget = 1u << 16;
  for (std::uint64_t i = 0; i < 300; ++i) {
    const std::uint64_t seed = campaign::job_seed(7, i);
    const graph::Topology topo = random_composite(seed);
    for (const lip::StopPolicy policy : kPolicies) {
      for (const lip::StopResolution resolution : kResolutions) {
        for (const bool worst_case : {false, true}) {
          const skeleton::SkeletonOptions opts{policy, resolution};
          const std::string what = scenario_name(i, opts, worst_case);

          const auto want = system_analyze(topo, opts, kBudget, worst_case);

          xir::ScalarEngine compiled(topo, opts);
          if (worst_case) compiled.saturate_stations();
          EXPECT_EQ(want, compiled.analyze(kBudget)) << what << " compiled";

          xir::SlicedEngine sliced(topo, opts, /*num_lanes=*/1);
          if (worst_case) sliced.saturate_stations(1ull);
          EXPECT_EQ(want, sliced.analyze(kBudget).at(0)) << what << " sliced";
        }
      }
    }
  }
}

TEST(XirDifferential, ScreeningVerdictsAgree) {
  for (std::uint64_t i = 0; i < 60; ++i) {
    const graph::Topology topo = random_composite(campaign::job_seed(11, i));
    for (const lip::StopPolicy policy : kPolicies) {
      for (const lip::StopResolution resolution : kResolutions) {
        for (const bool worst_case : {false, true}) {
          skeleton::ScreeningOptions opts;
          opts.skeleton = {policy, resolution};
          opts.worst_case_occupancy = worst_case;
          const std::string what = scenario_name(i, opts.skeleton, worst_case);

          const auto want = system_screen(topo, opts, 1u << 16);
          const auto compiled = xir::screen_for_deadlock(topo, opts, 1u << 16);
          xir::VariantSpec lane;
          lane.worst_case_occupancy = worst_case;
          const auto sliced =
              xir::screen_variants(topo, {lane}, opts.skeleton, 1u << 16);
          EXPECT_EQ(want, compiled) << what << " compiled";
          EXPECT_EQ(want, sliced.at(0)) << what << " sliced";
        }
      }
    }
  }
}

// A periodic environment: a sink that stops once every L cycles.  The
// engines key their repeat search with the phase of the lcm of the sink
// pattern lengths, as System keys it with environment_period(); a phase
// that wrapped at 256 once aliased periods longer than that.
TEST(XirDifferential, LongSinkPatternPeriodsMatchSystem) {
  const auto gen = graph::make_pipeline(3, 1);
  const graph::NodeId sink = gen.sinks.at(0);
  constexpr std::uint64_t kBudget = 1u << 16;
  for (const std::uint64_t period : {4u, 255u, 256u, 257u, 300u}) {
    std::vector<bool> pattern(period, false);
    pattern[0] = true;
    const std::string what = "L = " + std::to_string(period);

    auto design = testutil::make_design(gen);
    design.set_sink(sink, lip::SinkBehavior::script(pattern));
    const auto sys = design.instantiate();
    const auto want = lip::measure_steady_state(*sys, kBudget);
    ASSERT_TRUE(want.found) << what;
    EXPECT_EQ(want.period, period) << what;
    EXPECT_EQ(want.system_throughput(),
              Rational(static_cast<std::int64_t>(period - 1),
                       static_cast<std::int64_t>(period)))
        << what;

    xir::ScalarEngine compiled(gen.topo);
    compiled.set_sink_pattern(sink, pattern);
    EXPECT_EQ(want, compiled.analyze(kBudget)) << what << " compiled";

    xir::SlicedEngine sliced(gen.topo, {}, /*num_lanes=*/1);
    sliced.set_sink_pattern(sink, pattern);
    EXPECT_EQ(want, sliced.analyze(kBudget).at(0)) << what << " sliced";
  }
}

// The engine's own API surface (not just analyze()): step/cycle/fires
// track System cycle by cycle.
TEST(XirDifferential, StepLevelFireCounts) {
  const graph::Topology topo = random_composite(42);
  skeleton::SkeletonOptions opts;
  const auto sys = testutil::make_design(topo).instantiate();
  xir::ScalarEngine eng(topo, opts);
  for (int c = 0; c < 200; ++c) {
    sys->step();
    eng.step();
  }
  EXPECT_EQ(sys->cycle(), eng.cycle());
  for (graph::NodeId n = 0; n < topo.nodes().size(); ++n) {
    if (topo.node(n).kind != graph::NodeKind::kProcess) continue;
    EXPECT_EQ(sys->shell_fire_count(n), eng.fires(n)) << topo.node(n).name;
  }
}

// ---- every fanout branch is keyed ---------------------------------------

// A design whose sinks follow cyclic stop scripts, run through all three
// models.
struct ScriptedDesign {
  graph::Topology topo;
  std::vector<std::pair<graph::NodeId, std::vector<bool>>> scripts;
};

void expect_models_agree(const ScriptedDesign& d,
                         skeleton::SkeletonOptions opts, bool worst_case,
                         const std::string& what,
                         lip::SteadyState* system_result = nullptr) {
  constexpr std::uint64_t kBudget = 1u << 14;
  auto design = testutil::make_design(d.topo);
  xir::ScalarEngine compiled(d.topo, opts);
  xir::SlicedEngine sliced(d.topo, opts, /*num_lanes=*/1);
  for (const auto& [sink, script] : d.scripts) {
    design.set_sink(sink, lip::SinkBehavior::script(script));
    compiled.set_sink_pattern(sink, script);
    sliced.set_sink_pattern(sink, script);
  }
  const auto sys = design.instantiate({opts.policy, opts.resolution});
  if (worst_case) {
    sys->saturate_stations();
    compiled.saturate_stations();
    sliced.saturate_stations(1ull);
  }
  const auto want = lip::measure_steady_state(*sys, kBudget);
  EXPECT_EQ(want, compiled.analyze(kBudget)) << what << " compiled";
  EXPECT_EQ(want, sliced.analyze(kBudget).at(0)) << what << " sliced";
  if (system_result != nullptr) *system_result = want;
}

ScriptedDesign load_design(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream text;
  text << in.rdbuf();
  auto net = graph::parse_netlist_annotated_string(text.str());
  ScriptedDesign d;
  for (graph::NodeId v = 0; v < net.topo.nodes().size(); ++v) {
    if (net.topo.node(v).kind != graph::NodeKind::kSink) continue;
    const auto behavior = pearls::sink_from_spec(net.node_annotation[v]);
    std::vector<bool> script(behavior.period);
    for (std::uint64_t c = 0; c < behavior.period; ++c) {
      script[c] = behavior.stop(c);
    }
    d.scripts.emplace_back(v, std::move(script));
  }
  d.topo = std::move(net.topo);
  return d;
}

// A 2->1 join fed by two branches of one fanout, the branch at `lo`
// inside the first `folded_from` bits and the one at `hi` past them;
// every other branch ends in a sink with a script of length 1-4 behind
// 0-2 stations.  `port` fans out a shell port (fed by the source)
// instead of the source itself.
ScriptedDesign wide_fanout(Rng& rng, bool port) {
  const std::size_t folded_from = port ? 16 : 8;
  const std::size_t branches = rng.in_range(folded_from + 1, 32);
  const std::size_t lo = rng.below(folded_from);
  const std::size_t hi = rng.in_range(folded_from, branches - 1);
  auto stations = [&rng](std::size_t min) {
    std::vector<graph::RsKind> kinds(rng.in_range(min, 2));
    for (auto& k : kinds) {
      k = rng.chance(1, 2) ? graph::RsKind::kHalf : graph::RsKind::kFull;
    }
    return kinds;
  };
  ScriptedDesign d;
  graph::Topology& t = d.topo;
  const graph::NodeId src = t.add_source("src");
  graph::OutRef fan{src, 0};
  if (port) {
    const graph::NodeId f = t.add_process("F", 1, 1);
    t.connect({src, 0}, {f, 0}, stations(1));
    fan = {f, 0};
  }
  const graph::NodeId join = t.add_process("J", 2, 1);
  for (std::size_t b = 0; b < branches; ++b) {
    if (b == lo || b == hi) {
      t.connect(fan, {join, b == lo ? 0u : 1u}, stations(1));
      continue;
    }
    std::string name = "k";
    name += std::to_string(b);
    const graph::NodeId sink = t.add_sink(name);
    t.connect(fan, {sink, 0}, stations(0));
    std::vector<bool> script(rng.in_range(1, 4));
    for (std::size_t c = 0; c < script.size(); ++c) {
      script[c] = rng.chance(1, 2);
    }
    d.scripts.emplace_back(sink, std::move(script));
  }
  const graph::NodeId out = t.add_sink("out");
  t.connect({join, 0}, {out, 0}, {graph::RsKind::kFull});
  return d;
}

// A source fanning out past 8 branches and a shell port past 16: the
// engines' state keys once kept 8 bits per source and 16 per port (and
// System's 8 per source), so states that differ only in a later
// branch's pending bit repeated falsely.
TEST(XirDifferential, WideFanoutMatchesSystem) {
  lip::SteadyState r;
  const std::string fixtures = LIPLIB_FIXTURES_DIR;
  expect_models_agree(load_design(fixtures + "/wide_port.lid"), {}, false,
                      "wide_port", &r);
  EXPECT_TRUE(r.found);
  EXPECT_TRUE(r.deadlocked);
  EXPECT_EQ(r.transient, 14u);
  EXPECT_EQ(r.period, 3u);
  EXPECT_EQ(r.system_throughput(), Rational(0));

  expect_models_agree(load_design(fixtures + "/wide_source.lid"), {}, false,
                      "wide_source", &r);
  EXPECT_TRUE(r.found);
  EXPECT_FALSE(r.deadlocked);
  EXPECT_EQ(r.transient, 6u);
  EXPECT_EQ(r.period, 4u);
  EXPECT_EQ(r.system_throughput(), Rational(1, 4));

  for (std::uint64_t i = 0; i < 300; ++i) {
    for (const bool port : {false, true}) {
      Rng rng(campaign::job_seed(port ? 41 : 43, i));
      const ScriptedDesign d = wide_fanout(rng, port);
      for (const lip::StopPolicy policy : kPolicies) {
        for (const bool worst_case : {false, true}) {
          const skeleton::SkeletonOptions opts{policy};
          expect_models_agree(d, opts, worst_case,
                              std::string(port ? "port " : "source ") +
                                  scenario_name(i, opts, worst_case));
        }
      }
    }
  }
}

// ---- one deadlock rule on every host ------------------------------------

// Adds a source `tap` wired straight to a sink `drain` through one full
// station; returns the drain.  No corpus generator wires a source to a
// sink, and a drain that keeps taking tokens is progress under System's
// deadlock rule even when no shell fires.
graph::NodeId add_tap(graph::Topology& t) {
  const graph::NodeId tap = t.add_source("tap");
  const graph::NodeId drain = t.add_sink("drain");
  t.connect({tap, 0}, {drain, 0}, {graph::RsKind::kFull});
  return drain;
}

// Deadlocked means no shell fired and no sink took a token during the
// period, on System and on both engines alike.
TEST(XirDifferential, OneDeadlockRuleOnEveryHost) {
  lip::SteadyState r;

  // The ring latches from worst-case occupancy while the tap keeps the
  // drain busy: starved, not deadlocked.
  ScriptedDesign ring =
      load_design(std::string(LIPLIB_DESIGNS_DIR) + "/half_ring.lid");
  add_tap(ring.topo);
  expect_models_agree(ring, {}, /*worst_case=*/true, "half_ring + tap", &r);
  EXPECT_TRUE(r.found);
  EXPECT_FALSE(r.deadlocked);
  EXPECT_TRUE(r.has_starved_shell);

  // No shell, and a drain that always stops: nothing moves.
  ScriptedDesign bare;
  bare.scripts.emplace_back(add_tap(bare.topo), std::vector<bool>{true});
  expect_models_agree(bare, {}, /*worst_case=*/false, "tap -> drain", &r);
  EXPECT_TRUE(r.found);
  EXPECT_TRUE(r.deadlocked);
  EXPECT_FALSE(r.has_starved_shell);

  for (std::uint64_t i = 0; i < 300; ++i) {
    ScriptedDesign d;
    d.topo = random_composite(campaign::job_seed(7, i));
    add_tap(d.topo);
    for (const lip::StopPolicy policy : kPolicies) {
      for (const bool worst_case : {false, true}) {
        const skeleton::SkeletonOptions opts{policy};
        expect_models_agree(d, opts, worst_case,
                            scenario_name(i, opts, worst_case) + " + tap");
      }
    }
  }
}

// ---- explicit sink stops ------------------------------------------------

// Prove's transition function is an engine step under explicit sink
// stops.  Random per-cycle stop paths drive System (each path a sink
// script), a ScalarEngine per path and one SlicedEngine carrying a path
// per lane; fire counts must agree every cycle.
TEST(XirDifferential, ExplicitSinkStopsMatchSystemScripts) {
  constexpr std::size_t kLanes = xir::SlicedEngine::kLanes;
  constexpr std::size_t kCycles = 20;
  for (std::uint64_t i = 0; i < 300; ++i) {
    const graph::Topology topo = random_composite(campaign::job_seed(7, i));
    const skeleton::SkeletonOptions opts{kPolicies[i % 2],
                                         kResolutions[(i / 2) % 2]};
    const bool worst_case = (i / 4) % 2 == 1;
    const std::string what = scenario_name(i, opts, worst_case);
    std::vector<graph::NodeId> sinks, shells;
    for (graph::NodeId v = 0; v < topo.nodes().size(); ++v) {
      if (topo.node(v).kind == graph::NodeKind::kSink) sinks.push_back(v);
      if (topo.node(v).kind == graph::NodeKind::kProcess) shells.push_back(v);
    }
    ASSERT_LT(sinks.size(), 63u) << what;

    Rng rng(campaign::job_seed(31, i));
    std::vector<std::vector<std::uint64_t>> masks(kLanes);
    std::vector<std::unique_ptr<lip::System>> systems;
    std::vector<std::unique_ptr<xir::ScalarEngine>> scalars;
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      for (std::size_t c = 0; c < kCycles; ++c) {
        masks[lane].push_back(rng.next_u64() & ((1ull << sinks.size()) - 1));
      }
      auto design = testutil::make_design(topo);
      for (std::size_t s = 0; s < sinks.size(); ++s) {
        std::vector<bool> script;
        for (const std::uint64_t m : masks[lane]) {
          script.push_back((m >> s) & 1);
        }
        design.set_sink(sinks[s], lip::SinkBehavior::script(script));
      }
      systems.push_back(design.instantiate({opts.policy, opts.resolution}));
      scalars.push_back(std::make_unique<xir::ScalarEngine>(topo, opts));
      if (worst_case) {
        systems.back()->saturate_stations();
        scalars.back()->saturate_stations();
      }
    }
    xir::SlicedEngine sliced(topo, opts);
    if (worst_case) sliced.saturate_stations(~0ull);

    for (std::size_t c = 0; c < kCycles; ++c) {
      std::vector<std::uint64_t> words(sinks.size(), 0);
      for (std::size_t lane = 0; lane < kLanes; ++lane) {
        for (std::size_t s = 0; s < sinks.size(); ++s) {
          if ((masks[lane][c] >> s) & 1) words[s] |= 1ull << lane;
        }
      }
      const auto lanes = sliced.step(words);
      for (std::size_t lane = 0; lane < kLanes; ++lane) {
        lip::System& sys = *systems[lane];
        const std::uint64_t before = sys.total_fires();
        sys.step();
        const auto one = scalars[lane]->step(masks[lane][c]);
        EXPECT_EQ(one.fired, sys.total_fires() > before) << what;
        EXPECT_EQ(one.fired, ((lanes.fired >> lane) & 1) != 0) << what;
        EXPECT_EQ(one.pending, ((lanes.pending >> lane) & 1) != 0) << what;
        for (const graph::NodeId k : shells) {
          const std::uint64_t want = sys.shell_fire_count(k);
          ASSERT_EQ(want, scalars[lane]->fires(k))
              << what << " lane " << lane << " cycle " << c;
          ASSERT_EQ(want, sliced.fires(lane, k))
              << what << " lane " << lane << " cycle " << c;
        }
      }
    }
  }
}

// Plane keys load and emit losslessly on both engines: a loaded engine
// re-emits the key and then steps exactly like the engine it came from,
// from reachable states and from worst-case states.
TEST(XirKey, LoadEmitRoundTrips) {
  constexpr std::size_t kLanes = xir::SlicedEngine::kLanes;
  for (std::uint64_t i = 0; i < 100; ++i) {
    const graph::Topology topo = random_composite(campaign::job_seed(13, i));
    const skeleton::SkeletonOptions opts{kPolicies[i % 2]};
    const xir::ProgramRef prog = xir::lower(topo, opts);
    const std::size_t sinks = prog->num_sinks();
    const std::uint64_t all = (1ull << sinks) - 1;
    const std::string what = "topology " + std::to_string(i);

    // 64 states reachable from reset or worst case under random stops,
    // and each one's successor under one more stop mask.
    Rng rng(campaign::job_seed(17, i));
    const std::uint64_t stops = rng.next_u64() & all;
    std::vector<std::string> keys, stepped;
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      xir::ScalarEngine walk(prog);
      if (lane % 2 == 1) walk.saturate_stations();
      const std::uint64_t steps = rng.below(12);
      for (std::uint64_t c = 0; c < steps; ++c) walk.step(rng.next_u64() & all);
      keys.push_back(walk.state_key());
      EXPECT_EQ(keys.back().size(), xir::KeyLayout(*prog).key_bytes());
      walk.step(stops);
      stepped.push_back(walk.state_key());
    }

    // Scalar: load, re-emit, and step.
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      xir::ScalarEngine eng(prog);
      eng.load_state_key(keys[lane]);
      ASSERT_EQ(eng.state_key(), keys[lane]) << what;
      eng.step(stops);
      EXPECT_EQ(eng.state_key(), stepped[lane]) << what << " lane " << lane;
    }

    // Sliced: all 64 keys in one load, re-emitted, then one step.
    xir::SlicedEngine sliced(prog);
    std::vector<const std::string*> ptrs;
    for (const std::string& key : keys) ptrs.push_back(&key);
    sliced.load_state_keys(ptrs);
    std::vector<std::string> out;
    sliced.state_keys(&out);
    ASSERT_EQ(out, keys) << what;
    std::vector<std::uint64_t> stop_words(sinks, 0);
    for (std::size_t s = 0; s < sinks; ++s) {
      if ((stops >> s) & 1) stop_words[s] = ~0ull;
    }
    sliced.step(stop_words);
    sliced.state_keys(&out);
    EXPECT_EQ(out, stepped) << what;
  }
}

// ---- the repeat search ---------------------------------------------------

// The index takes hashes as input, so collisions can be forced: every
// cycle under one hash reaches the confirm step, in insertion order, and
// a rejected candidate still records the new cycle.
TEST(XirRepeatIndex, CollidingCyclesReachTheConfirmStepInInsertionOrder) {
  xir::RepeatIndex index;
  std::vector<std::uint64_t> offered;
  auto reject = [&](std::uint64_t at) {
    offered.push_back(at);
    return false;
  };
  EXPECT_FALSE(index.find_or_insert(7, 10, reject));
  EXPECT_FALSE(index.find_or_insert(7, 11, reject));
  EXPECT_FALSE(index.find_or_insert(8, 12, reject));
  EXPECT_EQ(offered, (std::vector<std::uint64_t>{10}));
  offered.clear();
  EXPECT_FALSE(index.find_or_insert(7, 13, reject));
  EXPECT_EQ(offered, (std::vector<std::uint64_t>{10, 11}));
  offered.clear();
  const auto hit = index.find_or_insert(7, 14, [&](std::uint64_t at) {
    offered.push_back(at);
    return at == 13;
  });
  EXPECT_EQ(hit, std::optional<std::uint64_t>(13));
  EXPECT_EQ(offered, (std::vector<std::uint64_t>{10, 11, 13}));
}

// Growth past 2/3 load keeps every entry, and cycles under one hash keep
// their order through it, even when every hash starts its probe run in
// the table's last slot and the run wraps.
TEST(XirRepeatIndex, GrowthKeepsEveryEntryInOrder) {
  constexpr std::uint64_t kCycles = 1000;
  auto hash_of = [](std::uint64_t cycle) {
    return ((cycle / 2) << 32) | 0xfffff;  // two cycles per hash
  };
  xir::RepeatIndex index;
  for (std::uint64_t c = 0; c < kCycles; ++c) {
    ASSERT_FALSE(index.find_or_insert(hash_of(c), c,
                                      [](std::uint64_t) { return false; }));
  }
  for (std::uint64_t c = 0; c < kCycles; ++c) {
    std::vector<std::uint64_t> offered;
    const auto hit = index.find_or_insert(hash_of(c), kCycles,
                                          [&](std::uint64_t at) {
                                            offered.push_back(at);
                                            return at == c;
                                          });
    ASSERT_EQ(hit, std::optional<std::uint64_t>(c));
    const std::vector<std::uint64_t> want =
        c % 2 == 0 ? std::vector<std::uint64_t>{c}
                   : std::vector<std::uint64_t>{c - 1, c};
    ASSERT_EQ(offered, want) << "cycle " << c;
  }
}

// A ring of `shells` shells, one full or half station per channel at
// random, whose first shell also feeds a sink.
graph::Generated tapped_ring(std::size_t shells, std::uint64_t seed) {
  Rng rng(seed);
  graph::Generated g;
  for (std::size_t i = 0; i < shells; ++i) {
    g.processes.push_back(
        g.topo.add_process("P" + std::to_string(i), 1, i == 0 ? 2 : 1));
  }
  for (graph::NodeId i = 0; i < shells; ++i) {
    g.topo.connect({i, 0}, {(i + 1) % shells, 0},
                   {rng.chance(1, 2) ? graph::RsKind::kFull
                                     : graph::RsKind::kHalf});
  }
  g.sinks.push_back(g.topo.add_sink("tap"));
  g.topo.connect({0, 1}, {g.sinks[0], 0}, {graph::RsKind::kFull});
  return g;
}

// Designs whose checkpoint stride is in the hundreds (101), behind a
// sink that stops two cycles in three, so every repeat shows at a cycle
// between checkpoints (the transients run 139 to 927 cycles) and is
// confirmed by restoring a checkpoint, replaying and comparing the phase
// and the exact key: each engine still equals System field for field.  The
// 64-lane engine runs odd lanes from worst-case occupancy and even lanes
// from reset, so its lanes confirm repeats at different cycles.
TEST(XirDifferential, RepeatSearchReplaysFromCheckpoints) {
  constexpr std::uint64_t kBudget = 1u << 16;
  const std::vector<bool> pattern = {true, true, false};
  for (const graph::Generated& gen :
       {graph::make_pipeline(370, 1), tapped_ring(370, 3)}) {
    const graph::NodeId sink = gen.sinks.at(0);
    for (const lip::StopPolicy policy : kPolicies) {
      for (const lip::StopResolution resolution : kResolutions) {
        const skeleton::SkeletonOptions opts{policy, resolution};
        ASSERT_GE(xir::repeat_stride(*xir::lower(gen.topo, opts)), 100u);
        lip::SteadyState want[2];
        for (const bool worst_case : {false, true}) {
          const std::string what =
              scenario_name(gen.processes.size(), opts, worst_case);
          auto design = testutil::make_design(gen.topo);
          design.set_sink(sink, lip::SinkBehavior::script(pattern));
          const auto sys = design.instantiate({policy, resolution});
          if (worst_case) sys->saturate_stations();
          want[worst_case] = lip::measure_steady_state(*sys, kBudget);
          ASSERT_TRUE(want[worst_case].found) << what;

          xir::ScalarEngine compiled(gen.topo, opts);
          compiled.set_sink_pattern(sink, pattern);
          if (worst_case) compiled.saturate_stations();
          EXPECT_EQ(want[worst_case], compiled.analyze(kBudget))
              << what << " compiled";

          xir::SlicedEngine sliced(gen.topo, opts, /*num_lanes=*/1);
          sliced.set_sink_pattern(sink, pattern);
          if (worst_case) sliced.saturate_stations(1ull);
          EXPECT_EQ(want[worst_case], sliced.analyze(kBudget).at(0))
              << what << " sliced";
        }
        xir::SlicedEngine wide(gen.topo, opts);
        wide.set_sink_pattern(sink, pattern);
        wide.saturate_stations(0xaaaaaaaaaaaaaaaaull);
        const auto lanes = wide.analyze(kBudget);
        for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
          EXPECT_EQ(want[lane % 2], lanes[lane])
              << scenario_name(gen.processes.size(), opts, lane % 2 == 1)
              << " lane " << lane;
        }
      }
    }
  }
}

// Sanitizers' shadow memory makes a resident-set bound meaningless, so
// the memory test is compiled out under ASan and TSan.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define LIPLIB_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define LIPLIB_TEST_SANITIZED 1
#endif
#endif

#ifndef LIPLIB_TEST_SANITIZED
// The search keeps O(visited cycles) memory, not shells x visited
// cycles: a forked child screens a 4,000-process chain (8,000 visited
// cycles, 4,000 fire counts each) within 64 MiB of peak RSS.
TEST(XirMemory, ScreeningAFourThousandProcessChainStaysSmall) {
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    const auto verdict =
        xir::screen_for_deadlock(graph::make_pipeline(4000, 1).topo);
    _exit(verdict.found && !verdict.deadlock_found() ? 0 : 1);
  }
  int status = 0;
  rusage usage{};
  ASSERT_EQ(wait4(pid, &status, 0, &usage), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << "the chain did not screen live";
  EXPECT_LT(usage.ru_maxrss, 64 * 1024) << "peak RSS in KiB";
}
#endif

// ---- sliced lane independence -------------------------------------------

TEST(XirSliced, LaneSignatureMatchesScalarEveryCycle) {
  const graph::Topology topo = random_composite(99);
  skeleton::SkeletonOptions opts;
  xir::ScalarEngine scalar(topo, opts);
  xir::SlicedEngine sliced(topo, opts);
  std::vector<std::string> keys;
  for (int c = 0; c < 100; ++c) {
    sliced.state_keys(&keys);
    for (std::size_t lane : {std::size_t{0}, std::size_t{17},
                             std::size_t{63}}) {
      EXPECT_EQ(scalar.state_key(), keys[lane])
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
    const auto want = system_screen(variant, opts, 1u << 14);
    EXPECT_EQ(want, batched[v]) << "variant " << v;
    (want.deadlock_found() ? saw_deadlock : saw_live) = true;
  }
  // The corpus must exercise both verdicts or the test proves nothing.
  EXPECT_TRUE(saw_deadlock);
  EXPECT_TRUE(saw_live);
}

// ---- probe and watchdog parity ------------------------------------------

TEST(XirProbe, ReportMatchesInterpreter) {
  const graph::Topology topo = random_composite(123);
  skeleton::SkeletonOptions opts;

  const auto sys = testutil::make_design(topo).instantiate();
  probe::Probe sys_probe;
  sys->attach_probe(sys_probe);
  sys->run(300);

  xir::ScalarEngine eng(topo, opts);
  probe::Probe eng_probe;
  eng.attach_probe(eng_probe);
  eng.run(300);

  EXPECT_EQ(sys_probe.report().to_json().dump(),
            eng_probe.report().to_json().dump());
}

TEST(XirWatchdog, TripCycleMatchesInterpreter) {
  // A half-station loop saturated from worst-case occupancy: the
  // paper's latent stop latch, guaranteed to freeze.
  const graph::Topology topo =
      graph::make_ring_with_tap(1, 1, graph::RsKind::kHalf).topo;

  telemetry::Watchdog dog_sys{};
  const auto sys = testutil::make_design(topo).instantiate();
  sys->saturate_stations();
  dog_sys.attach(*sys);
  const auto run_sys = telemetry::run_guarded(*sys, dog_sys, 4096);

  telemetry::Watchdog dog_eng{};
  xir::ScalarEngine eng(topo, {});
  eng.saturate_stations();
  dog_eng.attach(eng);
  const auto run_eng = telemetry::run_guarded(eng, dog_eng, 4096);

  ASSERT_TRUE(dog_sys.tripped());
  ASSERT_TRUE(dog_eng.tripped());
  EXPECT_EQ(run_sys.cycles, run_eng.cycles);
  EXPECT_EQ(dog_sys.reason(), dog_eng.reason());
  EXPECT_EQ(dog_sys.trip_cycle(), dog_eng.trip_cycle());
  EXPECT_EQ(dog_sys.no_progress_since(), dog_eng.no_progress_since());
}

// ---- campaign integration -----------------------------------------------

// Outcome severity of a screening verdict, as campaign jobs fold it
// (worst lane wins).
int severity(const lip::SteadyState& v) {
  if (!v.found) return 3;             // budget exhausted
  if (!v.deadlock_found()) return 0;  // live
  return (!v.starved_shells().empty() && v.system_throughput() > Rational(0))
             ? 1   // starved
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

  // Each variant on its own through System.
  std::vector<lip::SteadyState> want;
  skeleton::ScreeningOptions wc;
  wc.worst_case_occupancy = true;
  for (std::size_t v = 0; v < spec.variants; ++v) {
    const auto kinds =
        campaign::mix_screen_variant_kinds(base, eopts.base_seed, v);
    want.push_back(system_screen(with_station_kinds(base, kinds), wc,
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
      worst = std::max(worst, severity(want[v]));
      cycles += want[v].cycles;
    }
    EXPECT_EQ(severity(job.outcome), worst) << job.name;
    EXPECT_EQ(job.cycles, cycles) << job.name;
    lo = hi;
  }
}

// Fuzz jobs analyze on the scalar engine; replaying each job's topology
// (the composite recipe, from the job's own seed) through System
// reproduces its verdict, cycle count and exact throughput.
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
    const auto r = system_analyze(gen.topo, {spec.policy},
                                  eopts.cycle_budget, false);
    const campaign::Outcome want =
        !r.found              ? campaign::Outcome::kBudgetExhausted
        : r.deadlocked        ? campaign::Outcome::kDeadlock
        : r.has_starved_shell ? campaign::Outcome::kStarvation
                              : campaign::Outcome::kLive;
    EXPECT_EQ(results[i].outcome, want) << i;
    EXPECT_EQ(results[i].cycles, r.cycles) << i;
    EXPECT_EQ(results[i].has_throughput, r.found) << i;
    EXPECT_EQ(results[i].throughput, r.system_throughput()) << i;
  }
}

}  // namespace
