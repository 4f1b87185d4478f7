// liplib::prove: whole-skeleton bounded model checking and k-induction.
//
// The heart of the suite is the three-way differential over the same
// 300-topology corpus the lint cross-check campaign uses: the static
// prover, the LIP006 structural rule and dynamic worst-case screening
// must agree exactly on every instance — a disagreement anywhere is a
// test failure, not a tolerance.  Around it: golden verdicts for the
// paper's figures, scalar-vs-sliced frontier equivalence, counterexample
// replay lockstep with the telemetry watchdog, and the JSON contract.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "liplib/campaign/campaign.hpp"
#include "liplib/formal/checker.hpp"
#include "liplib/graph/analysis.hpp"
#include "liplib/graph/generators.hpp"
#include "liplib/graph/mcr.hpp"
#include "liplib/graph/netlist_io.hpp"
#include "liplib/lint/lint.hpp"
#include "liplib/prove/prove.hpp"
#include "liplib/skeleton/skeleton.hpp"
#include "liplib/support/rng.hpp"
#include "liplib/telemetry/watchdog.hpp"
#include "liplib/xir/xir.hpp"

using namespace liplib;

namespace {

// The lint cross-check generator's recipe (tests/xir_test.cpp,
// campaign::make_lint_crosscheck_job): random composites whose half
// stations may sit on loops for half the draws.
graph::Topology random_composite(std::uint64_t seed,
                                 std::size_t max_segments = 4) {
  Rng rng(seed);
  const std::size_t segments = 1 + rng.below(max_segments);
  const bool risky = rng.chance(1, 2);
  return graph::make_random_composite(rng, segments, /*allow_half=*/true,
                                      /*allow_half_in_loops=*/risky)
      .topo;
}

// The paper's hazard instance: a two-shell feedback ring where both
// loop stations are half — a combinational stop cycle (LIP006) that
// latches from worst-case occupancy but is safe from reset.
graph::Topology half_ring() {
  return graph::make_ring_with_tap(1, 1, graph::RsKind::kHalf).topo;
}

prove::ProveOptions small_opts() {
  prove::ProveOptions opts;
  opts.max_states = 1u << 16;
  return opts;
}

// `diamonds` diamonds in a row: F forks to A and B, which meet at J, and
// J feeds the next F; every channel carries one full station.
graph::Topology diamond_chain(std::size_t diamonds) {
  using graph::RsKind;
  graph::Topology t;
  graph::OutRef prev{t.add_source("src"), 0};
  for (std::size_t d = 0; d < diamonds; ++d) {
    const std::string id = std::to_string(d);
    const auto f = t.add_process("F" + id, 1, 1);
    const auto a = t.add_process("A" + id, 1, 1);
    const auto b = t.add_process("B" + id, 1, 1);
    const auto j = t.add_process("J" + id, 2, 1);
    t.connect(prev, {f, 0}, {RsKind::kFull});
    t.connect({f, 0}, {a, 0}, {RsKind::kFull});
    t.connect({f, 0}, {b, 0}, {RsKind::kFull});
    t.connect({a, 0}, {j, 0}, {RsKind::kFull});
    t.connect({b, 0}, {j, 1}, {RsKind::kFull});
    prev = {j, 0};
  }
  t.connect(prev, {t.add_sink("out"), 0}, {RsKind::kFull});
  return t;
}

}  // namespace

TEST(Prove, HalfRingFromResetProvedByReachability) {
  prove::ProveOptions opts = small_opts();
  opts.method = prove::Method::kReachability;
  const auto r = prove::prove(half_ring(), opts);
  EXPECT_EQ(r.verdict, prove::Verdict::kProved);
  EXPECT_EQ(r.method_used, prove::Method::kReachability);
  EXPECT_TRUE(r.closed);
  EXPECT_TRUE(r.env_exhaustive);
  EXPECT_GT(r.states_explored, 0u);
  EXPECT_TRUE(r.token_conservation_ok);
  EXPECT_EQ(r.exit_code(), 0);
}

TEST(Prove, HalfRingFromResetProvedByInduction) {
  prove::ProveOptions opts = small_opts();
  opts.method = prove::Method::kInduction;
  const auto r = prove::prove(half_ring(), opts);
  EXPECT_EQ(r.verdict, prove::Verdict::kProved);
  EXPECT_TRUE(r.induction_closed);
  ASSERT_FALSE(r.certificates.empty());
  for (const auto& c : r.certificates) {
    EXPECT_TRUE(c.holds);
    EXPECT_LT(c.tokens, c.dead_threshold);
  }
}

TEST(Prove, HalfRingWorstCaseCounterexample) {
  prove::ProveOptions opts = small_opts();
  opts.worst_case_occupancy = true;
  const auto r = prove::prove(half_ring(), opts);
  ASSERT_EQ(r.verdict, prove::Verdict::kCounterexample);
  EXPECT_EQ(r.exit_code(), 1);
  ASSERT_TRUE(r.counterexample.has_value());
  const auto& cex = *r.counterexample;
  EXPECT_EQ(cex.steps.size(), cex.depth);
  EXPECT_FALSE(cex.culprit_shells.empty());
  EXPECT_FALSE(cex.culprit_channels.empty());
  EXPECT_TRUE(cex.greedy_reproduces);
  EXPECT_TRUE(r.token_conservation_ok);
  // The saturated all-half cycle's certificate must be the failing one.
  bool saw_failing = false;
  for (const auto& c : r.certificates) {
    if (!c.holds) {
      saw_failing = true;
      EXPECT_EQ(c.full_stations, 0u);
      EXPECT_GE(c.tokens, c.dead_threshold);
    }
  }
  EXPECT_TRUE(saw_failing);
  // The bundle replays to the identical deadlock.
  ASSERT_TRUE(r.postmortem.has_value());
  const auto replayed = telemetry::replay(*r.postmortem);
  EXPECT_TRUE(replayed.reproduced);
}

TEST(Prove, PaperFiguresProved) {
  for (const bool worst_case : {false, true}) {
    for (const auto& gen : {graph::make_fig1(), graph::make_fig2()}) {
      prove::ProveOptions opts = small_opts();
      opts.worst_case_occupancy = worst_case;
      const auto r = prove::prove(gen.topo, opts);
      EXPECT_EQ(r.verdict, prove::Verdict::kProved)
          << "worst_case=" << worst_case;
    }
  }
}

TEST(Prove, InductionClosesWithoutSearch) {
  // Full-station rings stay below the latch threshold even saturated:
  // the certificates alone prove them, no state enumeration at all.
  prove::ProveOptions opts = small_opts();
  opts.method = prove::Method::kInduction;
  opts.worst_case_occupancy = true;
  const auto r = prove::prove(graph::make_fig2().topo, opts);
  EXPECT_EQ(r.verdict, prove::Verdict::kProved);
  EXPECT_TRUE(r.induction_closed);
  EXPECT_EQ(r.states_explored, 0u);
}

TEST(Prove, StrictPolicyInductionIsUnknown) {
  prove::ProveOptions opts = small_opts();
  opts.method = prove::Method::kInduction;
  opts.skeleton.policy = lip::StopPolicy::kCarloniStrict;
  const auto r = prove::prove(half_ring(), opts);
  EXPECT_EQ(r.verdict, prove::Verdict::kUnknown);
  EXPECT_EQ(r.exit_code(), 2);
  EXPECT_FALSE(r.note.empty());
}

TEST(Prove, NonExhaustiveEnvironmentCannotProveBySearch) {
  prove::ProveOptions opts = small_opts();
  opts.method = prove::Method::kReachability;
  opts.max_env_sinks = 0;  // force the {greedy, all-stop} pair
  const auto r = prove::prove(half_ring(), opts);
  EXPECT_FALSE(r.env_exhaustive);
  EXPECT_EQ(r.verdict, prove::Verdict::kUnknown);
  // ... but the certificates quantify over every environment, so
  // induction still closes the same design.
  opts.method = prove::Method::kInduction;
  const auto ri = prove::prove(half_ring(), opts);
  EXPECT_EQ(ri.verdict, prove::Verdict::kProved);
}

TEST(Prove, SkeletonModelMatchesScreeningEnvironment) {
  const auto topo = half_ring();
  const auto model = prove::make_skeleton_model(topo, small_opts());
  EXPECT_EQ(model->num_env_choices(), 2u);  // one sink
  EXPECT_TRUE(model->env_exhaustive());
  const auto succs = model->successors(model->initial());
  ASSERT_EQ(succs.size(), 2u);
  EXPECT_EQ(succs[0].choice, "sinks_stopped=0");
  EXPECT_EQ(succs[1].choice, "sinks_stopped=1");
}

TEST(Prove, ScalarAndSlicedFrontiersAgree) {
  for (std::uint64_t i = 0; i < 40; ++i) {
    const auto topo = random_composite(campaign::job_seed(23, i));
    for (const bool worst_case : {false, true}) {
      prove::ProveOptions opts = small_opts();
      opts.method = prove::Method::kReachability;
      opts.max_states = 1u << 13;
      opts.worst_case_occupancy = worst_case;
      opts.sliced_frontier = true;
      const auto sliced = prove::prove(topo, opts);
      opts.sliced_frontier = false;
      const auto scalar = prove::prove(topo, opts);
      ASSERT_EQ(sliced.verdict, scalar.verdict)
          << "seed " << i << " worst_case=" << worst_case;
      EXPECT_EQ(sliced.closed, scalar.closed);
      // BFS on both sides: once the search closes or finds its (minimal
      // depth) counterexample, the documents agree byte for byte —
      // states, transitions, depth reached, counterexample and bundle.
      if (sliced.closed ||
          sliced.verdict == prove::Verdict::kCounterexample) {
        EXPECT_EQ(sliced.to_json(topo).dump(), scalar.to_json(topo).dump())
            << "seed " << i << " worst_case=" << worst_case;
      }
    }
  }
}

// The tentpole cross-check: static prover vs LIP006 vs dynamic
// worst-case screening over 300 random composites.  Exact agreement.
TEST(Prove, ThreeWayCrossCheck300) {
  std::size_t deadlocks = 0;
  for (std::uint64_t i = 0; i < 300; ++i) {
    const auto topo = random_composite(campaign::job_seed(7, i));

    lint::Options structural;
    structural.structural_only = true;
    const bool hazard = lint::run_lint(topo, structural).has_rule("LIP006");

    skeleton::ScreeningOptions wc;
    wc.worst_case_occupancy = true;
    const auto screened = xir::screen_for_deadlock(topo, wc, 1u << 16);
    ASSERT_TRUE(screened.found) << "seed " << i;

    prove::ProveOptions opts;
    opts.worst_case_occupancy = true;
    opts.max_states = 1u << 14;  // kAuto falls back to induction past this
    const auto proved = prove::prove(topo, opts);
    ASSERT_NE(proved.verdict, prove::Verdict::kUnknown) << "seed " << i;

    const bool cex = proved.verdict == prove::Verdict::kCounterexample;
    EXPECT_EQ(cex, hazard) << "prove vs lint disagree on seed " << i;
    EXPECT_EQ(cex, screened.deadlock_found())
        << "prove vs screening disagree on seed " << i;
    EXPECT_TRUE(proved.token_conservation_ok) << "seed " << i;
    if (cex) ++deadlocks;
  }
  // The corpus exercises both verdicts (half the draws allow half
  // stations on loops).
  EXPECT_GT(deadlocks, 20u);
  EXPECT_LT(deadlocks, 280u);
}

// Satellite: every deadlocking topology's counterexample replays in the
// simulator to the identical deadlock — same trip cycle as a direct
// watchdog run, and the prover's culprit cycle matches the watchdog's
// blame histogram.
TEST(Prove, CounterexampleReplaysLockstepWithWatchdog) {
  std::size_t checked = 0;
  for (std::uint64_t i = 0; i < 300 && checked < 12; ++i) {
    const auto topo = random_composite(campaign::job_seed(7, i));
    prove::ProveOptions opts;
    opts.worst_case_occupancy = true;
    opts.max_states = 1u << 14;
    const auto r = prove::prove(topo, opts);
    if (r.verdict != prove::Verdict::kCounterexample) continue;
    ++checked;
    ASSERT_TRUE(r.counterexample.has_value()) << "seed " << i;
    ASSERT_TRUE(r.counterexample->greedy_reproduces) << "seed " << i;
    ASSERT_TRUE(r.postmortem.has_value()) << "seed " << i;
    const auto& pm = *r.postmortem;

    // Direct watchdog run of the same design, same regime.
    xir::ScalarEngine eng(topo, opts.skeleton);
    eng.saturate_stations();
    telemetry::WatchdogOptions wopts;
    wopts.worst_case_occupancy = true;
    telemetry::Watchdog dog(wopts);
    dog.attach(eng);
    telemetry::run_guarded(eng, dog, 1u << 16);
    ASSERT_TRUE(dog.tripped()) << "seed " << i;
    EXPECT_EQ(pm.trip_cycle, dog.trip_cycle()) << "seed " << i;
    EXPECT_EQ(pm.no_progress_since, dog.no_progress_since()) << "seed " << i;
    EXPECT_EQ(pm.reason, dog.reason()) << "seed " << i;

    // The bundle replays to the identical cycle indices.
    EXPECT_TRUE(telemetry::replay(pm).reproduced) << "seed " << i;

    // The prover's culprit shells appear in the watchdog's blame
    // histogram: a shell frozen on the latched cycle is a blame victim.
    ASSERT_FALSE(r.counterexample->culprit_shells.empty()) << "seed " << i;
    bool culprit_blamed = false;
    for (const auto& b : pm.blame) {
      for (graph::NodeId n : r.counterexample->culprit_shells) {
        if (b.victim == topo.node(n).name || b.culprit == topo.node(n).name) {
          culprit_blamed = true;
        }
      }
    }
    EXPECT_TRUE(culprit_blamed) << "seed " << i;
  }
  EXPECT_GE(checked, 5u);
}

// Throughput-bound consistency: a proved-live design's measured steady
// state never beats the analytic cycle bound the prover reports.
TEST(Prove, ThroughputBoundConsistent) {
  for (std::uint64_t i = 0; i < 60; ++i) {
    const auto topo = random_composite(campaign::job_seed(7, i));
    prove::ProveOptions opts;
    opts.max_states = 1u << 14;
    const auto r = prove::prove(topo, opts);
    if (r.verdict != prove::Verdict::kProved) continue;
    const auto screened = xir::screen_for_deadlock(topo, {}, 1u << 16);
    if (!screened.found || screened.deadlock_found()) continue;
    EXPECT_LE(screened.system_throughput(), r.cycle_bound) << "seed " << i;
    EXPECT_EQ(r.cycle_bound, graph::predict_throughput(topo).cycle_bound);
  }
}

TEST(Prove, CertificatesMatchCycleEnumeration) {
  const auto topo = random_composite(campaign::job_seed(7, 3));
  const auto cycles = graph::enumerate_cycles(topo);
  prove::ProveOptions opts;
  const auto certs = prove::cycle_certificates(topo, opts);
  ASSERT_EQ(certs.size(), cycles.size());
  for (const auto& c : certs) {
    EXPECT_EQ(c.shells, c.nodes.size());
    EXPECT_EQ(c.channels.size(), c.nodes.size());
    EXPECT_EQ(c.dead_threshold, c.shells + c.half_stations +
                                    2 * c.full_stations);
    EXPECT_EQ(c.tokens, c.shells);  // from reset
  }
  prove::ProveOptions wc;
  wc.worst_case_occupancy = true;
  for (const auto& c : prove::cycle_certificates(topo, wc)) {
    EXPECT_EQ(c.tokens, c.shells + c.half_stations + c.full_stations);
    // Worst-case certificate failure is exactly the LIP006 condition:
    // an all-half cycle (threshold == tokens); any full station adds
    // slack.
    EXPECT_EQ(!c.holds, c.full_stations == 0);
  }
}

// The proved-run token audit replays the greedy run only until its
// state repeats, not for the whole transient bound.  A closed two-shell
// ring with 300 full stations per channel has no sink, so its one
// environment is the greedy one, and its bound 2p^2 + 16 is millions of
// cycles.  From worst-case occupancy the greedy run is a fixed point;
// from reset it cycles through 301 states, which the audit's doubling
// window has to span.
TEST(Prove, TokenAuditEndsWhereTheGreedyRunRepeats) {
  const auto topo = graph::make_closed_ring({300, 300}).topo;
  ASSERT_GT(graph::transient_bound(topo), 1000000u);

  prove::ProveOptions wc;
  wc.worst_case_occupancy = true;
  const auto t0 = std::chrono::steady_clock::now();
  const auto worst = prove::prove(topo, wc);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(2));
  EXPECT_EQ(worst.verdict, prove::Verdict::kProved);
  EXPECT_EQ(worst.method_used, prove::Method::kReachability);
  EXPECT_TRUE(worst.token_conservation_ok);

  const auto reset = prove::prove(topo, {});
  EXPECT_EQ(reset.verdict, prove::Verdict::kProved);
  EXPECT_TRUE(reset.token_conservation_ok);
  EXPECT_EQ(reset.states_explored, 301u);
}

TEST(Prove, BmcFindsShallowCounterexample) {
  prove::ProveOptions opts = small_opts();
  opts.method = prove::Method::kBmc;
  opts.worst_case_occupancy = true;
  opts.depth = 4;
  const auto r = prove::prove(half_ring(), opts);
  EXPECT_EQ(r.verdict, prove::Verdict::kCounterexample);
  EXPECT_LE(r.counterexample->depth, 4u);
}

TEST(Prove, JsonRenderingContract) {
  const auto topo = half_ring();
  prove::ProveOptions opts = small_opts();
  opts.worst_case_occupancy = true;
  const auto r = prove::prove(topo, opts);
  const Json j = r.to_json(topo);
  EXPECT_EQ(j.find("schema")->as_string(), "liplib.prove/1");
  EXPECT_EQ(j.find("verdict")->as_string(), "counterexample");
  EXPECT_EQ(j.find("exit_code")->as_uint(), 1u);
  EXPECT_TRUE(j.find("certificates")->is_array());
  const Json* cex = j.find("counterexample");
  ASSERT_NE(cex, nullptr);
  EXPECT_EQ(cex->find("steps")->size(), r.counterexample->depth);
  ASSERT_NE(cex->find("culprit_shells"), nullptr);
  const Json& culprit = cex->find("culprit_shells")->at(0);
  EXPECT_NE(culprit.find("id"), nullptr);
  EXPECT_NE(culprit.find("name"), nullptr);
  // The embedded bundle is a valid liplib.postmortem/1 document.
  const Json* pm = j.find("postmortem");
  ASSERT_NE(pm, nullptr);
  const auto decoded = telemetry::PostMortem::from_json(*pm);
  EXPECT_EQ(decoded.trip_cycle, r.postmortem->trip_cycle);

  // Round-trip of the parsed document preserves the verdict fields.
  const Json parsed = Json::parse(j.dump(2));
  EXPECT_EQ(parsed.find("verdict")->as_string(), "counterexample");

  const auto text = r.to_string(topo);
  EXPECT_NE(text.find("counterexample"), std::string::npos);
  EXPECT_NE(text.find("deadlock"), std::string::npos);
}

TEST(Prove, MethodNamesRoundTrip) {
  for (prove::Method m :
       {prove::Method::kAuto, prove::Method::kReachability,
        prove::Method::kBmc, prove::Method::kInduction}) {
    prove::Method back;
    ASSERT_TRUE(prove::parse_method(prove::method_name(m), &back));
    EXPECT_EQ(back, m);
  }
  prove::Method out;
  EXPECT_FALSE(prove::parse_method("bogus", &out));
  EXPECT_STREQ(prove::verdict_name(prove::Verdict::kProved), "proved");
  EXPECT_STREQ(prove::verdict_name(prove::Verdict::kCounterexample),
               "counterexample");
  EXPECT_STREQ(prove::verdict_name(prove::Verdict::kUnknown), "unknown");
}

// Eight shells, each feeding every other one through a full station:
// lint-clean, with 16,064 simple cycles, past the 4096-cycle budget.
// Prove enumerates the cycles once, for its certificates, and a budget
// miss there is a note: reachability proves the design from reset and
// from worst case, induction has no certificates and answers unknown,
// and cycle_bound is the minimum cycle ratio.
TEST(Prove, CycleBudgetExceededLeavesANoteAndAnAnswer) {
  graph::Topology topo;
  constexpr std::size_t kShells = 8;
  for (std::size_t i = 0; i < kShells; ++i) {
    topo.add_process("P" + std::to_string(i), kShells - 1, 1);
  }
  for (graph::NodeId i = 0; i < kShells; ++i) {
    for (graph::NodeId j = 0; j < kShells; ++j) {
      if (i != j) {
        topo.connect({i, 0}, {j, i < j ? i : i - 1}, {graph::RsKind::kFull});
      }
    }
  }
  ASSERT_EQ(lint::run_lint(topo).exit_code(), 0);
  EXPECT_THROW(graph::enumerate_cycles(topo), ApiError);
  for (const bool worst_case : {false, true}) {
    prove::ProveOptions opts;
    opts.worst_case_occupancy = worst_case;
    const auto r = prove::prove(topo, opts);
    EXPECT_EQ(r.verdict, prove::Verdict::kProved);
    EXPECT_EQ(r.method_used, prove::Method::kReachability);
    EXPECT_TRUE(r.certificates.empty());
    EXPECT_EQ(r.note, "cycle enumeration budget exceeded");
    EXPECT_EQ(r.cycle_bound, Rational(1, 2));
    EXPECT_EQ(r.cycle_bound, graph::min_cycle_ratio(topo));
    opts.method = prove::Method::kInduction;
    const auto induction = prove::prove(topo, opts);
    EXPECT_EQ(induction.verdict, prove::Verdict::kUnknown);
    EXPECT_EQ(induction.note, "cycle enumeration budget exceeded");
  }
}

// Thirteen diamonds in a row have 2^13 fork->join paths, past the
// reconvergence analysis's 4096-path budget, and no cycle at all.
// Prove reads no reconvergence analysis, so induction proves the design
// with no certificate to check, and the loop bound is 1.
TEST(Prove, FeedforwardDesignNeedsNoPathBudget) {
  const auto topo = diamond_chain(13);
  EXPECT_THROW(graph::analyze_reconvergence(topo), ApiError);
  for (const bool worst_case : {false, true}) {
    prove::ProveOptions opts;
    opts.method = prove::Method::kInduction;
    opts.worst_case_occupancy = worst_case;
    const auto r = prove::prove(topo, opts);
    EXPECT_EQ(r.verdict, prove::Verdict::kProved);
    EXPECT_TRUE(r.induction_closed);
    EXPECT_TRUE(r.certificates.empty());
    EXPECT_EQ(r.cycle_bound, Rational(1));
    EXPECT_TRUE(r.note.empty()) << r.note;
  }
}

// The 26-diamond fixture is acyclic.  The cycle walk stays inside each
// root's strongly connected component, so it finds no cycle at once
// instead of walking every path below every root.
TEST(Prove, CycleWalkSkipsTheAcyclicPartOfADesign) {
  std::ifstream in(std::string(LIPLIB_FIXTURES_DIR) + "/diamond_chain.lid");
  ASSERT_TRUE(in.good());
  const auto topo = graph::parse_netlist(in);
  prove::ProveOptions opts;
  opts.method = prove::Method::kInduction;
  const auto t0 = std::chrono::steady_clock::now();
  const auto r = prove::prove(topo, opts);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1));
  EXPECT_EQ(r.verdict, prove::Verdict::kProved);
  EXPECT_TRUE(r.certificates.empty());
  EXPECT_TRUE(graph::enumerate_cycles(topo).empty());
  EXPECT_TRUE(graph::find_stop_cycles(topo).empty());
}
