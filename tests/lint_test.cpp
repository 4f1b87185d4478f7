// Tests for liplib::lint, the static protocol analyzer: golden text and
// JSON output per rule id, fix-it application and idempotence, and the
// keystone agreement check — on >= 300 randomized topologies the static
// LIP006 verdict must match worst-case skeleton screening exactly, and
// every `lint --fix` output must re-lint clean and screen live.

#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <string>

#include "liplib/campaign/campaign.hpp"
#include "liplib/campaign/jobs.hpp"
#include "liplib/graph/generators.hpp"
#include "liplib/graph/netlist_io.hpp"
#include "liplib/lint/lint.hpp"
#include "liplib/skeleton/skeleton.hpp"
#include "liplib/support/rng.hpp"
#include "liplib/xir/xir.hpp"

namespace {

using namespace liplib;

// A process with dangling ports (LIP001 twice).
const char* kFloating =
    "source s\nprocess P 2 2\nsink o\n"
    "channel s.0 -> P.0\nchannel P.0 -> o.0\n";

// A source wired straight into a sink (LIP004).
const char* kDegenerate = "source s\nsink o\nchannel s.0 -> o.0\n";

// Two shells with no memory element between them (LIP003).
const char* kNoStation =
    "source s\nprocess A 1 1\nprocess B 1 1\nsink o\n"
    "channel s.0 -> A.0\nchannel A.0 -> B.0\nchannel B.0 -> o.0\n";

// A two-shell loop whose stations are all half: token conservation says
// the stop latch is unreachable from reset (2 tokens in 4 positions) but
// closes under worst-case occupancy (LIP005 x2 + LIP006 warning).
const char* kHazardRing =
    "source s\nprocess A 2 1\nprocess B 1 2\nsink o\n"
    "channel s.0 -> A.0\nchannel A.0 -> B.0 : H\n"
    "channel B.0 -> A.1 : H\nchannel B.1 -> o.0\n";

// The same loop with no stations at all: the latch closes from reset
// occupancy (LIP006 error, plus LIP003 per channel).
const char* kResetRing =
    "source s\nprocess A 2 1\nprocess B 1 2\nsink o\n"
    "channel s.0 -> A.0\nchannel A.0 -> B.0\n"
    "channel B.0 -> A.1\nchannel B.1 -> o.0\n";

// The same loop fully registered: live, loop bound 1/2 (LIP008).
const char* kFullRing =
    "source s\nprocess A 2 1\nprocess B 1 2\nsink o\n"
    "channel s.0 -> A.0\nchannel A.0 -> B.0 : F\n"
    "channel B.0 -> A.1 : F\nchannel B.1 -> o.0\n";

// The paper's Fig. 1: reconvergent paths imbalanced by one station.
const char* kFig1 =
    "source src\nprocess A 1 2\nprocess B 1 1\nprocess C 2 1\nsink out\n"
    "channel src.0 -> A.0\nchannel A.0 -> B.0 : F\n"
    "channel B.0 -> C.0 : F\nchannel A.1 -> C.1 : F\n"
    "channel C.0 -> out.0\n";

graph::Topology parse(const char* text) {
  return graph::parse_netlist_string(text);
}

std::string lint_text(const graph::Topology& topo,
                      const lint::Options& options = {}) {
  return lint::run_lint(topo, options).to_string(topo);
}

TEST(Lint, RuleCatalogIsStable) {
  const auto& catalog = lint::rule_catalog();
  ASSERT_EQ(catalog.size(), 9u);
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    EXPECT_EQ(catalog[i].id, "LIP00" + std::to_string(i + 1));
    EXPECT_NE(std::string(catalog[i].name), "");
    EXPECT_NE(std::string(catalog[i].summary), "");
    EXPECT_NE(std::string(catalog[i].citation), "");
  }
}

TEST(Lint, GoldenTextDanglingPorts) {
  EXPECT_EQ(lint_text(parse(kFloating)),
            "error[LIP001] input port 1 of P is not driven\n"
            "error[LIP001] output port 1 of P drives nothing\n"
            "info[LIP009] steady state is reached within 34 cycles "
            "(transient bound); longest register path 2\n"
            "2 error(s), 0 warning(s), 1 note(s)\n");
}

TEST(Lint, GoldenTextFanoutBeyondMask) {
  graph::Topology topo;
  const auto s = topo.add_source("s");
  const auto f = topo.add_process("F", 1, 1);
  topo.connect({s, 0}, {f, 0}, {});
  for (int i = 0; i < 33; ++i) {
    const auto o = topo.add_sink("o" + std::to_string(i));
    topo.connect({f, 0}, {o, 0}, {});
  }
  const auto report = lint::run_lint(topo);
  EXPECT_EQ(report.count_rule("LIP002"), 1u);
  EXPECT_NE(report.to_string(topo).find(
                "error[LIP002] output port 0 of F fans out to 33 branches; "
                "the protocol engines track pending consumers in a 32-bit "
                "mask (at most 32)"),
            std::string::npos);
  // Exactly 32 branches is allowed.
  graph::Topology ok;
  const auto s2 = ok.add_source("s");
  const auto f2 = ok.add_process("F", 1, 1);
  ok.connect({s2, 0}, {f2, 0}, {});
  for (int i = 0; i < 32; ++i) {
    const auto o = ok.add_sink("o" + std::to_string(i));
    ok.connect({f2, 0}, {o, 0}, {});
  }
  EXPECT_FALSE(lint::run_lint(ok).has_rule("LIP002"));
}

TEST(Lint, GoldenTextMissingStation) {
  EXPECT_EQ(lint_text(parse(kNoStation)),
            "error[LIP003] channel A -> B connects two shells with no relay "
            "station (the protocol requires at least one memory element "
            "between shells)\n"
            "  fix-it: insert a half relay station into channel A.0 -> B.0\n"
            "info[LIP009] steady state is reached within 34 cycles "
            "(transient bound); longest register path 3\n"
            "1 error(s), 0 warning(s), 1 note(s)\n");
  // Carloni-style input-queued shells provide the memory element
  // themselves: the rule (and its refinement LIP006) is off.
  lint::Options queued;
  queued.require_station_between_shells = false;
  const auto report = lint::run_lint(parse(kNoStation), queued);
  EXPECT_FALSE(report.has_rule("LIP003"));
  EXPECT_TRUE(report.clean());
}

TEST(Lint, GoldenTextSourceFeedsSink) {
  EXPECT_EQ(lint_text(parse(kDegenerate)),
            "warning[LIP004] channel s -> o connects a source directly to a "
            "sink\n"
            "info[LIP009] steady state is reached within 18 cycles "
            "(transient bound); longest register path 1\n"
            "0 error(s), 1 warning(s), 1 note(s)\n");
}

TEST(Lint, GoldenTextHalfLatchedRing) {
  // The worst-case-reachable classification: the all-half cycle conserves
  // its reset tokens, so the latch needs worst-case occupancy to close.
  EXPECT_EQ(
      lint_text(parse(kHazardRing)),
      "info[LIP005] channel A -> B lies on a cycle and contains a half "
      "relay station: potential deadlock; run skeleton screening\n"
      "info[LIP005] channel B -> A lies on a cycle and contains a half "
      "relay station: potential deadlock; run skeleton screening\n"
      "warning[LIP006] combinational stop cycle through shells A, B: no "
      "full relay station registers the stop path; unreachable from reset "
      "(the cycle conserves 2 token(s) in 4 register positions) but "
      "deadlocks under worst-case occupancy\n"
      "  fix-it: substitute the half relay station at position 0 of "
      "channel A.0 -> B.0 with a full one (registers the stop path)\n"
      "info[LIP008] slowest cycle through shells A, B: 2 shell(s), 2 relay "
      "station(s); loop bound T = S/(S+R) = 1/2 limits system throughput\n"
      "info[LIP009] steady state is reached within 88 cycles (transient "
      "bound)\n"
      "0 error(s), 1 warning(s), 4 note(s)\n");
  EXPECT_EQ(lint::run_lint(parse(kHazardRing)).exit_code(), 1);
}

TEST(Lint, GoldenTextResetReachableRing) {
  // With zero station slack the latch closes from reset: LIP006 is an
  // error, and the fix-it inserts (not substitutes) a full station.
  const auto text = lint_text(parse(kResetRing));
  EXPECT_NE(text.find(
                "error[LIP006] combinational stop cycle through shells A, "
                "B: no full relay station registers the stop path; with no "
                "station slack the stop latch closes from reset occupancy\n"
                "  fix-it: insert a full relay station into channel "
                "A.0 -> B.0 (registers the stop path)"),
            std::string::npos)
      << text;
  EXPECT_EQ(lint::run_lint(parse(kResetRing)).exit_code(), 2);
}

TEST(Lint, GoldenTextReconvergenceImbalance) {
  EXPECT_EQ(lint_text(parse(kFig1)),
            "info[LIP007] implicit loop A -> B -> C <- A (data forward, "
            "stops back) limits throughput to T = 4/5; equalize the "
            "branches\n"
            "  fix-it: append 1 full relay station(s) to channel A.1 -> "
            "C.1 (equalization)\n"
            "info[LIP009] steady state is reached within 258 cycles "
            "(transient bound); longest register path 6\n"
            "0 error(s), 0 warning(s), 2 note(s)\n");
}

TEST(Lint, GoldenTextSlowestCycle) {
  EXPECT_EQ(lint_text(parse(kFullRing)),
            "info[LIP008] slowest cycle through shells A, B: 2 shell(s), 2 "
            "relay station(s); loop bound T = S/(S+R) = 1/2 limits system "
            "throughput\n"
            "info[LIP009] steady state is reached within 144 cycles "
            "(transient bound)\n"
            "0 error(s), 0 warning(s), 2 note(s)\n");
}

TEST(Lint, ExitCodeContract) {
  EXPECT_EQ(lint::run_lint(parse(kFullRing)).exit_code(), 0);    // clean
  EXPECT_EQ(lint::run_lint(parse(kDegenerate)).exit_code(), 1);  // warning
  EXPECT_EQ(lint::run_lint(parse(kFloating)).exit_code(), 2);    // error
}

TEST(Lint, StructuralOnlySkipsPerformanceRules) {
  lint::Options structural;
  structural.structural_only = true;
  const auto report = lint::run_lint(parse(kHazardRing), structural);
  EXPECT_TRUE(report.has_rule("LIP005"));
  EXPECT_TRUE(report.has_rule("LIP006"));
  EXPECT_FALSE(report.has_rule("LIP007"));
  EXPECT_FALSE(report.has_rule("LIP008"));
  EXPECT_FALSE(report.has_rule("LIP009"));
}

TEST(Lint, DisabledRulesAreSkipped) {
  lint::Options options;
  options.disabled_rules = {"LIP009", "LIP005"};
  const auto report = lint::run_lint(parse(kHazardRing), options);
  EXPECT_FALSE(report.has_rule("LIP009"));
  EXPECT_FALSE(report.has_rule("LIP005"));
  EXPECT_TRUE(report.has_rule("LIP006"));
}

TEST(Lint, JsonFormCarriesEveryRule) {
  const struct {
    const char* netlist;
    const char* rule;
  } cases[] = {
      {kFloating, "\"rule\": \"LIP001\""},
      {kNoStation, "\"rule\": \"LIP003\""},
      {kDegenerate, "\"rule\": \"LIP004\""},
      {kHazardRing, "\"rule\": \"LIP006\""},
      {kFig1, "\"rule\": \"LIP007\""},
      {kFullRing, "\"rule\": \"LIP008\""},
      {kFullRing, "\"rule\": \"LIP009\""},
  };
  for (const auto& c : cases) {
    const auto topo = parse(c.netlist);
    const auto json = lint::run_lint(topo).to_json(topo).dump(2);
    EXPECT_NE(json.find("\"schema\": \"liplib-lint-v1\""), std::string::npos);
    EXPECT_NE(json.find(c.rule), std::string::npos) << json;
  }
}

TEST(Lint, JsonIsDeterministicAndStructured) {
  const auto topo = parse(kHazardRing);
  const auto once = lint::run_lint(topo).to_json(topo).dump(2);
  const auto twice = lint::run_lint(topo).to_json(topo).dump(2);
  EXPECT_EQ(once, twice);  // byte-identical across runs
  for (const char* needle :
       {"\"schema\": \"liplib-lint-v1\"", "\"errors\": 0", "\"warnings\": 1",
        "\"clean\": false", "\"exit_code\": 1", "\"rule\": \"LIP006\"",
        "\"severity\": \"warning\"", "\"kind\": \"substitute_station\"",
        "\"channel_label\": \"A.0 -> B.0\"", "\"station\": \"full\"",
        "\"from\": \"A.0\"", "\"to\": \"B.0\""}) {
    EXPECT_NE(once.find(needle), std::string::npos) << needle << "\n" << once;
  }
}

TEST(Lint, ValidationReportAdapter) {
  EXPECT_FALSE(parse(kFloating).validate().ok());
  EXPECT_FALSE(parse(kNoStation).validate().ok());
  EXPECT_TRUE(parse(kNoStation).validate(false).ok());
  // The half-latched ring is structurally valid but carries the LIP006
  // hazard as a validation warning.
  const auto v = parse(kHazardRing).validate();
  EXPECT_TRUE(v.ok());
  EXPECT_FALSE(v.issues.empty());
}

TEST(Lint, FixCuresTheHazardRingAndIsIdempotent) {
  const auto topo = parse(kHazardRing);
  const auto fix = lint::lint_and_fix(topo);
  EXPECT_EQ(fix.applied, 1u);
  EXPECT_EQ(fix.iterations, 1u);
  EXPECT_TRUE(fix.report.clean());
  // Idempotence: re-fixing the cured topology is a no-op.
  const auto again = lint::lint_and_fix(fix.fixed);
  EXPECT_EQ(again.applied, 0u);
  EXPECT_EQ(graph::write_netlist(again.fixed), graph::write_netlist(fix.fixed));
  // The cure survives dynamic screening under worst-case occupancy.
  skeleton::ScreeningOptions wc;
  wc.worst_case_occupancy = true;
  const auto verdict = xir::screen_for_deadlock(fix.fixed, wc, 1u << 16);
  EXPECT_TRUE(verdict.found);
  EXPECT_FALSE(verdict.deadlock_found());
}

TEST(Lint, FixEqualizesFig1) {
  const auto topo = parse(kFig1);
  const auto fix = lint::lint_and_fix(topo);
  EXPECT_EQ(fix.applied, 1u);
  EXPECT_TRUE(fix.report.clean());
  EXPECT_FALSE(fix.report.has_rule("LIP007"));
  // The short branch A.1 -> C.1 (channel 3) gained one full station.
  EXPECT_EQ(fix.fixed.channel(3).stations.size(), 2u);
  EXPECT_EQ(fix.fixed.channel(3).num_full(), 2u);
  // Re-fixing is a no-op.
  EXPECT_EQ(lint::lint_and_fix(fix.fixed).applied, 0u);
}

TEST(Lint, CampaignLintJobMapsOutcomes) {
  campaign::JobContext ctx;
  ctx.seed = 1;
  ctx.cycle_budget = 1u << 16;
  EXPECT_EQ(campaign::make_lint_job("clean", parse(kFullRing)).fn(ctx).outcome,
            campaign::Outcome::kLive);
  EXPECT_EQ(
      campaign::make_lint_job("hazard", parse(kHazardRing)).fn(ctx).outcome,
      campaign::Outcome::kDeadlock);
  const auto broken = campaign::make_lint_job("broken", parse(kFloating))
                          .fn(ctx);
  EXPECT_EQ(broken.outcome, campaign::Outcome::kError);
  EXPECT_NE(broken.detail.find("LIP001"), std::string::npos);
}

// The keystone: on 300 randomized composite topologies the static LIP006
// verdict agrees exactly with worst-case skeleton screening, and both
// verdict classes actually occur.  This is the direct (single-threaded)
// form; the campaign form below runs the shipped cross-check jobs.
TEST(Lint, StaticVerdictAgreesWithScreeningOn300Topologies) {
  std::size_t hazards = 0;
  std::size_t clean = 0;
  lint::Options structural;
  structural.structural_only = true;
  skeleton::ScreeningOptions wc;
  wc.worst_case_occupancy = true;
  for (std::size_t i = 0; i < 300; ++i) {
    Rng rng(campaign::job_seed(7, i));
    const std::size_t segments = 1 + rng.below(4);
    const bool risky = rng.chance(1, 2);
    auto gen = graph::make_random_composite(rng, segments,
                                            /*allow_half=*/true,
                                            /*allow_half_in_loops=*/risky);
    const bool hazard =
        lint::run_lint(gen.topo, structural).has_rule("LIP006");
    const auto verdict =
        xir::screen_for_deadlock(gen.topo, wc, 1u << 16);
    ASSERT_TRUE(verdict.found) << "topology " << i;
    ASSERT_EQ(hazard, verdict.deadlock_found())
        << "static/dynamic disagreement on topology " << i << ":\n"
        << graph::write_netlist(gen.topo);
    ++(hazard ? hazards : clean);
  }
  // The sample must exercise both verdicts or the agreement is vacuous.
  EXPECT_GT(hazards, 0u);
  EXPECT_GT(clean, 0u);
}

// The shipped cross-check campaign (lidtool campaign lint): every job
// re-derives its topology from its seed, compares verdicts, and screens
// the lint --fix output of every hazardous topology.  All 300 must come
// back kLive — any disagreement surfaces as kMismatch.
TEST(Lint, CrossCheckCampaignFindsNoMismatchIn300Jobs) {
  campaign::EngineOptions opts;
  opts.threads = 4;
  opts.base_seed = 42;
  opts.cycle_budget = 1u << 16;
  const auto results = campaign::Engine(opts).run(
      campaign::make_lint_crosscheck_campaign(300));
  ASSERT_EQ(results.size(), 300u);
  for (const auto& r : results) {
    EXPECT_EQ(r.outcome, campaign::Outcome::kLive)
        << r.name << " seed=" << r.seed << ": " << r.detail;
  }
}

// Lint reads each node's channels from the Topology's adjacency index
// and counts them per port, so a 40k-process chain lints and validates
// in linear time; a scan of every channel per output port takes seconds
// on it.
TEST(Lint, LongChainLintsAndValidatesInLinearTime) {
  const auto topo = graph::make_pipeline(40000, 1).topo;
  const auto t0 = std::chrono::steady_clock::now();
  const auto report = lint::run_lint(topo);
  const auto validation = topo.validate();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(3));
  EXPECT_EQ(report.exit_code(), 0) << report.to_string(topo);
  EXPECT_TRUE(validation.ok());
}

// The 26-diamond fixture has 2^26 fork->join paths.  The system bound
// is one minimum cycle ratio over data and stop edges, with no path to
// enumerate, so lint checks every implicit loop at once: all are
// balanced, and LIP007 stays silent.
TEST(Lint, DiamondChainIsCheckedWithoutAPathBudget) {
  std::ifstream in(std::string(LIPLIB_FIXTURES_DIR) + "/diamond_chain.lid");
  ASSERT_TRUE(in.good());
  const auto topo = graph::parse_netlist(in);
  const auto t0 = std::chrono::steady_clock::now();
  const auto report = lint::run_lint(topo);
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(500));
  EXPECT_EQ(report.exit_code(), 0);
  EXPECT_FALSE(report.has_rule("LIP007")) << report.to_string(topo);
  EXPECT_EQ(report.to_string(topo).find("budget"), std::string::npos)
      << report.to_string(topo);
}

}  // namespace
