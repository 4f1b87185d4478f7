// API-contract edge cases: misuse is rejected loudly and early, across
// the public entry points.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>

#include "liplib/graph/generators.hpp"
#include "liplib/lip/design.hpp"
#include "liplib/lip/reference.hpp"
#include "liplib/lip/steady_state.hpp"
#include "liplib/xir/xir.hpp"
#include "test_util.hpp"

namespace {

using namespace liplib;

/// Source fanning out to `width` sinks through one full station each.
graph::Topology make_fanout_topology(std::size_t width) {
  graph::Topology t;
  const auto src = t.add_source("src");
  for (std::size_t i = 0; i < width; ++i) {
    const auto sink = t.add_sink("out" + std::to_string(i));
    t.connect({src, 0}, {sink, 0}, {graph::RsKind::kFull});
  }
  return t;
}

// The pending-consumer masks are 32 bits wide, so fanout beyond 32 must
// be rejected at construction instead of silently truncating (the old
// load() mapped any branch count >= 32 to ~0u).
TEST(ApiEdges, FanoutBeyond32RejectedBySystem) {
  EXPECT_THROW(lip::System(make_fanout_topology(33)), ApiError);
}

TEST(ApiEdges, FanoutBeyond32RejectedByLowering) {
  EXPECT_THROW(xir::lower(make_fanout_topology(33)), ApiError);
}

TEST(ApiEdges, FanoutOf32StillDeliversToEveryBranch) {
  const auto topo = make_fanout_topology(32);
  lip::System sys(topo);
  sys.finalize();
  sys.run(8);
  for (graph::NodeId v = 0; v < topo.nodes().size(); ++v) {
    if (topo.node(v).kind != graph::NodeKind::kSink) continue;
    EXPECT_GT(sys.sink_count(v), 0u) << topo.node(v).name;
  }
  xir::ScalarEngine sk(topo);
  EXPECT_TRUE(sk.analyze().found);
}

TEST(ApiEdges, DesignRejectsWrongNodeKinds) {
  auto gen = graph::make_pipeline(1, 1);
  lip::Design d(gen.topo);
  EXPECT_THROW(d.set_pearl(gen.sources[0], pearls::make_identity()),
               ApiError);
  EXPECT_THROW(d.set_pearl(gen.sinks[0], pearls::make_identity()), ApiError);
  lip::System sys(gen.topo);
  EXPECT_THROW(sys.bind_source(gen.processes[0],
                               lip::SourceBehavior::counter()),
               ApiError);
  EXPECT_THROW(sys.bind_sink(gen.sources[0], lip::SinkBehavior::greedy()),
               ApiError);
  EXPECT_THROW(sys.bind_pearl(gen.processes[0], nullptr), ApiError);
}

TEST(ApiEdges, BindAfterFinalizeRejected) {
  auto gen = graph::make_pipeline(1, 1);
  auto d = testutil::make_design(gen);
  auto sys = d.instantiate();  // finalizes
  EXPECT_THROW(sys->bind_pearl(gen.processes[0], pearls::make_identity()),
               ApiError);
  EXPECT_THROW(sys->bind_source(gen.sources[0],
                                lip::SourceBehavior::counter()),
               ApiError);
}

TEST(ApiEdges, AccessorsValidateNodeKinds) {
  auto gen = graph::make_pipeline(1, 1);
  auto d = testutil::make_design(gen);
  auto sys = d.instantiate();
  sys->run(5);
  EXPECT_THROW(sys->sink_stream(gen.processes[0]), ApiError);
  EXPECT_THROW(sys->shell_fire_count(gen.sinks[0]), ApiError);
  EXPECT_THROW(sys->shell_activity(gen.sources[0]), ApiError);
  EXPECT_THROW(sys->channel_view(999), ApiError);
  EXPECT_THROW(sys->segment_stats(999), ApiError);
}

TEST(ApiEdges, FanoutBeyond32Rejected) {
  graph::Topology t;
  const auto src = t.add_source("src");
  std::vector<graph::NodeId> sinks;
  for (int i = 0; i < 33; ++i) {
    const auto s = t.add_sink("s" + std::to_string(i));
    t.connect({src, 0}, {s, 0});
  }
  EXPECT_THROW(lip::System sys(t), ApiError);
}

TEST(ApiEdges, ReferenceExecutorContracts) {
  auto gen = graph::make_pipeline(1, 1);
  lip::ReferenceExecutor ref(gen.topo);
  EXPECT_THROW(ref.run(1), ApiError);  // pearl unbound
  EXPECT_THROW(ref.bind_pearl(gen.sources[0], pearls::make_identity()),
               ApiError);
  EXPECT_THROW(ref.bind_pearl(gen.processes[0], pearls::make_adder()),
               ApiError);  // arity
  ref.bind_pearl(gen.processes[0], pearls::make_add_const(10));
  ref.bind_source_values(gen.sources[0],
                         [](std::uint64_t k) { return 2 * k; });
  ref.run(5);
  const auto& stream = ref.sink_stream(gen.sinks[0]);
  ASSERT_EQ(stream.size(), 5u);
  EXPECT_EQ(stream[0], 0u);   // init register
  EXPECT_EQ(stream[1], 10u);  // f(2*0)
  EXPECT_EQ(stream[2], 12u);  // f(2*1)
  EXPECT_THROW(ref.sink_stream(gen.processes[0]), ApiError);

  // An undriven input only matters once a cycle reads it.
  graph::Topology sink_only;
  sink_only.add_sink("s");
  lip::ReferenceExecutor undriven(sink_only);
  undriven.run(0);
  EXPECT_THROW(undriven.run(1), InternalError);
}

// The steady state follows the environment the System is bound to: a
// rate-limited sink of period L settles at T = 1/L with period L (keyed
// with the old default period of 1, L = 7 read as a deadlock), and an
// aperiodic environment has no exact steady state, so the search does
// not step.
TEST(ApiEdges, SteadyStateDerivesTheEnvironmentPeriod) {
  const auto gen = graph::make_pipeline(2, 1);
  for (const std::uint64_t period : {3u, 4u, 7u}) {
    auto d = testutil::make_design(gen);
    d.set_sink(gen.sinks[0], lip::SinkBehavior::periodic(period));
    auto sys = d.instantiate();
    const auto ss = lip::measure_steady_state(*sys);
    ASSERT_TRUE(ss.found) << "L = " << period;
    EXPECT_FALSE(ss.deadlocked) << "L = " << period;
    EXPECT_EQ(ss.period, period);
    EXPECT_EQ(ss.system_throughput(),
              Rational(1, static_cast<std::int64_t>(period)));
  }
  auto d = testutil::make_design(gen);
  d.set_source(gen.sources[0], lip::SourceBehavior::sparse_counter(1, 1, 2));
  auto sys = d.instantiate();
  EXPECT_FALSE(lip::measure_steady_state(*sys).found);
  EXPECT_EQ(sys->cycle(), 0u);
}

TEST(ApiEdges, SteadyStateBudgetExhaustionReportsNotFound) {
  auto gen = graph::make_pipeline(4, 2);
  auto d = testutil::make_design(std::move(gen));
  auto sys = d.instantiate();
  const auto ss = lip::measure_steady_state(*sys, /*max_cycles=*/2);
  EXPECT_FALSE(ss.found);
}

TEST(ApiEdges, EnvironmentBehaviorsValidated) {
  auto gen = graph::make_pipeline(1, 1);
  lip::System sys(gen.topo);
  lip::SourceBehavior empty_source;
  EXPECT_THROW(sys.bind_source(gen.sources[0], empty_source), ApiError);
  lip::SinkBehavior empty_sink;
  EXPECT_THROW(sys.bind_sink(gen.sinks[0], empty_sink), ApiError);
}

TEST(ApiEdges, InstantiationsAreIsolated) {
  // A Design's pearls are prototypes: every instantiate() gets fresh
  // clones, so two systems never share mutable state.
  auto gen = graph::make_pipeline(1, 1);
  lip::Design d(gen.topo);
  d.set_pearl(gen.processes[0], pearls::make_accumulator());
  auto s1 = d.instantiate();
  s1->run(100);
  auto s2 = d.instantiate();
  s2->run(100);
  ASSERT_EQ(s1->sink_stream(gen.sinks[0]).size(),
            s2->sink_stream(gen.sinks[0]).size());
  for (std::size_t i = 0; i < s1->sink_stream(gen.sinks[0]).size(); ++i) {
    EXPECT_EQ(s1->sink_stream(gen.sinks[0])[i],
              s2->sink_stream(gen.sinks[0])[i]);
  }
}

TEST(ApiEdges, SaturateBeforeFinalizeIsFine) {
  auto gen = graph::make_closed_ring({2, 2});
  auto d = testutil::make_design(std::move(gen));
  auto sys = d.instantiate();
  EXPECT_NO_THROW(sys->saturate_stations(7));
  EXPECT_NO_THROW(sys->run(10));
}

// ---- lidtool prove CLI contract -----------------------------------------
//
// The prove subcommand's exit codes are an API: 0 proved, 1
// counterexample, 2 unknown flag / usage error, and `--help` answers 0.
// LIDTOOL_PATH is injected by the build (tests/CMakeLists.txt).

#ifdef LIDTOOL_PATH

int run_lidtool(const std::string& args) {
  const std::string cmd =
      std::string(LIDTOOL_PATH) + " " + args + " >/dev/null 2>/dev/null";
  const int rc = std::system(cmd.c_str());
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

/// lidtool's standard output for `args`.
std::string lidtool_stdout(const std::string& args) {
  const std::string cmd = std::string(LIDTOOL_PATH) + " " + args +
                          " 2>/dev/null";
  std::string out;
  if (FILE* pipe = ::popen(cmd.c_str(), "r")) {
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) out.append(buf, n);
    ::pclose(pipe);
  }
  return out;
}

/// Writes a netlist to a per-process temp path and returns the path.
std::string write_lid(const char* name, const std::string& text) {
  const std::string path = testing::TempDir() + name + "." +
                           std::to_string(::getpid()) + ".lid";
  std::ofstream os(path);
  os << text;
  return path;
}

TEST(ApiEdges, LidtoolProveExitCodeContract) {
  const std::string live = write_lid("live", R"(source src
process A 1 1
sink out
channel src.0 -> A.0
channel A.0 -> out.0 : F
)");
  const std::string latch = write_lid("latch", R"(process P 1 1
process Q 1 1
channel P.0 -> Q.0 : H
channel Q.0 -> P.0 : H
)");

  EXPECT_EQ(run_lidtool("prove " + live), 0);
  EXPECT_EQ(run_lidtool("prove " + live + " --induction"), 0);
  EXPECT_EQ(run_lidtool("prove " + latch), 0);  // latch unreachable at reset
  EXPECT_EQ(run_lidtool("prove " + latch + " --worst-case"), 1);
  EXPECT_EQ(run_lidtool("prove " + latch + " --worst-case --json"), 1);

  // Usage errors: unknown flags, bad values and a missing file all
  // answer 2, never 0/1.
  EXPECT_EQ(run_lidtool("prove " + live + " --bogus"), 2);
  EXPECT_EQ(run_lidtool("prove " + live + " --engine warp"), 2);
  EXPECT_EQ(run_lidtool("prove " + live + " --engine sliced"), 2);
  EXPECT_EQ(run_lidtool("screen " + live + " --engine compiled"), 2);
  EXPECT_EQ(run_lidtool("prove " + live + " --budget -5"), 2);
  EXPECT_EQ(run_lidtool("prove " + live + " --method bogus"), 2);
  EXPECT_EQ(run_lidtool("prove " + live + " --depth"), 2);
  EXPECT_EQ(run_lidtool("prove /nonexistent.lid"), 2);
  EXPECT_EQ(run_lidtool("prove"), 2);
  // The client validates with the daemon's knob table before it
  // connects: profile takes no policy.
  EXPECT_EQ(run_lidtool("client profile " + live + " --policy strict"), 2);

  // --help is not an error.
  EXPECT_EQ(run_lidtool("prove --help"), 0);
  EXPECT_EQ(run_lidtool("--help"), 0);

  std::remove(live.c_str());
  std::remove(latch.c_str());
}

// A bundle that parses as JSON but carries a malformed blame row is a
// usage error (exit 2) for `lidtool replay`, not a crash.
TEST(ApiEdges, LidtoolReplayRejectsAMalformedBundle) {
  const std::string path = testing::TempDir() + "bad_bundle." +
                           std::to_string(::getpid()) + ".json";
  std::ofstream(path) << R"({"schema": "liplib.postmortem/1",
    "reason": "stop_saturation", "trip_cycle": 7, "no_progress_since": 0,
    "no_progress_threshold": 8, "ring_cycles": 32, "seed": 0,
    "strict": false, "optimistic": false, "worst_case_occupancy": true,
    "netlist": "process P 1 1\nprocess Q 1 1\n",
    "blame": [{"why": "x"}], "trace": "{}"})";
  EXPECT_EQ(run_lidtool("replay " + path), 2);
  std::remove(path.c_str());
}

// ---- lidtool simulate / screen: one screen, one verdict -----------------
//
// Both answer from the one steady-state search: a deadlock exits 1 even
// when part of the design keeps moving (so the watchdog never trips), no
// steady state within `--budget` exits 1, and `--budget 0` means the
// default budget, as on every other surface.

TEST(ApiEdges, LidtoolSimulateAndScreenShareOneVerdict) {
  const std::string fig1 = write_lid("fig1", R"(source src
process A 1 2
process B 1 1
process C 2 1
sink out
channel src.0 -> A.0
channel A.0 -> B.0 : F
channel B.0 -> C.0 : F
channel A.1 -> C.1 : F
channel C.0 -> out.0
)");
  const std::string ring = R"(process ctl 1 1
process plant 1 1
process est 1 1
channel ctl.0 -> plant.0 : H
channel plant.0 -> est.0 : H
channel est.0 -> ctl.0 : H
)";
  const std::string half_ring = write_lid("half_ring", ring);
  const std::string ring_pipe = write_lid("ring_pipe", ring + R"(source src
process p 1 1
sink snk
channel src.0 -> p.0 : F
channel p.0 -> snk.0 : F
)");

  EXPECT_EQ(run_lidtool("simulate " + fig1), 0);
  EXPECT_EQ(run_lidtool("simulate " + fig1 + " --budget 0"), 0);
  EXPECT_EQ(run_lidtool("simulate " + fig1 + " --budget 3"), 1);
  EXPECT_EQ(run_lidtool("simulate " + half_ring), 0);
  EXPECT_EQ(run_lidtool("simulate " + half_ring + " --worst-case"), 1);
  EXPECT_EQ(run_lidtool("simulate " + half_ring + " --worst-case --budget 0"),
            1);
  EXPECT_EQ(run_lidtool("simulate " + half_ring + " --worst-case --budget 10"),
            1);
  EXPECT_EQ(run_lidtool("simulate " + ring_pipe), 0);
  EXPECT_EQ(run_lidtool("simulate " + ring_pipe + " --worst-case"), 1);
  EXPECT_EQ(run_lidtool("simulate " + fig1 + " --budget -1"), 2);

  EXPECT_EQ(run_lidtool("screen " + fig1), 0);
  EXPECT_EQ(run_lidtool("screen " + half_ring), 1);
  EXPECT_EQ(run_lidtool("screen " + ring_pipe), 1);
  // screen is the daemon's request: it takes the daemon's knobs, and a
  // budget too small for a steady state answers "unknown" (exit 1).
  EXPECT_EQ(run_lidtool("screen " + fig1 + " --policy strict --budget 64"), 0);
  EXPECT_NE(lidtool_stdout("screen " + fig1 + " --policy strict --budget 64")
                .find("policy=strict budget=64 "),
            std::string::npos);
  EXPECT_EQ(run_lidtool("screen " + fig1 + " --budget 3"), 1);
  EXPECT_EQ(run_lidtool("screen " + fig1 + " --policy bogus"), 2);
  EXPECT_EQ(run_lidtool("screen " + fig1 + " --cycles 5"), 2);

  std::remove(fig1.c_str());
  std::remove(half_ring.c_str());
  std::remove(ring_pipe.c_str());
}

// ---- lidtool run: the steady state of the bound environment -------------
//
// `run` measures the steady state with the environment's own period
// (System::environment_period), so a rate-limited sink reports its true
// throughput, and an aperiodic environment reports none.

TEST(ApiEdges, LidtoolRunSteadyStateFollowsTheEnvironmentPeriod) {
  auto chain = [](const char* name, const std::string& sink) {
    return write_lid(name, "source src\nprocess p 1 1\nsink out " + sink +
                               "\nchannel src.0 -> p.0 : F\n"
                               "channel p.0 -> out.0 : F\n");
  };
  const std::string every3 = chain("every3", "periodic(3)");
  const std::string script5 = chain("script5", "script(0,1,1,1,1)");
  const std::string bursty = write_lid("bursty", R"(source src sparse(7,2,3)
process p 1 1
sink out
channel src.0 -> p.0 : F
channel p.0 -> out.0 : F
)");

  EXPECT_NE(lidtool_stdout("run " + every3 + " 3000")
                .find("steady state (sound for periodic environments): "
                      "T = 1/3, transient 4, period 3\n"),
            std::string::npos);
  EXPECT_NE(lidtool_stdout("run " + script5 + " 3000")
                .find("steady state (sound for periodic environments): "
                      "T = 1/5, transient 4, period 5\n"),
            std::string::npos);
  const std::string aperiodic = lidtool_stdout("run " + bursty + " 3000");
  EXPECT_NE(aperiodic.find("steady state: not determined (aperiodic "
                           "environment)\n"),
            std::string::npos);
  EXPECT_EQ(aperiodic.find("T = "), std::string::npos);
  // The rates the steady state claims are the rates a profile counts.
  EXPECT_NE(lidtool_stdout("profile " + every3 + " --cycles 3000")
                .find("measured system throughput: 1001/3000"),
            std::string::npos);

  std::remove(every3.c_str());
  std::remove(script5.c_str());
  std::remove(bursty.c_str());
}

/// Whole file as a string (empty when unreadable).
std::string read_file(const std::string& path) {
  std::ifstream is(path);
  return std::string((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
}

// ---- lidtool profile: the daemon's request, run in-process -------------
//
// `lidtool profile` runs the daemon's profile computation, so it answers
// what `lidtool client profile` answers: a design that freezes trips the
// watchdog and exits 1 instead of stepping its whole cycle count.

TEST(ApiEdges, LidtoolProfileTripsLikeTheDaemon) {
  // A sink that stops every cycle: the chain freezes once its stations
  // fill, and the watchdog trips K = 64 cycles later.
  const std::string stuck = write_lid("stuck", R"(source src
process p 1 1
sink out script(1)
channel src.0 -> p.0 : F
channel p.0 -> out.0 : F
)");
  const std::string text = lidtool_stdout("profile " + stuck);
  EXPECT_NE(text.find("DEADLOCK: watchdog tripped (stop_saturation), no "
                      "progress since cycle 4, tripped at cycle 67\n"),
            std::string::npos);
  EXPECT_NE(text.find("summary: profile cycles=68 "), std::string::npos);
  EXPECT_EQ(run_lidtool("profile " + stuck), 1);
  EXPECT_EQ(run_lidtool("profile " + stuck + " --json"), 1);
  std::remove(stuck.c_str());
}

// `profile --trace` streams the Chrome trace of the run it reports: the
// file folds into `lidtool trace` as probe events, and the traced run,
// which steps every cycle, reports what the untraced one counts in whole
// periods.
TEST(ApiEdges, LidtoolProfileTraceSplicesIntoTheTimeline) {
  const std::string every3 = write_lid("every3_trace", R"(source src
process p 1 1
sink out periodic(3)
channel src.0 -> p.0 : F
channel p.0 -> out.0 : F
)");
  const std::string trace = testing::TempDir() + "profile_trace." +
                            std::to_string(::getpid()) + ".json";

  const std::string untraced =
      lidtool_stdout("profile " + every3 + " --cycles 3000 --json");
  EXPECT_NE(untraced.find("\"schema\": \"liplib.probe/1\""), std::string::npos);
  EXPECT_EQ(lidtool_stdout("profile " + every3 +
                           " --cycles 3000 --json --trace " + trace),
            untraced);
  EXPECT_NE(read_file(trace).find("\"traceEvents\""), std::string::npos);

  const std::string folded = lidtool_stdout("trace " + trace + " --check");
  EXPECT_NE(folded.find("0 span(s) across 0 trace(s), "), std::string::npos);
  EXPECT_EQ(folded.find(" 0 spliced probe event(s)"), std::string::npos);
  EXPECT_NE(folded.find(" spliced probe event(s); integrity ok"),
            std::string::npos);
  EXPECT_EQ(run_lidtool("trace " + trace + " --check"), 0);

  std::remove(every3.c_str());
  std::remove(trace.c_str());
}

// ---- lidtool campaign seed / shard CLI contract --------------------------
//
// `--seed` takes a decimal or 0x-prefixed hex u64; anything else —
// trailing garbage, a bare prefix, a missing value — is a usage error
// (exit 2), never a silently-truncated seed.  Shard exports and the
// merge/dist subcommands share the same exit-code vocabulary.

TEST(ApiEdges, LidtoolCampaignSeedAndShardContract) {
  const std::string suffix = std::to_string(::getpid()) + ".json";
  const std::string hex_out = testing::TempDir() + "hex." + suffix;
  const std::string dec_out = testing::TempDir() + "dec." + suffix;

  // Hex and decimal spellings of the same seed export identical partials.
  EXPECT_EQ(run_lidtool("campaign fuzz 4 --seed 0x7 --out " + hex_out), 0);
  EXPECT_EQ(run_lidtool("campaign fuzz 4 --seed 7 --out " + dec_out), 0);
  const std::string hex_bytes = read_file(hex_out);
  EXPECT_FALSE(hex_bytes.empty());
  EXPECT_EQ(hex_bytes, read_file(dec_out));
  // A single full-range shard merges back on its own.
  EXPECT_EQ(run_lidtool("merge " + hex_out), 0);

  // Seed rejections.
  EXPECT_EQ(run_lidtool("campaign fuzz 4 --seed 7x"), 2);
  EXPECT_EQ(run_lidtool("campaign fuzz 4 --seed 0x"), 2);
  EXPECT_EQ(run_lidtool("campaign fuzz 4 --seed 0xzz"), 2);
  EXPECT_EQ(run_lidtool("campaign fuzz 4 --seed"), 2);
  // Numbers are digits (or 0x-hex digits) only: a sign would wrap to a
  // huge value and a blank would be skipped, so both are usage errors.
  EXPECT_EQ(run_lidtool("campaign fuzz 4 --seed -1"), 2);
  EXPECT_EQ(run_lidtool("campaign fuzz 4 --seed +1"), 2);
  EXPECT_EQ(run_lidtool("campaign fuzz 4 --seed ' 1'"), 2);
  EXPECT_EQ(run_lidtool("campaign fuzz 4 --seed 0x-1"), 2);
  EXPECT_EQ(run_lidtool("campaign fuzz 4 --seed 99999999999999999999"), 2);
  EXPECT_EQ(run_lidtool("campaign fuzz 4 --budget -5"), 2);
  EXPECT_EQ(run_lidtool("campaign fuzz -4"), 2);
  // The evaluator is no longer a knob.
  EXPECT_EQ(run_lidtool("campaign fuzz 4 --engine sliced"), 2);
  // A named campaign has one stop policy: `both` is sweep-only.
  EXPECT_EQ(run_lidtool("campaign fuzz 4 --policy both"), 2);

  // Shard rejections: --shard needs --out, tokens must be i/N with i < N.
  EXPECT_EQ(run_lidtool("campaign fuzz 4 --shard 0/2"), 2);
  EXPECT_EQ(run_lidtool("campaign fuzz 4 --shard 2/2 --out " + hex_out), 2);
  EXPECT_EQ(run_lidtool("campaign fuzz 4 --shard nope --out " + hex_out), 2);
  EXPECT_EQ(run_lidtool("campaign fuzz 4 --shard -0/2 --out " + hex_out), 2);
  EXPECT_EQ(run_lidtool("campaign fuzz 4 --shard ' 1/2' --out " + hex_out),
            2);
  EXPECT_EQ(run_lidtool("campaign fuzz 4 --shard +1/2 --out " + hex_out), 2);

  // merge / dist usage errors.
  EXPECT_EQ(run_lidtool("merge"), 2);
  EXPECT_EQ(run_lidtool("merge /nonexistent.partial.json"), 2);
  EXPECT_EQ(run_lidtool("dist work"), 2);
  EXPECT_EQ(run_lidtool("dist bogus"), 2);

  std::remove(hex_out.c_str());
  std::remove(dec_out.c_str());
}

#endif  // LIDTOOL_PATH

}  // namespace
