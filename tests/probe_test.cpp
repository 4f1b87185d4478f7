// liplib::probe: counters must reproduce the analytic throughputs
// *exactly* (Rational equality over one steady-state period), stall
// attribution must name the real bottleneck, and the streaming Chrome
// trace must stay byte-stable (Perfetto compatibility is golden-locked).

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "liplib/graph/generators.hpp"
#include "liplib/lip/design.hpp"
#include "liplib/lip/system.hpp"
#include "liplib/probe/probe.hpp"
#include "liplib/probe/trace.hpp"
#include "liplib/sim/kernel.hpp"
#include "liplib/support/rng.hpp"
#include "liplib/xir/xir.hpp"
#include "test_util.hpp"

namespace {

using namespace liplib;

// Analyzes the skeleton for the exact steady state, then re-runs the
// full-data system with a probe windowed to one period.  System and the
// skeleton share the protocol trajectory from reset, so the measured
// rates must equal the analytic ones exactly.
struct Measured {
  lip::SteadyState analytic;
  probe::ProbeReport report;
};

Measured measure(const graph::Generated& gen, lip::StopPolicy policy) {
  skeleton::SkeletonOptions sk_opts;
  sk_opts.policy = policy;
  xir::ScalarEngine sk(gen.topo, sk_opts);
  Measured m;
  m.analytic = sk.analyze();
  EXPECT_TRUE(m.analytic.found);
  if (!m.analytic.found) return m;

  auto design = testutil::make_design(gen);
  lip::SystemOptions opts;
  opts.policy = policy;
  auto sys = design.instantiate(opts);
  probe::Probe probe;
  sys->attach_probe(probe);
  sys->run(m.analytic.transient);
  probe.reset_window();
  sys->run(m.analytic.period);
  m.report = probe.report();
  return m;
}

void expect_exact(const Measured& m, const std::string& what) {
  ASSERT_EQ(m.report.cycles, m.analytic.period) << what;
  for (std::size_t i = 0; i < m.analytic.shell_ids.size(); ++i) {
    EXPECT_EQ(m.report.throughput(m.analytic.shell_ids[i]),
              m.analytic.shell_throughput[i])
        << what << ": shell " << m.analytic.shell_ids[i];
  }
  EXPECT_EQ(m.report.min_throughput(), m.analytic.system_throughput()) << what;
}

TEST(Probe, Fig1MeasuresTheAnalyticThroughputExactly) {
  for (auto policy : {lip::StopPolicy::kCasuDiscardOnVoid,
                      lip::StopPolicy::kCarloniStrict}) {
    const auto m = measure(graph::make_fig1(), policy);
    expect_exact(m, "fig1");
    // The paper's Fig. 1: i = 1, m = 5, T = (m-i)/m = 4/5.
    EXPECT_EQ(m.report.min_throughput(), Rational(4, 5));
  }
}

TEST(Probe, Fig2MeasuresTheAnalyticThroughputExactly) {
  for (auto policy : {lip::StopPolicy::kCasuDiscardOnVoid,
                      lip::StopPolicy::kCarloniStrict}) {
    const auto m = measure(graph::make_fig2(), policy);
    expect_exact(m, "fig2");
    // The paper's Fig. 2 ring: S = 2, R = 2, T = S/(S+R) = 1/2.
    EXPECT_EQ(m.report.min_throughput(), Rational(1, 2));
  }
}

TEST(Probe, HundredRandomCompositesMatchUnderBothPolicies) {
  Rng rng(0xC0FFEE);
  for (int i = 0; i < 100; ++i) {
    const std::size_t segments = 1 + rng.below(4);
    auto gen = graph::make_random_composite(rng, segments,
                                            /*allow_half=*/true,
                                            /*allow_half_in_loops=*/false);
    for (auto policy : {lip::StopPolicy::kCasuDiscardOnVoid,
                        lip::StopPolicy::kCarloniStrict}) {
      const auto m = measure(gen, policy);
      expect_exact(m, "composite " + std::to_string(i));
    }
  }
}

TEST(Probe, CountersAreConsistentPerCycle) {
  const auto m = measure(graph::make_fig1(),
                         lip::StopPolicy::kCasuDiscardOnVoid);
  for (const auto& s : m.report.shells) {
    EXPECT_EQ(s.fired + s.waiting + s.stopped, m.report.cycles) << s.name;
  }
  for (const auto& seg : m.report.segments) {
    EXPECT_EQ(seg.valid + seg.voids, m.report.cycles) << seg.label;
    EXPECT_EQ(seg.stop_on_valid + seg.stop_on_void, seg.stopped) << seg.label;
    EXPECT_LE(seg.stopped, m.report.cycles) << seg.label;
  }
}

TEST(Probe, BlameNamesTheImbalancedBranchStation) {
  // Reconvergence with 1 station on the direct fork->join branch against
  // a long branch of 2 shells with 2 stations per hop: i = 5, m = 10,
  // T = 1/2.  The short branch's lone station chain saturates and
  // back-pressures the fork — it must top the blame histogram.
  auto gen = graph::make_reconvergent(/*short_stations=*/1,
                                      /*long_shells=*/2,
                                      /*long_stations_per_hop=*/2);
  graph::ChannelId direct = 0;
  bool found_direct = false;
  for (graph::ChannelId c = 0; c < gen.topo.channels().size(); ++c) {
    const auto& ch = gen.topo.channel(c);
    if (ch.from.node == gen.fork && ch.to.node == gen.join) {
      direct = c;
      found_direct = true;
    }
  }
  ASSERT_TRUE(found_direct);

  const auto m = measure(gen, lip::StopPolicy::kCasuDiscardOnVoid);
  expect_exact(m, "reconvergent");
  const auto* top = m.report.top_blame();
  ASSERT_NE(top, nullptr);
  EXPECT_EQ(top->victim, gen.fork);
  EXPECT_EQ(top->why, probe::Activity::kStoppedOutput);
  EXPECT_EQ(top->culprit.kind, probe::UnitKind::kStation);
  EXPECT_EQ(top->culprit.channel, direct);
}

TEST(Probe, AttachedProbeDoesNotPerturbTheSimulation) {
  auto gen = graph::make_fig1();
  auto plain = testutil::make_design(gen).instantiate();
  plain->run(64);

  auto probed_design = testutil::make_design(gen);
  auto probed = probed_design.instantiate();
  probe::Probe probe;
  probed->attach_probe(probe);
  probed->run(64);

  for (auto v : gen.sinks) {
    const auto& a = plain->sink_stream(v);
    const auto& b = probed->sink_stream(v);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].data, b[i].data) << i;
    }
  }
}

TEST(Probe, SkeletonAndSystemProbesAgree) {
  // The skeleton is protocol-exact, so a probe attached to it must count
  // the same activity histogram as one attached to the full-data system.
  auto gen = graph::make_fig1();
  const std::uint64_t cycles = 100;

  auto design = testutil::make_design(gen);
  auto sys = design.instantiate();
  probe::Probe sys_probe;
  sys->attach_probe(sys_probe);
  sys->run(cycles);

  xir::ScalarEngine sk(gen.topo);
  probe::Probe sk_probe;
  sk.attach_probe(sk_probe);
  sk.run(cycles);

  const auto a = sys_probe.report();
  const auto b = sk_probe.report();
  ASSERT_EQ(a.shells.size(), b.shells.size());
  for (std::size_t i = 0; i < a.shells.size(); ++i) {
    EXPECT_EQ(a.shells[i].fired, b.shells[i].fired) << a.shells[i].name;
    EXPECT_EQ(a.shells[i].waiting, b.shells[i].waiting) << a.shells[i].name;
    EXPECT_EQ(a.shells[i].stopped, b.shells[i].stopped) << a.shells[i].name;
  }
  ASSERT_EQ(a.blame.size(), b.blame.size());
  for (std::size_t i = 0; i < a.blame.size(); ++i) {
    EXPECT_EQ(a.blame[i].victim_name, b.blame[i].victim_name) << i;
    EXPECT_EQ(a.blame[i].culprit_name, b.blame[i].culprit_name) << i;
    EXPECT_EQ(a.blame[i].cycles, b.blame[i].cycles) << i;
  }
}

TEST(Probe, ReportSerializesToJson) {
  const auto m = measure(graph::make_fig1(),
                         lip::StopPolicy::kCasuDiscardOnVoid);
  const auto j = m.report.to_json().dump(0);
  EXPECT_NE(j.find("\"liplib.probe/1\""), std::string::npos);
  EXPECT_NE(j.find("\"min_throughput\""), std::string::npos);
  EXPECT_NE(j.find("\"blame\""), std::string::npos);
}

// The golden Chrome trace for 4 cycles of Fig. 1.  Byte-exact: field
// order, separators and the digit formatting are part of the contract
// with chrome://tracing and ui.perfetto.dev.
const char* kFig1Trace4 =
    R"({"traceEvents":[
{"name":"process_name","ph":"M","pid":1,"args":{"name":"lid"}},
{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"A"}},
{"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"C"}},
{"name":"thread_name","ph":"M","pid":1,"tid":3,"args":{"name":"W0"}},
{"name":"occ src_to_A","ph":"C","ts":0,"pid":1,"args":{"valid":1,"stop":0}},
{"name":"occ A_to_W0","ph":"C","ts":0,"pid":1,"args":{"valid":1,"stop":0}},
{"name":"occ W0_to_C","ph":"C","ts":0,"pid":1,"args":{"valid":1,"stop":0}},
{"name":"occ A_to_C","ph":"C","ts":0,"pid":1,"args":{"valid":1,"stop":0}},
{"name":"occ C_to_out","ph":"C","ts":0,"pid":1,"args":{"valid":1,"stop":0}},
{"name":"wait","cat":"shell","ph":"X","ts":0,"dur":1,"pid":1,"tid":2},
{"name":"wait","cat":"shell","ph":"X","ts":0,"dur":1,"pid":1,"tid":3},
{"name":"occ A_to_W0","ph":"C","ts":1,"pid":1,"args":{"valid":2,"stop":0}},
{"name":"occ A_to_C","ph":"C","ts":1,"pid":1,"args":{"valid":2,"stop":0}},
{"name":"occ C_to_out","ph":"C","ts":1,"pid":1,"args":{"valid":0,"stop":0}},
{"name":"fire","cat":"shell","ph":"X","ts":1,"dur":1,"pid":1,"tid":2},
{"name":"occ A_to_C","ph":"C","ts":2,"pid":1,"args":{"valid":2,"stop":1}},
{"name":"occ C_to_out","ph":"C","ts":2,"pid":1,"args":{"valid":1,"stop":0}},
{"name":"fire","cat":"shell","ph":"X","ts":0,"dur":3,"pid":1,"tid":1},
{"name":"wait","cat":"shell","ph":"X","ts":2,"dur":1,"pid":1,"tid":2},
{"name":"occ src_to_A","ph":"C","ts":3,"pid":1,"args":{"valid":1,"stop":1}},
{"name":"occ W0_to_C","ph":"C","ts":3,"pid":1,"args":{"valid":2,"stop":0}},
{"name":"occ C_to_out","ph":"C","ts":3,"pid":1,"args":{"valid":0,"stop":0}},
{"name":"stall","cat":"shell","ph":"X","ts":3,"dur":1,"pid":1,"tid":1},
{"name":"fire","cat":"shell","ph":"X","ts":3,"dur":1,"pid":1,"tid":2},
{"name":"fire","cat":"shell","ph":"X","ts":1,"dur":3,"pid":1,"tid":3}
]}
)";

TEST(ProbeTrace, GoldenFig1TraceIsByteStable) {
  std::ostringstream os;
  probe::TraceSink sink(os);
  probe::ProbeConfig cfg;
  cfg.trace = &sink;
  probe::Probe probe(cfg);
  auto design = testutil::make_design(graph::make_fig1());
  auto sys = design.instantiate();
  sys->attach_probe(probe);
  sys->run(4);
  probe.finish_trace();
  EXPECT_EQ(os.str(), kFig1Trace4);
}

TEST(ProbeTrace, SinkEscapesAndFlushesIncrementally) {
  std::ostringstream os;
  probe::TraceSinkOptions opt;
  opt.flush_threshold = 16;  // force flushes long before finish()
  {
    probe::TraceSink sink(os, opt);
    sink.name_process(1, "a\"b\\c\nd");
    for (int i = 0; i < 100; ++i) {
      sink.complete_event("fire", "shell", i, 1, 1, 1);
    }
    EXPECT_GT(os.str().size(), 0u);  // flushed mid-stream
    sink.finish();
    EXPECT_TRUE(sink.finished());
    sink.complete_event("late", "shell", 1, 1, 1, 1);  // dropped
  }
  const std::string text = os.str();
  EXPECT_NE(text.find(R"("name":"a\"b\\c\nd")"), std::string::npos);
  EXPECT_EQ(text.rfind("\n]}\n"), text.size() - 4);
  EXPECT_EQ(text.find("late"), std::string::npos);
}

TEST(ProbeKernel, CountsDeltaActivityAndStreamsACounterTrack) {
  std::ostringstream os;
  probe::TraceSink sink(os);
  probe::KernelProbe kp(&sink);

  sim::SimContext ctx;
  ctx.set_observer(&kp);
  auto& a = ctx.signal<int>("a", 0);
  auto& b = ctx.signal<int>("b", 0);
  auto& p = ctx.process("follow", [&] { b.write(a.read() + 1); });
  ctx.sensitize(p, a);
  for (int t = 1; t <= 5; ++t) a.write_after(t, t);
  ctx.run_until(10);
  sink.finish();

  const auto& c = kp.counters();
  EXPECT_GE(c.time_points, 5u);
  EXPECT_GE(c.delta_cycles, c.time_points);
  EXPECT_GE(c.signal_changes, 10u);  // a and b change at each step
  EXPECT_GT(c.process_wakeups, 0u);
  EXPECT_GE(c.max_deltas_per_time, 1u);

  const std::string text = os.str();
  EXPECT_NE(text.find(R"("name":"deltas","ph":"C")"), std::string::npos);
  EXPECT_NE(text.find("\"pid\":2"), std::string::npos);

  const auto j = kp.to_json().dump(0);
  EXPECT_NE(j.find("\"liplib.kernel-probe/1\""), std::string::npos);
}

TEST(Probe, RejectsDoubleAttachAndLateAttach) {
  auto design = testutil::make_design(graph::make_fig1());
  auto sys = design.instantiate();
  probe::Probe probe;
  sys->attach_probe(probe);
  probe::Probe second;
  EXPECT_THROW(sys->attach_probe(second), ApiError);

  auto late = design.instantiate();
  late->run(1);
  probe::Probe third;
  EXPECT_THROW(late->attach_probe(third), ApiError);
}

TEST(Probe, AdvanceCountsWholePeriodsLikeStepping) {
  // Fig. 1 from reset: after the transient, one period's counter growth
  // added n times equals n more stepped periods, blame cells included.
  const auto gen = graph::make_fig1();
  xir::ScalarEngine sk(gen.topo);
  const auto steady = sk.analyze();
  ASSERT_TRUE(steady.found);
  auto design = testutil::make_design(gen);
  auto stepped = design.instantiate();
  auto counted = design.instantiate();
  probe::Probe full;
  probe::Probe fast;
  stepped->attach_probe(full);
  counted->attach_probe(fast);
  stepped->run(steady.transient + 6 * steady.period);
  counted->run(steady.transient);
  const auto from = fast.window_counters();
  counted->run(steady.period);
  fast.advance(from, fast.window_counters(), 5);
  EXPECT_EQ(fast.report().to_json().dump(), full.report().to_json().dump());

  // Snapshots out of order, or across a window reset, are refused.
  EXPECT_THROW(fast.advance(fast.window_counters(), from, 1), ApiError);
  // A trace cannot skip cycles.
  std::ostringstream os;
  probe::TraceSink sink(os);
  probe::ProbeConfig cfg;
  cfg.trace = &sink;
  probe::Probe traced(cfg);
  auto sys = design.instantiate();
  sys->attach_probe(traced);
  sys->run(4);
  const auto a = traced.window_counters();
  sys->run(4);
  EXPECT_THROW(traced.advance(a, traced.window_counters(), 1), ApiError);
}

}  // namespace
