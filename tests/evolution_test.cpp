// Evolution-trace tests: the steady-state patterns of the paper's two
// figures, cycle by cycle.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "liplib/lip/evolution.hpp"
#include "liplib/lip/steady_state.hpp"
#include "test_util.hpp"

namespace {

using namespace liplib;

TEST(Evolution, Fig1OutputEmitsOneVoidEveryFiveCycles) {
  // "After the initial transient, the situation becomes periodic, and the
  // output utters an invalid datum every 5 cycles."
  auto d = testutil::make_design(graph::make_fig1());
  auto sys = d.instantiate();
  sys->record_sink_trace(true);
  sys->run(120);
  const auto& trace = sys->sink_cycle_trace(d.topology().nodes().size() - 1);
  // Skip a generous transient prefix, then check the 4-valid/1-void
  // pattern over the rest.
  std::size_t voids = 0;
  const std::size_t start = 20;
  for (std::size_t c = start; c < trace.size(); ++c) {
    if (!trace[c].valid) ++voids;
  }
  const std::size_t window = trace.size() - start;
  EXPECT_EQ(voids, window / 5);
  // Voids are evenly spaced: exactly every 5 cycles.
  std::size_t last_void = 0;
  bool first = true;
  for (std::size_t c = start; c < trace.size(); ++c) {
    if (trace[c].valid) continue;
    if (!first) {
      EXPECT_EQ(c - last_void, 5u);
    }
    last_void = c;
    first = false;
  }
}

TEST(Evolution, Fig2OutputAlternatesValidAndVoid) {
  // S = 2, R = 2 ring: T = 1/2 shows as an alternating valid/void output.
  auto d = testutil::make_design(graph::make_fig2());
  auto sys = d.instantiate();
  sys->record_sink_trace(true);
  sys->run(60);
  const auto& trace = sys->sink_cycle_trace(d.topology().nodes().size() - 1);
  std::size_t valid = 0;
  for (std::size_t c = 20; c < trace.size(); ++c) {
    valid += trace[c].valid ? 1 : 0;
    if (c >= 21) {
      // Strict alternation: never two equal validities in a row.
      EXPECT_NE(trace[c].valid, trace[c - 1].valid) << "cycle " << c;
    }
  }
  EXPECT_EQ(valid, (trace.size() - 20) / 2);
}

TEST(Evolution, TableHasOneRowPerCycleAndStationColumns) {
  auto d = testutil::make_design(graph::make_fig1());
  auto sys = d.instantiate();
  auto table = lip::trace_evolution(*sys, 15);
  EXPECT_EQ(table.row_count(), 15u);
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  // Node columns by name and station columns by channel.
  EXPECT_NE(out.find("A"), std::string::npos);
  EXPECT_NE(out.find("#0"), std::string::npos);
  // The renderer stepped the system.
  EXPECT_EQ(sys->cycle(), 15u);
}

TEST(Evolution, StopsAppearDuringFig1Transient) {
  // Fig. 1's dashed arrows: the short branch is stopped periodically.
  auto d = testutil::make_design(graph::make_fig1());
  auto sys = d.instantiate();
  const std::string rendered = lip::render_evolution(*sys, 40);
  EXPECT_NE(rendered.find('!'), std::string::npos);
  EXPECT_NE(rendered.find('n'), std::string::npos);
}

TEST(Evolution, Fig1SteadyPeriodActivityPattern) {
  // Golden activity census over one steady period (paper Fig. 1): in
  // every 5 cycles, the fork A fires 4 times and is stopped once (the
  // dashed arrow on the short branch), B and C each fire 4 times and
  // wait for data once (the travelling void), and the output carries 4
  // valid data and 1 void.
  auto gen = graph::make_fig1();
  auto d = testutil::make_design(gen);
  auto sys = d.instantiate();
  sys->record_sink_trace(true);
  sys->run(20);  // well past the transient
  std::map<graph::NodeId, std::map<lip::ShellActivity, int>> census;
  int out_valid = 0;
  for (int c = 0; c < 5; ++c) {
    sys->step();
    for (auto p : gen.processes) census[p][sys->shell_activity(p)]++;
  }
  const auto& trace = sys->sink_cycle_trace(gen.sinks[0]);
  for (std::size_t c = trace.size() - 5; c < trace.size(); ++c) {
    out_valid += trace[c].valid ? 1 : 0;
  }
  EXPECT_EQ(out_valid, 4);
  for (auto p : gen.processes) {
    EXPECT_EQ(census[p][lip::ShellActivity::kFired], 4)
        << d.topology().node(p).name;
  }
  // A (the fork, 2 output ports) is the one blocked by back pressure.
  EXPECT_EQ(census[gen.fork][lip::ShellActivity::kStoppedOutput], 1);
  for (auto p : gen.processes) {
    if (p == gen.fork) continue;
    EXPECT_EQ(census[p][lip::ShellActivity::kWaitingInput], 1)
        << d.topology().node(p).name;
  }
}

TEST(Evolution, SteadyStatePeriodMatchesTrace) {
  const auto gen = graph::make_fig1();
  auto d = testutil::make_design(gen);
  auto sys = d.instantiate();
  const auto ss = lip::measure_steady_state(*sys);
  ASSERT_TRUE(ss.found);
  EXPECT_EQ(ss.period, 5u);
  // The sink takes what the join feeding it fires.
  const auto join =
      std::find(ss.shell_ids.begin(), ss.shell_ids.end(), gen.join);
  ASSERT_NE(join, ss.shell_ids.end());
  EXPECT_EQ(ss.shell_throughput.at(
                static_cast<std::size_t>(join - ss.shell_ids.begin())),
            Rational(4, 5));
}

}  // namespace
