// The Carloni-style buffered shell (input FIFOs, no mandatory relay
// station) vs the paper's simplified shell: both must be safe and
// latency equivalent; they differ in cost and latency, which is the
// "implementation issues" trade the paper discusses.

#include <gtest/gtest.h>

#include "liplib/graph/generators.hpp"
#include "liplib/lip/design.hpp"
#include "liplib/lip/steady_state.hpp"
#include "test_util.hpp"

namespace {

using namespace liplib;
using graph::RsKind;

/// A shell-to-shell chain with NO relay stations at all.
graph::Topology bare_chain(std::size_t shells) {
  graph::Topology t;
  auto prev = t.add_source("src");
  for (std::size_t i = 0; i < shells; ++i) {
    const auto p = t.add_process("P" + std::to_string(i), 1, 1);
    t.connect({prev, 0}, {p, 0});
    prev = p;
  }
  t.connect({prev, 0}, {t.add_sink("out"), 0});
  return t;
}

TEST(BufferedShell, StationlessChainRejectedWithoutQueues) {
  const auto t = bare_chain(2);
  EXPECT_THROW(lip::System sys(t, {}), ApiError);
}

TEST(BufferedShell, StationlessChainAcceptedWithQueues) {
  const auto t = bare_chain(2);
  lip::SystemOptions opts;
  opts.input_queue_depth = 1;
  lip::System sys(t, opts);
  sys.bind_pearl(1, pearls::make_identity());
  sys.bind_pearl(2, pearls::make_identity());
  EXPECT_NO_THROW(sys.run(50));
  EXPECT_GT(sys.sink_count(3), 30u);
}

TEST(BufferedShell, DeliversInOrderAtFullThroughput) {
  for (std::size_t depth : {1u, 2u, 3u}) {
    const auto t = bare_chain(3);
    lip::Design d(t);
    for (graph::NodeId v = 1; v <= 3; ++v) {
      d.set_pearl(v, pearls::make_identity());
    }
    lip::SystemOptions opts;
    opts.input_queue_depth = depth;
    opts.hold_monitor = true;
    auto sys = d.instantiate(opts);
    const auto ss = lip::measure_steady_state(*sys);
    ASSERT_TRUE(ss.found) << "depth " << depth;
    EXPECT_EQ(ss.system_throughput(), Rational(1)) << "depth " << depth;
  }
}

TEST(BufferedShell, LatencyEquivalentUnderJitter) {
  const auto t = bare_chain(3);
  lip::Design d(t);
  d.set_pearl(1, pearls::make_accumulator());
  d.set_pearl(2, pearls::make_fir({2, 1}));
  d.set_pearl(3, pearls::make_bit_mixer());
  d.set_source(0, lip::SourceBehavior::sparse_counter(5, 1, 2));
  d.set_sink(4, lip::SinkBehavior::random_stop(6, 1, 3));
  for (std::size_t depth : {1u, 2u}) {
    lip::SystemOptions opts;
    opts.input_queue_depth = depth;
    opts.hold_monitor = true;
    const auto report = lip::check_latency_equivalence(d, opts, 400);
    EXPECT_TRUE(report.ok) << report.detail;
  }
}

TEST(BufferedShell, WorksWithRelayStationsToo) {
  // Queued shells compose with relay-station channels unchanged.
  auto gen = graph::make_reconvergent(1, 1, 1);  // fig1 shape
  auto d = testutil::make_design(std::move(gen));
  lip::SystemOptions opts;
  opts.input_queue_depth = 2;
  const auto report = lip::check_latency_equivalence(d, opts, 300);
  EXPECT_TRUE(report.ok) << report.detail;
}

TEST(BufferedShell, QueuedLoopKeepsTokenCount) {
  // A station-less ring of queued shells circulates exactly the shells'
  // initial tokens; throughput is S/(S + queue latency) in the ring.
  graph::Topology t;
  const auto a = t.add_process("A", 1, 1);
  const auto b = t.add_process("B", 1, 1);
  t.connect({a, 0}, {b, 0});
  t.connect({b, 0}, {a, 0});
  lip::Design d(t);
  d.set_pearl(a, pearls::make_identity());
  d.set_pearl(b, pearls::make_add_const(1));
  lip::SystemOptions opts;
  opts.input_queue_depth = 1;
  auto sys = d.instantiate(opts);
  const auto ss = lip::measure_steady_state(*sys);
  ASSERT_TRUE(ss.found);
  EXPECT_FALSE(ss.deadlocked);
  // Two tokens, four positions (two queue slots + two output registers).
  EXPECT_EQ(ss.system_throughput(), Rational(1, 2));
}

TEST(BufferedShell, QueueDepthSmoothsJitterBetterThanDepthOne) {
  // Deeper queues decouple a jittery producer from a jittery consumer;
  // tokens delivered in a fixed horizon must not decrease with depth.
  auto run = [](std::size_t depth) {
    const auto t = bare_chain(4);
    lip::Design d(t);
    for (graph::NodeId v = 1; v <= 4; ++v) {
      d.set_pearl(v, pearls::make_identity());
    }
    d.set_source(0, lip::SourceBehavior::sparse_counter(11, 2, 3));
    d.set_sink(5, lip::SinkBehavior::random_stop(12, 1, 3));
    lip::SystemOptions opts;
    opts.input_queue_depth = depth;
    auto sys = d.instantiate(opts);
    sys->run(2000);
    return sys->sink_count(5);
  };
  const auto d1 = run(1);
  const auto d3 = run(3);
  EXPECT_GE(d3 + 20, d1);  // allow small stochastic slack either way
}

}  // namespace
