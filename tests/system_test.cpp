// Unit tests of the cycle-accurate System simulator: block semantics,
// fanout masking, stop policies, environment handling and monitors.

#include <gtest/gtest.h>

#include <chrono>

#include "liplib/graph/generators.hpp"
#include "liplib/lip/design.hpp"
#include "liplib/lip/steady_state.hpp"
#include "liplib/pearls/pearls.hpp"
#include "liplib/xir/sliced.hpp"
#include "liplib/xir/xir.hpp"
#include "test_util.hpp"

namespace {

using namespace liplib;
using lip::StopPolicy;
using lip::Token;

/// src -> P -> sink with a chosen relay station chain on each channel.
lip::Design one_shell_design(std::vector<graph::RsKind> pre,
                             std::vector<graph::RsKind> post) {
  graph::Topology t;
  const auto src = t.add_source("src");
  const auto p = t.add_process("P", 1, 1);
  const auto snk = t.add_sink("out");
  t.connect({src, 0}, {p, 0}, std::move(pre));
  t.connect({p, 0}, {snk, 0}, std::move(post));
  lip::Design d(std::move(t));
  d.set_pearl(p, pearls::make_identity());
  return d;
}

TEST(System, UnboundPearlThrows) {
  graph::Topology t;
  const auto src = t.add_source("src");
  const auto p = t.add_process("P", 1, 1);
  const auto snk = t.add_sink("out");
  t.connect({src, 0}, {p, 0});
  t.connect({p, 0}, {snk, 0});
  lip::System sys(t);
  EXPECT_THROW(sys.step(), ApiError);
}

TEST(System, ArityMismatchThrows) {
  graph::Topology t;
  const auto src = t.add_source("src");
  const auto p = t.add_process("P", 1, 1);
  const auto snk = t.add_sink("out");
  t.connect({src, 0}, {p, 0});
  t.connect({p, 0}, {snk, 0});
  lip::System sys(t);
  EXPECT_THROW(sys.bind_pearl(p, pearls::make_adder()), ApiError);
}

TEST(System, StructuralErrorRejected) {
  graph::Topology t;
  const auto a = t.add_process("A", 1, 1);
  const auto b = t.add_process("B", 1, 1);
  // No relay station between two shells: structural error per the paper.
  t.connect({a, 0}, {b, 0});
  t.connect({b, 0}, {a, 0}, {graph::RsKind::kFull});
  EXPECT_THROW(lip::System sys(t), ApiError);
}

TEST(System, FullStationAddsOneCycleLatency) {
  // With k full stations in a row and a greedy environment, the first
  // valid token reaches the sink after (stations + shells) cycles.
  for (std::size_t k : {1u, 2u, 4u}) {
    auto d = one_shell_design(std::vector<graph::RsKind>(k,
                                                         graph::RsKind::kFull),
                              {});
    auto sys = d.instantiate();
    sys->record_sink_trace(true);
    sys->run(20);
    const auto& trace = sys->sink_cycle_trace(d.topology().nodes().size() - 1);
    // The shell output register is initialized valid, so the sink sees a
    // valid token at cycle 0 already; the *second* token (the source's
    // first datum) must cross k stations plus the shell: k + 1 cycles of
    // voids... except the shell's init token covers cycle 0 only.
    EXPECT_TRUE(trace[0].valid);
    for (std::size_t c = 1; c <= k; ++c) {
      EXPECT_FALSE(trace[c].valid) << "k=" << k << " cycle " << c;
    }
    EXPECT_TRUE(trace[k + 1].valid) << "k=" << k;
  }
}

TEST(System, HalfStationAddsOneCycleLatencyToo) {
  auto d = one_shell_design({graph::RsKind::kHalf, graph::RsKind::kHalf}, {});
  auto sys = d.instantiate();
  sys->record_sink_trace(true);
  sys->run(10);
  const auto& trace = sys->sink_cycle_trace(d.topology().nodes().size() - 1);
  EXPECT_TRUE(trace[0].valid);   // shell init token
  EXPECT_FALSE(trace[1].valid);  // pipeline fill
  EXPECT_FALSE(trace[2].valid);
  EXPECT_TRUE(trace[3].valid);
}

TEST(System, SinkBackPressureHoldsData) {
  auto d = one_shell_design({graph::RsKind::kFull}, {graph::RsKind::kFull});
  const graph::NodeId sink = 2;
  d.set_sink(sink, lip::SinkBehavior::script(
                       {false, true, true, false}));  // stop cycles 1,2 mod 4
  auto sys = d.instantiate({StopPolicy::kCasuDiscardOnVoid,
                            lip::StopResolution::kPessimistic,
                            /*hold_monitor=*/true});
  sys->run(200);
  const auto& stream = sys->sink_stream(sink);
  // In-order, no loss, no duplication despite back pressure.
  ASSERT_GE(stream.size(), 50u);
  EXPECT_EQ(stream[0].data, 0u);  // shell init
  for (std::size_t i = 2; i < stream.size(); ++i) {
    EXPECT_EQ(stream[i].data, stream[i - 1].data + 1) << i;
  }
}

TEST(System, SparseSourceStillInOrder) {
  auto d = one_shell_design({graph::RsKind::kFull}, {graph::RsKind::kHalf});
  d.set_source(0, lip::SourceBehavior::sparse_counter(7, 1, 3));
  auto sys = d.instantiate({StopPolicy::kCarloniStrict,
                            lip::StopResolution::kPessimistic,
                            /*hold_monitor=*/true});
  sys->run(300);
  const auto& stream = sys->sink_stream(2);
  ASSERT_GE(stream.size(), 30u);
  for (std::size_t i = 2; i < stream.size(); ++i) {
    EXPECT_EQ(stream[i].data, stream[i - 1].data + 1) << i;
  }
}

TEST(System, FanoutDeliversEachTokenOncePerBranch) {
  // src -> A (fork) -> two sinks with very different back pressure; each
  // branch must observe the same in-order stream exactly once.
  graph::Topology t;
  const auto src = t.add_source("src");
  const auto a = t.add_process("A", 1, 2);
  const auto s1 = t.add_sink("s1");
  const auto s2 = t.add_sink("s2");
  t.connect({src, 0}, {a, 0});
  t.connect({a, 0}, {s1, 0}, {graph::RsKind::kFull});
  t.connect({a, 1}, {s2, 0}, {graph::RsKind::kFull});
  lip::Design d(std::move(t));
  d.set_pearl(a, pearls::make_fork2());
  d.set_sink(s1, lip::SinkBehavior::periodic(3));  // slow consumer
  auto sys = d.instantiate();
  sys->run(300);
  const auto& st1 = sys->sink_stream(s1);
  const auto& st2 = sys->sink_stream(s2);
  ASSERT_GE(st1.size(), 50u);
  ASSERT_GE(st2.size(), 50u);
  // Index 0 is the fork's initialized output (0), index 1 the source's
  // first datum (also 0); the counter stream is strictly increasing
  // afterwards.
  for (std::size_t i = 2; i < st1.size(); ++i) {
    EXPECT_EQ(st1[i].data, st1[i - 1].data + 1);
  }
  for (std::size_t i = 2; i < st2.size(); ++i) {
    EXPECT_EQ(st2[i].data, st2[i - 1].data + 1);
  }
  // The slow branch throttles the shell, so the fast branch cannot run
  // ahead by more than the buffering between them.
  EXPECT_LE(st2.size(), st1.size() + 4);
}

TEST(System, StrictPolicySlowerUnderBackPressure) {
  // Under bursty sink stops, the strict protocol freezes voids in the
  // relay stations and blocks the shell on stopped voids; the paper's
  // variant discards those stops.  The variant must never be slower.
  for (std::uint64_t period : {2u, 3u, 5u}) {
    auto make = [&](StopPolicy pol) {
      auto d = one_shell_design(
          {graph::RsKind::kFull},
          {graph::RsKind::kFull, graph::RsKind::kFull});
      d.set_sink(2, lip::SinkBehavior::periodic(period));
      auto sys = d.instantiate({pol});
      sys->run(600);
      return sys->sink_count(2);
    };
    const auto strict_count = make(StopPolicy::kCarloniStrict);
    const auto variant_count = make(StopPolicy::kCasuDiscardOnVoid);
    EXPECT_GE(variant_count, strict_count) << "period=" << period;
  }
}

TEST(System, ChannelViewShowsStationContents) {
  auto d = one_shell_design({graph::RsKind::kFull, graph::RsKind::kHalf}, {});
  auto sys = d.instantiate();
  sys->run(3);
  const auto view = sys->channel_view(0);
  ASSERT_EQ(view.size(), 3u);  // producer hop + one hop after each station
  const auto contents = sys->station_contents(0);
  ASSERT_EQ(contents.size(), 2u);
}

TEST(System, GeneratorPearlSelfFires) {
  // A 0-input pearl fires whenever its output is free.
  graph::Topology t;
  const auto g = t.add_process("G", 0, 1);
  const auto snk = t.add_sink("out");
  t.connect({g, 0}, {snk, 0}, {graph::RsKind::kFull});
  lip::Design d(std::move(t));
  d.set_pearl(g, pearls::make_generator(10, 5));
  auto sys = d.instantiate();
  sys->run(50);
  const auto& stream = sys->sink_stream(snk);
  ASSERT_GE(stream.size(), 40u);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(stream[i].data, 10 + 5 * i);
  }
}

TEST(System, ProtocolStateExcludesData) {
  auto d1 = one_shell_design({graph::RsKind::kFull}, {});
  auto d2 = one_shell_design({graph::RsKind::kFull}, {});
  d2.set_source(0, lip::SourceBehavior::cyclic({77, 88, 99}));
  auto s1 = d1.instantiate();
  auto s2 = d2.instantiate();
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(s1->protocol_state(), s2->protocol_state()) << "cycle " << i;
    s1->step();
    s2->step();
  }
}

TEST(System, HoldMonitorAcceptsAllPolicies) {
  for (auto pol : {StopPolicy::kCarloniStrict, StopPolicy::kCasuDiscardOnVoid}) {
    auto d = testutil::make_design(graph::make_reconvergent(1, 2, 2));
    d.set_sink(d.topology().nodes().size() - 1,
               lip::SinkBehavior::random_stop(3, 1, 3));
    auto sys = d.instantiate(
        {pol, lip::StopResolution::kPessimistic, /*hold_monitor=*/true});
    EXPECT_NO_THROW(sys->run(500));
  }
}

TEST(System, HoldMonitorCatchesInjectedViolation) {
  // Stall a station so it holds a valid, stopped datum, then corrupt it
  // via worst-case token injection: the hold monitor must flag the
  // change on the next cycle.
  auto d = one_shell_design({graph::RsKind::kFull}, {graph::RsKind::kFull});
  d.set_sink(2, lip::SinkBehavior::script({true}));  //always stop: data piles up
  auto sys = d.instantiate({lip::StopPolicy::kCasuDiscardOnVoid,
                            lip::StopResolution::kPessimistic,
                            /*hold_monitor=*/true});
  sys->run(20);  // stations now hold stopped valid data
  sys->saturate_stations(0xdeadbeef);  // overwrite held fronts
  EXPECT_THROW(sys->step(), ProtocolError);
}

// One half station per channel makes the whole pipeline one
// combinational stop path.  With every station full and a sink that
// stops every other cycle, each stop runs the length of the chain within
// its cycle.  The settle must reach it in work linear in the chain, not
// one stage per pass over every unit, and land where the skeleton engine
// does.
TEST(System, DeepHalfStationPipelineStepsInLinearTime) {
  constexpr std::uint64_t kCycles = 200;
  const auto gen = graph::make_pipeline(3000, 1, graph::RsKind::kHalf);
  const std::vector<bool> script = {true, false};
  auto d = testutil::make_design(gen);
  d.set_sink(gen.sinks[0], lip::SinkBehavior::script(script));
  auto sys = d.instantiate();
  sys->saturate_stations();
  const auto t0 = std::chrono::steady_clock::now();
  sys->run(kCycles);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(2));

  xir::ScalarEngine eng(gen.topo);
  eng.set_sink_pattern(gen.sinks[0], script);
  eng.saturate_stations();
  const std::uint32_t sink_seg = eng.program().sink_seg.at(0);
  std::uint64_t consumed = 0;
  for (std::uint64_t c = 0; c < kCycles; ++c) {
    eng.step();
    consumed += eng.valid_wire(sink_seg) && !eng.stop_wire(sink_seg);
  }
  EXPECT_EQ(sys->sink_count(gen.sinks[0]), 100u);
  EXPECT_EQ(sys->sink_count(gen.sinks[0]), consumed);
  for (graph::NodeId p : gen.processes) {
    ASSERT_EQ(sys->shell_fire_count(p), eng.fires(p)) << "shell " << p;
  }
}

// A source feeds a chain of half stations into a two-shell loop of half
// stations, so the chain's stops hang off a combinational stop cycle,
// the paper's potential-deadlock configuration.  Every cycle model must
// settle the chain in work linear in its length, not one station per
// sweep over it, and both xir engines must land where System does: from
// reset and from worst-case occupancy, under both resolutions.
TEST(System, HalfStationChainIntoAStopCycleSettlesInLinearTime) {
  constexpr std::size_t kChain = 2000;
  graph::Topology topo;
  const auto src = topo.add_source("src");
  const auto a = topo.add_process("A", 2, 1);
  const auto b = topo.add_process("B", 1, 1);
  const auto out = topo.add_sink("out");
  topo.connect({src, 0}, {a, 0},
               std::vector<graph::RsKind>(kChain, graph::RsKind::kHalf));
  topo.connect({a, 0}, {b, 0}, {graph::RsKind::kHalf});
  topo.connect({b, 0}, {a, 1}, {graph::RsKind::kHalf});
  topo.connect({b, 0}, {out, 0}, {graph::RsKind::kHalf});

  const auto t0 = std::chrono::steady_clock::now();
  for (const auto resolution : {lip::StopResolution::kPessimistic,
                                lip::StopResolution::kOptimistic}) {
    const skeleton::SkeletonOptions opts{StopPolicy::kCasuDiscardOnVoid,
                                         resolution};
    for (const bool worst_case : {false, true}) {
      const std::string what =
          std::string(resolution == lip::StopResolution::kPessimistic
                          ? "pessimistic"
                          : "optimistic") +
          (worst_case ? " worst-case" : " reset");
      const auto sys = testutil::make_design(topo).instantiate(
          {opts.policy, opts.resolution});
      if (worst_case) sys->saturate_stations();
      const auto want = lip::measure_steady_state(*sys);
      ASSERT_TRUE(want.found) << what;
      // Saturated, the loop latches where its stops settle high.
      EXPECT_EQ(want.deadlock_found(),
                worst_case && resolution == lip::StopResolution::kPessimistic)
          << what;

      xir::ScalarEngine scalar(topo, opts);
      if (worst_case) scalar.saturate_stations();
      EXPECT_EQ(want, scalar.analyze()) << what << " scalar";
      for (const std::size_t lanes : {std::size_t{1}, std::size_t{64}}) {
        xir::SlicedEngine sliced(topo, opts, lanes);
        if (worst_case) sliced.saturate_stations(~0ull);
        for (const auto& got : sliced.analyze()) {
          EXPECT_EQ(want, got) << what << " " << lanes << " lanes";
        }
      }
    }
  }
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
  // Sanitized builds run several times slower, so they check the answers
  // only.
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(3));
#endif
}

}  // namespace
