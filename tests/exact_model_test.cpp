// Tests for graph::throughput_bound, the system bound: the minimum cycle
// ratio over data and stop edges.  Under the variant protocol it must
// equal lip::System's steady-state throughput on every live design, for
// uniform AND irregular station distributions (where the paper's closed
// form (m−i)/m is only exact in the uniform case), with loops and
// implicit loops mixed; under strict it must bound it from above.

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "liplib/campaign/campaign.hpp"
#include "liplib/graph/analysis.hpp"
#include "liplib/graph/generators.hpp"
#include "liplib/graph/mcr.hpp"
#include "liplib/lip/steady_state.hpp"
#include "test_util.hpp"

namespace {

using namespace liplib;
using graph::RsKind;

/// System's throughput under `policy`, or nullopt when the run finds no
/// live steady state.
std::optional<Rational> live_throughput(
    const graph::Topology& topo,
    lip::StopPolicy policy = lip::StopPolicy::kCasuDiscardOnVoid) {
  auto sys = testutil::make_design(topo).instantiate({policy});
  const auto ss = lip::measure_steady_state(*sys, 1u << 18);
  if (!ss.found || ss.deadlock_found()) return std::nullopt;
  return ss.system_throughput();
}

/// Holds the bound equal to System under the variant protocol and at or
/// above it under strict; false when the design is not live under the
/// variant protocol.
bool bound_holds(const graph::Topology& topo, const std::string& what) {
  const Rational bound = graph::throughput_bound(topo).ratio;
  const auto variant = live_throughput(topo);
  if (!variant) return false;
  EXPECT_EQ(*variant, bound) << what;
  if (const auto strict =
          live_throughput(topo, lip::StopPolicy::kCarloniStrict)) {
    EXPECT_LE(*strict, bound) << what;
  }
  return true;
}

TEST(ExactModel, AgreesWithPaperFormulaOnUniformSweep) {
  for (std::size_t short_st = 1; short_st <= 3; ++short_st) {
    for (std::size_t long_shells = 1; long_shells <= 3; ++long_shells) {
      for (std::size_t per_hop = 1; per_hop <= 2; ++per_hop) {
        auto gen = graph::make_reconvergent(short_st, long_shells, per_hop);
        const auto paper = graph::predict_throughput(gen.topo).system();
        const auto exact = graph::throughput_bound(gen.topo).ratio;
        EXPECT_EQ(exact, paper)
            << "short=" << short_st << " shells=" << long_shells
            << " per_hop=" << per_hop;
      }
    }
  }
}

TEST(ExactModel, Fig1) {
  auto gen = graph::make_fig1();
  const auto bound = graph::throughput_bound(gen.topo);
  EXPECT_EQ(bound.ratio, Rational(4, 5));
  // The implicit loop: data down the long branch, stops back up the short
  // one (4 tokens in 5 positions).
  EXPECT_EQ(graph::hops_str(gen.topo, bound.hops), "A -> W0 -> C <- A");
}

TEST(ExactModel, IrregularDistributionWheredPaperFormulaDeviates) {
  // The video-pipeline shape: long branch stations 1,2,1,3 (three
  // intermediate shells), short branch one half station.  The paper's
  // formula predicts 1/2; the true throughput is 5/11.
  graph::Topology t;
  const auto src = t.add_source("src");
  const auto fork = t.add_process("fork", 1, 2);
  const auto s1 = t.add_process("s1", 1, 1);
  const auto s2 = t.add_process("s2", 1, 1);
  const auto s3 = t.add_process("s3", 1, 1);
  const auto join = t.add_process("join", 2, 1);
  const auto snk = t.add_sink("out");
  t.connect({src, 0}, {fork, 0});
  t.connect({fork, 0}, {s1, 0}, {RsKind::kFull});
  t.connect({s1, 0}, {s2, 0}, {RsKind::kFull, RsKind::kFull});
  t.connect({s2, 0}, {s3, 0}, {RsKind::kFull});
  t.connect({s3, 0}, {join, 0},
            {RsKind::kFull, RsKind::kFull, RsKind::kFull});
  t.connect({fork, 1}, {join, 1}, {RsKind::kHalf});
  t.connect({join, 0}, {snk, 0});

  const auto exact = graph::throughput_bound(t).ratio;
  EXPECT_EQ(exact, Rational(5, 11));
  EXPECT_EQ(live_throughput(t), Rational(5, 11));
  // The paper's estimate is close but not exact here.
  const auto paper = graph::predict_throughput(t).reconvergence_bound;
  EXPECT_NE(paper, exact);
}

// A diamond whose implicit loop holds 3 tokens in 8 positions feeds a
// two-shell loop of half stations (T = 2/4).  The loop bound alone reads
// 1/2; the design runs at the diamond's 3/8.
TEST(ThroughputBound, DiamondFeedingAHalfStationLoop) {
  graph::Topology t;
  const auto src = t.add_source("src");
  const auto fork = t.add_process("F", 1, 2);
  const auto x = t.add_process("X", 1, 1);
  const auto join = t.add_process("J", 2, 1);
  const auto a = t.add_process("A", 2, 2);
  const auto b = t.add_process("B", 1, 1);
  const auto snk = t.add_sink("out");
  t.connect({src, 0}, {fork, 0});
  t.connect_full({fork, 0}, {x, 0}, 3);
  t.connect_full({x, 0}, {join, 0}, 3);
  t.connect({fork, 1}, {join, 1}, {RsKind::kHalf});
  t.connect({join, 0}, {a, 0}, {RsKind::kFull});
  t.connect({a, 1}, {b, 0}, {RsKind::kHalf});
  t.connect({b, 0}, {a, 1}, {RsKind::kHalf});
  t.connect({a, 0}, {snk, 0});

  EXPECT_EQ(graph::min_cycle_ratio(t)->ratio, Rational(1, 2));
  const auto bound = graph::throughput_bound(t);
  EXPECT_EQ(bound.ratio, Rational(3, 8));
  EXPECT_EQ(graph::hops_str(t, bound.hops), "F -> X -> J <- F");
  EXPECT_TRUE(bound_holds(t, "diamond feeding a half-station loop"));
}

// P1 and P4 share no ancestor, and each feeds both P6 and P7, so no fork
// has two paths to a join.  The cycle P1 -> P7 (data), P7 -> P4 (stop),
// P4 -> P6 (data), P6 -> P1 (stop) still holds 8 tokens in 9 positions.
TEST(ThroughputBound, CrossedForksWithoutACommonAncestor) {
  graph::Topology t;
  const auto s1 = t.add_source("s1");
  const auto s4 = t.add_source("s4");
  const auto p1 = t.add_process("P1", 1, 2);
  const auto p4 = t.add_process("P4", 1, 2);
  const auto p6 = t.add_process("P6", 2, 1);
  const auto p7 = t.add_process("P7", 2, 1);
  t.connect({s1, 0}, {p1, 0});
  t.connect({s4, 0}, {p4, 0});
  t.connect_full({p1, 0}, {p7, 0}, 2);
  t.connect_full({p1, 1}, {p6, 0}, 1);
  t.connect_full({p4, 0}, {p6, 1}, 2);
  t.connect_full({p4, 1}, {p7, 1}, 2);
  t.connect({p6, 0}, {t.add_sink("o6"), 0});
  t.connect({p7, 0}, {t.add_sink("o7"), 0});

  EXPECT_TRUE(graph::analyze_reconvergence(t).empty());
  const auto bound = graph::throughput_bound(t);
  EXPECT_EQ(bound.ratio, Rational(8, 9));
  EXPECT_EQ(graph::hops_str(t, bound.hops), "P1 -> P7 <- P4 -> P6 <- P1");
  EXPECT_TRUE(bound_holds(t, "crossed forks"));
}

// A station-less self-loop's stop edge is a cycle of 0 tokens in 0
// positions: tight under any ratio, but it bounds nothing.  The critical
// cycle is the slower loop beside it.
TEST(ThroughputBound, StationLessSelfLoopIsNeverCritical) {
  graph::Topology t;
  const auto src = t.add_source("src");
  const auto a = t.add_process("A", 2, 2);
  const auto b = t.add_process("B", 2, 1);
  const auto c = t.add_process("C", 1, 2);
  t.connect({src, 0}, {a, 0});
  t.connect({a, 1}, {a, 1});
  t.connect({a, 0}, {b, 0}, {RsKind::kFull});
  t.connect_full({b, 0}, {c, 0}, 2);
  t.connect({c, 0}, {b, 1}, {RsKind::kFull});
  t.connect({c, 1}, {t.add_sink("out"), 0});

  const auto loop = graph::min_cycle_ratio(t);
  ASSERT_TRUE(loop.has_value());
  EXPECT_EQ(loop->ratio, Rational(2, 5));
  const auto bound = graph::throughput_bound(t);
  EXPECT_EQ(bound.ratio, Rational(2, 5));
  EXPECT_EQ(graph::hops_str(t, bound.hops), "B -> C -> B");
}

// The 300-design recipe corpus of the engine differential.
TEST(ThroughputBound, MatchesSystemOnTheRecipeCorpus) {
  std::size_t live = 0;
  for (std::uint64_t i = 0; i < 300; ++i) {
    Rng rng(campaign::job_seed(7, i));
    const std::size_t segments = 1 + rng.below(4);
    const bool risky = rng.chance(1, 2);
    const auto topo = graph::make_random_composite(rng, segments, true, risky)
                          .topo;
    live += bound_holds(topo, "recipe design " + std::to_string(i));
  }
  EXPECT_GE(live, 250u);
}

TEST(ThroughputBound, MatchesSystemOnRandomComposites) {
  Rng rng(2024);
  std::size_t live = 0;
  for (int i = 0; i < 200; ++i) {
    const auto topo =
        graph::make_random_composite(rng, 1 + i % 4, true, false).topo;
    live += bound_holds(topo, "composite " + std::to_string(i));
  }
  EXPECT_EQ(live, 200u);
}

TEST(ThroughputBound, MatchesSystemOnRandomDags) {
  Rng rng(31);
  std::size_t live = 0;
  for (int i = 0; i < 200; ++i) {
    const auto topo = graph::make_random_feedforward(rng, 2 + i % 30).topo;
    live += bound_holds(topo, "dag " + std::to_string(i));
  }
  EXPECT_EQ(live, 200u);
}

TEST(ThroughputBound, MatchesSystemOnMixedKindReconvergence) {
  Rng rng(5);
  std::size_t live = 0;
  for (int i = 0; i < 200; ++i) {
    auto topo = graph::make_reconvergent(1 + rng.below(3), 1 + rng.below(4),
                                         1 + rng.below(3))
                    .topo;
    for (graph::ChannelId c = 0; c < topo.channels().size(); ++c) {
      for (auto& kind : topo.stations_mut(c)) {
        kind = rng.chance(1, 3) ? RsKind::kHalf : RsKind::kFull;
      }
    }
    live += bound_holds(topo, "reconvergent " + std::to_string(i));
  }
  EXPECT_EQ(live, 200u);
}

struct RandomCase {
  std::uint64_t seed;
};

class ExactModelRandom : public ::testing::TestWithParam<RandomCase> {};

TEST_P(ExactModelRandom, MatchesSimulationOnRandomReconvergence) {
  Rng rng(GetParam().seed);
  graph::Topology t;
  const auto src = t.add_source("src");
  const auto fork = t.add_process("fork", 1, 2);
  const auto join = t.add_process("join", 2, 1);
  const auto snk = t.add_sink("out");
  t.connect({src, 0}, {fork, 0});

  auto random_chain = [&] {
    std::vector<RsKind> st;
    const std::size_t len = rng.in_range(1, 3);
    for (std::size_t i = 0; i < len; ++i) {
      st.push_back(rng.chance(1, 3) ? RsKind::kHalf : RsKind::kFull);
    }
    return st;
  };
  // Two branches with 0..3 intermediate shells each and random chains.
  for (std::size_t branch = 0; branch < 2; ++branch) {
    graph::NodeId prev = fork;
    std::size_t prev_port = branch;
    const std::size_t shells = rng.below(4);
    for (std::size_t i = 0; i < shells; ++i) {
      const auto w = t.add_process(
          "b" + std::to_string(branch) + "_" + std::to_string(i), 1, 1);
      t.connect({prev, prev_port}, {w, 0}, random_chain());
      prev = w;
      prev_port = 0;
    }
    t.connect({prev, prev_port}, {join, branch}, random_chain());
  }
  t.connect({join, 0}, {snk, 0});

  EXPECT_EQ(live_throughput(t), graph::throughput_bound(t).ratio)
      << "seed " << GetParam().seed;
}

std::vector<RandomCase> random_cases() {
  std::vector<RandomCase> cases;
  for (std::uint64_t s = 1; s <= 40; ++s) cases.push_back({s});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, ExactModelRandom,
                         ::testing::ValuesIn(random_cases()),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param.seed);
                         });

}  // namespace
