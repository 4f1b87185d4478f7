// Unit tests for the structural topology layer: builder contracts,
// validation rules, SCCs, cycle detection and rendering.

#include <gtest/gtest.h>

#include "liplib/graph/analysis.hpp"
#include "liplib/graph/generators.hpp"
#include "liplib/graph/netlist_io.hpp"
#include "liplib/graph/topology.hpp"

namespace {

using namespace liplib;
using graph::RsKind;
using graph::Topology;

TEST(Topology, BuilderRejectsBadRefs) {
  Topology t;
  const auto p = t.add_process("P", 1, 1);
  EXPECT_THROW(t.connect({p, 1}, {p, 0}), ApiError);  // bad out port
  EXPECT_THROW(t.connect({p, 0}, {p, 2}), ApiError);  // bad in port
  EXPECT_THROW(t.connect({p + 5, 0}, {p, 0}), ApiError);
}

TEST(Topology, BuilderRejectsDoubleDrive) {
  Topology t;
  const auto s1 = t.add_source("s1");
  const auto s2 = t.add_source("s2");
  const auto p = t.add_process("P", 1, 1);
  t.connect({s1, 0}, {p, 0});
  EXPECT_THROW(t.connect({s2, 0}, {p, 0}), ApiError);
}

// Each input port keeps its channel through nodes added after it: the
// second drive of a port is refused with the port's node named, however
// many nodes and channels came between, and the refused channel is not
// added.
TEST(Topology, PortDrivenTwiceRejectedAfterLaterNodes) {
  Topology t;
  const auto s = t.add_source("s");
  const auto j = t.add_process("J", 3, 1);
  t.connect({s, 0}, {j, 1});
  const auto a = t.add_process("A", 2, 2);
  const auto o = t.add_sink("o");
  t.connect({j, 0}, {a, 1}, {RsKind::kFull});
  t.connect({a, 0}, {j, 0}, {RsKind::kFull});
  t.connect({a, 1}, {o, 0});
  const auto count = t.channels().size();
  for (const graph::InRef in : {graph::InRef{j, 1}, graph::InRef{j, 0},
                                graph::InRef{a, 1}, graph::InRef{o, 0}}) {
    const auto c = t.channel_into(in);
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(t.channel(*c).to.node, in.node);
    EXPECT_EQ(t.channel(*c).to.port, in.port);
    try {
      t.connect({a, 0}, in, {RsKind::kFull});
      ADD_FAILURE() << "second channel into " << t.node(in.node).name
                    << "." << in.port << " accepted";
    } catch (const ApiError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("input port of " + t.node(in.node).name +
                          " driven twice"),
                std::string::npos)
          << what;
    }
  }
  EXPECT_EQ(t.channels().size(), count);
  // The ports no channel drives stay open, and connect fills them.
  EXPECT_FALSE(t.channel_into({j, 2}).has_value());
  EXPECT_FALSE(t.channel_into({a, 0}).has_value());
  EXPECT_FALSE(t.channel_into({a, 2}).has_value());  // out of range
  EXPECT_FALSE(t.channel_into({o + 1, 0}).has_value());
  const auto c = t.connect({s, 0}, {a, 0});
  EXPECT_EQ(t.channel_into({a, 0}), c);
}

TEST(Topology, ValidateFindsUnconnectedPorts) {
  Topology t;
  t.add_process("P", 1, 1);
  const auto report = t.validate();
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("not driven"), std::string::npos);
  EXPECT_NE(report.to_string().find("drives nothing"), std::string::npos);
}

TEST(Topology, ValidateEnforcesStationBetweenShells) {
  Topology t;
  const auto a = t.add_process("A", 1, 1);
  const auto b = t.add_process("B", 1, 1);
  t.connect({a, 0}, {b, 0});  // no station: error
  t.connect({b, 0}, {a, 0}, {RsKind::kHalf});
  const auto report = t.validate();
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("no relay station"), std::string::npos);
}

TEST(Topology, SourceAndSinkChannelsNeedNoStation) {
  Topology t;
  const auto src = t.add_source("src");
  const auto p = t.add_process("P", 1, 1);
  const auto snk = t.add_sink("out");
  t.connect({src, 0}, {p, 0});
  t.connect({p, 0}, {snk, 0});
  EXPECT_TRUE(t.validate().ok());
}

TEST(Topology, CountsAndLookups) {
  auto gen = graph::make_reconvergent(1, 1, 2);
  const auto& t = gen.topo;
  EXPECT_EQ(t.num_processes(), 3u);
  EXPECT_EQ(t.num_sources(), 1u);
  EXPECT_EQ(t.num_sinks(), 1u);
  EXPECT_EQ(t.total_stations(), 5u);  // 2+2 long, 1 short
  EXPECT_EQ(t.total_full_stations(), 5u);
  EXPECT_EQ(t.total_half_stations(), 0u);
  EXPECT_EQ(t.channels_from(gen.fork).size(), 2u);
  EXPECT_EQ(t.channels_into(gen.join).size(), 2u);
  EXPECT_TRUE(t.channel_into({gen.join, 0}).has_value());
  EXPECT_TRUE(t.channel_into({gen.join, 1}).has_value());
}

// The adjacency every graph walk reads: A's port 1 is listed before its
// port 0, yet channels_from(A) lists A's channel ids in ascending order,
// channels_of splits them by port, and channels_into follows J's input
// ports rather than channel ids.  Station edits move neither index.
TEST(Topology, AdjacencyIndexesFollowChannelIdsAndPorts) {
  auto t = graph::parse_netlist_string(
      "source src\nprocess A 1 2\nprocess J 2 1\nsink tap\nsink out\n"
      "channel src.0 -> A.0 : F\n"
      "channel A.1 -> J.1 : F\n"
      "channel A.0 -> J.0 : H\n"
      "channel A.1 -> tap.0 : F\n"
      "channel J.0 -> out.0 : F\n");
  const graph::NodeId a = 1;
  const graph::NodeId j = 2;
  const auto check = [&] {
    using Ids = std::vector<graph::ChannelId>;
    EXPECT_EQ(t.channels_from(a), (Ids{1, 2, 3}));
    EXPECT_EQ(t.channels_of({a, 0}), (Ids{2}));
    EXPECT_EQ(t.channels_of({a, 1}), (Ids{1, 3}));
    EXPECT_EQ(t.channels_into(j), (Ids{2, 1}));
    EXPECT_EQ(t.channels_into(a), (Ids{0}));
    EXPECT_EQ(t.channels_from(j), (Ids{4}));
    EXPECT_TRUE(t.channels_from(4).empty());  // the sink
    EXPECT_EQ(t.channel_into({j, 0}), 2u);
    EXPECT_EQ(t.channel_into({j, 1}), 1u);
  };
  check();
  t.stations_mut(2).push_back(RsKind::kFull);
  t.stations_mut(1).clear();
  check();
  EXPECT_EQ(t.channel(2).stations,
            (std::vector<RsKind>{RsKind::kHalf, RsKind::kFull}));
  EXPECT_TRUE(t.channel(1).stations.empty());
  EXPECT_EQ(t.channel(1).from.node, a);
  EXPECT_EQ(t.channel(1).to.port, 1u);
}

TEST(Topology, FeedforwardDetection) {
  EXPECT_TRUE(graph::make_pipeline(3, 1).topo.is_feedforward());
  EXPECT_TRUE(graph::make_tree(2, 1).topo.is_feedforward());
  EXPECT_TRUE(graph::make_reconvergent(1, 1, 1).topo.is_feedforward());
  EXPECT_FALSE(graph::make_fig2().topo.is_feedforward());
  EXPECT_FALSE(graph::make_closed_ring({1}).topo.is_feedforward());
  EXPECT_FALSE(graph::make_loop_chain({{1, 2}}).topo.is_feedforward());
}

TEST(Topology, ChannelsOnCyclesMarksLoopChannelsOnly) {
  auto gen = graph::make_loop_chain({{1, 2}}, 1);
  const auto on_cycle = gen.topo.channels_on_cycles();
  // Exactly the loop channels are marked.
  std::size_t marked = 0;
  for (bool b : on_cycle) marked += b;
  EXPECT_EQ(marked, gen.loops[0].size());
  for (auto c : gen.loops[0]) EXPECT_TRUE(on_cycle[c]);
}

TEST(Topology, SelfLoopDetected) {
  Topology t;
  const auto p = t.add_process("P", 1, 1);
  t.connect({p, 0}, {p, 0}, {RsKind::kFull});
  EXPECT_FALSE(t.is_feedforward());
  const auto on_cycle = t.channels_on_cycles();
  EXPECT_TRUE(on_cycle[0]);
}

TEST(Topology, ProcessSccs) {
  auto gen = graph::make_loop_chain({{2, 3}, {1, 2}});
  const auto sccs = gen.topo.process_sccs();
  // Two nontrivial components (the loops) of sizes 3 and 2.
  std::vector<std::size_t> sizes;
  for (const auto& c : sccs) {
    if (c.size() > 1) sizes.push_back(c.size());
  }
  std::sort(sizes.begin(), sizes.end());
  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_EQ(sizes[0], 2u);
  EXPECT_EQ(sizes[1], 3u);
}

TEST(Topology, DotRendering) {
  auto gen = graph::make_fig1();
  const std::string dot = gen.topo.to_dot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("label=\"F\""), std::string::npos);  // one full station
  EXPECT_NE(dot.find("->"), std::string::npos);
}

TEST(Topology, ChannelStationCounts) {
  graph::Channel c;
  c.stations = {RsKind::kFull, RsKind::kHalf, RsKind::kFull};
  EXPECT_EQ(c.num_stations(), 3u);
  EXPECT_EQ(c.num_full(), 2u);
  EXPECT_EQ(c.num_half(), 1u);
}

// ---------------------------------------------------------------------
// Analysis unit tests (structural; simulation agreement is covered by
// throughput_test.cpp).
// ---------------------------------------------------------------------

TEST(Analysis, LoopFormula) {
  EXPECT_EQ(graph::loop_throughput(2, 2), Rational(1, 2));
  EXPECT_EQ(graph::loop_throughput(3, 0), Rational(1));
  EXPECT_EQ(graph::loop_throughput(1, 4), Rational(1, 5));
  EXPECT_THROW(graph::loop_throughput(0, 3), ApiError);
}

TEST(Analysis, ReconvergentFormula) {
  EXPECT_EQ(graph::reconvergent_throughput(5, 1), Rational(4, 5));
  EXPECT_EQ(graph::reconvergent_throughput(7, 0), Rational(1));
  EXPECT_THROW(graph::reconvergent_throughput(0, 0), ApiError);
  EXPECT_THROW(graph::reconvergent_throughput(3, 4), ApiError);
}

TEST(Analysis, EnumerateCyclesFindsAllRingCycles) {
  auto gen = graph::make_closed_ring({1, 2, 3});
  const auto cycles = graph::enumerate_cycles(gen.topo);
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0].shells, 3u);
  EXPECT_EQ(cycles[0].stations, 6u);
  EXPECT_EQ(cycles[0].throughput, Rational(1, 3));
}

TEST(Analysis, EnumerateCyclesHandlesParallelChannels) {
  Topology t;
  const auto a = t.add_process("A", 2, 2);
  const auto b = t.add_process("B", 2, 2);
  t.connect({a, 0}, {b, 0}, {RsKind::kFull});
  t.connect({a, 1}, {b, 1}, {RsKind::kFull, RsKind::kFull});
  t.connect({b, 0}, {a, 0}, {RsKind::kFull});
  t.connect({b, 1}, {a, 1}, {RsKind::kFull});
  // Cycles: each forward channel pairs with each backward channel: 4.
  const auto cycles = graph::enumerate_cycles(t);
  EXPECT_EQ(cycles.size(), 4u);
}

TEST(Analysis, PredictFig1) {
  auto gen = graph::make_fig1();
  const auto pred = graph::predict_throughput(gen.topo);
  EXPECT_EQ(pred.cycle_bound, Rational(1));  // feedforward
  EXPECT_EQ(pred.reconvergence_bound, Rational(4, 5));
  EXPECT_EQ(pred.system(), Rational(4, 5));
  ASSERT_FALSE(pred.reconvergences.empty());
  EXPECT_EQ(pred.reconvergences[0].i(), 1u);
  EXPECT_EQ(pred.reconvergences[0].m(), 5u);
}

TEST(Analysis, PredictFig2) {
  auto gen = graph::make_fig2();
  const auto pred = graph::predict_throughput(gen.topo);
  EXPECT_EQ(pred.cycle_bound, Rational(1, 2));
  EXPECT_EQ(pred.system(), Rational(1, 2));
}

TEST(Analysis, LongestRegisterPath) {
  auto gen = graph::make_pipeline(3, 2);
  // src->(2st)->P0->(2st)->P1->(2st)->P2->(2st)->out: 4 channels, each
  // stations+producer-register = 3: total 12.
  const auto longest = graph::longest_register_path(gen.topo);
  ASSERT_TRUE(longest.has_value());
  EXPECT_EQ(*longest, 12u);
  EXPECT_FALSE(
      graph::longest_register_path(graph::make_fig2().topo).has_value());
}

TEST(Analysis, TransientBoundPositive) {
  EXPECT_GT(graph::transient_bound(graph::make_fig1().topo), 0u);
}

}  // namespace
