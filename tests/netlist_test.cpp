// Tests for the .lid netlist parser and writer.

#include <gtest/gtest.h>

#include <sstream>

#include "liplib/graph/generators.hpp"
#include "liplib/graph/netlist_io.hpp"

namespace {

using namespace liplib;
using graph::RsKind;

const char* kFig1 = R"(# the paper's Fig. 1
source src
process A 1 2
process B 1 1
process C 2 1
sink out
channel src.0 -> A.0
channel A.0 -> B.0 : F
channel B.0 -> C.0 : F
channel A.1 -> C.1 : F
channel C.0 -> out.0
)";

TEST(Netlist, ParsesFig1) {
  const auto topo = graph::parse_netlist_string(kFig1);
  EXPECT_EQ(topo.nodes().size(), 5u);
  EXPECT_EQ(topo.channels().size(), 5u);
  EXPECT_EQ(topo.num_processes(), 3u);
  EXPECT_EQ(topo.total_full_stations(), 3u);
  EXPECT_TRUE(topo.validate().ok());
  EXPECT_EQ(topo.node(1).name, "A");
  EXPECT_EQ(topo.node(1).num_outputs, 2u);
}

TEST(Netlist, AcceptsStationSpellings) {
  const auto topo = graph::parse_netlist_string(
      "source s\nprocess P 1 1\nsink o\n"
      "channel s.0 -> P.0 : full H f half\n"
      "channel P.0 -> o.0\n");
  EXPECT_EQ(topo.channel(0).num_full(), 2u);
  EXPECT_EQ(topo.channel(0).num_half(), 2u);
}

TEST(Netlist, RoundTripsGeneratedTopologies) {
  Rng rng(99);
  std::vector<graph::Topology> cases;
  cases.push_back(graph::make_fig1().topo);
  cases.push_back(graph::make_fig2().topo);
  cases.push_back(graph::make_loop_chain({{1, 2}, {2, 4}}).topo);
  for (int i = 0; i < 5; ++i) {
    cases.push_back(graph::make_random_feedforward(rng, 6, 3, true).topo);
    cases.push_back(graph::make_random_composite(rng, 4, true, true).topo);
  }
  for (const auto& topo : cases) {
    const std::string text = graph::write_netlist(topo);
    const auto back = graph::parse_netlist_string(text);
    ASSERT_EQ(back.nodes().size(), topo.nodes().size());
    ASSERT_EQ(back.channels().size(), topo.channels().size());
    for (std::size_t v = 0; v < topo.nodes().size(); ++v) {
      EXPECT_EQ(back.node(v).name, topo.node(v).name);
      EXPECT_EQ(back.node(v).kind, topo.node(v).kind);
      EXPECT_EQ(back.node(v).num_inputs, topo.node(v).num_inputs);
      EXPECT_EQ(back.node(v).num_outputs, topo.node(v).num_outputs);
    }
    for (std::size_t c = 0; c < topo.channels().size(); ++c) {
      EXPECT_EQ(back.channel(c).from.node, topo.channel(c).from.node);
      EXPECT_EQ(back.channel(c).from.port, topo.channel(c).from.port);
      EXPECT_EQ(back.channel(c).to.node, topo.channel(c).to.node);
      EXPECT_EQ(back.channel(c).to.port, topo.channel(c).to.port);
      EXPECT_EQ(back.channel(c).stations, topo.channel(c).stations);
    }
    // Idempotence of the writer.
    EXPECT_EQ(graph::write_netlist(back), text);
  }
}

void expect_parse_error(const std::string& text, const std::string& needle) {
  try {
    graph::parse_netlist_string(text);
    FAIL() << "expected parse error containing '" << needle << "'";
  } catch (const ApiError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(Netlist, ReportsErrorsWithLineNumbers) {
  expect_parse_error("bogus x\n", "line 1");
  expect_parse_error("source s\nsource s\n", "duplicate node name");
  expect_parse_error("source s\nchannel s.0 -> t.0\n", "unknown node 't'");
  expect_parse_error("source s\nsink o\nchannel s.0 > o.0\n", "->");
  expect_parse_error("source s\nsink o\nchannel s.0 -> o.0 : Q\n",
                     "unknown relay station kind");
  expect_parse_error("source s\nsink o\nchannel s -> o.0\n",
                     "expected <name>.<port>");
  expect_parse_error("process p 0 0\n", "no ports");
  expect_parse_error("source s extra\n", "unexpected token");
  expect_parse_error("source s\nsink o\nchannel s.0 -> o.0 F\n",
                     "expected ':'");
  expect_parse_error("source s\nprocess p 1 1\nsink o\n"
                     "channel s.0 -> p.0\nchannel s.0 -> p.0\n",
                     "line 5");
}

// Counts and port numbers are plain digits under one bound: nothing
// wraps around to a small number, and no process declares more than
// kMaxProcessPorts ports a side.
TEST(Netlist, CountsAndPortNumbersAreBoundedNotWrapped) {
  // 2^64 + 1 inputs once read as 1, and port 2^64 as port 0.
  expect_parse_error("process A 18446744073709551617 1\n",
                     "bad input count '18446744073709551617'");
  expect_parse_error("source s\nprocess A 1 1\nsink o\n"
                     "channel s.0 -> A.18446744073709551616\n"
                     "channel A.0 -> o.0\n",
                     "bad port number in 'A.18446744073709551616'");
  // Four billion inputs once reached std::bad_alloc.
  expect_parse_error("process A 4000000000 1\n",
                     "bad input count '4000000000'");
  expect_parse_error("process A 1 65537\n", "bad output count '65537'");
  const auto widest = graph::parse_netlist_string("process A 65536 1\n");
  EXPECT_EQ(widest.node(0).num_inputs, graph::kMaxProcessPorts);
}

TEST(Netlist, ErrorsQuoteTheLineWithACaret) {
  // The offending line is echoed and a caret column-aligns with the bad
  // token (tildes underline the rest of it).
  try {
    graph::parse_netlist_string("source s\nchannel s.0 -> t.0\n");
    FAIL() << "expected a parse error";
  } catch (const ApiError& e) {
    const std::string what = e.what();
    const std::string expected =
        "netlist line 2: unknown node 't'\n"
        "  channel s.0 -> t.0\n"
        "  " +
        std::string(std::string("channel s.0 -> ").size(), ' ') + "^";
    EXPECT_NE(what.find(expected), std::string::npos) << what;
  }
  // Multi-character tokens get an underline as wide as the token.
  try {
    graph::parse_netlist_string("source s\nsink o\n"
                                "channel s.0 -> o.0 : FULL\n");
    FAIL() << "expected a parse error";
  } catch (const ApiError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown relay station kind"), std::string::npos);
    EXPECT_NE(what.find("^~~~"), std::string::npos) << what;
  }
}

TEST(Netlist, CommentsAndBlankLinesIgnored) {
  const auto topo = graph::parse_netlist_string(
      "\n# leading comment\n\nsource s  # trailing comment\n\nsink o\n"
      "channel s.0 -> o.0\n# done\n");
  EXPECT_EQ(topo.nodes().size(), 2u);
  EXPECT_EQ(topo.channels().size(), 1u);
}

}  // namespace
