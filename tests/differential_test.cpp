// The full differential matrix: for shared random topologies, the three
// execution engines (cycle-accurate System, the control-plane skeleton
// on xir::ScalarEngine, event-driven RTL netlist) must agree under every
// stop policy — the
// library's equivalent of the paper's cross-validation between its RTL
// implementation, its protocol analysis and its SMV models.

#include <gtest/gtest.h>

#include "liplib/graph/generators.hpp"
#include "liplib/lip/design.hpp"
#include "liplib/lip/steady_state.hpp"
#include "liplib/rtl/rtl_system.hpp"
#include "liplib/xir/xir.hpp"
#include "test_util.hpp"

namespace {

using namespace liplib;
using lip::StopPolicy;

struct MatrixCase {
  std::uint64_t seed;
  StopPolicy policy;
  bool cyclic;
};

class DifferentialMatrix : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(DifferentialMatrix, AllEnginesAgree) {
  const auto p = GetParam();
  Rng rng(p.seed * 31 + 7);
  auto gen = p.cyclic
                 ? graph::make_random_composite(rng, 2, true, false)
                 : graph::make_random_feedforward(rng, 5, 2, true);
  const std::uint64_t kCycles = 180;

  // Engine 1: full-data cycle-accurate simulation.
  auto d = testutil::make_design(gen);
  auto sys = d.instantiate({p.policy});
  sys->record_sink_trace(true);
  sys->run(kCycles);

  // Engine 2: event-driven RTL netlist.
  rtl::RtlSystem rtl(d.topology(), {p.policy});
  for (auto proc : gen.processes) {
    const auto& node = d.topology().node(proc);
    rtl.bind_pearl(proc, testutil::default_pearl(node.num_inputs,
                                                 node.num_outputs));
  }
  rtl.run_cycles(kCycles);

  for (auto proc : gen.processes) {
    EXPECT_EQ(rtl.shell_fire_count(proc), sys->shell_fire_count(proc))
        << "fires of " << d.topology().node(proc).name;
  }
  for (auto snk : gen.sinks) {
    const auto& a = sys->sink_cycle_trace(snk);
    const auto& b = rtl.sink_cycle_trace(snk);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].str(), b[i].str())
          << d.topology().node(snk).name << " cycle " << i;
    }
  }

  // Engine 3: skeleton — same per-shell fire counts after kCycles.
  xir::ScalarEngine sk(gen.topo, {p.policy});
  sk.run(kCycles);
  for (auto proc : gen.processes) {
    EXPECT_EQ(sk.fires(proc), sys->shell_fire_count(proc))
        << "skeleton fires of " << d.topology().node(proc).name;
  }

  // And the streams obey the golden reference.
  const auto equiv = lip::check_latency_equivalence(d, {p.policy}, kCycles);
  EXPECT_TRUE(equiv.ok) << equiv.detail;
}

std::vector<MatrixCase> matrix_cases() {
  std::vector<MatrixCase> cases;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (auto pol :
         {StopPolicy::kCarloniStrict, StopPolicy::kCasuDiscardOnVoid}) {
      for (bool cyclic : {false, true}) {
        cases.push_back({seed, pol, cyclic});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DifferentialMatrix, ::testing::ValuesIn(matrix_cases()),
    [](const auto& info) {
      return "seed" + std::to_string(info.param.seed) +
             (info.param.policy == StopPolicy::kCarloniStrict ? "_strict"
                                                              : "_variant") +
             (info.param.cyclic ? "_cyclic" : "_dag");
    });

}  // namespace
