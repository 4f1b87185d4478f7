// Property-based latency-equivalence testing: for random topologies,
// random pearls and adversarial environments, the LID's valid streams
// must be prefixes of the zero-latency reference streams — the paper's
// safety definition — under every policy/resolution combination.

#include <gtest/gtest.h>

#include <memory>

#include "liplib/graph/equalize.hpp"
#include "liplib/graph/generators.hpp"
#include "liplib/lip/design.hpp"
#include "liplib/pearls/pearls.hpp"
#include "test_util.hpp"

namespace {

using namespace liplib;
using lip::StopPolicy;
using lip::StopResolution;

struct EquivCase {
  std::uint64_t seed;
  StopPolicy policy;
  bool jittery_env;
};

class RandomEquivalence : public ::testing::TestWithParam<EquivCase> {};

/// The valid tokens a separate run of `d` delivers to its sinks within
/// `cycles`: what the check must compare, every one of them.  Only for
/// deterministic environments (a jittery sink's generator is shared by
/// every instantiation, so a second run sees other stops).
std::uint64_t lid_tokens(const lip::Design& d, lip::SystemOptions opts,
                         std::uint64_t cycles) {
  auto sys = d.instantiate(opts);
  sys->run(cycles);
  std::uint64_t n = 0;
  const auto& topo = d.topology();
  for (graph::NodeId v = 0; v < topo.nodes().size(); ++v) {
    if (topo.node(v).kind == graph::NodeKind::kSink) {
      n += sys->sink_stream(v).size();
    }
  }
  return n;
}

TEST_P(RandomEquivalence, LidMatchesReference) {
  const auto p = GetParam();
  Rng rng(p.seed);
  auto gen = graph::make_random_feedforward(rng, 6, 3, /*allow_half=*/true);
  lip::Design d(std::move(gen.topo));
  // Random unary pearls on 1-input nodes, adders on joins.
  const auto& names = pearls::unary_pearl_names();
  for (graph::NodeId proc : gen.processes) {
    const auto& node = d.topology().node(proc);
    if (node.num_inputs == 1) {
      const auto& name = names[rng.below(names.size())];
      d.set_pearl(proc, pearls::make_by_name(name, rng.next_u64()));
    } else {
      d.set_pearl(proc, pearls::make_adder(rng.next_u64() & 0xff));
    }
  }
  if (p.jittery_env) {
    for (auto s : gen.sources) {
      d.set_source(s, lip::SourceBehavior::sparse_counter(rng.next_u64(), 2, 3));
    }
    for (auto s : gen.sinks) {
      d.set_sink(s, lip::SinkBehavior::random_stop(rng.next_u64(), 1, 4));
    }
  }
  const lip::SystemOptions opts{p.policy, StopResolution::kPessimistic,
                                /*hold_monitor=*/true};
  const auto report = lip::check_latency_equivalence(d, opts, 400);
  EXPECT_TRUE(report.ok) << report.detail;
  EXPECT_GT(report.tokens_checked, 0u);
  if (!p.jittery_env) {
    EXPECT_EQ(report.tokens_checked, lid_tokens(d, opts, 400));
  }
}

std::vector<EquivCase> equivalence_cases() {
  std::vector<EquivCase> cases;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    for (auto pol :
         {StopPolicy::kCarloniStrict, StopPolicy::kCasuDiscardOnVoid}) {
      for (bool jitter : {false, true}) {
        cases.push_back({seed, pol, jitter});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomEquivalence, ::testing::ValuesIn(equivalence_cases()),
    [](const auto& info) {
      return "seed" + std::to_string(info.param.seed) +
             (info.param.policy == StopPolicy::kCarloniStrict ? "_strict"
                                                              : "_variant") +
             (info.param.jittery_env ? "_jitter" : "_calm");
    });

TEST(Equivalence, FeedbackLoopsMatchReference) {
  // Rings exercise the initialized-valid shell outputs as circulating
  // tokens; the reference runs the same pearls with ideal wires.
  auto gen = graph::make_ring_with_tap(2, 1);
  lip::Design d(std::move(gen.topo));
  d.set_pearl(gen.processes[0], pearls::make_fork2(3));
  d.set_pearl(gen.processes[1], pearls::make_add_const(1, 5));
  for (auto pol :
       {StopPolicy::kCarloniStrict, StopPolicy::kCasuDiscardOnVoid}) {
    const auto report = lip::check_latency_equivalence(d, {pol}, 300);
    EXPECT_TRUE(report.ok) << report.detail;
    EXPECT_GT(report.tokens_checked, 50u);
    EXPECT_EQ(report.tokens_checked, lid_tokens(d, {pol}, 300));
  }
}

TEST(Equivalence, LoopChainMatchesReference) {
  auto d = testutil::make_design(graph::make_loop_chain({{1, 2}, {2, 3}}));
  const auto report = lip::check_latency_equivalence(d, {}, 400);
  EXPECT_TRUE(report.ok) << report.detail;
  EXPECT_EQ(report.tokens_checked, lid_tokens(d, {}, 400));
}

TEST(Equivalence, EqualizedDesignStillEquivalent) {
  auto gen = graph::make_reconvergent(1, 2, 2);
  graph::equalize_paths(gen.topo);
  auto d = testutil::make_design(std::move(gen));
  const auto report = lip::check_latency_equivalence(d, {}, 300);
  EXPECT_TRUE(report.ok) << report.detail;
  EXPECT_EQ(report.tokens_checked, lid_tokens(d, {}, 300));
}

/// Breaks the determinism contract: every clone adds the activations of
/// all clones so far to its input, so the reference, which runs after
/// the LID, starts from the LID's count instead of zero.
class SharedCounterPearl final : public lip::Pearl {
 public:
  explicit SharedCounterPearl(std::shared_ptr<std::uint64_t> count)
      : count_(std::move(count)) {}
  std::size_t num_inputs() const override { return 1; }
  std::size_t num_outputs() const override { return 1; }
  void step(std::span<const std::uint64_t> in,
            std::span<std::uint64_t> out) override {
    out[0] = in[0] + (*count_)++;
  }
  std::unique_ptr<lip::Pearl> clone_reset() const override {
    return std::make_unique<SharedCounterPearl>(count_);
  }

 private:
  std::shared_ptr<std::uint64_t> count_;
};

TEST(Equivalence, PearlsSharingStateFailTheCheck) {
  auto gen = graph::make_pipeline(1, 1);
  lip::Design d(std::move(gen.topo));
  d.set_pearl(gen.processes[0], std::make_unique<SharedCounterPearl>(
                                    std::make_shared<std::uint64_t>(0)));
  // The shell fires 9 times in the LID's 10 cycles (its input crosses
  // one station), so the reference's first activation outputs 0 + 9.  The
  // reset token 0 matches; token 1 is the first mismatch.
  const auto report = lip::check_latency_equivalence(d, {}, 10);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.detail, "sink out token 1: LID=0 reference=9");
  EXPECT_EQ(report.tokens_checked, 2u);
}

TEST(Equivalence, StatefulPearlsMatchReference) {
  // Accumulators make every output depend on the whole input history, so
  // any skipped/duplicated/reordered token would desynchronize the sums.
  auto gen = graph::make_pipeline(3, 2);
  lip::Design d(std::move(gen.topo));
  d.set_pearl(gen.processes[0], pearls::make_accumulator());
  d.set_pearl(gen.processes[1], pearls::make_fir({1, 2, 3}));
  d.set_pearl(gen.processes[2], pearls::make_leaky_integrator(1, 2));
  d.set_sink(gen.sinks[0], lip::SinkBehavior::random_stop(9, 1, 3));
  for (auto pol :
       {StopPolicy::kCarloniStrict, StopPolicy::kCasuDiscardOnVoid}) {
    const auto report = lip::check_latency_equivalence(d, {pol}, 400);
    EXPECT_TRUE(report.ok) << report.detail;
  }
}

}  // namespace
