// Experiment D1 — liveness: the paper's three results and its remedy.
//   1. feed-forward LIDs (with reconvergence) are deadlock free;
//   2. LIDs with only full relay stations are deadlock free;
//   3. half relay stations create potential deadlocks iff they lie on
//      loops — the loop's stop path becomes a combinational cycle (a
//      bistable latch), exposed here by worst-case-occupancy screening
//      and by comparing the two hardware settlings of the latch;
//   plus: skeleton screening up to the transient decides liveness, and
//   deadlocking designs are cured by substituting few relay stations.

#include <iostream>

#include "bench_util.hpp"
#include "liplib/graph/generators.hpp"
#include "liplib/skeleton/skeleton.hpp"
#include "liplib/support/table.hpp"
#include "liplib/xir/xir.hpp"

using namespace liplib;
using graph::RsKind;
using lip::StopPolicy;
using lip::StopResolution;

namespace {

std::string verdict_str(const lip::SteadyState& v) {
  if (!v.found) return "budget exceeded";
  const Rational t = v.system_throughput();
  if (!v.deadlock_found()) return "live (T=" + t.str() + ")";
  if (t == Rational(0)) return "DEADLOCK";
  return "PARTIAL starvation";
}

lip::SteadyState screen(const graph::Topology& topo, bool wc,
                        StopResolution res) {
  return xir::screen_for_deadlock(
      xir::lower(topo, {StopPolicy::kCasuDiscardOnVoid, res}), wc);
}

}  // namespace

int main() {
  benchutil::heading("D1: deadlock screening matrix");

  struct Case {
    std::string name;
    graph::Topology topo;
  };
  std::vector<Case> cases;
  cases.push_back({"feedforward (fig1)", graph::make_fig1().topo});
  {
    Rng rng(5);
    cases.push_back(
        {"feedforward random + half RS",
         graph::make_random_feedforward(rng, 6, 3, true).topo});
  }
  cases.push_back(
      {"ring full RS (S=2,R=2)", graph::make_closed_ring({1, 1}).topo});
  cases.push_back({"ring full RS (S=3,R=6)",
                   graph::make_closed_ring({2, 2, 2}).topo});
  cases.push_back({"ring HALF RS (S=2,R=2)",
                   graph::make_closed_ring({1, 1}, RsKind::kHalf).topo});
  cases.push_back({"ring HALF RS (S=3,R=3)",
                   graph::make_closed_ring({1, 1, 1}, RsKind::kHalf).topo});
  {
    graph::Topology t;
    const auto a = t.add_process("A", 1, 1);
    const auto b = t.add_process("B", 1, 1);
    t.connect({a, 0}, {b, 0}, {RsKind::kHalf});
    t.connect({b, 0}, {a, 0}, {RsKind::kFull});
    cases.push_back({"ring mixed (1 half + 1 full)", std::move(t)});
  }
  cases.push_back(
      {"loop chain, middle loop half",
       graph::make_loop_chain({{1, 2, RsKind::kFull},
                               {1, 2, RsKind::kHalf},
                               {1, 2, RsKind::kFull}})
           .topo});

  Table t({"design", "from reset", "worst-case, pessimistic",
           "worst-case, optimistic", "half RS on loop?"});
  for (const auto& c : cases) {
    bool half_on_loop = false;
    const auto on_cycle = c.topo.channels_on_cycles();
    for (graph::ChannelId ch = 0; ch < c.topo.channels().size(); ++ch) {
      if (on_cycle[ch] && c.topo.channel(ch).num_half() > 0) {
        half_on_loop = true;
      }
    }
    t.add_row({c.name,
               verdict_str(screen(c.topo, false, StopResolution::kPessimistic)),
               verdict_str(screen(c.topo, true, StopResolution::kPessimistic)),
               verdict_str(screen(c.topo, true, StopResolution::kOptimistic)),
               half_on_loop ? "yes" : "no"});
  }
  t.print(std::cout);

  std::cout << "\nExpected shape: deadlock appears exactly in the rows with\n"
               "half relay stations on loops, only under worst-case\n"
               "occupancy, and only under pessimistic settling — the\n"
               "bistable latch of the combinational stop ring.\n";

  benchutil::heading("D1b: the paper's cure — substitute few relay stations");
  Table ct({"design", "substitutions", "cured?", "stations unchanged?"});
  for (const auto& name_sizes :
       {std::pair<std::string, std::size_t>{"half ring S=2", 2},
        {"half ring S=3", 3},
        {"half ring S=5", 5}}) {
    auto topo = graph::make_closed_ring(
        std::vector<std::size_t>(name_sizes.second, 1), RsKind::kHalf).topo;
    skeleton::ScreeningOptions opts;
    opts.worst_case_occupancy = true;
    const auto cure = xir::cure_deadlocks(topo, opts);
    ct.add_row({name_sizes.first, std::to_string(cure.substitutions),
                cure.success ? "yes" : "no",
                cure.cured.total_stations() == topo.total_stations()
                    ? "yes"
                    : "no"});
  }
  ct.print(std::cout);

  benchutil::heading("D1c: screening cost — bounded by the transient");
  Table st({"design", "cycles simulated", "transient", "period"});
  for (const auto& c : cases) {
    const auto v = screen(c.topo, false, StopResolution::kPessimistic);
    st.add_row({c.name, std::to_string(v.cycles),
                std::to_string(v.transient), std::to_string(v.period)});
  }
  st.print(std::cout);
  return 0;
}
