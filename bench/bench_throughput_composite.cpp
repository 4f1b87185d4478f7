// Experiment T3 — "The most general topology is a feed-forward
// combination of self-interacting loops.  It is possible to prove that
// the slowest subtopology will force the system to slow down to its
// speed.  The protocol itself will adapt to such a speed without any need
// for path equalization."
//
// Builds chains of loops with different individual throughputs and shows
// that every shell in the chain settles to the minimum loop throughput.
// Every row runs the paper's variant protocol; the bench exits 1 when a
// row's measured T differs from the system bound (graph::throughput_bound).

#include <iostream>

#include "bench_util.hpp"
#include "liplib/graph/analysis.hpp"
#include "liplib/graph/mcr.hpp"
#include "liplib/lip/steady_state.hpp"
#include "liplib/support/table.hpp"

using namespace liplib;

namespace {

std::string spec_str(const std::vector<graph::RingSpec>& specs) {
  std::string s;
  for (const auto& spec : specs) {
    if (!s.empty()) s += " + ";
    s += "(" + std::to_string(spec.extra_shells + 1) + "sh," +
         std::to_string(spec.loop_stations) + "rs)";
  }
  return s;
}

}  // namespace

int main() {
  int failures = 0;
  benchutil::heading("T3: composite topologies — slowest subtopology wins");

  const std::vector<std::vector<graph::RingSpec>> cases = {
      {{1, 2}, {1, 2}},
      {{1, 2}, {1, 4}},
      {{2, 3}, {1, 2}},
      {{1, 2}, {2, 6}, {1, 3}},
      {{3, 4}, {1, 5}},
      {{1, 3}, {1, 3}, {1, 3}, {1, 3}},
  };

  Json records = Json::array();
  Table t({"chain of loops", "min loop T (analytic)", "system T (measured)",
           "all shells at system T?", "transient", "period"});
  for (const auto& specs : cases) {
    auto gen = graph::make_loop_chain(specs);
    const auto pred = graph::predict_throughput(gen.topo);
    const auto bound = graph::throughput_bound(gen.topo).ratio;
    auto d = benchutil::make_design(std::move(gen));
    auto sys = d.instantiate();
    const auto ss = lip::measure_steady_state(*sys, 500000);
    bool uniform = true;
    for (const auto& tp : ss.shell_throughput) {
      if (!(tp == ss.system_throughput())) uniform = false;
    }
    t.add_row({spec_str(specs), pred.cycle_bound.str(),
               ss.system_throughput().str(), uniform ? "yes" : "no",
               std::to_string(ss.transient), std::to_string(ss.period)});
    records.push(Json::object()
                     .set("chain", spec_str(specs))
                     .set("analytic_min_loop_T", pred.cycle_bound)
                     .set("measured_system_T", ss.system_throughput())
                     .set("uniform", uniform)
                     .set("transient", ss.transient)
                     .set("period", ss.period));
    failures += benchutil::bound_miss(spec_str(specs), bound,
                                      ss.system_throughput());
  }
  t.print(std::cout);

  benchutil::heading("T3b: loops combined with reconvergent fragments");
  // A reconvergent DAG feeding a loop: whichever is slower dominates.
  Table t2({"fragment", "loop T", "system bound", "measured"});
  for (std::size_t imbalance : {1u, 3u}) {
    for (std::size_t loop_r : {2u, 6u}) {
      // Reconvergent front end.
      graph::Topology topo;
      const auto src = topo.add_source("src");
      const auto a = topo.add_process("A", 1, 2);
      const auto c = topo.add_process("C", 2, 1);
      topo.connect({src, 0}, {a, 0});
      topo.connect({a, 0}, {c, 0},
                   std::vector<graph::RsKind>(1 + imbalance,
                                              graph::RsKind::kFull));
      topo.connect({a, 1}, {c, 1}, {graph::RsKind::kFull});
      // Loop back end: port shell with a self-loop through loop_r RS.
      const auto port = topo.add_process("L", 2, 2);
      topo.connect({c, 0}, {port, 0}, {graph::RsKind::kFull});
      topo.connect(
          {port, 1}, {port, 1},
          std::vector<graph::RsKind>(loop_r, graph::RsKind::kFull));
      const auto snk = topo.add_sink("out");
      topo.connect({port, 0}, {snk, 0});

      const auto loop = graph::min_cycle_ratio(topo)->ratio;
      const auto bound = graph::throughput_bound(topo).ratio;
      lip::Design d(std::move(topo));
      d.set_pearl(a, pearls::make_fork2());
      d.set_pearl(c, pearls::make_adder());
      d.set_pearl(port, pearls::make_butterfly());
      auto sys = d.instantiate();
      const auto ss = lip::measure_steady_state(*sys, 500000);
      const std::string row = "i=" + std::to_string(imbalance) +
                              ", loopR=" + std::to_string(loop_r);
      t2.add_row({row, loop.str(), bound.str(),
                  ss.system_throughput().str()});
      failures += benchutil::bound_miss(row, bound, ss.system_throughput());
    }
  }
  t2.print(std::cout);
  benchutil::write_bench_json("throughput_composite", std::move(records));
  return failures == 0 ? 0 : 1;
}
