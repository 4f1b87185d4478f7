// Experiment T1 — the paper's reconvergent feed-forward throughput
// formula T = (m − i)/m, where i is the relay-station imbalance between
// the reconvergent branches and m is the total relay-station count of the
// implicit loop plus the shells on the heavier branch.
//
// Sweeps branch shapes, printing the analytic prediction against the
// exact measured throughput (both stop policies).  Exits 1 when a
// variant-protocol row's measured T differs from the system bound
// (graph::throughput_bound) or a strict row's measured T exceeds it.

#include <iostream>

#include "bench_util.hpp"
#include "liplib/graph/analysis.hpp"
#include "liplib/lip/steady_state.hpp"
#include "liplib/support/table.hpp"

using namespace liplib;

int main() {
  int failures = 0;
  benchutil::heading("T1: reconvergent feed-forward throughput, T = (m-i)/m");

  Table t({"short RS", "long shells", "RS/hop", "i", "m", "T paper",
           "T exact model", "T measured (variant)", "T measured (strict)",
           "transient"});
  for (std::size_t short_st = 1; short_st <= 3; ++short_st) {
    for (std::size_t long_shells = 1; long_shells <= 3; ++long_shells) {
      for (std::size_t per_hop = 1; per_hop <= 2; ++per_hop) {
        auto gen = graph::make_reconvergent(short_st, long_shells, per_hop);
        const auto pred = graph::predict_throughput(gen.topo);
        const auto& rec = pred.reconvergences.at(0);
        const auto exact = graph::throughput_bound(gen.topo).ratio;

        auto d = benchutil::make_design(std::move(gen));
        auto var = d.instantiate({lip::StopPolicy::kCasuDiscardOnVoid});
        const auto ss_var = lip::measure_steady_state(*var);
        auto strict = d.instantiate({lip::StopPolicy::kCarloniStrict});
        const auto ss_str = lip::measure_steady_state(*strict);

        t.add_row({std::to_string(short_st), std::to_string(long_shells),
                   std::to_string(per_hop), std::to_string(rec.i()),
                   std::to_string(rec.m()), rec.throughput().str(),
                   exact.str(), ss_var.system_throughput().str(),
                   ss_str.system_throughput().str(),
                   std::to_string(ss_var.transient)});
        failures += benchutil::bound_miss(
            "T1 row " + std::to_string(t.row_count()), exact,
            ss_var.system_throughput(), ss_str.system_throughput());
      }
    }
  }
  t.print(std::cout);

  std::cout << "\nPaper claims: the branch with fewer relay stations gets\n"
               "stopped every period; the number of voids per period is the\n"
               "imbalance i; inserting spare stations (path equalization)\n"
               "recovers T = 1 (see bench_equalization).\n";

  benchutil::heading(
      "T1b: irregular station distributions — where (m-i)/m is an estimate");
  Table t2({"long-branch stations per hop", "T paper", "T exact model",
            "T measured"});
  const std::vector<std::vector<std::size_t>> shapes = {
      {1, 2, 1, 3}, {3, 1, 1, 1}, {1, 1, 1, 3}, {2, 2, 1, 1}};
  for (const auto& shape : shapes) {
    graph::Topology topo;
    const auto src = topo.add_source("src");
    const auto fork = topo.add_process("fork", 1, 2);
    topo.connect({src, 0}, {fork, 0});
    graph::NodeId prev = fork;
    std::size_t prev_port = 0;
    for (std::size_t h = 0; h + 1 < shape.size(); ++h) {
      const auto w = topo.add_process("w" + std::to_string(h), 1, 1);
      topo.connect({prev, prev_port}, {w, 0},
                   std::vector<graph::RsKind>(shape[h],
                                              graph::RsKind::kFull));
      prev = w;
      prev_port = 0;
    }
    const auto join = topo.add_process("join", 2, 1);
    topo.connect({prev, prev_port}, {join, 0},
                 std::vector<graph::RsKind>(shape.back(),
                                            graph::RsKind::kFull));
    topo.connect({fork, 1}, {join, 1}, {graph::RsKind::kHalf});
    topo.connect({join, 0}, {topo.add_sink("out"), 0});

    const auto paper = graph::predict_throughput(topo).reconvergence_bound;
    const auto exact = graph::throughput_bound(topo).ratio;
    graph::Generated g;
    g.topo = topo;
    for (graph::NodeId v = 0; v < topo.nodes().size(); ++v) {
      if (topo.node(v).kind == graph::NodeKind::kProcess) {
        g.processes.push_back(v);
      }
    }
    auto d = benchutil::make_design(std::move(g));
    auto sys = d.instantiate();
    const auto ss = lip::measure_steady_state(*sys);
    std::string dist;
    for (auto s : shape) dist += std::to_string(s) + " ";
    t2.add_row({dist, paper.str(), exact.str(),
                ss.system_throughput().str()});
    failures += benchutil::bound_miss("T1b " + dist, exact,
                                      ss.system_throughput());
  }
  t2.print(std::cout);
  std::cout << "\nThe closed form (m-i)/m is exact for uniformly pipelined\n"
               "branches; liplib's system bound (the minimum cycle ratio\n"
               "over data edges and stop edges) is exact in all cases.\n";
  return failures == 0 ? 0 : 1;
}
