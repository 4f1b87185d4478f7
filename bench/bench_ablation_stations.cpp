// Ablation A1 — the paper's central design choice: half relay stations
// (one register, combinational stop) vs full relay stations (two
// registers, registered stop).
//
// For the same wire-length budgets, compares the two station policies on
// register cost, achieved throughput, and liveness — quantifying the
// trade the paper proposes: halves cost half the registers and are safe
// off-cycle; on loops they trade registers for a latent stop latch.

#include <iostream>

#include "bench_util.hpp"
#include "liplib/graph/wire_plan.hpp"
#include "liplib/lip/steady_state.hpp"
#include "liplib/support/table.hpp"
#include "liplib/xir/xir.hpp"

using namespace liplib;

namespace {

struct DesignCase {
  std::string name;
  graph::Topology topo;       // station-less skeleton
  std::vector<double> wires;  // per channel
};

std::vector<DesignCase> make_cases() {
  std::vector<DesignCase> cases;
  {
    DesignCase c;
    c.name = "pipeline, long wires";
    auto prev = c.topo.add_source("src");
    for (int i = 0; i < 4; ++i) {
      const auto p = c.topo.add_process("P" + std::to_string(i), 1, 1);
      c.topo.connect({prev, 0}, {p, 0});
      prev = p;
    }
    c.topo.connect({prev, 0}, {c.topo.add_sink("out"), 0});
    c.wires = {1.0, 3.0, 4.0, 2.0, 1.0};
    cases.push_back(std::move(c));
  }
  {
    DesignCase c;
    c.name = "reconvergent, unbalanced";
    const auto src = c.topo.add_source("src");
    const auto fork = c.topo.add_process("fork", 1, 2);
    const auto body = c.topo.add_process("body", 1, 1);
    const auto join = c.topo.add_process("join", 2, 1);
    c.topo.connect({src, 0}, {fork, 0});
    c.topo.connect({fork, 0}, {body, 0});
    c.topo.connect({body, 0}, {join, 0});
    c.topo.connect({fork, 1}, {join, 1});
    c.topo.connect({join, 0}, {c.topo.add_sink("out"), 0});
    c.wires = {0.5, 3.5, 3.0, 1.5, 0.5};
    cases.push_back(std::move(c));
  }
  {
    DesignCase c;
    c.name = "loop + tail";
    const auto src = c.topo.add_source("src");
    const auto port = c.topo.add_process("port", 2, 2);
    const auto tail = c.topo.add_process("tail", 1, 1);
    c.topo.connect({src, 0}, {port, 0});
    c.topo.connect({port, 1}, {port, 1});
    c.topo.connect({port, 0}, {tail, 0});
    c.topo.connect({tail, 0}, {c.topo.add_sink("out"), 0});
    c.wires = {0.5, 3.0, 4.0, 0.5};
    cases.push_back(std::move(c));
  }
  return cases;
}

}  // namespace

int main() {
  benchutil::heading("A1: half vs full relay stations — cost and safety");

  Table t({"design", "station policy", "registers", "T measured",
           "worst-case liveness"});
  for (auto& c : make_cases()) {
    struct Policy {
      const char* name;
      bool prefer_half;
      bool demote_loops;
    };
    const Policy policies[] = {
        {"all full", false, false},
        {"half off-cycle (library default)", true, false},
        {"half everywhere (hazardous)", true, true},
    };
    for (const auto& pol : policies) {
      graph::Topology topo = c.topo;
      graph::WirePlanOptions opts;
      opts.prefer_half_off_cycle = pol.prefer_half;
      graph::plan_wire_pipelining(topo, c.wires, opts);
      if (pol.demote_loops) {
        const auto on_cycle = topo.channels_on_cycles();
        for (graph::ChannelId ch = 0; ch < topo.channels().size(); ++ch) {
          if (!on_cycle[ch]) continue;
          for (auto& k : topo.stations_mut(ch)) {
            k = graph::RsKind::kHalf;
          }
        }
      }
      const std::size_t registers =
          2 * topo.total_full_stations() + topo.total_half_stations();

      // Throughput via the skeleton (identical to full simulation).
      xir::ScalarEngine sk(topo);
      const auto res = sk.analyze();
      // Worst-case liveness.
      const auto verdict = xir::screen_for_deadlock(
          xir::lower(topo), /*worst_case_occupancy=*/true);

      t.add_row({c.name, pol.name, std::to_string(registers),
                 res.found ? res.system_throughput().str() : "?",
                 verdict.deadlock_found() ? "LATCH (potential deadlock)"
                                          : "safe"});
    }
  }
  t.print(std::cout);

  std::cout << "\nExpected shape: the default policy spends fewer registers\n"
               "than all-full at identical throughput and stays safe; the\n"
               "half-everywhere column shows the latent latch on loops the\n"
               "paper's liveness analysis forbids.\n";
  return 0;
}
