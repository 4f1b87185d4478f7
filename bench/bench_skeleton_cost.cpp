// Experiment S1 — "we are allowed to simulate just the skeleton of the
// system consisting of stop and valid signals, thus the simulation cost
// is absolutely negligible".
//
// Benchmarks cycles/second of the three execution engines on the same
// designs: full-data cycle simulation (lip::System), control-plane-only
// skeleton simulation (the compiled xir::ScalarEngine the screens run
// on), and the event-driven RTL netlist — the cost ordering the paper's
// screening recipe relies on.

#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_util.hpp"
#include "liplib/rtl/rtl_system.hpp"
#include "liplib/support/table.hpp"
#include "liplib/xir/xir.hpp"

using namespace liplib;

namespace {

graph::Generated make_case(int which) {
  switch (which) {
    case 0:
      return graph::make_pipeline(8, 2);
    case 1:
      return graph::make_reconvergent(1, 3, 2);
    case 2:
      return graph::make_loop_chain({{2, 4}, {1, 3}, {2, 5}});
    default:
      return graph::make_tree(4, 2);
  }
}

const char* case_name(int which) {
  switch (which) {
    case 0:
      return "pipeline8";
    case 1:
      return "reconvergent";
    case 2:
      return "loop_chain";
    default:
      return "tree16";
  }
}

void BM_FullSystem(benchmark::State& state) {
  auto gen = make_case(static_cast<int>(state.range(0)));
  auto d = benchutil::make_design(std::move(gen));
  auto sys = d.instantiate();
  for (auto _ : state) {
    sys->step();
    benchmark::DoNotOptimize(sys->cycle());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_Skeleton(benchmark::State& state) {
  auto gen = make_case(static_cast<int>(state.range(0)));
  xir::ScalarEngine sk(gen.topo);
  for (auto _ : state) {
    sk.step();
    benchmark::DoNotOptimize(sk.cycle());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_RtlEventDriven(benchmark::State& state) {
  auto gen = make_case(static_cast<int>(state.range(0)));
  rtl::RtlSystem rtl(gen.topo);
  for (auto p : gen.processes) {
    const auto& node = gen.topo.node(p);
    rtl.bind_pearl(p, benchutil::default_pearl(node.num_inputs,
                                               node.num_outputs));
  }
  for (auto _ : state) {
    rtl.run_cycles(1);
    benchmark::DoNotOptimize(rtl.cycles_run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

}  // namespace

BENCHMARK(BM_FullSystem)->DenseRange(0, 3)->ArgNames({"design"});
BENCHMARK(BM_Skeleton)->DenseRange(0, 3)->ArgNames({"design"});
BENCHMARK(BM_RtlEventDriven)->DenseRange(0, 3)->ArgNames({"design"});

int main(int argc, char** argv) {
  benchutil::heading("S1: skeleton simulation cost (paper: negligible)");

  // Static cost: bytes of state each engine tracks per design.
  Table t({"design", "skeleton state bytes", "protocol state bytes (full)"});
  for (int i = 0; i < 4; ++i) {
    auto gen = make_case(i);
    xir::ScalarEngine sk(gen.topo);
    auto d = benchutil::make_design(std::move(gen));
    auto sys = d.instantiate();
    t.add_row({case_name(i), std::to_string(sk.state_key().size()),
               std::to_string(sys->protocol_state().size())});
  }
  t.print(std::cout);
  std::cout << "\nDynamic cost (cycles/second), per engine:\n\n";

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
