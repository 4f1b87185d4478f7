// Experiment M1 — the paper's formal verification (done there with SMV):
// shells elaborate coherent data, produce outputs in order and skip none;
// relay stations produce outputs in order, skip none, and keep their
// output on asserted stops — each under the environment assumption that
// inputs hold their values on asserted stops.
//
// Reports, per obligation: verdict, reachable state count, transitions —
// and times the exhaustive exploration with google-benchmark.

#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_util.hpp"
#include "liplib/formal/checker.hpp"
#include "liplib/formal/protocol_models.hpp"
#include "liplib/support/table.hpp"

using namespace liplib;
using graph::RsKind;
using lip::StopPolicy;

namespace {

struct Obligation {
  std::string name;
  std::unique_ptr<formal::Model> model;
};

std::vector<Obligation> obligations() {
  std::vector<Obligation> obs;
  for (auto pol : {StopPolicy::kCarloniStrict, StopPolicy::kCasuDiscardOnVoid}) {
    const std::string p = lip::policy_name(pol);
    obs.push_back({"full RS, " + p,
                   formal::make_relay_station_model(RsKind::kFull, pol)});
    obs.push_back({"half RS, " + p,
                   formal::make_relay_station_model(RsKind::kHalf, pol)});
    obs.push_back({"shell 1-in 1-out, " + p,
                   formal::make_shell_model(1, 1, pol)});
    obs.push_back({"shell 2-in (coherence), " + p,
                   formal::make_shell_model(2, 1, pol)});
    obs.push_back({"shell fanout 2, " + p,
                   formal::make_shell_model(1, 2, pol)});
    obs.push_back({"buffered shell depth 1, " + p,
                   formal::make_buffered_shell_model(1, pol)});
    obs.push_back({"buffered shell depth 2, " + p,
                   formal::make_buffered_shell_model(2, pol)});
    obs.push_back({"chain shell-RS-shell (full), " + p,
                   formal::make_chain_model(RsKind::kFull, pol)});
    obs.push_back({"chain shell-RS-shell (half), " + p,
                   formal::make_chain_model(RsKind::kHalf, pol)});
  }
  return obs;
}

void BM_CheckFullRs(benchmark::State& state) {
  for (auto _ : state) {
    auto model = formal::make_relay_station_model(
        RsKind::kFull, StopPolicy::kCasuDiscardOnVoid);
    auto result = formal::check_safety(*model);
    benchmark::DoNotOptimize(result.states_explored);
  }
}

void BM_CheckShell2In(benchmark::State& state) {
  for (auto _ : state) {
    auto model =
        formal::make_shell_model(2, 1, StopPolicy::kCasuDiscardOnVoid);
    auto result = formal::check_safety(*model);
    benchmark::DoNotOptimize(result.states_explored);
  }
}

void BM_CheckChain(benchmark::State& state) {
  for (auto _ : state) {
    auto model = formal::make_chain_model(RsKind::kFull,
                                          StopPolicy::kCasuDiscardOnVoid);
    auto result = formal::check_safety(*model);
    benchmark::DoNotOptimize(result.states_explored);
  }
}

}  // namespace

BENCHMARK(BM_CheckFullRs)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CheckShell2In)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CheckChain)->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  benchutil::heading("M1: formal verification of the protocol blocks");

  Table t({"obligation", "verdict", "reachable states", "transitions"});
  for (auto& ob : obligations()) {
    const auto result = formal::check_safety(*ob.model);
    t.add_row({ob.name,
               result.ok ? "VERIFIED"
                         : ("VIOLATED: " + result.violation),
               std::to_string(result.states_explored),
               std::to_string(result.transitions)});
  }
  t.print(std::cout);

  std::cout << "\nProperties per obligation: in-order outputs, no skipped\n"
               "or duplicated valid output, output held on asserted stop,\n"
               "and (2-input shells) coherent consumption of the input\n"
               "streams.  Environments are maximally nondeterministic\n"
               "subject to the paper's assumption (hold on stop).\n\n";

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
