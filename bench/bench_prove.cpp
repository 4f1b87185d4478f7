// Prover frontier throughput — the 64-way bit-sliced search frontier vs
// the scalar reference path (formal::check_safety over the SkeletonModel
// adapter).  Two regimes:
//
//  * the 300-suite random-composite corpus (the differential-testing
//    workload) — verdict/state agreement is hard-gated, the speedup is
//    recorded as a trajectory;
//  * a wide-fanout settle-heavy corpus (5-sink forks over half-station
//    chains), where every state expands against 32 environment masks and
//    the batch fills all 64 lanes — here the bit-sliced settle is the
//    subsystem's reason to exist and the speedup is hard-gated at >= 10x,
//    each frontier timed as the best of 3 x benchutil::kGateReps
//    alternating passes (the CI bench-smoke job also gates the
//    BENCH_prove.json trajectory).
//
// The composite corpus cannot reach 10x: its designs average a handful of
// sinks' worth of environment masks and a shallow frontier, so the
// per-state visited-set bookkeeping (which is not sliced) dominates.
// On a 4-core shared host (Release, 120 designs) it reads 5.2-5.4x from
// reset and 2.2-2.4x under worst-case occupancy, where the corpus
// explores only ~10k states and the per-proof work that is not sliced
// (lowering, certificates, the token audit's greedy replay up to its
// first repeated state) weighs more.

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "liplib/campaign/campaign.hpp"
#include "liplib/graph/generators.hpp"
#include "liplib/prove/prove.hpp"
#include "liplib/support/rng.hpp"
#include "liplib/support/table.hpp"

using namespace liplib;

namespace {

/// The 300-suite recipe (prove_test / campaign cross-checks): random
/// composites, half stations allowed on loops for half the seeds.
std::vector<graph::Topology> make_composite_corpus(std::size_t n) {
  std::vector<graph::Topology> corpus;
  corpus.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Rng rng(campaign::job_seed(7, i));
    const std::size_t segments = 1 + rng.below(4);
    const bool risky = rng.chance(1, 2);
    corpus.push_back(graph::make_random_composite(rng, segments,
                                                  /*allow_half=*/true,
                                                  /*allow_half_in_loops=*/
                                                  risky)
                         .topo);
  }
  return corpus;
}

/// Source -> 1-in/5-out fork shell -> five branches of `stations` half
/// stations -> five sinks.  Five independent sinks mean 32 environment
/// stop masks per state, so every expansion batch fills all 64 lanes and
/// the combinational stop settle amortizes across the whole word.
graph::Topology make_fanout(std::size_t stations) {
  constexpr std::size_t kBranches = 5;
  graph::Topology t;
  const graph::NodeId src = t.add_source("src");
  const graph::NodeId fork = t.add_process("fork", 1, kBranches);
  t.connect({src, 0}, {fork, 0}, {graph::RsKind::kFull});
  for (std::size_t b = 0; b < kBranches; ++b) {
    const graph::NodeId sink = t.add_sink("out" + std::to_string(b));
    t.connect({fork, b}, {sink, 0},
              std::vector<graph::RsKind>(stations, graph::RsKind::kHalf));
  }
  return t;
}

std::vector<graph::Topology> make_fanout_corpus() {
  std::vector<graph::Topology> corpus;
  for (const std::size_t stations : {2u, 3u, 4u}) {
    corpus.push_back(make_fanout(stations));
  }
  return corpus;
}

struct RunStats {
  double seconds = 0;
  std::uint64_t states = 0;
  std::uint64_t transitions = 0;
  std::vector<prove::Verdict> verdicts;
};

/// Proves the corpus once; the caller times it.
RunStats run_corpus(const std::vector<graph::Topology>& corpus,
                    bool sliced, bool worst_case) {
  RunStats stats;
  for (const auto& topo : corpus) {
    prove::ProveOptions opts;
    opts.method = prove::Method::kReachability;
    opts.sliced_frontier = sliced;
    opts.worst_case_occupancy = worst_case;
    const auto r = prove::prove(topo, opts);
    stats.states += r.states_explored;
    stats.transitions += r.transitions;
    stats.verdicts.push_back(r.verdict);
  }
  return stats;
}

Json record(const char* config, const char* engine, const RunStats& s,
            double speedup) {
  return Json::object()
      .set("config", config)
      .set("engine", engine)
      .set("states", s.states)
      .set("transitions", s.transitions)
      .set("seconds", s.seconds)
      .set("kstates_per_s", static_cast<double>(s.states) / s.seconds / 1e3)
      .set("speedup_vs_scalar", speedup);
}

struct Config {
  const char* name;
  const char* blurb;
  std::vector<graph::Topology> corpus;
  bool worst_case;
  bool gated;
};

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::stoull(argv[1]) : 120;
  const auto composites = make_composite_corpus(n);

  std::vector<Config> configs;
  configs.push_back({"composite_reset", "from reset", composites,
                     /*worst_case=*/false, /*gated=*/false});
  configs.push_back({"composite_worst_case", "worst-case occupancy",
                     composites, /*worst_case=*/true, /*gated=*/false});
  configs.push_back({"fanout_settle", "5-sink fanout, from reset",
                     make_fanout_corpus(), /*worst_case=*/false,
                     /*gated=*/true});

  Json records = Json::array();
  double gated_speedup = 1e9;

  for (const Config& cfg : configs) {
    std::string title = "exhaustive reachability, ";
    title += std::to_string(cfg.corpus.size());
    title += " designs (";
    title += cfg.blurb;
    title += cfg.gated ? "; gated)" : ")";
    benchutil::heading(title);
    RunStats scalar, sliced;
    const auto seconds = benchutil::best_seconds(
        // A gated sliced pass lasts only ~40-70 ms, short enough for one
        // burst of host load to hit all kGateReps of them: triple them.
        cfg.gated ? 3 * benchutil::kGateReps : 1,
        {[&] { scalar = run_corpus(cfg.corpus, false, cfg.worst_case); },
         [&] { sliced = run_corpus(cfg.corpus, true, cfg.worst_case); }});
    scalar.seconds = seconds[0];
    sliced.seconds = seconds[1];
    if (scalar.verdicts != sliced.verdicts ||
        scalar.states != sliced.states) {
      std::cerr << "frontier disagreement on " << cfg.name << ": scalar "
                << scalar.states << " states, sliced " << sliced.states
                << " states\n";
      return 1;
    }
    const double speedup = scalar.seconds / sliced.seconds;
    if (cfg.gated) gated_speedup = std::min(gated_speedup, speedup);

    Table t({"frontier", "states", "transitions", "seconds", "kstates/s",
             "speedup"});
    auto row = [&](const char* name, const RunStats& s, double sp) {
      char b[32];
      std::snprintf(b, sizeof b, "%.2fx", sp);
      t.add_row({name, std::to_string(s.states),
                 std::to_string(s.transitions), std::to_string(s.seconds),
                 std::to_string(static_cast<double>(s.states) / s.seconds /
                                1e3),
                 b});
    };
    row("scalar", scalar, 1.0);
    row("sliced", sliced, speedup);
    t.print(std::cout);
    records.push(record(cfg.name, "scalar", scalar, 1.0));
    records.push(record(cfg.name, "sliced", sliced, speedup));
  }

  // The bit-sliced frontier's floor: with every lane of the word in use,
  // 64 expansions per settle pass must buy an order of magnitude in
  // aggregate states/second.
  if (gated_speedup < 10.0) {
    std::cerr << "sliced frontier speedup below target on fanout_settle: "
              << gated_speedup << "x (need 10x)\n";
    return 1;
  }

  benchutil::write_bench_json(
      "prove", std::move(records),
      Json::object()
          .set("engines", Json::array().push("scalar").push("sliced"))
          .set("gated_config", "fanout_settle")
          .set("gate_min_speedup", 10.0));
  return 0;
}
