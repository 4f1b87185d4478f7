// Compiled-engine speedup — the xir engines against the reference model
// they are held to, lip::System, on settle-heavy work: a deep
// half-station pipeline, one long combinational stop chain (System
// settles it with a worklist, the compiled engine with a Kahn order fixed
// at lowering), and a 64-variant station-kind screen (one bit-sliced
// evaluation vs a per-variant measure_steady_state loop).  The CI hard
// gate holds the floors below, each side of a ratio timed as the best of
// benchutil::kGateReps alternating runs.  Writes BENCH_xir.json with the
// engine in record + metadata.

#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "liplib/campaign/jobs.hpp"
#include "liplib/lip/design.hpp"
#include "liplib/lip/steady_state.hpp"
#include "liplib/skeleton/skeleton.hpp"
#include "liplib/support/table.hpp"
#include "liplib/xir/sliced.hpp"
#include "liplib/xir/xir.hpp"

using namespace liplib;

namespace {

// Feed-forward pipeline of `stages` shells whose inter-shell channels
// each carry `stations` half relay stations: the stop network is one
// long combinational chain, so settle cost dominates the cycle.
graph::Topology make_half_pipeline(std::size_t stages, std::size_t stations) {
  graph::Topology t;
  const graph::NodeId src = t.add_source("src");
  std::vector<graph::NodeId> shells;
  for (std::size_t i = 0; i < stages; ++i) {
    shells.push_back(t.add_process("p" + std::to_string(i), 1, 1));
  }
  const graph::NodeId sink = t.add_sink("out");
  t.connect({src, 0}, {shells.front(), 0}, {graph::RsKind::kFull});
  for (std::size_t i = 1; i < stages; ++i) {
    t.connect({shells[i - 1], 0}, {shells[i], 0},
              std::vector<graph::RsKind>(stations, graph::RsKind::kHalf));
  }
  t.connect({shells.back(), 0}, {sink, 0}, {graph::RsKind::kFull});
  return t;
}

graph::Topology with_station_kinds(const graph::Topology& topo,
                                   const std::vector<graph::RsKind>& kinds) {
  graph::Topology out = topo;
  std::size_t next = 0;
  for (graph::ChannelId c = 0; c < out.channels().size(); ++c) {
    for (auto& k : out.stations_mut(c)) k = kinds.at(next++);
  }
  return out;
}

// The full-data reference: identity pearls on every shell, counter
// sources, greedy sinks.
lip::Design identity_design(const graph::Topology& topo) {
  lip::Design d(topo);
  for (graph::NodeId v = 0; v < topo.nodes().size(); ++v) {
    if (topo.node(v).kind == graph::NodeKind::kProcess) {
      d.set_pearl(v, pearls::make_identity());
    }
  }
  return d;
}

Json record(const std::string& config, const char* engine,
            std::uint64_t scenario_cycles, double s, double speedup) {
  return Json::object()
      .set("config", config)
      .set("engine", engine)
      .set("scenario_cycles", scenario_cycles)
      .set("seconds", s)
      .set("mcycles_per_s", static_cast<double>(scenario_cycles) / s / 1e6)
      .set("speedup_vs_system", speedup);
}

// The gate floors: 10x and 100x over the interpreted skeleton these
// engines replaced as the baseline, scaled by System's measured cost
// over it on these two workloads (stepping x1.05-1.17, screening
// x1.16-1.31) and rounded up to 12x and 131x; then divided by System's
// own speed-up when its stop settle became one ordered pass, the
// smallest over 5 alternating `bench_xir 20000` runs (stepping x18.9,
// screening x15.7), and rounded up.  Each rescaling keeps the gate as
// strict on the compiled and sliced engines' own times.  The stepping
// floor is below 1x: it guards the compiled engine's stepping against
// regression and does not show a speed-up over System.
constexpr double kScalarFloor = 0.64;
constexpr double kSlicedFloor = 8.4;

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t cycles = argc > 1 ? std::stoull(argv[1]) : 50000;
  Json records = Json::array();

  // ---- workload A: settle-heavy stepping, System vs compiled ----------
  benchutil::heading("deep half-station pipeline stepping (8 x 24 half)");
  const graph::Topology pipe = make_half_pipeline(8, 24);
  // Alternate the sink's stop so the settled fixpoint changes every
  // cycle (no trivially cached steady state for either engine).
  const auto pipe_sink =
      static_cast<graph::NodeId>(pipe.nodes().size() - 1);

  // Each repetition steps the same run `cycles` further.
  lip::Design d = identity_design(pipe);
  d.set_sink(pipe_sink, lip::SinkBehavior::script({true, false}));
  const auto sys = d.instantiate();
  xir::ScalarEngine eng(pipe);
  eng.set_sink_pattern(pipe_sink, {true, false});
  const auto step_s = benchutil::best_seconds(
      benchutil::kGateReps,
      {[&] { sys->run(cycles); }, [&] { eng.run(cycles); }});
  const double system_step_s = step_s[0];
  const double compiled_step_s = step_s[1];
  const double scalar_speedup = system_step_s / compiled_step_s;

  Table ta({"engine", "cycles", "seconds", "Mcycles/s", "speedup"});
  ta.add_row({"system", std::to_string(cycles), std::to_string(system_step_s),
              std::to_string(static_cast<double>(cycles) / system_step_s / 1e6),
              "1.00x"});
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2fx", scalar_speedup);
  ta.add_row({"compiled", std::to_string(cycles),
              std::to_string(compiled_step_s),
              std::to_string(static_cast<double>(cycles) / compiled_step_s /
                             1e6),
              buf});
  ta.print(std::cout);
  records.push(record("half_pipeline_step", "system", cycles, system_step_s,
                      1.0));
  records.push(record("half_pipeline_step", "compiled", cycles,
                      compiled_step_s, scalar_speedup));

  // ---- workload B: 64-variant screening, per-variant loop vs sliced ---
  benchutil::heading("64-variant station-kind screen (cure-style)");
  constexpr std::uint64_t kBudget = 1u << 16;
  constexpr std::uint64_t kBaseSeed = 1;
  // Cure-style variants of a deeper settle-heavy pipeline: each lane
  // upgrades a random ~1/64 of the half stations to full (the paper's
  // low-intrusive cure move), leaving every lane dominated by long
  // combinational stop chains.
  const graph::Topology base = make_half_pipeline(8, 64);
  const std::size_t num_stations = [&] {
    std::size_t n = 0;
    for (graph::ChannelId c = 0; c < base.channels().size(); ++c) {
      n += base.channels()[c].stations.size();
    }
    return n;
  }();
  std::vector<xir::VariantSpec> variants(64);
  for (std::size_t v = 0; v < variants.size(); ++v) {
    Rng rng(campaign::job_seed(kBaseSeed, v));
    variants[v].kinds.resize(num_stations);
    for (auto& k : variants[v].kinds) {
      k = rng.chance(1, 64) ? graph::RsKind::kFull : graph::RsKind::kHalf;
    }
  }
  skeleton::ScreeningOptions sopts;

  // One steady state per variant from each engine.
  std::vector<lip::SteadyState> by_system, by_compiled, by_sliced;
  const auto screen_s = benchutil::best_seconds(
      benchutil::kGateReps,
      {[&] {
         by_system.clear();
         for (const auto& variant : variants) {
           const auto one =
               identity_design(with_station_kinds(base, variant.kinds))
                   .instantiate();
           by_system.push_back(lip::measure_steady_state(*one, kBudget));
         }
       },
       [&] {
         by_compiled.clear();
         for (const auto& variant : variants) {
           by_compiled.push_back(xir::screen_for_deadlock(
               with_station_kinds(base, variant.kinds), sopts, kBudget));
         }
       },
       [&] {
         by_sliced =
             xir::screen_variants(base, variants, sopts.skeleton, kBudget);
       }});
  // Scenario-cycles: what the batch actually simulated, summed over
  // variants, so the aggregate rates compare like for like.
  struct Screen {
    double seconds = 0;
    std::uint64_t cycles = 0;
    std::size_t deadlocks = 0;
  };
  auto tally = [](double seconds, const std::vector<lip::SteadyState>& all) {
    Screen s{seconds};
    for (const auto& a : all) {
      s.cycles += a.cycles;
      s.deadlocks += a.deadlock_found() ? 1 : 0;
    }
    return s;
  };
  const Screen system = tally(screen_s[0], by_system);
  const Screen compiled = tally(screen_s[1], by_compiled);
  const Screen sliced = tally(screen_s[2], by_sliced);
  if (compiled.deadlocks != system.deadlocks ||
      sliced.deadlocks != system.deadlocks) {
    std::cerr << "engine verdict mismatch: system=" << system.deadlocks
              << " compiled=" << compiled.deadlocks
              << " sliced=" << sliced.deadlocks << "\n";
    return 1;
  }

  const double compiled_screen_speedup = system.seconds / compiled.seconds;
  const double sliced_speedup = system.seconds / sliced.seconds;
  Table tb({"engine", "scenario cycles", "seconds", "Mcycles/s", "speedup"});
  auto row = [&](const char* name, std::uint64_t c, double s, double sp) {
    char b[32];
    std::snprintf(b, sizeof b, "%.2fx", sp);
    tb.add_row({name, std::to_string(c), std::to_string(s),
                std::to_string(static_cast<double>(c) / s / 1e6), b});
  };
  row("system", system.cycles, system.seconds, 1.0);
  row("compiled", compiled.cycles, compiled.seconds, compiled_screen_speedup);
  row("sliced", sliced.cycles, sliced.seconds, sliced_speedup);
  tb.print(std::cout);
  std::cout << "(" << system.deadlocks << "/64 variants deadlock)\n";
  records.push(record("mix_screen_64", "system", system.cycles,
                      system.seconds, 1.0));
  records.push(record("mix_screen_64", "compiled", compiled.cycles,
                      compiled.seconds, compiled_screen_speedup));
  records.push(record("mix_screen_64", "sliced", sliced.cycles,
                      sliced.seconds, sliced_speedup));

  // The subsystem's reason to exist; CI hard-gates the trajectory file,
  // this guards the absolute floor.
  if (scalar_speedup < kScalarFloor || sliced_speedup < kSlicedFloor) {
    std::cerr << "speedup below target: compiled " << scalar_speedup
              << "x (need " << kScalarFloor << "x), sliced "
              << sliced_speedup << "x (need " << kSlicedFloor << "x)\n";
    return 1;
  }

  benchutil::write_bench_json(
      "xir", std::move(records),
      Json::object()
          .set("reference", "lip::System with a worklist stop settle")
          .set("engines", Json::array()
                              .push("system")
                              .push("compiled")
                              .push("sliced"))
          .set("targets",
               Json::object()
                   .set("compiled_step_speedup_min", kScalarFloor)
                   .set("sliced_screen_speedup_min", kSlicedFloor)));
  return 0;
}
