// Compiled-engine speedup — the xir subsystem must beat the interpreted
// skeleton where it matters: a settle-heavy deep half-station pipeline
// (the interpreter's unordered stop sweeps re-propagate one hop per
// sweep; the compiled engine's Kahn-ordered pass does it in one) and a
// 64-variant station-kind screen (one bit-sliced evaluation vs a
// per-variant interpreter loop).  Targets locked by the CI hard gate:
// >= 10x compiled scalar stepping, >= 100x sliced aggregate screening.
// Writes BENCH_xir.json with the engine mode in record + metadata.

#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "liplib/campaign/jobs.hpp"
#include "liplib/skeleton/skeleton.hpp"
#include "liplib/support/table.hpp"
#include "liplib/xir/sliced.hpp"
#include "liplib/xir/xir.hpp"

using namespace liplib;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

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
    for (auto& k : out.channel_mut(c).stations) k = kinds.at(next++);
  }
  return out;
}

Json record(const std::string& config, const char* engine,
            std::uint64_t scenario_cycles, double s, double speedup) {
  return Json::object()
      .set("config", config)
      .set("engine", engine)
      .set("scenario_cycles", scenario_cycles)
      .set("seconds", s)
      .set("mcycles_per_s", static_cast<double>(scenario_cycles) / s / 1e6)
      .set("speedup_vs_interp", speedup);
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t cycles = argc > 1 ? std::stoull(argv[1]) : 50000;
  Json records = Json::array();

  // ---- workload A: settle-heavy stepping, interp vs compiled ----------
  benchutil::heading("deep half-station pipeline stepping (8 x 24 half)");
  const graph::Topology pipe = make_half_pipeline(8, 24);
  // Alternate the sink's stop so the settled fixpoint changes every
  // cycle (no trivially cached steady state for either engine).
  const auto pipe_sink =
      static_cast<graph::NodeId>(pipe.nodes().size() - 1);

  double interp_step_s = 0;
  {
    skeleton::Skeleton sk(pipe);
    sk.set_sink_pattern(pipe_sink, {true, false});
    const auto t0 = Clock::now();
    sk.run(cycles);
    interp_step_s = seconds_since(t0);
  }
  double compiled_step_s = 0;
  {
    xir::ScalarEngine eng(pipe);
    eng.set_sink_pattern(pipe_sink, {true, false});
    const auto t0 = Clock::now();
    eng.run(cycles);
    compiled_step_s = seconds_since(t0);
  }
  const double scalar_speedup = interp_step_s / compiled_step_s;

  Table ta({"engine", "cycles", "seconds", "Mcycles/s", "speedup"});
  ta.add_row({"interp", std::to_string(cycles), std::to_string(interp_step_s),
              std::to_string(static_cast<double>(cycles) / interp_step_s / 1e6),
              "1.00x"});
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2fx", scalar_speedup);
  ta.add_row({"compiled", std::to_string(cycles),
              std::to_string(compiled_step_s),
              std::to_string(static_cast<double>(cycles) / compiled_step_s /
                             1e6),
              buf});
  ta.print(std::cout);
  records.push(record("half_pipeline_step", "interp", cycles, interp_step_s,
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
  // combinational stop chains — the regime the interpreter re-sweeps
  // one hop at a time.
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

  // Scenario-cycles: what the batch actually simulated, summed over
  // variants, so the aggregate rates compare like for like.
  auto screen_loop = [&](auto screen_one) {
    std::uint64_t scenario_cycles = 0;
    std::size_t deadlocks = 0;
    const auto t0 = Clock::now();
    for (const auto& variant : variants) {
      const auto verdict = screen_one(with_station_kinds(base, variant.kinds));
      scenario_cycles += verdict.cycles_simulated;
      deadlocks += verdict.deadlock_found ? 1 : 0;
    }
    return std::tuple(seconds_since(t0), scenario_cycles, deadlocks);
  };

  const auto [interp_s, interp_cycles, interp_deadlocks] =
      screen_loop([&](const graph::Topology& t) {
        skeleton::Skeleton sk(t, sopts.skeleton);
        const auto r = sk.analyze(kBudget);
        return skeleton::screening_verdict(r, sk.cycle());
      });
  const auto [compiled_s, compiled_cycles, compiled_deadlocks] =
      screen_loop([&](const graph::Topology& t) {
        return xir::screen_for_deadlock(t, sopts, kBudget);
      });

  std::uint64_t sliced_cycles = 0;
  std::size_t sliced_deadlocks = 0;
  double sliced_s = 0;
  {
    const auto t0 = Clock::now();
    const auto verdicts =
        xir::screen_variants(base, variants, sopts.skeleton, kBudget);
    sliced_s = seconds_since(t0);
    for (const auto& v : verdicts) {
      sliced_cycles += v.cycles_simulated;
      sliced_deadlocks += v.deadlock_found ? 1 : 0;
    }
  }
  if (compiled_deadlocks != interp_deadlocks ||
      sliced_deadlocks != interp_deadlocks) {
    std::cerr << "engine verdict mismatch: interp=" << interp_deadlocks
              << " compiled=" << compiled_deadlocks
              << " sliced=" << sliced_deadlocks << "\n";
    return 1;
  }

  const double compiled_screen_speedup = interp_s / compiled_s;
  const double sliced_speedup = interp_s / sliced_s;
  Table tb({"engine", "scenario cycles", "seconds", "Mcycles/s", "speedup"});
  auto row = [&](const char* name, std::uint64_t c, double s, double sp) {
    char b[32];
    std::snprintf(b, sizeof b, "%.2fx", sp);
    tb.add_row({name, std::to_string(c), std::to_string(s),
                std::to_string(static_cast<double>(c) / s / 1e6), b});
  };
  row("interp", interp_cycles, interp_s, 1.0);
  row("compiled", compiled_cycles, compiled_s, compiled_screen_speedup);
  row("sliced", sliced_cycles, sliced_s, sliced_speedup);
  tb.print(std::cout);
  std::cout << "(" << interp_deadlocks << "/64 variants deadlock)\n";
  records.push(record("mix_screen_64", "interp", interp_cycles, interp_s,
                      1.0));
  records.push(record("mix_screen_64", "compiled", compiled_cycles,
                      compiled_s, compiled_screen_speedup));
  records.push(record("mix_screen_64", "sliced", sliced_cycles, sliced_s,
                      sliced_speedup));

  // The subsystem's reason to exist; CI hard-gates the trajectory file,
  // this guards the absolute floor.
  if (scalar_speedup < 10.0 || sliced_speedup < 100.0) {
    std::cerr << "speedup below target: compiled " << scalar_speedup
              << "x (need 10x), sliced " << sliced_speedup
              << "x (need 100x)\n";
    return 1;
  }

  benchutil::write_bench_json(
      "xir", std::move(records),
      Json::object()
          .set("engines", Json::array()
                              .push("interp")
                              .push("compiled")
                              .push("sliced"))
          .set("targets", Json::object()
                              .set("compiled_step_speedup_min", 10.0)
                              .set("sliced_screen_speedup_min", 100.0)));
  return 0;
}
