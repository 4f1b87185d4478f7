// Telemetry overhead — the watchdog must ride a run for near-free: a
// guarded composite loop chain vs the bare system, at two flight-recorder
// depths, and the same guard counted in whole periods
// (telemetry::run_profiled), which must report the stepped guard's probe
// counts byte for byte at ≥ 10× its speed.  Also measures the bench-diff
// gate itself (parse + compare of a synthetic two-hundred-record artifact
// pair).  Each row is the best of benchutil::kGateReps alternating runs.
// Writes BENCH_telemetry.json.

#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "liplib/lip/system.hpp"
#include "liplib/telemetry/bench_diff.hpp"
#include "liplib/telemetry/watchdog.hpp"

using namespace liplib;

namespace {

Json synthetic_bench(const char* bench, std::size_t records, double scale) {
  Json recs = Json::array();
  for (std::size_t i = 0; i < records; ++i) {
    recs.push(Json::object()
                  .set("config", "case" + std::to_string(i))
                  .set("seconds", 0.5 + 0.001 * static_cast<double>(i))
                  .set("mcycles_per_s",
                       scale * (10.0 + static_cast<double>(i % 7))));
  }
  return Json::object()
      .set("schema", "liplib.bench/1")
      .set("bench", bench)
      .set("records", std::move(recs));
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t cycles = argc > 1 ? std::stoull(argv[1]) : 200000;
  benchutil::heading("watchdog overhead on a composite loop chain");

  const std::vector<graph::RingSpec> specs = {{1, 2}, {2, 6}, {1, 3}};
  auto design = benchutil::make_design(graph::make_loop_chain(specs));

  // A fresh system per run, guarded by a watchdog with a `ring`-cycle
  // flight recorder (none for the baseline) and stepped by `profiled`
  // (telemetry::run_profiled) or every cycle; each run keeps its
  // probe report and the cycles it stepped.
  std::string reports[4];
  std::uint64_t stepped[4] = {};
  auto guarded = [&](std::size_t row, std::uint64_t ring, bool profiled) {
    return [=, &design, &reports, &stepped] {
      auto sys = design.instantiate();
      telemetry::WatchdogOptions wopts;
      wopts.ring_cycles = ring ? ring : 256;
      telemetry::Watchdog dog(wopts);
      if (ring == 0) {
        sys->run(cycles);
      } else {
        dog.attach(*sys);
        profiled ? telemetry::run_profiled(*sys, dog, cycles)
                 : telemetry::run_guarded(*sys, dog, cycles);
        reports[row] = dog.probe().report().to_json().dump();
      }
      stepped[row] = sys->cycle();
    };
  };
  std::vector<Json> rows = benchutil::overhead_table(
      {"no watchdog", "watchdog ring=256", "profile (whole periods)",
       "watchdog ring=4096"},
      {guarded(0, 0, false), guarded(1, 256, false), guarded(2, 256, true),
       guarded(3, 4096, false)},
      cycles);
  // The whole-period profile must count what the stepped guard (ring
  // 256) counts, from a fraction of the steps.
  const double profile_speedup = rows[1].find("seconds")->as_double() /
                                 rows[2].find("seconds")->as_double();
  const bool profile_report_equal = reports[2] == reports[1];
  rows[2]
      .set("stepped_cycles", stepped[2])
      .set("speedup_vs_stepped", profile_speedup)
      .set("report_equals_stepped", profile_report_equal);
  Json records = Json::array();
  for (Json& r : rows) records.push(std::move(r));
  std::cout << "profile (whole periods): " << profile_speedup
            << "x the stepped guard, probe report "
            << (profile_report_equal ? "identical" : "DIFFERENT") << "\n";
  if (!profile_report_equal || profile_speedup < 10.0) {
    std::cerr << "whole-period profile below target: report "
              << (profile_report_equal ? "equal" : "differs") << ", "
              << profile_speedup << "x (need equal and 10x)\n";
    return 1;
  }

  benchutil::heading("bench-diff gate throughput");
  {
    const std::size_t n = 200;
    const std::size_t reps = 200;
    const Json oldb = synthetic_bench("synthetic", n, 1.0);
    const Json newb = synthetic_bench("synthetic", n, 0.95);
    const std::string old_text = oldb.dump(2);
    const std::string new_text = newb.dump(2);
    std::size_t deltas = 0;
    const double s = benchutil::best_seconds(benchutil::kGateReps, {[&] {
      deltas = 0;
      for (std::size_t i = 0; i < reps; ++i) {
        const auto diff = telemetry::bench_diff(Json::parse(old_text),
                                                Json::parse(new_text));
        deltas += diff.deltas.size();
      }
    }})[0];
    const double per_s = static_cast<double>(reps) / s;
    std::cout << reps << " diffs of " << n << "-record artifacts ("
              << deltas / reps << " fields each): " << s << " s = " << per_s
              << " diffs/s\n";
    records.push(Json::object()
                     .set("config", "bench_diff")
                     .set("records_per_artifact", n)
                     .set("reps", reps)
                     .set("seconds", s)
                     .set("diffs_per_s", per_s));
  }

  benchutil::write_bench_json(
      "telemetry", std::move(records),
      Json::object().set(
          "targets",
          Json::object().set("profile_whole_periods_speedup_min", 10.0)));
  return 0;
}
