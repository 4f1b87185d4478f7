// Telemetry overhead — the watchdog must ride a run for near-free: a
// guarded composite loop chain vs the bare system, at two flight-recorder
// depths, and the same guard counted in whole periods
// (telemetry::run_profiled), which must report the stepped guard's probe
// counts byte for byte at ≥ 10× its speed.  Also measures the bench-diff
// gate itself (parse + compare of a synthetic two-hundred-record artifact
// pair).  Writes BENCH_telemetry.json.

#include <chrono>
#include <iostream>
#include <string>

#include "bench_util.hpp"
#include "liplib/lip/system.hpp"
#include "liplib/support/table.hpp"
#include "liplib/telemetry/bench_diff.hpp"
#include "liplib/telemetry/watchdog.hpp"

using namespace liplib;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

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

  struct Config {
    const char* name;
    bool guard = false;
    std::uint64_t ring = 0;
    bool whole_periods = false;  ///< telemetry::run_profiled
  };
  const Config configs[] = {
      {"no watchdog"},
      {"watchdog ring=256", true, 256},
      {"profile (whole periods)", true, 256, true},
      {"watchdog ring=4096", true, 4096},
  };

  Json records = Json::array();
  Table t({"config", "cycles", "seconds", "Mcycles/s", "vs baseline"});
  double baseline = 0;
  double stepped_s = 0;
  std::string stepped_report;
  double profile_speedup = 0;
  bool profile_report_equal = false;
  for (const auto& c : configs) {
    auto sys = design.instantiate();
    telemetry::WatchdogOptions wopts;
    wopts.ring_cycles = c.ring ? c.ring : 256;
    telemetry::Watchdog dog(wopts);
    if (c.guard) dog.attach(*sys);

    const auto t0 = Clock::now();
    if (c.whole_periods) {
      telemetry::run_profiled(*sys, dog, cycles);
    } else if (c.guard) {
      telemetry::run_guarded(*sys, dog, cycles);
    } else {
      sys->run(cycles);
    }
    const double s = seconds_since(t0);

    const double mcps = static_cast<double>(cycles) / s / 1e6;
    if (baseline == 0) baseline = s;
    const double ratio = s / baseline;
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2fx", ratio);
    t.add_row({c.name, std::to_string(cycles), std::to_string(s),
               std::to_string(mcps), buf});
    Json rec = Json::object()
                   .set("config", c.name)
                   .set("cycles", cycles)
                   .set("seconds", s)
                   .set("mcycles_per_s", mcps)
                   .set("overhead_vs_baseline", ratio);
    // The whole-period profile must count what the stepped guard counts,
    // from a fraction of the steps.
    if (c.guard && c.ring == 256 && !c.whole_periods) {
      stepped_s = s;
      stepped_report = dog.probe().report().to_json().dump();
    }
    if (c.whole_periods) {
      profile_speedup = stepped_s / s;
      profile_report_equal =
          dog.probe().report().to_json().dump() == stepped_report;
      rec.set("stepped_cycles", sys->cycle())
          .set("speedup_vs_stepped", profile_speedup)
          .set("report_equals_stepped", profile_report_equal);
    }
    records.push(std::move(rec));
  }
  t.print(std::cout);
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
    const auto t0 = Clock::now();
    std::size_t deltas = 0;
    for (std::size_t i = 0; i < reps; ++i) {
      const auto diff = telemetry::bench_diff(Json::parse(old_text),
                                              Json::parse(new_text));
      deltas += diff.deltas.size();
    }
    const double s = seconds_since(t0);
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
