// Probe overhead — the ISSUE's acceptance bar: a system with no probe
// attached must pay exactly one null-pointer test per step, and the
// instrumented configurations must degrade gracefully (counters <
// counters+attribution < +trace).  Also measures the raw trace-sink
// write throughput.  Each row is the best of benchutil::kGateReps
// alternating runs.  Writes BENCH_probe.json.

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "liplib/lip/system.hpp"
#include "liplib/probe/probe.hpp"
#include "liplib/probe/trace.hpp"

using namespace liplib;

namespace {

/// Writes `events` span events (and a counter event every 16th) to a
/// sink on /dev/null; returns the bytes written.  Out of line, so the
/// timed loop does not move with the code laid out around it.
[[gnu::noinline]] std::uint64_t write_trace_events(std::uint64_t events) {
  std::ofstream null_os("/dev/null");
  probe::TraceSink sink(null_os);
  for (std::uint64_t i = 0; i < events; ++i) {
    sink.complete_event("fire", "shell", i, 1, 1, 1 + (i & 7));
    if ((i & 15) == 0) {
      sink.counter_event("occ", i, 1, {{"valid", i & 3}, {"stop", i & 1}});
    }
  }
  sink.finish();
  return sink.bytes_written();
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t cycles = argc > 1 ? std::stoull(argv[1]) : 200000;
  benchutil::heading("probe overhead on a composite loop chain");

  // The same workload as bench_throughput_composite's largest case.
  const std::vector<graph::RingSpec> specs = {{1, 2}, {2, 6}, {1, 3}};
  auto design = benchutil::make_design(graph::make_loop_chain(specs));

  // A fresh system per run, under one probe configuration.
  auto probed = [&](bool attach, bool counters, bool attribution,
                    bool trace) {
    return [=, &design] {
      auto sys = design.instantiate();
      std::ofstream null_os("/dev/null");
      probe::TraceSink sink(null_os);
      probe::Probe probe({.counters = counters,
                          .attribution = attribution,
                          .trace = trace ? &sink : nullptr,
                          .observer = nullptr});
      if (attach) sys->attach_probe(probe);
      sys->run(cycles);
      probe.finish_trace();
    };
  };
  Json records = Json::array();
  for (Json& r : benchutil::overhead_table(
           {"no probe", "counters", "counters+attribution",
            "counters+attribution+trace"},
           {probed(false, false, false, false), probed(true, true, false, false),
            probed(true, true, true, false), probed(true, true, true, true)},
           cycles)) {
    records.push(std::move(r));
  }

  benchutil::heading("trace sink write throughput");
  {
    const std::uint64_t events = 2000000;
    std::uint64_t bytes = 0;
    const double s = benchutil::best_seconds(
        benchutil::kGateReps,
        {[&] { bytes = write_trace_events(events); }})[0];
    const double mb = static_cast<double>(bytes) / 1e6;
    std::cout << events << " span events + " << events / 16
              << " counter events: " << mb << " MB in " << s << " s = "
              << mb / s << " MB/s\n";
    records.push(Json::object()
                     .set("config", "trace_write")
                     .set("events", events)
                     .set("bytes", bytes)
                     .set("seconds", s)
                     .set("mb_per_s", mb / s));
  }

  benchutil::write_bench_json("probe", std::move(records));
  return 0;
}
