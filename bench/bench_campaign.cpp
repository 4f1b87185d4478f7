// Campaign engine scaling: jobs/second of a mass skeleton-screening
// campaign at 1/2/4/8 worker threads, plus the determinism check that
// the aggregated report is byte-identical at every thread count.
//
// The workload is the paper's screening recipe at fleet scale: 320
// skeleton deadlock screens (converted-random composites and
// reconvergent families, reset and worst-case occupancy) — each run
// "absolutely negligible", the fleet embarrassingly parallel.  Emits
// BENCH_campaign.json with one record per thread count.

#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "liplib/campaign/campaign.hpp"
#include "liplib/campaign/jobs.hpp"
#include "liplib/campaign/report.hpp"
#include "liplib/graph/generators.hpp"
#include "liplib/support/table.hpp"

using namespace liplib;
using namespace liplib::campaign;

namespace {

/// A >= 256-job screening campaign over generated design families.
std::vector<Job> make_screening_campaign() {
  std::vector<Job> jobs;
  // 192 randomized composite screens (reset + worst case alternating),
  // topologies drawn from each job's deterministic stream.
  for (int i = 0; i < 192; ++i) {
    FuzzSpec spec;
    spec.shape = FuzzSpec::Shape::kComposite;
    spec.size = 4;
    spec.check_equivalence = false;  // pure skeleton screening
    jobs.push_back(make_fuzz_job("composite/" + std::to_string(i), spec));
  }
  // 128 fixed-family screens: reconvergent and ring sweeps, both modes.
  for (std::size_t short_st = 1; short_st <= 4; ++short_st) {
    for (std::size_t shells = 1; shells <= 4; ++shells) {
      for (std::size_t per_hop = 1; per_hop <= 4; ++per_hop) {
        auto gen = graph::make_reconvergent(short_st, shells, per_hop);
        skeleton::ScreeningOptions opts;
        opts.worst_case_occupancy = (short_st + shells + per_hop) % 2;
        jobs.push_back(make_screening_job(
            "reconv/" + std::to_string(short_st) + "_" +
                std::to_string(shells) + "_" + std::to_string(per_hop),
            std::move(gen.topo), opts));
      }
    }
  }
  for (std::size_t s = 1; s <= 8; ++s) {
    for (std::size_t r = 1; r <= 8; ++r) {
      auto gen = graph::make_ring_with_tap(s, r);
      jobs.push_back(make_screening_job(
          "ring/" + std::to_string(s) + "_" + std::to_string(r),
          std::move(gen.topo)));
    }
  }
  return jobs;
}

}  // namespace

int main() {
  benchutil::heading(
      "campaign engine: screening jobs/second vs worker threads");

  const auto jobs = make_screening_campaign();
  std::cout << "campaign size: " << jobs.size() << " skeleton screens\n\n";

  Table t({"threads", "wall s", "jobs/s", "speedup", "aggregate identical"});
  Json records = Json::array();
  std::string reference_json;
  double t1_wall = 0;

  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    EngineOptions opts;
    opts.threads = threads;
    opts.base_seed = 2026;
    opts.cycle_budget = 1u << 18;
    RunStats stats;
    const auto results = Engine(opts).run(jobs, &stats);
    const auto agg = aggregate(results);
    const std::string json = to_json(agg).dump(2);
    if (threads == 1) {
      reference_json = json;
      t1_wall = stats.wall_seconds;
    }
    const bool identical = json == reference_json;
    const double jps =
        stats.wall_seconds > 0 ? jobs.size() / stats.wall_seconds : 0;
    const double speedup =
        stats.wall_seconds > 0 ? t1_wall / stats.wall_seconds : 0;

    std::ostringstream wall, rate, spd;
    wall << std::fixed << std::setprecision(3) << stats.wall_seconds;
    rate << std::fixed << std::setprecision(0) << jps;
    spd << std::fixed << std::setprecision(2) << speedup;
    t.add_row({std::to_string(threads), wall.str(), rate.str(), spd.str(),
               identical ? "yes" : "NO"});

    records.push(Json::object()
                     .set("threads", threads)
                     .set("jobs", jobs.size())
                     .set("wall_seconds", stats.wall_seconds)
                     .set("jobs_per_second", jps)
                     .set("speedup_vs_1_thread", speedup)
                     .set("aggregate_identical", identical)
                     .set("outcome_live", agg.count(Outcome::kLive))
                     .set("outcome_deadlock", agg.count(Outcome::kDeadlock))
                     .set("outcome_starvation",
                          agg.count(Outcome::kStarvation)));

    if (!identical) {
      std::cerr << "DETERMINISM VIOLATION at " << threads << " threads\n";
      return 1;
    }
  }
  t.print(std::cout);

  std::cout << "\nhardware threads available: "
            << std::thread::hardware_concurrency()
            << " (speedup saturates at the physical core count)\n\n";

  benchutil::write_bench_json("campaign", std::move(records));
  return 0;
}
