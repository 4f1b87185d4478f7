// Distributed campaign overhead: the 300-topology fuzz suite run
// unsharded, then as 1/2/4/8 merged shards — each shard doing the full
// partial-document round trip (aggregate -> "liplib.dist.partial/1"
// JSON -> parse -> validate -> fold), which is exactly what `lidtool
// merge` pays — and once end-to-end over the loopback
// coordinator/worker transport with two pull workers.  Every merged
// aggregate must be byte-identical to the unsharded document; a
// mismatch fails the bench.  Emits BENCH_dist.json with one record per
// configuration.

#include <chrono>
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
#include "liplib/dist/coordinator.hpp"
#include "liplib/dist/shard.hpp"
#include "liplib/dist/worker.hpp"
#include "liplib/support/table.hpp"

using namespace liplib;

namespace {

constexpr std::uint64_t kSeed = 2026;
constexpr std::uint64_t kBudget = 1u << 16;
constexpr unsigned kThreads = 2;

campaign::NamedCampaignSpec bench_spec() {
  campaign::NamedCampaignSpec spec;
  spec.mode = "fuzz";
  spec.jobs = 300;
  return spec;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  benchutil::heading("dist: sharded-campaign overhead vs unsharded");

  const auto spec = bench_spec();
  const auto jobs = campaign::make_named_campaign(spec);
  const std::string campaign_spec = dist::named_campaign_to_string(spec);
  std::cout << "campaign: " << campaign_spec << "\n\n";

  // The unsharded golden document.
  campaign::EngineOptions base;
  base.threads = kThreads;
  base.base_seed = kSeed;
  base.cycle_budget = kBudget;
  const auto g0 = std::chrono::steady_clock::now();
  const auto golden_results = campaign::Engine(base).run(jobs);
  const std::string golden =
      campaign::to_json(campaign::aggregate(golden_results)).dump(2);
  const double golden_wall = seconds_since(g0);

  Table t({"config", "wall s", "merge s", "partial KiB", "identical"});
  Json records = Json::array();

  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    // Run every shard (serially — the bench measures overhead, not
    // multi-process speedup) and export its partial document.
    const auto r0 = std::chrono::steady_clock::now();
    std::vector<std::string> partial_docs;
    for (std::size_t i = 0; i < shards; ++i) {
      const auto range = dist::shard_range(jobs.size(), i, shards);
      const std::vector<campaign::Job> slice(
          jobs.begin() + static_cast<std::ptrdiff_t>(range.lo),
          jobs.begin() + static_cast<std::ptrdiff_t>(range.hi));
      campaign::EngineOptions opts = base;
      opts.index_base = range.lo;
      const auto results = campaign::Engine(opts).run(slice);
      const auto manifest = dist::make_manifest(
          campaign_spec, jobs.size(), kSeed, kBudget, range);
      partial_docs.push_back(
          dist::partial_to_json(manifest, campaign::aggregate(results))
              .dump(2));
    }
    const double run_wall = seconds_since(r0);

    // The merge path: parse + validate + fold, as `lidtool merge` does.
    const auto m0 = std::chrono::steady_clock::now();
    std::vector<dist::Partial> parts;
    std::size_t partial_bytes = 0;
    for (const std::string& doc : partial_docs) {
      partial_bytes += doc.size();
      parts.push_back(dist::partial_from_json(Json::parse(doc)));
    }
    const auto merged = dist::merge_partials(std::move(parts));
    const double merge_wall = seconds_since(m0);
    const bool identical = campaign::to_json(merged).dump(2) == golden;

    std::ostringstream cfg, wall, mwall, kib;
    cfg << shards << " shard(s)";
    wall << std::fixed << std::setprecision(3) << run_wall;
    mwall << std::fixed << std::setprecision(4) << merge_wall;
    kib << std::fixed << std::setprecision(1) << partial_bytes / 1024.0;
    t.add_row({cfg.str(), wall.str(), mwall.str(), kib.str(),
               identical ? "yes" : "NO"});

    records.push(Json::object()
                     .set("config", "sharded")
                     .set("shards", shards)
                     .set("threads", kThreads)
                     .set("run_wall_seconds", run_wall)
                     .set("merge_wall_seconds", merge_wall)
                     .set("partial_bytes", partial_bytes)
                     .set("aggregate_identical", identical));
    if (!identical) {
      std::cerr << "DETERMINISM VIOLATION at " << shards << " shard(s)\n";
      return 1;
    }
  }

  // End to end over the loopback transport: coordinator + two workers.
  const auto c0 = std::chrono::steady_clock::now();
  dist::CoordinatorOptions copts;
  copts.spec = spec;
  copts.base_seed = kSeed;
  copts.cycle_budget = kBudget;
  copts.shards = 4;
  dist::Coordinator coord(copts);
  coord.start();
  std::vector<std::thread> workers;
  for (int w = 0; w < 2; ++w) {
    workers.emplace_back([&coord] {
      dist::WorkerOptions wopts;
      wopts.port = coord.port();
      wopts.threads = kThreads;
      dist::run_worker(wopts);
    });
  }
  const auto merged = coord.wait();
  for (auto& w : workers) w.join();
  const double coord_wall = seconds_since(c0);
  const bool coord_identical = campaign::to_json(merged).dump(2) == golden;
  const auto stats = coord.stats();

  std::ostringstream cwall;
  cwall << std::fixed << std::setprecision(3) << coord_wall;
  t.add_row({"coordinator 4x2", cwall.str(), "-",
             std::to_string(stats.bytes_merged / 1024),
             coord_identical ? "yes" : "NO"});
  records.push(Json::object()
                   .set("config", "coordinator")
                   .set("shards", std::uint64_t{4})
                   .set("workers", std::uint64_t{2})
                   .set("threads", kThreads)
                   .set("run_wall_seconds", coord_wall)
                   .set("bytes_merged", stats.bytes_merged)
                   .set("leases_issued", stats.leases_issued)
                   .set("aggregate_identical", coord_identical));
  if (!coord_identical) {
    std::cerr << "DETERMINISM VIOLATION over the coordinator transport\n";
    return 1;
  }

  t.print(std::cout);
  std::ostringstream gw;
  gw << std::fixed << std::setprecision(3) << golden_wall;
  std::cout << "\nunsharded reference: " << gw.str() << " s at " << kThreads
            << " thread(s)\n\n";

  benchutil::write_bench_json(
      "dist", std::move(records),
      Json::object().set("campaign", campaign_spec)
          .set("unsharded_wall_seconds", golden_wall));
  return 0;
}
