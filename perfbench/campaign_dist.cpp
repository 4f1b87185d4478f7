// campaign-dist: one operation is one whole sharded campaign — a
// dist::Coordinator splits the named `fuzz` campaign into shards, one
// in-process dist::run_worker runs them on the campaign engine, and the
// operation ends at the merged, rendered aggregate.

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "common.hpp"
#include "liplib/campaign/campaign.hpp"
#include "liplib/campaign/jobs.hpp"
#include "liplib/campaign/report.hpp"
#include "liplib/dist/coordinator.hpp"
#include "liplib/dist/shard.hpp"
#include "liplib/dist/worker.hpp"

namespace perfbench {

using namespace liplib;

namespace {

constexpr std::size_t kJobs = 4000;
constexpr std::size_t kShards = 8;
/// Engine threads of the one worker: with the coordinator's mostly idle
/// accept thread, the load stays within three busy threads.
constexpr unsigned kThreads = 3;
/// Set-up campaigns per run; setup_s is their median.
constexpr int kSetups = 3;
/// Timed campaigns per --seconds, fixed in advance.
constexpr std::uint64_t kCampaignsPerSecond = 2;
/// Unsharded reference runs after the timed phase.
constexpr int kReferenceRuns = 3;

campaign::NamedCampaignSpec fuzz_spec() {
  campaign::NamedCampaignSpec spec;  // composite shape, variant policy,
  spec.mode = "fuzz";                // engine left at its default
  spec.jobs = kJobs;
  return spec;
}

struct CampaignRun {
  double wall_ms = 0;  ///< coordinator start -> merged document
  double cpu_ms = 0;   ///< process CPU, coordinator start -> worker joined
  std::string document;
  dist::CoordinatorStats stats;
  std::vector<trace::Span> spans;  ///< traced runs only
};

CampaignRun run_campaign(std::uint64_t base_seed, bool traced) {
  dist::CoordinatorOptions copts;
  copts.spec = fuzz_spec();
  copts.base_seed = base_seed;
  copts.shards = kShards;
  copts.trace = traced;
  CampaignRun run;
  const double cpu0 = process_cpu_ms();
  const double t0 = wall_ms();
  dist::Coordinator coord(copts);
  coord.start();
  std::string worker_error;
  {
    std::jthread worker([&] {
      try {
        dist::WorkerOptions wopts;
        wopts.port = coord.port();
        wopts.threads = kThreads;
        dist::run_worker(wopts);
      } catch (const std::exception& e) {
        worker_error = e.what();
      }
    });
    run.document = campaign::to_json(coord.wait()).dump();
    run.wall_ms = wall_ms() - t0;
  }  // the worker is joined after the clock stops
  run.cpu_ms = process_cpu_ms() - cpu0;
  if (!worker_error.empty()) throw std::runtime_error("worker: " + worker_error);
  run.stats = coord.stats();
  if (traced) run.spans = trace::spans_from_json(coord.trace_json());
  return run;
}

/// Every campaign of a run must repeat the first one exactly.  Partial
/// bytes repeat only untraced: a traced result also carries its spans.
void check_repeat(const CampaignRun& first, const CampaignRun& run,
                  const std::string& what, Report& rep) {
  if (run.document != first.document) {
    rep.fail(what + ": merged document differs from the first campaign's");
  }
  if (run.stats.leases_issued != kShards || run.stats.redispatches != 0 ||
      run.stats.duplicates != 0 ||
      (run.spans.empty() &&
       run.stats.bytes_merged != first.stats.bytes_merged)) {
    rep.fail(what + ": lease counts or partial bytes differ (leases " +
             std::to_string(run.stats.leases_issued) + ", re-dispatches " +
             std::to_string(run.stats.redispatches) + ", duplicates " +
             std::to_string(run.stats.duplicates) + ")");
  }
}

/// Jobs wrapped in a timer: `clock` is read around each job function
/// and the difference lands in `out[index - base]`.
std::vector<campaign::Job> timed_jobs(std::vector<campaign::Job> jobs,
                                      std::size_t base, double (*clock)(),
                                      std::vector<double>& out) {
  out.assign(jobs.size(), 0);
  for (auto& job : jobs) {
    job.fn = [fn = std::move(job.fn), base, clock,
              &out](const campaign::JobContext& ctx) {
      const double t0 = clock();
      campaign::JobResult r = fn(ctx);
      out[ctx.index - base] = clock() - t0;
      return r;
    };
  }
  return jobs;
}

/// One campaign's trace, split into the layers on its critical path.
struct CampaignSplit {
  double lease_self_ms = 0;   ///< dist.lease minus dist.worker.execute
  double worker_self_ms = 0;  ///< execute minus the chunk spans it covers
  double chunk_cover_ms = 0;  ///< wall covered by campaign.chunk spans
  double merge_ms = 0;        ///< dist.merge
  std::vector<double> chunk_ms;
};

CampaignSplit split_campaign(const std::vector<trace::Span>& spans) {
  std::unordered_map<std::uint64_t, const trace::Span*> execute_of_lease;
  std::unordered_map<std::uint64_t,
                     std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      chunks_of_execute;
  CampaignSplit s;
  for (const trace::Span& sp : spans) {
    if (sp.name == "dist.worker.execute") {
      execute_of_lease[sp.parent_span] = &sp;
    } else if (sp.name == "campaign.chunk") {
      chunks_of_execute[sp.parent_span].emplace_back(sp.ts_us, sp.dur_us);
      s.chunk_ms.push_back(static_cast<double>(sp.dur_us) / 1e3);
    } else if (sp.name == "dist.merge") {
      s.merge_ms += static_cast<double>(sp.dur_us) / 1e3;
    }
  }
  for (const trace::Span& sp : spans) {
    if (sp.name != "dist.lease") continue;
    const auto ex = execute_of_lease.find(sp.span_id);
    if (ex == execute_of_lease.end()) {
      throw std::runtime_error("dist.lease span without its execute span");
    }
    const trace::Span& e = *ex->second;
    const std::uint64_t cover = covered_us(chunks_of_execute[e.span_id]);
    s.lease_self_ms += static_cast<double>(sp.dur_us - e.dur_us) / 1e3;
    s.worker_self_ms += static_cast<double>(e.dur_us - cover) / 1e3;
    s.chunk_cover_ms += static_cast<double>(cover) / 1e3;
  }
  return s;
}

template <typename F>
double median_ms(int reps, F&& f) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const double t0 = wall_ms();
    f();
    t.push_back(wall_ms() - t0);
  }
  return median(t);
}

}  // namespace

void campaign_dist(const Args& args, Report& rep) {
  const std::uint64_t seed = mix_seed(args.seed, 4);
  const std::uint64_t setup_seed = mix_seed(args.seed, 5);
  const std::uint64_t n = args.seconds * kCampaignsPerSecond;

  // Set-up: one campaign on another seed, repeated.
  std::vector<double> setup_s;
  CampaignRun setup_first;
  for (int s = 0; s < kSetups; ++s) {
    const double t0 = wall_ms();
    const CampaignRun run = run_campaign(setup_seed, false);
    setup_s.push_back((wall_ms() - t0) / 1e3);
    if (s == 0) setup_first = run;
    check_repeat(setup_first, run, "set-up campaign", rep);
  }

  // Timed phase.
  std::vector<double> lat, jobs_per_s, cpu_per_job;
  CampaignRun first;
  for (std::uint64_t i = 0; i < n; ++i) {
    const CampaignRun run = run_campaign(seed, false);
    lat.push_back(run.wall_ms);
    jobs_per_s.push_back(static_cast<double>(kJobs) / (run.wall_ms / 1e3));
    cpu_per_job.push_back(run.cpu_ms / static_cast<double>(kJobs));
    if (i == 0) first = run;
    check_repeat(first, run, "campaign " + std::to_string(i), rep);
  }
  const double rss = peak_rss_mb();
  rep.attempted(n);

  // Reference: unsharded engine runs of the same spec, their job
  // functions wrapped in a thread-CPU timer.  A job's CPU is its median
  // over the runs, which keeps one preempted measurement out of the tail.
  const auto jobs = campaign::make_named_campaign(fuzz_spec());
  campaign::EngineOptions eopts;
  eopts.threads = kThreads;
  eopts.base_seed = seed;
  eopts.cycle_budget = dist::CoordinatorOptions{}.cycle_budget;
  std::vector<std::vector<double>> job_cpu_runs(kReferenceRuns);
  std::vector<campaign::JobResult> results;
  bool reference_equal = true;
  for (auto& job_cpu_run : job_cpu_runs) {
    results = campaign::Engine(eopts).run(
        timed_jobs(jobs, 0, &thread_cpu_ms, job_cpu_run));
    reference_equal &=
        campaign::to_json(campaign::aggregate(results)).dump() ==
        first.document;
  }
  if (!reference_equal) {
    rep.fail("merged document differs from the unsharded engine run", n);
  }
  std::vector<double> job_cpu(kJobs);
  for (std::size_t j = 0; j < kJobs; ++j) {
    std::vector<double> per_run;
    for (const auto& r : job_cpu_runs) per_run.push_back(r[j]);
    job_cpu[j] = median(per_run);
  }
  const campaign::Aggregate agg = campaign::aggregate(results);
  if (agg.count(campaign::Outcome::kLive) != kJobs) {
    rep.fail(std::to_string(kJobs - agg.count(campaign::Outcome::kLive)) +
             " job(s) not live");
  }

  rep.e2e("setup_s", median(setup_s), "s", setup_s.size());
  rep.e2e("peak_rss_mb", rss, "MiB");
  rep.e2e("cpu_ms_per_op", median(cpu_per_job), "ms", cpu_per_job.size());
  rep.e2e("lat_ms_p50", median(lat), "ms", lat.size());
  rep.e2e("cpu_ms_p99", percentile(job_cpu, 99), "ms", job_cpu.size());
  rep.e2e("ops_per_s", median(jobs_per_s), "1/s", jobs_per_s.size());
  rep.note("timed phase: " + std::to_string(n) + " campaigns of " +
           std::to_string(kJobs) + " fuzz jobs in " + std::to_string(kShards) +
           " shards on 1 worker x " + std::to_string(kThreads) +
           " threads; cpu_ms_per_op and ops_per_s are per job (median over "
           "campaigns), lat_ms_p50 per campaign, cpu_ms_p99 per job of the "
           "unsharded reference runs");

  if (!args.trace) return;

  // Traced phase: the same campaigns with coordinator tracing on.
  std::vector<double> traced_lat;
  std::vector<CampaignSplit> splits;
  std::size_t span_count = 0;
  double span_mem = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    CampaignRun run = run_campaign(seed, true);
    check_repeat(first, run, "traced campaign " + std::to_string(i), rep);
    traced_lat.push_back(run.wall_ms);
    splits.push_back(split_campaign(run.spans));
    span_count += run.spans.size();
    for (const auto& sp : run.spans) span_mem += static_cast<double>(span_bytes(sp));
  }
  rep.attempted(n);
  auto med = [&](double CampaignSplit::*field) {
    std::vector<double> v;
    for (const auto& s : splits) v.push_back(s.*field);
    return median(v);
  };
  const double lease_self = med(&CampaignSplit::lease_self_ms);
  const double worker_self = med(&CampaignSplit::worker_self_ms);
  const double chunk_cover = med(&CampaignSplit::chunk_cover_ms);
  const double merge = med(&CampaignSplit::merge_ms);
  rep.layer("dist.lease_self_ms", lease_self, "ms", splits.size());
  rep.layer("dist.worker_self_ms", worker_self, "ms", splits.size());
  rep.layer("dist.chunk_cover_ms", chunk_cover, "ms", splits.size());
  rep.layer("dist.merge_ms", merge, "ms", splits.size());
  std::vector<double> chunk_ms;
  for (const auto& s : splits) {
    chunk_ms.insert(chunk_ms.end(), s.chunk_ms.begin(), s.chunk_ms.end());
  }
  rep.layer("campaign.chunk_ms_p50", median(chunk_ms), "ms", chunk_ms.size());
  const double traced_p50 = median(traced_lat);
  const double attributed = lease_self + worker_self + chunk_cover + merge;
  rep.layer("trace.untraced_lat_ms_p50", median(lat), "ms");
  rep.layer("trace.traced_lat_ms_p50", traced_p50, "ms");
  rep.layer("trace.overhead_frac", traced_p50 / median(lat) - 1, "ratio");
  rep.layer("trace.attributed_ms", attributed, "ms");
  rep.layer("trace.unattributed_ms", traced_p50 - attributed, "ms");
  rep.layer("trace.spans_per_op",
            static_cast<double>(span_count) / static_cast<double>(n), "count");
  rep.layer("trace.bytes_per_op", span_mem / static_cast<double>(n), "B");
  rep.layer("samples.lat_ms_p50", static_cast<double>(lat.size()), "count");
  rep.layer("samples.cpu_ms_p99", static_cast<double>(job_cpu.size()),
            "count");

  // Counts of the untraced campaigns (identical in every campaign).
  rep.layer("dist.partial_bytes", static_cast<double>(first.stats.bytes_merged),
            "B");
  rep.layer("dist.leases", static_cast<double>(first.stats.leases_issued),
            "count");
  rep.layer("dist.redispatches", static_cast<double>(first.stats.redispatches),
            "count");
  rep.layer("dist.duplicates", static_cast<double>(first.stats.duplicates),
            "count");
  rep.layer("campaign.sim_cycles", static_cast<double>(agg.total_cycles),
            "count");
  for (const auto& [outcome, count] : agg.outcomes) {
    rep.layer(std::string("campaign.outcomes.") +
                  campaign::outcome_name(outcome),
              static_cast<double>(count), "count");
  }

  // Layers timed through their public calls on the same inputs.
  rep.layer("campaign.jobs_build_ms",
            median_ms(5, [] { (void)campaign::make_named_campaign(fuzz_spec()); }),
            "ms");
  rep.layer("campaign.aggregate_ms",
            median_ms(5, [&] { (void)campaign::aggregate(results); }), "ms");
  rep.layer("campaign.to_json_ms",
            median_ms(5, [&] { (void)campaign::to_json(agg).dump(); }), "ms");
  // One shard replayed with its job functions wrapped in a wall timer.
  const auto range = dist::shard_range(kJobs, 0, kShards);
  std::vector<double> job_ms;
  campaign::EngineOptions shard_opts = eopts;
  shard_opts.index_base = range.lo;
  campaign::RunStats stats;
  (void)campaign::Engine(shard_opts)
      .run(timed_jobs({jobs.begin() + static_cast<std::ptrdiff_t>(range.lo),
                       jobs.begin() + static_cast<std::ptrdiff_t>(range.hi)},
                      range.lo, &wall_ms, job_ms),
           &stats);
  for (double& v : job_ms) v *= 1e3;
  rep.layer("campaign.job_us_p50", percentile(job_ms, 50), "us", job_ms.size());
  rep.layer("campaign.job_us_p99", percentile(job_ms, 99), "us", job_ms.size());
  rep.layer("campaign.steals", static_cast<double>(stats.steals), "count");
  const auto& per = stats.jobs_per_worker;
  const double mean_jobs = static_cast<double>(range.hi - range.lo) /
                           static_cast<double>(per.size());
  rep.layer("campaign.imbalance",
            static_cast<double>(*std::max_element(per.begin(), per.end())) /
                mean_jobs,
            "ratio");
}

}  // namespace perfbench
