// The campaign engine's contract: deterministic results at any worker
// thread count (byte-identical aggregated JSON at 1, 2 and 8 threads),
// budget-bounded jobs that degrade to kBudgetExhausted instead of
// stalling the pool, error isolation, and the standard job factories.

#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <thread>

#include "liplib/campaign/campaign.hpp"
#include "liplib/campaign/jobs.hpp"
#include "liplib/campaign/report.hpp"
#include "liplib/graph/generators.hpp"
#include "liplib/support/json.hpp"

namespace {

using namespace liplib;
using namespace liplib::campaign;

/// A mixed batch covering every standard job kind, with fuzz jobs whose
/// topologies come from the per-job deterministic streams.
std::vector<Job> mixed_batch() {
  std::vector<Job> jobs;
  for (int i = 0; i < 12; ++i) {
    FuzzSpec spec;
    spec.shape = i % 2 ? FuzzSpec::Shape::kComposite
                       : FuzzSpec::Shape::kReconvergent;
    spec.size = 3;
    spec.check_equivalence = false;  // keep the unit test fast
    jobs.push_back(make_fuzz_job("fuzz/" + std::to_string(i), spec));
  }
  jobs.push_back(make_screening_job("screen/fig1",
                                    graph::make_fig1().topo));
  skeleton::ScreeningOptions wc;
  wc.worst_case_occupancy = true;
  jobs.push_back(make_screening_job(
      "screen/half_ring_wc",
      graph::make_ring_with_tap(1, 1, graph::RsKind::kHalf).topo, wc));
  jobs.push_back(make_steady_state_job("steady/fig2",
                                       graph::make_fig2().topo));
  jobs.push_back(make_spot_check_job("spot/fig1",
                                     graph::make_fig1().topo));
  return jobs;
}

TEST(Campaign, AggregateJsonIsByteIdenticalAcrossThreadCounts) {
  const auto jobs = mixed_batch();
  std::string reference;
  for (unsigned threads : {1u, 2u, 8u}) {
    EngineOptions opts;
    opts.threads = threads;
    opts.base_seed = 42;
    opts.cycle_budget = 1u << 16;
    const auto results = Engine(opts).run(jobs);
    ASSERT_EQ(results.size(), jobs.size());
    const std::string json = to_json(aggregate(results)).dump(2);
    const std::string csv = to_csv(results);
    if (threads == 1) {
      reference = json + csv;
    } else {
      EXPECT_EQ(json + csv, reference)
          << "thread count " << threads << " changed the campaign output";
    }
  }
}

TEST(Campaign, ResultsComeBackInJobIndexOrderWithEngineSeeds) {
  const auto jobs = mixed_batch();
  EngineOptions opts;
  opts.threads = 4;
  opts.base_seed = 7;
  const auto results = Engine(opts).run(jobs);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].index, i);
    EXPECT_EQ(results[i].name, jobs[i].name);
    EXPECT_EQ(results[i].seed, job_seed(7, i));
  }
}

TEST(Campaign, JobSeedsAreDistinctAcrossIndicesAndBaseSeeds) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t base : {0ull, 1ull, 42ull}) {
    for (std::uint64_t i = 0; i < 100; ++i) {
      seen.insert(job_seed(base, i));
    }
  }
  EXPECT_EQ(seen.size(), 300u);
}

TEST(Campaign, BudgetExhaustedJobDoesNotStallThePool) {
  // A worst-case-occupancy half-station ring deadlocks into a state the
  // analyzer still detects; to exhaust the budget instead, give a live
  // design a budget far below its transient so no period can be found.
  std::vector<Job> jobs;
  jobs.push_back(make_steady_state_job(
      "starved_budget", graph::make_loop_chain({{3, 7}, {2, 5}}).topo));
  for (int i = 0; i < 6; ++i) {
    jobs.push_back(make_screening_job("fig1/" + std::to_string(i),
                                      graph::make_fig1().topo));
  }
  EngineOptions opts;
  opts.threads = 4;
  opts.cycle_budget = 2;  // below any transient+period of the loop chain
  const auto results = Engine(opts).run(jobs);
  EXPECT_EQ(results[0].outcome, Outcome::kBudgetExhausted);
  // The rest of the batch still completed (fig1 needs more than 2 cycles
  // too, so every job reports a verdict — none hangs).
  for (const auto& r : results) {
    EXPECT_TRUE(r.outcome == Outcome::kLive ||
                r.outcome == Outcome::kBudgetExhausted)
        << r.name << ": " << outcome_name(r.outcome);
  }
}

TEST(Campaign, ThrowingJobIsRecordedAsErrorAndIsolated) {
  std::vector<Job> jobs;
  jobs.push_back(Job{"boom", [](const JobContext&) -> JobResult {
                       throw ApiError("intentional failure");
                     }});
  jobs.push_back(make_screening_job("ok", graph::make_fig1().topo));
  const auto results = Engine(EngineOptions{}).run(jobs);
  EXPECT_EQ(results[0].outcome, Outcome::kError);
  EXPECT_NE(results[0].detail.find("intentional failure"),
            std::string::npos);
  EXPECT_EQ(results[1].outcome, Outcome::kLive);
}

TEST(Campaign, ScreeningJobsMatchKnownVerdicts) {
  // Fig. 1 is live with T = 4/5; the half-station ring deadlocks under
  // worst-case occupancy (the paper's stop latch).
  std::vector<Job> jobs;
  jobs.push_back(make_screening_job("fig1", graph::make_fig1().topo));
  skeleton::ScreeningOptions wc;
  wc.worst_case_occupancy = true;
  jobs.push_back(make_screening_job(
      "half_ring",
      graph::make_ring_with_tap(1, 1, graph::RsKind::kHalf).topo, wc));
  const auto results = Engine(EngineOptions{}).run(jobs);
  EXPECT_EQ(results[0].outcome, Outcome::kLive);
  EXPECT_EQ(results[0].throughput, Rational(4, 5));
  EXPECT_TRUE(results[1].outcome == Outcome::kDeadlock ||
              results[1].outcome == Outcome::kStarvation)
      << outcome_name(results[1].outcome);
}

TEST(Campaign, ProveJobsMatchKnownVerdicts) {
  // Fig. 1 is provably deadlock-free; the half-station ring from
  // worst-case occupancy is the paper's stop latch, which the prover
  // must witness with a counterexample.
  std::vector<Job> jobs;
  jobs.push_back(make_prove_job("prove/fig1", graph::make_fig1().topo));
  prove::ProveOptions wc;
  wc.worst_case_occupancy = true;
  jobs.push_back(make_prove_job(
      "prove/half_ring_wc",
      graph::make_ring_with_tap(1, 1, graph::RsKind::kHalf).topo, wc));
  const auto results = Engine(EngineOptions{}).run(jobs);
  EXPECT_EQ(results[0].outcome, Outcome::kLive) << results[0].detail;
  EXPECT_EQ(results[1].outcome, Outcome::kDeadlock) << results[1].detail;
  EXPECT_NE(results[1].detail.find("deadlock at depth"), std::string::npos);
}

TEST(Campaign, ProveCrossCheckCampaignAgreesOnRandomComposites) {
  // 48 random composites: the prover, the linter and the worst-case
  // screen must agree on every one (any disagreement is kMismatch).
  const auto jobs = make_prove_crosscheck_campaign(48);
  ASSERT_EQ(jobs.size(), 48u);
  EngineOptions opts;
  opts.base_seed = 7;
  // Agreement (even on a deadlock) is kLive — the campaign tests the
  // differential, so `lidtool campaign prove` exits 0 unless the
  // analyses disagree.  The detail records which verdict was agreed.
  std::size_t agreed_deadlocks = 0;
  for (const auto& r : Engine(opts).run(jobs)) {
    ASSERT_EQ(r.outcome, Outcome::kLive)
        << r.name << ": " << outcome_name(r.outcome) << " " << r.detail;
    agreed_deadlocks += r.detail.find("agreed: deadlock") != std::string::npos;
  }
  EXPECT_GT(agreed_deadlocks, 0u);
  EXPECT_LT(agreed_deadlocks, 48u);
}

TEST(Campaign, WorkIsSharedAcrossWorkers) {
  // 64 trivial jobs on 4 threads: every worker should execute some, and
  // the counts must sum to the batch.
  std::vector<Job> jobs;
  for (int i = 0; i < 64; ++i) {
    jobs.push_back(make_screening_job("fig1/" + std::to_string(i),
                                      graph::make_fig1().topo));
  }
  EngineOptions opts;
  opts.threads = 4;
  RunStats stats;
  const auto results = Engine(opts).run(jobs, &stats);
  ASSERT_EQ(results.size(), 64u);
  ASSERT_EQ(stats.jobs_per_worker.size(), 4u);
  std::size_t sum = 0;
  for (auto n : stats.jobs_per_worker) sum += n;
  EXPECT_EQ(sum, 64u);
  EXPECT_GT(stats.wall_seconds, 0.0);
}

// One slow job holds up one worker, not the batch: the others drain the
// rest of the work list, so the worker that ran job 0 ran only its own
// chunk (64 jobs on 4 threads take chunks of 2).  A static split would
// leave that worker a quarter of the batch.
TEST(Campaign, ASlowJobHoldsUpOneWorkerOnly) {
  std::vector<std::thread::id> ran_on(64);
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < ran_on.size(); ++i) {
    jobs.push_back(Job{"job/" + std::to_string(i),
                       [i, &ran_on](const JobContext&) {
                         if (i == 0) {
                           std::this_thread::sleep_for(
                               std::chrono::milliseconds(500));
                         }
                         ran_on[i] = std::this_thread::get_id();
                         JobResult r;
                         r.outcome = Outcome::kLive;
                         return r;
                       }});
  }
  EngineOptions opts;
  opts.threads = 4;
  RunStats stats;
  const auto results = Engine(opts).run(jobs, &stats);
  ASSERT_EQ(results.size(), 64u);
  std::size_t with_job0 = 0;
  for (const auto& id : ran_on) with_job0 += id == ran_on[0] ? 1 : 0;
  EXPECT_LE(with_job0, 2u);
  ASSERT_EQ(stats.jobs_per_worker.size(), 4u);
  std::size_t sum = 0;
  for (auto n : stats.jobs_per_worker) sum += n;
  EXPECT_EQ(sum, 64u);
}

TEST(Campaign, AggregateHistogramsAreExactAndOrdered) {
  std::vector<JobResult> results(5);
  for (std::size_t i = 0; i < results.size(); ++i) results[i].index = i;
  results[0].outcome = Outcome::kLive;
  results[0].has_throughput = true;
  results[0].throughput = Rational(1, 2);
  results[1].outcome = Outcome::kLive;
  results[1].has_throughput = true;
  results[1].throughput = Rational(4, 5);
  results[2].outcome = Outcome::kLive;
  results[2].has_throughput = true;
  results[2].throughput = Rational(1, 2);
  results[3].outcome = Outcome::kDeadlock;
  results[4].outcome = Outcome::kBudgetExhausted;

  const auto agg = aggregate(results);
  EXPECT_EQ(agg.total, 5u);
  EXPECT_EQ(agg.count(Outcome::kLive), 3u);
  EXPECT_EQ(agg.count(Outcome::kDeadlock), 1u);
  EXPECT_EQ(agg.count(Outcome::kBudgetExhausted), 1u);
  ASSERT_EQ(agg.throughputs.size(), 2u);
  EXPECT_EQ(agg.throughputs[0].first, Rational(1, 2));
  EXPECT_EQ(agg.throughputs[0].second, 2u);
  EXPECT_EQ(agg.throughputs[1].first, Rational(4, 5));
  EXPECT_EQ(agg.min_throughput(), Rational(1, 2));
  EXPECT_EQ(agg.max_throughput(), Rational(4, 5));
  ASSERT_EQ(agg.failures.size(), 2u);
  EXPECT_EQ(agg.failures[0].index, 3u);

  const std::string json = to_json(agg).dump();
  EXPECT_NE(json.find("\"schema\":\"liplib.campaign.aggregate/2\""),
            std::string::npos);
  EXPECT_NE(json.find("\"live\":3"), std::string::npos);
}

TEST(Campaign, JsonWriterEscapesAndKeepsOrder) {
  const std::string doc = Json::object()
                              .set("b", "line\n\"quoted\"")
                              .set("a", std::uint64_t{18446744073709551615ull})
                              .set("r", Rational(4, 5))
                              .dump();
  EXPECT_EQ(doc,
            "{\"b\":\"line\\n\\\"quoted\\\"\","
            "\"a\":18446744073709551615,\"r\":\"4/5\"}");
}

TEST(Campaign, T1FuzzCampaignHas750Jobs) {
  const auto jobs = make_t1_fuzz_campaign();
  EXPECT_EQ(jobs.size(), 750u);
}

// The combining fold behind the distributed merge: merge() must be
// associative with aggregate({}) as the identity, and any block
// partition of a result vector must fold to the bytes aggregate()
// itself produces — otherwise sharded campaigns could drift from the
// single-process report.
TEST(Campaign, MergeIsAssociativeWithEmptyIdentity) {
  EngineOptions opts;
  opts.threads = 2;
  opts.base_seed = 9;
  opts.cycle_budget = 1u << 16;
  const auto results = Engine(opts).run(mixed_batch());
  const std::string golden = to_json(aggregate(results)).dump();

  // Identity on both sides.
  const Aggregate whole = aggregate(results);
  const Aggregate empty = aggregate({});
  EXPECT_EQ(empty.total, 0u);
  EXPECT_EQ(to_json(merge(empty, whole)).dump(), golden);
  EXPECT_EQ(to_json(merge(whole, empty)).dump(), golden);
  EXPECT_EQ(to_json(merge(empty, empty)).dump(),
            to_json(empty).dump());

  // Every 3-way split, folded both ways.
  for (std::size_t a = 0; a <= results.size(); ++a) {
    for (std::size_t b = a; b <= results.size(); ++b) {
      const Aggregate x = aggregate(
          {results.begin(), results.begin() + static_cast<long>(a)});
      const Aggregate y =
          aggregate({results.begin() + static_cast<long>(a),
                     results.begin() + static_cast<long>(b)});
      const Aggregate z =
          aggregate({results.begin() + static_cast<long>(b), results.end()});
      EXPECT_EQ(to_json(merge(merge(x, y), z)).dump(), golden);
      EXPECT_EQ(to_json(merge(x, merge(y, z))).dump(), golden);
    }
  }
}

TEST(Campaign, AggregateJsonRoundTripsLosslessly) {
  EngineOptions opts;
  opts.threads = 2;
  opts.base_seed = 5;
  opts.cycle_budget = 64;  // tiny budget: force failures into the doc
  const auto results = Engine(opts).run(mixed_batch());
  const auto agg = aggregate(results);
  EXPECT_FALSE(agg.failures.empty());
  const std::string bytes = to_json(agg).dump(2);
  const Aggregate back = aggregate_from_json(Json::parse(bytes));
  EXPECT_EQ(to_json(back).dump(2), bytes);
}

TEST(Campaign, IndexBaseShiftsJobIdentity) {
  const auto jobs = mixed_batch();
  EngineOptions whole_opts;
  whole_opts.threads = 2;
  whole_opts.base_seed = 4242;
  whole_opts.cycle_budget = 1u << 16;
  const auto whole = Engine(whole_opts).run(jobs);

  const std::size_t lo = 5, hi = 11;
  EngineOptions slice_opts = whole_opts;
  slice_opts.index_base = lo;
  const std::vector<Job> slice(jobs.begin() + lo, jobs.begin() + hi);
  const auto part = Engine(slice_opts).run(slice);
  ASSERT_EQ(part.size(), hi - lo);
  for (std::size_t i = 0; i < part.size(); ++i) {
    EXPECT_EQ(part[i].index, lo + i);
    EXPECT_EQ(part[i].seed, whole[lo + i].seed);
    EXPECT_EQ(part[i].outcome, whole[lo + i].outcome);
    EXPECT_EQ(part[i].cycles, whole[lo + i].cycles);
  }
}

}  // namespace
