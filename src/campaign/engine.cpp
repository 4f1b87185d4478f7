#include "liplib/campaign/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <thread>

namespace liplib::campaign {

const char* outcome_name(Outcome o) {
  switch (o) {
    case Outcome::kLive: return "live";
    case Outcome::kDeadlock: return "deadlock";
    case Outcome::kStarvation: return "starvation";
    case Outcome::kBudgetExhausted: return "budget_exhausted";
    case Outcome::kMismatch: return "mismatch";
    case Outcome::kError: return "error";
  }
  return "unknown";
}

bool parse_outcome(const std::string& name, Outcome* out) {
  for (Outcome o : {Outcome::kLive, Outcome::kDeadlock, Outcome::kStarvation,
                    Outcome::kBudgetExhausted, Outcome::kMismatch,
                    Outcome::kError}) {
    if (name == outcome_name(o)) {
      *out = o;
      return true;
    }
  }
  return false;
}

std::uint64_t job_seed(std::uint64_t base_seed, std::uint64_t index) {
  // SplitMix64 over the combined value: adjacent indices yield
  // well-separated streams, and the combination is platform-independent.
  std::uint64_t z = base_seed + 0x9e3779b97f4a7c15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {

JobResult run_one(const Job& job, const JobContext& ctx) {
  JobResult r;
  try {
    r = job.fn(ctx);
  } catch (const std::exception& e) {
    r = JobResult{};
    r.outcome = Outcome::kError;
    r.detail = e.what();
  } catch (...) {
    r = JobResult{};
    r.outcome = Outcome::kError;
    r.detail = "unknown exception";
  }
  // The engine owns the identity fields: jobs cannot misreport them.
  r.index = ctx.index;
  r.name = job.name;
  r.seed = ctx.seed;
  return r;
}

}  // namespace

Engine::Engine(EngineOptions opts) : opts_(opts) {
  if (opts_.threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    opts_.threads = hw ? hw : 1;
  }
}

std::vector<JobResult> Engine::run(const std::vector<Job>& jobs,
                                   RunStats* stats) const {
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t n = jobs.size();
  std::vector<JobResult> results(n);
  const unsigned threads =
      n == 0 ? 1u
             : static_cast<unsigned>(
                   std::min<std::size_t>(opts_.threads, n));

  trace::Recorder* rec = opts_.recorder;
  const bool tracing = rec != nullptr && opts_.trace_parent.enabled();
  // Workers take chunks of consecutive indices from one shared cursor:
  // ~8 chunks per worker, so one slow chunk leaves the others the rest
  // of the batch, and at most 64 jobs.  Under tracing each chunk is a
  // span, so the split ignores the thread count and the span set is
  // the same at any pool width.
  const std::size_t chunk = std::clamp<std::size_t>(
      n / (tracing ? std::size_t{32} : std::size_t{8} * threads), 1, 64);

  /// Runs [lo, hi) and (under tracing) records its span.  The span id
  /// is keyed by the chunk's first *global* job index, never by which
  /// worker ran it or in what order.
  auto run_chunk = [&](std::size_t lo, std::size_t hi) {
    const std::uint64_t ts = tracing ? rec->now_us() : 0;
    for (std::size_t i = lo; i < hi; ++i) {
      JobContext ctx;
      // Identity is global: a shard running slice [lo, hi) with
      // index_base = lo derives the same per-job seeds as the full run.
      ctx.index = opts_.index_base + i;
      ctx.seed = job_seed(opts_.base_seed, ctx.index);
      ctx.cycle_budget = opts_.cycle_budget;
      ctx.base_seed = opts_.base_seed;
      results[i] = run_one(jobs[i], ctx);
    }
    if (tracing) {
      trace::Span sp;
      sp.trace_id = opts_.trace_parent.trace_id;
      sp.span_id = trace::derive_span_id(
          sp.trace_id, opts_.trace_parent.parent_span, opts_.index_base + lo);
      sp.parent_span = opts_.trace_parent.parent_span;
      sp.name = "campaign.chunk";
      sp.category = "campaign";
      sp.track = "campaign";
      sp.ts_us = ts;
      sp.dur_us = rec->now_us() - ts;
      sp.attrs.emplace_back("jobs", std::to_string(hi - lo));
      sp.attrs.emplace_back("lo", std::to_string(opts_.index_base + lo));
      rec->record(std::move(sp));
    }
  };

  std::atomic<std::size_t> cursor{0};
  std::vector<std::size_t> per_worker(threads, 0);
  auto worker = [&](unsigned self) {
    std::size_t done = 0;  // local: the workers' slots share a cache line
    for (;;) {
      const std::size_t lo = cursor.fetch_add(chunk);
      if (lo >= n) break;
      const std::size_t hi = std::min(n, lo + chunk);
      run_chunk(lo, hi);
      done += hi - lo;
    }
    per_worker[self] = done;
  };
  // The calling thread is worker 0, so one thread spawns nothing.
  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (unsigned w = 1; w < threads; ++w) pool.emplace_back(worker, w);
  worker(0);
  for (auto& t : pool) t.join();

  if (stats) {
    const auto t1 = std::chrono::steady_clock::now();
    stats->wall_seconds =
        std::chrono::duration<double>(t1 - t0).count();
    stats->threads = threads;
    stats->jobs_per_worker = per_worker;
  }
  return results;
}

}  // namespace liplib::campaign
