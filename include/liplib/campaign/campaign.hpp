// liplib/campaign/campaign.hpp
//
// The campaign engine: a thread pool that runs large batches of
// independent simulation jobs — deadlock screens, steady-state
// analyses, full-data spot checks, randomized topology fuzzing — and
// collects structured per-job results.
//
// The paper's premise makes this the natural scaling axis: one skeleton
// run is "absolutely negligible", so the interesting unit of work is a
// *fleet* of runs (sweeps over station counts and policies, thousand-case
// fuzz passes, screening whole design families).  The engine provides:
//
//  - determinism: job `i` of a campaign with base seed `s` always sees
//    the same random stream (SplitMix64 of (s, i)), no matter how many
//    worker threads execute the batch or which worker runs which job.
//    Results are reported in job-index order, so the aggregate of a
//    campaign is byte-identical at any thread count.
//  - bounded failure: every job runs under a cycle budget.  A deadlocked
//    or non-converging simulation degrades to a recorded
//    `kBudgetExhausted` verdict instead of hanging the batch; a job that
//    throws degrades to `kError` carrying the exception text.  The pool
//    itself never stalls on a bad job.
//  - one work list: workers take chunks of consecutive job indices from
//    one shared atomic cursor until the batch is exhausted, so skewed
//    job costs (one topology that takes its whole budget amid thousands
//    of trivial ones) hold up one worker while the others drain the
//    rest.

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "liplib/support/rational.hpp"
#include "liplib/trace/trace.hpp"

namespace liplib::campaign {

/// Verdict of one campaign job.
enum class Outcome {
  kLive,             ///< ran to steady state, made progress
  kDeadlock,         ///< full deadlock detected
  kStarvation,       ///< steady state reached but some shell never fires
  kBudgetExhausted,  ///< no verdict within the job's cycle budget
  kMismatch,         ///< simulation disagreed with an analytic prediction
  kError,            ///< the job threw; detail carries the message
};

/// Stable lower-case name of an outcome ("live", "deadlock", ...), used
/// in JSON/CSV exports.
const char* outcome_name(Outcome o);

/// Inverse of outcome_name: fills `out` and returns true for a known
/// stable name, returns false otherwise.  Used when partial-aggregate
/// JSON files are read back for the distributed merge.
bool parse_outcome(const std::string& name, Outcome* out);

/// Per-job deterministic seed: SplitMix64 mix of the campaign base seed
/// and the job index.  This is the *only* source of randomness a job may
/// use (via JobContext::seed / the Rng constructed from it), which is
/// what makes campaigns reproducible at any thread count.
std::uint64_t job_seed(std::uint64_t base_seed, std::uint64_t index);

/// Execution context handed to a job function.
struct JobContext {
  std::size_t index = 0;        ///< job index within the campaign
  std::uint64_t seed = 0;       ///< job_seed(base_seed, index)
  std::uint64_t cycle_budget = 0;  ///< max simulation cycles per verdict
  /// The campaign's base seed.  Jobs that cover a *range* of logical
  /// work items (e.g. a sliced screen batching 64 variants into one
  /// evaluation) re-derive each item's stream as job_seed(base_seed,
  /// item) so the item streams are identical at any batching factor.
  std::uint64_t base_seed = 0;
};

/// Structured result of one job.  `seed` always carries the reproducing
/// per-job seed so any failure can be replayed in isolation.
struct JobResult {
  std::size_t index = 0;
  std::string name;             ///< copied from the Job
  std::uint64_t seed = 0;
  Outcome outcome = Outcome::kError;
  std::uint64_t cycles = 0;     ///< simulation cycles actually spent
  bool has_throughput = false;  ///< throughput/transient/period are set
  Rational throughput{0};       ///< exact system throughput (when live)
  std::uint64_t transient = 0;
  std::uint64_t period = 0;
  std::string detail;           ///< human-readable failure context
  /// Stall blame folded by culprit name (probe-instrumented jobs only):
  /// cycles each culprit cost some victim over the measurement window,
  /// sorted by cycles descending then name.  Feeds the fleet-level
  /// blame-by-culprit distribution (report.hpp).
  std::vector<std::pair<std::string, std::uint64_t>> blame;
};

/// A campaign job: a name (for reports) plus the function to run.  The
/// function must derive all randomness from the context and must respect
/// `cycle_budget` (every liplib analysis entry point takes a max-cycles
/// argument, so this is a matter of passing it through).
struct Job {
  std::string name;
  std::function<JobResult(const JobContext&)> fn;
};

/// Engine configuration.
struct EngineOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency().
  unsigned threads = 0;
  /// Campaign base seed; combined with each job index via job_seed().
  std::uint64_t base_seed = 1;
  /// Cycle budget handed to every job through its context.
  std::uint64_t cycle_budget = 1u << 20;
  /// Global index of the first job in this run.  A sharded campaign
  /// (liplib/dist) hands each shard the contiguous slice [lo, hi) of
  /// the full job vector and sets index_base = lo, so job `i` of the
  /// slice sees the same (index, seed) context it would in the
  /// unsharded run — the whole determinism argument of the distributed
  /// merge reduces to this one line.
  std::size_t index_base = 0;
  /// When non-null (and `trace_parent` is enabled), the run records one
  /// "campaign.chunk" span per executed chunk into this recorder.
  /// Workers take chunks of clamp(n / (8 × threads), 1, 64) consecutive
  /// jobs; under tracing the split ignores the thread count
  /// (clamp(n / 32, 1, 64)), and span ids are keyed by the chunk's first
  /// global job index — so the recorded span set is byte-identical at
  /// any worker-thread count.
  trace::Recorder* recorder = nullptr;
  /// Trace identity the chunk spans attach to: trace_parent.trace_id is
  /// the campaign's trace, trace_parent.parent_span the enclosing
  /// execute span.  Disabled (all-zero) = no spans even if a recorder is
  /// set.
  trace::TraceContext trace_parent;
};

/// Execution statistics of one Engine::run (for benchmarking and for
/// observing the load balance; never part of deterministic aggregates).
struct RunStats {
  double wall_seconds = 0;
  unsigned threads = 0;
  /// Jobs executed by each worker (sums to the batch size).
  std::vector<std::size_t> jobs_per_worker;
  /// Always 0: workers share one work list, so nothing is stolen.  Kept
  /// only for the repository benchmark, which still reports it.
  std::size_t steals = 0;
};

/// Batch executor over one shared work list.  Stateless between runs;
/// safe to reuse.
class Engine {
 public:
  explicit Engine(EngineOptions opts = {});

  /// Runs every job and returns results in job-index order.  Jobs are
  /// independent; a throwing job is recorded as kError and never affects
  /// its neighbours.  When `stats` is non-null it receives the run's
  /// execution statistics.
  std::vector<JobResult> run(const std::vector<Job>& jobs,
                             RunStats* stats = nullptr) const;

  const EngineOptions& options() const { return opts_; }

 private:
  EngineOptions opts_;
};

}  // namespace liplib::campaign
