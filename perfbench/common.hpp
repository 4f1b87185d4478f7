// Shared pieces of the benchmark harness: arguments, clocks, sample
// statistics, the seeded design corpus, a blocking liplib.rpc/1 client,
// span arithmetic and the result printer.

#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "liplib/support/json.hpp"
#include "liplib/trace/trace.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::uint64_t seconds = 10;
  bool trace = false;
};

// ---- clocks -------------------------------------------------------------

double wall_ms();          ///< steady clock
double process_cpu_ms();   ///< CPU time of every thread of this process
double thread_cpu_ms();    ///< CPU time of the calling thread
/// CPU time of thread `tid` of this process (Linux per-thread CPU clock).
double thread_cpu_ms(pid_t tid);
/// Thread ids of this process, from /proc/self/task.
std::vector<pid_t> thread_ids();
/// VmHWM of /proc/self/status in MiB.  getrusage's ru_maxrss is not
/// used: Linux carries it across execve, so a small harness would
/// report the peak of whatever process launched it.
double peak_rss_mb();

// ---- statistics ---------------------------------------------------------

/// Nearest-rank percentile, q in (0, 100].  Throws on an empty sample.
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// SplitMix64 step: independent streams for the workload's inputs.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

// ---- inputs -------------------------------------------------------------

/// The design corpus: distinct random composite topologies as canonical
/// .lid text.  Designs come in groups of `group` (one group per round
/// of request kinds); group g has 2 + g % 5 segments, and every fourth
/// group allows half stations on loops, the configuration that can
/// latch under worst-case occupancy, so every kind sees both.
std::vector<std::string> make_designs(std::uint64_t seed, std::size_t n,
                                      std::size_t group);

/// The four single-design request kinds, in round-robin order.
inline constexpr const char* kKinds[4] = {"lint", "screen", "prove",
                                          "profile"};
/// Screen cycle budget: the guard runs it in full on every live design,
/// so the daemon default (2^18) would leave a run only a few screens.
inline constexpr std::uint64_t kScreenBudget = 4096;
/// Prove state budget.  At the daemon default (2^18) a run's peak RSS
/// is set by its single largest worst-case proof, which differs by seed;
/// at 2^14 every proof still ends in a verdict (auto falls back to
/// k-induction) and the peak no longer depends on one design.
inline constexpr std::uint64_t kProveBudget = 1u << 14;

/// A liplib.rpc/1 request for kind index `k` on `netlist`: screen with
/// budget kScreenBudget, prove from worst-case occupancy with budget
/// kProveBudget, every other knob (engine included) left to the
/// daemon's default.
std::string make_request(int k, const std::string& netlist);

// ---- client -------------------------------------------------------------

/// One blocking loopback connection speaking liplib.rpc/1.
class Client {
 public:
  explicit Client(std::uint16_t port);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void send(const std::string& payload);
  /// Reads one response frame; throws when the daemon hung up.
  void receive(std::string& payload);
  std::string call(const std::string& payload);

 private:
  int fd_ = -1;
};

// ---- spans --------------------------------------------------------------

/// Length of the union of [ts, ts + dur) intervals, in microseconds.
std::uint64_t covered_us(std::vector<std::pair<std::uint64_t, std::uint64_t>>
                             intervals);
/// In-memory bytes of a span: the struct plus the heap blocks of its
/// strings and vectors (allocator headers excluded).
std::size_t span_bytes(const liplib::trace::Span& s);

// ---- result -------------------------------------------------------------

/// Collects metrics and check failures, prints the human-readable
/// summary and the final one-line JSON result.
class Report {
 public:
  explicit Report(bool trace) : trace_(trace) {}

  /// An end-to-end metric (printed in the result with --trace 0).
  void e2e(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 0);
  /// A per-layer metric (printed in the result with --trace 1).
  void layer(const std::string& name, double value, const std::string& unit,
             std::size_t samples = 0);
  void note(const std::string& line);
  /// Records a failed output check; `ops` failed operations are added.
  void fail(const std::string& what, std::uint64_t ops = 1);
  void attempted(std::uint64_t n) { attempted_ += n; }

  /// Prints the summary lines and the result line to stdout.  Every
  /// catalogue metric of the active kind must have been set, except
  /// per-layer metrics the workload never reaches, which print as 0
  /// with a note naming them.
  void print(const std::string& workload) const;

 private:
  struct Value {
    double value = 0;
    std::string unit;
    std::size_t samples = 0;
  };
  bool trace_;
  std::map<std::string, Value> e2e_;
  std::map<std::string, Value> layer_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// ---- workloads ----------------------------------------------------------

void serve_hit(const Args& args, Report& report);
void serve_miss(const Args& args, Report& report);
void campaign_dist(const Args& args, Report& report);

}  // namespace perfbench
