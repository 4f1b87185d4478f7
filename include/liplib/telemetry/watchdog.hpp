// liplib/telemetry/watchdog.hpp
//
// Runtime deadlock/livelock watchdog + flight recorder.
//
// The paper's central hazard is silent: a half relay station inside a
// loop "creates the possibility of deadlock", and once the combinational
// stop latch closes the simulation just stops making progress — no
// crash, no error, the cycle budget drains.  A Watchdog rides the probe
// plumbing (probe::CycleObserver) over a live lip::System or
// xir::ScalarEngine run and
//
//  - keeps a bounded ring buffer of the last N cycles of settled
//    channel/shell state (the flight recorder),
//  - trips when no shell fires and no token moves for K consecutive
//    cycles while valid tokens are pending (no-progress), classifying
//    the frozen frame as stop-saturation when every pending token is
//    back-pressured (the paper's half-station stop latch),
//  - on trip produces a deterministic PostMortem bundle: trip cycle,
//    earliest no-progress cycle, final-window Perfetto trace, blame
//    histogram, netlist text and seed — enough for `lidtool replay` to
//    reproduce the identical deadlock cycle from the bundle alone.
//
// A companion KernelWatchdog guards the event kernel against
// combinational livelock (unbounded delta cycles at one time point).
//
// See docs/telemetry.md.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "liplib/lip/system.hpp"
#include "liplib/probe/probe.hpp"
#include "liplib/sim/kernel.hpp"
#include "liplib/skeleton/skeleton.hpp"
#include "liplib/support/json.hpp"
#include "liplib/xir/xir.hpp"

namespace liplib::telemetry {

/// Why the watchdog tripped.
enum class TripReason : std::uint8_t {
  kNone = 0,
  /// Tokens pending but nothing fired or moved for K cycles (livelock /
  /// starvation that never resolves).
  kNoProgress = 1,
  /// The no-progress frame is fully back-pressured: every valid segment
  /// carries stop — the closed stop latch of half stations on a loop.
  kStopSaturation = 2,
};

const char* trip_reason_str(TripReason r);

struct WatchdogOptions {
  /// K: consecutive cycles with pending tokens but no firing and no
  /// token motion before the watchdog trips.  With a greedy environment
  /// one frozen cycle already implies deadlock; the margin absorbs
  /// periodic sink patterns and registered-stop drain transients.
  std::uint64_t no_progress_threshold = 64;
  /// N: flight-recorder depth in cycles.
  std::uint64_t ring_cycles = 256;
  /// Provenance recorded into the bundle (the seed that generated or
  /// configured the design); not interpreted by the watchdog.
  std::uint64_t seed = 0;
  /// Bundle metadata: the run started from worst-case occupancy
  /// (saturate_stations), the state in which the latent stop latch is
  /// reachable.
  bool worst_case_occupancy = false;
  /// Bundle metadata: lip::StopResolution::kOptimistic was in force.
  bool optimistic = false;
};

/// One row of the bundle's blame histogram (names only — the bundle is
/// self-contained text).
struct BlameSummary {
  std::string victim;
  std::string why;      ///< "waiting" | "stopped"
  std::string culprit;
  std::string culprit_kind;
  std::uint64_t cycles = 0;
};

/// The deterministic post-mortem bundle written on trip.  Everything
/// `lidtool replay` needs to reproduce the failure: the netlist text,
/// the protocol configuration, the seed, and the cycle indices to check
/// the reproduction against.
struct PostMortem {
  TripReason reason = TripReason::kNone;
  std::uint64_t trip_cycle = 0;
  std::uint64_t no_progress_since = 0;  ///< first cycle of the frozen run
  std::uint64_t no_progress_threshold = 0;
  std::uint64_t ring_cycles = 0;
  std::uint64_t seed = 0;
  bool strict = false;                ///< StopPolicy::kCarloniStrict
  bool optimistic = false;            ///< StopResolution::kOptimistic
  bool worst_case_occupancy = false;  ///< run started saturated
  std::string netlist;                ///< graph::write_netlist text
  std::vector<BlameSummary> blame;    ///< cycles-descending
  /// Final-window Chrome trace-event / Perfetto JSON document covering
  /// the recorded ring (probe/trace format).
  std::string trace_json;

  /// Schema "liplib.postmortem/1" (byte-stable).
  Json to_json() const;
  /// Inverse of to_json(); throws ApiError on schema mismatch.
  static PostMortem from_json(const Json& j);
};

/// Result of replaying a bundle (telemetry::replay / lidtool replay).
struct ReplayResult {
  bool tripped = false;
  std::uint64_t trip_cycle = 0;
  std::uint64_t no_progress_since = 0;
  TripReason reason = TripReason::kNone;
  /// Reproduction matched the bundle's reason + cycle indices exactly.
  bool reproduced = false;
};

struct GuardedRun;

/// The watchdog.  Construct, attach() to a host simulator, step the
/// host (or use run_guarded), then inspect tripped()/post_mortem().
class Watchdog final : public probe::CycleObserver {
 public:
  explicit Watchdog(WatchdogOptions opts = {});

  /// Attaches to a host — lip::System or xir::ScalarEngine — via an
  /// internally-owned probe (counters + attribution on, so the bundle
  /// carries a blame histogram).  Same constraints as the host's
  /// attach_probe: before the first step, simplified shells only.
  template <class Host>
  void attach(Host& host) { host.attach_probe(probe_); }

  /// The internally-owned probe (valid after attach); exposes report()
  /// for callers that want the measurement alongside the verdict.
  const probe::Probe& probe() const { return probe_; }

  const WatchdogOptions& options() const { return opts_; }

  // ---- probe::CycleObserver --------------------------------------------
  void on_bind(const probe::Probe& p) override;
  void on_cycle(std::uint64_t cycle, const std::uint8_t* valid,
                const std::uint8_t* stop,
                const probe::Activity* activity) override;

  // ---- verdict ----------------------------------------------------------
  bool tripped() const { return reason_ != TripReason::kNone; }
  TripReason reason() const { return reason_; }
  /// Cycle index at which the watchdog tripped (the K-th frozen cycle).
  std::uint64_t trip_cycle() const { return trip_cycle_; }
  /// First cycle of the frozen run — the earliest no-progress cycle.
  std::uint64_t no_progress_since() const { return frozen_since_; }
  /// Cycles currently recorded in the flight-recorder ring.
  std::uint64_t recorded_cycles() const;

  /// Builds the post-mortem bundle.  Requires tripped(); the blame
  /// histogram is read from the owned probe, the netlist from the bound
  /// topology, the trace by replaying the ring into probe/trace.
  PostMortem post_mortem() const;

 private:
  bool frame_frozen(const std::uint8_t* valid, const std::uint8_t* stop,
                    const probe::Activity* activity, bool* saturated) const;
  std::string render_ring_trace() const;

  // Counts whole periods into the owned probe.
  friend GuardedRun run_profiled(lip::System& sys, Watchdog& dog,
                                 std::uint64_t max_cycles);

  WatchdogOptions opts_;
  probe::Probe probe_;
  const probe::Probe* bound_ = nullptr;  ///< set by on_bind (== &probe_
                                         ///< when attach() was used)

  // Flight recorder: flat rings, slot = frame % ring_cycles.
  std::size_t segs_ = 0;
  std::size_t shells_ = 0;
  std::vector<std::uint8_t> ring_valid_;
  std::vector<std::uint8_t> ring_stop_;
  std::vector<std::uint8_t> ring_act_;
  std::vector<std::uint64_t> ring_cycle_;
  std::uint64_t frames_ = 0;  ///< total frames ever recorded

  // No-progress tracking.
  std::uint64_t frozen_run_ = 0;
  std::uint64_t frozen_since_ = 0;
  TripReason reason_ = TripReason::kNone;
  std::uint64_t trip_cycle_ = 0;
  bool trip_saturated_ = false;
};

/// Steps `host` (any host Watchdog::attach takes) until the watchdog
/// trips or `max_cycles` elapse, so a full-data run reports a deadlock
/// verdict instead of silently exhausting the budget.  A trip on cycle c
/// of a fresh host stops the run after c + 1 steps.
struct GuardedRun {
  std::uint64_t cycles = 0;  ///< cycles actually stepped
  bool deadlocked = false;   ///< watchdog tripped
};
template <class Host>
GuardedRun run_guarded(Host& host, Watchdog& dog, std::uint64_t max_cycles) {
  GuardedRun r;
  for (; r.cycles < max_cycles && !dog.tripped(); ++r.cycles) host.step();
  r.deadlocked = dog.tripped();
  return r;
}

/// run_guarded for a full-data lip::System, counted in whole periods.
/// After a transient every signal of a latency-insensitive design is
/// periodic, so the loop stops stepping once three things hold:
///  (a) the protocol state plus the environment phase has repeated, at
///      cycles t0 and t0 + P (Brent's cycle finding, full bytes);
///  (b) the watchdog has seen cycle t0 + P + K − 1 (K its no-progress
///      threshold) without a trip, so it can never trip;
///  (c) one more period has been stepped and its counter growth taken.
/// The probe then counts that growth once per remaining whole period
/// (probe::Probe::advance) and the loop steps only the remainder.  An
/// aperiodic environment (System::environment_period() == 0), a budget
/// that ends first or a trip simply keep stepping.  The GuardedRun, the
/// verdict, trip fields, post-mortem and probe report equal
/// run_guarded's on the same fresh System; the System's own record
/// (cycle(), sink streams, segment stats, a VCD) covers only the cycles
/// stepped.  `dog` must be attached to `sys` by Watchdog::attach.
GuardedRun run_profiled(lip::System& sys, Watchdog& dog,
                        std::uint64_t max_cycles);

/// The evidence of a deadlock xir::screen_for_deadlock found on `prog`:
/// replay()'s deterministic re-run, from the occupancy
/// `opts.worst_case_occupancy` names, for at most transient + period +
/// threshold cycles.  Returns the post-mortem only on a deadlock verdict
/// whose whole design froze (the watchdog tripped); `opts.optimistic`
/// comes from the program.
std::optional<PostMortem> deadlock_evidence(const xir::ProgramRef& prog,
                                            const lip::SteadyState& verdict,
                                            WatchdogOptions opts = {});

/// Reconstructs the design from a bundle (netlist + protocol config +
/// saturation state), re-runs it on xir::ScalarEngine under a fresh
/// watchdog with the bundle's thresholds, and checks the failure
/// reproduces at the identical cycle indices.
ReplayResult replay(const PostMortem& pm);

// ---- event-kernel watchdog ---------------------------------------------

/// Guards a sim::SimContext against combinational livelock: trips when a
/// single time point exceeds `max_deltas_per_time` delta cycles (an
/// unstable stop/valid loop never settling).
class KernelWatchdog final : public sim::KernelObserver {
 public:
  explicit KernelWatchdog(std::uint64_t max_deltas_per_time = 1024);

  void on_delta(sim::Time now, std::size_t changes,
                std::size_t wakeups) override;
  void on_time_serviced(sim::Time now, std::uint64_t deltas) override;

  bool tripped() const { return tripped_; }
  /// Time point at which the delta budget was exceeded.
  sim::Time trip_time() const { return trip_time_; }
  std::uint64_t deltas_at_trip() const { return deltas_at_trip_; }

 private:
  std::uint64_t max_deltas_;
  std::uint64_t deltas_this_time_ = 0;
  sim::Time current_time_ = 0;
  bool any_delta_ = false;
  bool tripped_ = false;
  sim::Time trip_time_ = 0;
  std::uint64_t deltas_at_trip_ = 0;
};

}  // namespace liplib::telemetry
