// liplib/probe/probe.hpp
//
// Cycle-accurate observability for latency-insensitive simulations.
//
// A Probe attaches to a simulator (lip::System::attach_probe or
// xir::ScalarEngine::attach_probe) and, every cycle, receives the
// settled valid/stop bits of every wire segment plus the activity of
// every shell.  From those it derives:
//
//  - counters: per-shell fired/waiting/stopped cycle counts and
//    per-segment valid/void/stop occupancy, windowed with reset_window()
//    so measured throughputs are *exact* Rationals over the periodic
//    regime (they must — and in the tests do — equal the analytic
//    (m−i)/m, S/(S+R) and MCR predictions of graph/analysis);
//  - stall attribution: each cycle a shell is waiting or stopped, the
//    settled stop/valid network is walked back to the unit that
//    originated the condition, and a (victim, culprit) blame histogram
//    accumulates — "why is node F at T = 7/9?" has a one-line answer;
//  - streaming trace export: an optional Chrome trace-event / Perfetto
//    sink (probe/trace.hpp) with one track per shell and occupancy
//    counter tracks per channel.
//
// The host simulator pays exactly one null-pointer test per step when no
// probe is attached; the hot path allocates nothing (the probe owns all
// scratch storage, sized at bind time).  See docs/probe.md.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "liplib/graph/topology.hpp"
#include "liplib/probe/trace.hpp"
#include "liplib/sim/kernel.hpp"
#include "liplib/support/json.hpp"
#include "liplib/support/rational.hpp"

namespace liplib::probe {

/// What a shell did in one cycle.  Mirrors lip::ShellActivity (the probe
/// layer sits below lip/ and skeleton/, so it keeps its own copy).
enum class Activity : std::uint8_t {
  kFired = 0,          ///< consumed inputs and stepped the pearl
  kWaitingInput = 1,   ///< some input was void
  kStoppedOutput = 2,  ///< all inputs valid but an output back-pressured
};

/// Kind of unit a blame walk can terminate at.
enum class UnitKind : std::uint8_t {
  kShell = 0,
  kSource = 1,
  kSink = 2,
  kStation = 3,
};

/// Identity of a blame culprit.
struct Unit {
  UnitKind kind = UnitKind::kShell;
  graph::NodeId node = 0;        ///< shells, sources, sinks
  graph::ChannelId channel = 0;  ///< stations
  std::size_t station = 0;       ///< station position within the channel
  friend bool operator==(const Unit&, const Unit&) = default;
};

class Probe;

/// Receives every committed cycle of an attached probe.  This is the
/// extension point the telemetry layer (watchdog + flight recorder)
/// rides on: one host attach_probe() call feeds both the probe's own
/// counters and any observer, with no duplicate wiring.
class CycleObserver {
 public:
  virtual ~CycleObserver() = default;
  /// Called once from Probe::bind(), after all probe state is sized.
  virtual void on_bind(const Probe& probe) = 0;
  /// Called at the end of every commit_cycle() with the settled segment
  /// valid/stop bits and per-shell activity (wiring order).  Counter and
  /// blame state for `cycle` is already folded in when this runs.
  virtual void on_cycle(std::uint64_t cycle, const std::uint8_t* valid,
                        const std::uint8_t* stop, const Activity* activity) = 0;
};

/// What to measure.  Disabling a piece removes its per-cycle cost.
struct ProbeConfig {
  bool counters = true;
  bool attribution = true;
  /// Optional trace sink (not owned; must outlive the probe or be
  /// finished first).
  TraceSink* trace = nullptr;
  /// Optional per-cycle observer (not owned; must outlive the probe).
  CycleObserver* observer = nullptr;
};

/// Per-shell activity counters over the current window.
struct ShellCount {
  graph::NodeId node = 0;
  std::string name;
  std::uint64_t fired = 0;
  std::uint64_t waiting = 0;
  std::uint64_t stopped = 0;
};

/// Per-segment occupancy counters over the current window.
struct SegmentCount {
  graph::ChannelId channel = 0;
  std::size_t hop = 0;         ///< 0 = the producer's output hop
  std::string label;           ///< "<from>_to_<to>.h<hop>"
  std::uint64_t valid = 0;
  std::uint64_t voids = 0;
  std::uint64_t stopped = 0;
  std::uint64_t stop_on_valid = 0;
  std::uint64_t stop_on_void = 0;
};

/// One row of the blame histogram: `victim` spent `cycles` cycles in
/// state `why` because of `culprit`.
struct BlameEntry {
  graph::NodeId victim = 0;
  std::string victim_name;
  Activity why = Activity::kWaitingInput;
  Unit culprit;
  std::string culprit_name;
  std::uint64_t cycles = 0;
};

/// Aggregated measurement.  Throughputs are exact Rationals; windowed to
/// a whole number of steady-state periods they equal the analytic
/// predictions exactly.
struct ProbeReport {
  std::uint64_t cycles = 0;  ///< cycles in the counting window
  std::vector<ShellCount> shells;
  std::vector<SegmentCount> segments;
  /// Sorted by cycles descending (ties: victim id, state, culprit).
  std::vector<BlameEntry> blame;

  /// Measured firings/cycle of a shell (exact; 0 for an empty window).
  Rational throughput(graph::NodeId shell) const;
  /// Minimum over all shells (the system throughput).
  Rational min_throughput() const;
  /// Highest-count blame row, or nullptr when nothing stalled.
  const BlameEntry* top_blame() const;
  /// Schema "liplib.probe/1".
  Json to_json() const;
};

/// Static description of the instrumented structure, derived by
/// Probe::bind from the topology in the layout both hosts share:
/// segments channel by channel, hop by hop; stations channel-major;
/// shells, sources and sinks in node order, each shell's out branches
/// port-major in channel-id order.  Indices are the hosts' dense per-kind
/// indices; segment ids index their segment arrays.
struct Wiring {
  struct Endpoint {
    UnitKind kind = UnitKind::kShell;
    std::size_t index = 0;
  };
  struct Segment {
    graph::ChannelId channel = 0;
    std::size_t hop = 0;
    Endpoint producer;  ///< kShell, kSource or kStation
    Endpoint consumer;  ///< kShell, kSink or kStation
  };
  struct Shell {
    graph::NodeId node = 0;
    std::vector<std::size_t> in_segs;
    std::vector<std::size_t> out_segs;  ///< all branches of all ports
  };
  struct Station {
    graph::ChannelId channel = 0;
    std::size_t index = 0;  ///< position within the channel's chain
    bool full = true;       ///< kFull (registered stop) vs kHalf
    std::size_t in_seg = 0;
    std::size_t out_seg = 0;
  };
  struct Env {
    graph::NodeId node = 0;
  };

  std::vector<Segment> segments;
  std::vector<Shell> shells;
  std::vector<Station> stations;
  std::vector<Env> sources;
  std::vector<Env> sinks;
  /// StopPolicy::kCarloniStrict semantics (stops block regardless of
  /// validity) — changes which out-branch counts as blocking.
  bool strict = false;
};

/// The observability instrument.  Create one, pass it to a simulator's
/// attach_probe(), step the simulator, then read report().
class Probe {
 public:
  explicit Probe(ProbeConfig cfg = {});
  ~Probe();

  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  const ProbeConfig& config() const { return cfg_; }
  bool bound() const { return bound_; }

  /// The instrumented structure (valid after bind()).  Observers use
  /// these to interpret the flat scratch arrays they are handed.
  const Wiring& wiring() const { return wiring_; }
  const graph::Topology& topology() const { return topo_; }

  // ---- host-simulator interface ----------------------------------------

  /// Called once by the simulator the probe is attached to, with its
  /// stop policy (StopPolicy::kCarloniStrict or not).  Derives the
  /// wiring and sizes all scratch storage; after bind() the per-cycle
  /// path allocates nothing.
  void bind(const graph::Topology& topo, bool strict);

  /// Per-cycle scratch the host fills before commit_cycle(): settled
  /// valid/stop bit per segment, activity per shell (wiring order).
  std::uint8_t* valid_scratch() { return valid_.data(); }
  std::uint8_t* stop_scratch() { return stop_.data(); }
  Activity* activity_scratch() { return activity_.data(); }

  /// Consumes the scratch arrays for simulation cycle `cycle`.
  void commit_cycle(std::uint64_t cycle);

  // ---- user interface --------------------------------------------------

  /// Zeroes every counter and the blame histogram (the trace keeps
  /// streaming).  Call after the transient to window the measurement to
  /// the periodic regime; report() then yields exact steady-state rates.
  void reset_window();

  /// Cycles committed since bind()/reset_window().
  std::uint64_t window_cycles() const { return window_cycles_; }

  /// Every window counter at one instant: the cycle count, the shell and
  /// segment tallies and the blame cells, in a fixed order.
  struct WindowCounters {
    std::vector<std::uint64_t> counts;
  };
  WindowCounters window_counters() const;

  /// Counts `n` more repetitions of the cycles committed between the
  /// snapshots `from` and `to` (taken in that order, in this window):
  /// adds n × (to − from) to every window counter, exactly as if those
  /// cycles had been committed n more times.  The caller vouches that
  /// they would be (a periodic regime).  Refused while a trace sink is
  /// attached, since a trace cannot skip cycles.
  void advance(const WindowCounters& from, const WindowCounters& to,
               std::uint64_t n);

  ProbeReport report() const;

  /// Human-readable name of a unit ("B", "A_to_B.rs0", ...).
  std::string unit_name(const Unit& u) const;

  /// A channel's segments, producer hop first, and the name of its
  /// occupancy counter track ("occ A_to_B", "#<channel>" appended to
  /// repeats), as the trace shows them (valid after bind()).
  const std::vector<std::size_t>& channel_segments(graph::ChannelId c) const {
    return channel_segs_[c];
  }
  const std::string& channel_track(graph::ChannelId c) const {
    return channel_track_[c];
  }

  /// Closes open trace spans and finishes the sink's JSON document.
  /// Idempotent; also run by the destructor.  No-op without a trace.
  void finish_trace();

 private:
  struct ShellTally {
    std::uint64_t counts[3] = {0, 0, 0};  // indexed by Activity
  };
  struct SegTally {
    std::uint64_t valid = 0;
    std::uint64_t stopped = 0;
    std::uint64_t stop_on_valid = 0;
  };
  struct Span {
    Activity act = Activity::kFired;
    std::uint64_t start = 0;
    bool open = false;
  };
  struct ChanSample {
    std::uint64_t valid = ~0ull;  // force an initial counter emission
    std::uint64_t stopped = ~0ull;
  };

  bool blocking(std::size_t seg) const {
    return stop_[seg] != 0 && (wiring_.strict || valid_[seg] != 0);
  }
  /// Calls f on every window counter, in WindowCounters order.
  template <class Self, class F>
  static void each_counter(Self& self, F&& f) {
    f(self.window_cycles_);
    for (auto& t : self.shell_tally_) {
      for (auto& c : t.counts) f(c);
    }
    for (auto& t : self.seg_tally_) {
      f(t.valid);
      f(t.stopped);
      f(t.stop_on_valid);
    }
    for (auto& c : self.blame_) f(c);
  }
  std::size_t unit_ordinal(const Unit& u) const;
  Unit ordinal_unit(std::size_t ordinal) const;
  Unit attribute(std::size_t shell, Activity why);
  void count_cycle();
  void trace_cycle(std::uint64_t cycle);

  ProbeConfig cfg_;
  bool bound_ = false;
  graph::Topology topo_;
  Wiring wiring_;

  // Scratch filled by the host each cycle.
  std::vector<std::uint8_t> valid_;
  std::vector<std::uint8_t> stop_;
  std::vector<Activity> activity_;

  // Counters (window-scoped).
  std::uint64_t window_cycles_ = 0;
  std::vector<ShellTally> shell_tally_;
  std::vector<SegTally> seg_tally_;
  // Blame histogram, flat: [(victim * 3 + why) * units + culprit].
  std::vector<std::uint64_t> blame_;
  std::size_t unit_count_ = 0;

  // Attribution scratch (stamped visited set; no per-walk allocation).
  std::vector<std::uint32_t> visit_mark_;
  std::uint32_t visit_stamp_ = 0;

  // Precomputed names and channel->segments map.
  std::vector<std::string> unit_names_;     // by ordinal
  std::vector<std::string> channel_track_;  // counter-track name per channel
  std::vector<std::vector<std::size_t>> channel_segs_;

  // Trace state.
  std::vector<Span> span_;
  std::vector<ChanSample> chan_sample_;
  std::uint64_t last_cycle_ = 0;
  bool any_cycle_ = false;
};

// ---- event-kernel observability ---------------------------------------

/// Counters over a sim::SimContext run.
struct KernelCounters {
  std::uint64_t time_points = 0;     ///< discrete times with activity
  std::uint64_t delta_cycles = 0;
  std::uint64_t signal_changes = 0;
  std::uint64_t process_wakeups = 0;
  std::uint64_t max_deltas_per_time = 0;
};

/// Observer for the event kernel: counts delta-cycle activity and can
/// stream a "deltas" counter track.  Attach with
/// SimContext::set_observer(&probe).
class KernelProbe final : public sim::KernelObserver {
 public:
  /// `trace` is optional and not owned.  `pid` is the trace process id
  /// used for the kernel's counter track.
  explicit KernelProbe(TraceSink* trace = nullptr, std::uint64_t pid = 2);

  void on_delta(sim::Time now, std::size_t changes,
                std::size_t wakeups) override;
  void on_time_serviced(sim::Time now, std::uint64_t deltas) override;

  const KernelCounters& counters() const { return counters_; }

  /// Schema "liplib.kernel-probe/1".
  Json to_json() const;

 private:
  KernelCounters counters_;
  TraceSink* trace_;
  std::uint64_t pid_;
};

}  // namespace liplib::probe
