// liplib/lip/system.hpp
//
// Cycle-accurate, full-data simulator of a latency-insensitive design.
//
// A System is instantiated from a graph::Topology: every kProcess node
// becomes a shell wrapping a user-supplied Pearl, every channel becomes a
// chain of relay stations, and sources/sinks become environment models.
//
// Timing model (one System::step() == one clock cycle):
//   1. forward phase — every producer presents (valid, data) on its
//      output segments; all forward values are register outputs, so this
//      is a single pass over the state;
//   2. backward phase — the stop network is evaluated to its least fixed
//      point: full relay stations contribute their *registered* stop,
//      while shells and half relay stations are stop-transparent
//      (combinational), exactly as in the paper;
//   3. clock edge — every block updates its registers using the settled
//      wire values (shells fire and step their pearls; gated shells hold).
//
// The StopPolicy option selects between the reference Carloni protocol
// (stops honored regardless of validity, voids occupy storage) and the
// paper's refinement (stops on invalid signals are discarded).

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "liplib/graph/topology.hpp"
#include "liplib/lip/environment.hpp"
#include "liplib/lip/pearl.hpp"
#include "liplib/lip/token.hpp"
#include "liplib/support/check.hpp"

namespace liplib::probe {
class Probe;
}  // namespace liplib::probe

namespace liplib::lip {

/// Index of a wire segment inside a System (one per hop of a channel).
using SegId = std::size_t;

/// What a shell did in the last simulated cycle — the three block states
/// the paper's evolution figures draw (firing, waiting for data, stopped).
enum class ShellActivity {
  kFired,          ///< consumed inputs, stepped the pearl, loaded outputs
  kWaitingInput,   ///< some input was void (no data to consume)
  kStoppedOutput,  ///< all inputs valid but an output was back-pressured
};

/// Snapshot of one wire segment during a cycle.
struct SegmentView {
  Token fwd;         ///< forward (valid, data) presented on the segment
  bool stop = false; ///< settled backward stop on the segment
};

/// Accumulated per-segment activity counters (see System::segment_stats):
/// how often the hop carried valid data, a void, or an asserted stop —
/// the utilization picture behind the paper's throughput and locality
/// arguments (a stop on a void hop is exactly the event the protocol
/// variant discards).
struct SegmentStats {
  std::uint64_t cycles = 0;         ///< cycles observed
  std::uint64_t valid_cycles = 0;   ///< forward datum was valid
  std::uint64_t void_cycles = 0;    ///< forward datum was a void
  std::uint64_t stop_cycles = 0;    ///< backward stop asserted
  std::uint64_t stop_on_valid = 0;  ///< stop landed on a valid datum
  std::uint64_t stop_on_void = 0;   ///< stop landed on a void

  double utilization() const {
    return cycles ? static_cast<double>(valid_cycles) /
                        static_cast<double>(cycles)
                  : 0.0;
  }
};

/// Simulation options for System.
struct SystemOptions {
  StopPolicy policy = StopPolicy::kCasuDiscardOnVoid;
  /// Settling of combinational stop cycles (only reachable with half
  /// relay stations on loops); see StopResolution.
  StopResolution resolution = StopResolution::kPessimistic;
  /// When set, every cycle the simulator checks the protocol invariant
  /// "a valid datum whose stop was asserted is re-presented unchanged
  /// next cycle" on every segment and throws ProtocolError on violation.
  bool hold_monitor = false;
  /// Shell flavour.  0 (default): the paper's *simplified* shell — no
  /// input storage, stop-transparent, and the structural rule "at least
  /// one relay station between two shells" is enforced.  k > 0: the
  /// Carloni-style baseline shell with a k-deep FIFO on every input
  /// (back pressure asserted when a queue is full); the queue is itself
  /// the memory element between shells, so station-less shell-to-shell
  /// channels are accepted.  Each firing consumes queue heads, so every
  /// shell adds one cycle of latency but tolerates jitter locally.
  std::size_t input_queue_depth = 0;
};

namespace detail {
struct VcdTap;
}  // namespace detail

/// Full-data latency-insensitive design simulator.
class System {
 public:
  using VcdTap = detail::VcdTap;
  using Options = SystemOptions;

  /// Builds the LID structure from `topo`.  `topo.validate()` must report
  /// no errors (warnings — e.g. half relay stations on cycles — are
  /// allowed; they are precisely the configurations the deadlock
  /// experiments study).
  explicit System(const graph::Topology& topo, Options opts = {});

  ~System();
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// Binds the functional pearl of a kProcess node.  The pearl arity must
  /// match the node arity.  Must be called for every process node before
  /// the first step().
  void bind_pearl(graph::NodeId node, std::unique_ptr<Pearl> pearl);

  /// Binds the behaviour of a kSource node (default: counter stream).
  void bind_source(graph::NodeId node, SourceBehavior behavior);

  /// Binds the behaviour of a kSink node (default: greedy consumer).
  void bind_sink(graph::NodeId node, SinkBehavior behavior);

  /// Checks that all process nodes are bound and freezes the structure.
  /// Called implicitly by the first step().
  void finalize();

  /// Worst-case-occupancy fault injection: fills every relay station with
  /// (at least) one valid token carrying `datum`.  See
  /// xir::ScalarEngine::saturate_stations() — this is the full-data twin,
  /// used to excite the half-station stop latch that is unreachable from
  /// reset.  Injected tokens are faults: latency equivalence with the
  /// reference no longer holds afterwards.
  void saturate_stations(std::uint64_t datum = 0);

  /// Advances one clock cycle.
  void step();

  /// Advances `n` clock cycles.
  void run(std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) step();
  }

  /// Number of completed clock cycles.
  std::uint64_t cycle() const { return cycle_; }

  StopPolicy policy() const { return opts_.policy; }
  const graph::Topology& topology() const { return topo_; }

  // ---- observation ------------------------------------------------------

  /// Views of the segments of channel `c`, ordered from producer to
  /// consumer: element 0 is the producer's output hop, element i+1 the
  /// hop after station i.  Valid after at least the forward/backward
  /// phases of a step, i.e. reflects the *last completed* cycle.
  std::vector<SegmentView> channel_view(graph::ChannelId c) const;

  /// Register contents of the relay stations of channel `c` (front first;
  /// a full station may hold up to two tokens).  Empty slots omitted.
  std::vector<std::vector<Token>> station_contents(graph::ChannelId c) const;

  /// The sequence of valid tokens a sink has consumed so far.
  const std::vector<Token>& sink_stream(graph::NodeId sink) const;

  /// Per-cycle log of what the sink saw (one entry per completed cycle):
  /// the presented token, void if none.  Enabled via record_sink_trace().
  const std::vector<Token>& sink_cycle_trace(graph::NodeId sink) const;

  /// Enables per-cycle sink tracing (off by default to keep runs cheap).
  void record_sink_trace(bool on) { trace_sinks_ = on; }

  /// Enables per-segment activity counters (off by default).
  void record_segment_stats(bool on) { record_stats_ = on; }

  /// Activity counters of the segments of channel `c`, producer-to-
  /// consumer order (element 0 is the producer's hop).  All zero unless
  /// record_segment_stats(true) was set before stepping.
  std::vector<SegmentStats> segment_stats(graph::ChannelId c) const;

  /// Streams the protocol-visible waveform of the whole design (every
  /// hop's valid/data/stop) as a VCD dump into `os`, one timestamp per
  /// cycle.  Must be called before the first step(); `os` must outlive
  /// the System.
  void attach_vcd(std::ostream& os);

  /// Attaches an observability probe (liplib/probe): per-cycle counters,
  /// stall attribution and optional trace export.  Must be called before
  /// the first step() on an unbound probe; `probe` must outlive the
  /// System.  Requires the paper's simplified shell
  /// (input_queue_depth == 0).  Without a probe the per-step cost is one
  /// null-pointer test.
  void attach_probe(probe::Probe& probe);

  /// Number of valid tokens consumed by a sink.
  std::uint64_t sink_count(graph::NodeId sink) const;

  /// Number of firings of a shell.
  std::uint64_t shell_fire_count(graph::NodeId shell) const;

  /// What the shell did in the last completed cycle.
  ShellActivity shell_activity(graph::NodeId shell) const;

  /// Serialized protocol state: every pend mask, station occupancy/stop
  /// register and environment presentation flag — but no data values and
  /// no monotone counters.  Two cycles with equal protocol state (and
  /// equal environment phase) evolve identically modulo data, which is
  /// what the steady-state detector exploits.
  std::string protocol_state() const;

  /// A period of the whole environment: the least common multiple of the
  /// bound sources' and sinks' periods (saturating at the largest
  /// uint64), 1 when there are none, and 0 when any of them is aperiodic
  /// (SourceBehavior::period, SinkBehavior::period).  Two cycles with
  /// equal protocol_state() whose indices agree modulo this period
  /// evolve identically from then on.
  std::uint64_t environment_period() const;

  /// Total firings across all shells (progress measure).
  std::uint64_t total_fires() const;

  /// Sum over sinks of consumed tokens (progress measure).
  std::uint64_t total_consumed() const;

 private:
  struct Seg {
    Token fwd;
    bool stop = false;
    Token prev_fwd;
    bool prev_stop = false;
    bool has_prev = false;
    SegmentStats stats;
  };

  /// Output port shared by shells and sources: one registered token,
  /// broadcast to `branch` segments, each with a pending bit that clears
  /// when that consumer takes the datum.  The mask caps fanout at 32
  /// branches per port; the constructor rejects wider fanout (ApiError),
  /// so load() can never truncate silently.
  struct OutPort {
    Token reg;
    std::uint32_t pend = 0;  // bit b set: branch b has not yet consumed reg
    std::vector<SegId> branch;

    bool busy() const { return pend != 0; }
    void load(Token t) {
      reg = t;
      pend = branch.empty() ? 0 : (branch.size() >= 32
                                       ? ~0u
                                       : ((1u << branch.size()) - 1));
    }
  };

  struct Station {
    graph::RsKind kind = graph::RsKind::kFull;
    Token slot[2];
    unsigned occ = 0;       // tokens held (0..2 full, 0..1 half)
    bool stop_reg = false;  // full stations only
    SegId in_seg = 0;
    SegId out_seg = 0;
  };

  struct ShellState {
    graph::NodeId node = 0;
    std::unique_ptr<Pearl> pearl;
    std::vector<SegId> in_seg;        // one per input port
    std::vector<OutPort> out;         // one per output port
    /// Input FIFOs (only with input_queue_depth > 0): valid tokens only,
    /// front at index 0.
    std::vector<std::vector<std::uint64_t>> in_q;
    std::uint64_t fires = 0;
    ShellActivity activity = ShellActivity::kWaitingInput;
    std::vector<std::uint64_t> in_scratch;
    std::vector<std::uint64_t> out_scratch;
  };

  struct SourceState {
    graph::NodeId node = 0;
    SourceBehavior behavior;
    OutPort port;
    std::uint64_t emitted = 0;  // index of the next datum to offer
  };

  struct SinkState {
    graph::NodeId node = 0;
    SinkBehavior behavior;
    SegId in_seg = 0;
    bool stop_now = false;
    std::uint64_t count = 0;
    std::vector<Token> stream;
    std::vector<Token> cycle_trace;
  };

  bool strict() const { return opts_.policy == StopPolicy::kCarloniStrict; }

  void present_forward();
  void settle_stops();
  void check_hold_invariant();
  void clock_edge();

  bool shell_can_fire(const ShellState& s) const;
  void present_port(const OutPort& p);

  const ShellState& shell_of(graph::NodeId id) const;
  const SinkState& sink_of(graph::NodeId id) const;

  void collect_stats_and_vcd();
  void observe_probe();

  graph::Topology topo_;
  Options opts_;
  bool finalized_ = false;
  bool trace_sinks_ = false;
  bool record_stats_ = false;
  std::uint64_t cycle_ = 0;
  std::unique_ptr<VcdTap> vcd_;
  probe::Probe* probe_ = nullptr;

  std::vector<Seg> segs_;
  std::vector<Station> stations_;
  std::vector<ShellState> shells_;
  std::vector<SourceState> sources_;
  std::vector<SinkState> sinks_;

  // node id -> index into the kind-specific vector (or npos)
  std::vector<std::size_t> node_index_;
  // channel id -> ordered segment ids / station indices
  std::vector<std::vector<SegId>> channel_segs_;
  std::vector<std::vector<std::size_t>> channel_stations_;
};

}  // namespace liplib::lip
