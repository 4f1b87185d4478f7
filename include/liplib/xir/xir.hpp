// liplib/xir/xir.hpp
//
// liplib::xir — the compiled skeleton substrate.
//
// The skeleton is the control plane of a latency-insensitive design —
// validity bits, occupancies and stop wires, with no data and no pearls.
// xir lowers a topology ONCE into a flattened CSR/arena IR — plain index
// arrays, no per-node heap objects — and runs two evaluators over it:
//
//  - ScalarEngine: a compiled scalar evaluator, bit-exact against the
//    protocol trajectory of the full-data lip::System.  The stop network
//    is settled by straight-line sweeps over the CSR arrays in a
//    precomputed dependency order: every stop producer outside a
//    combinational cycle is evaluated exactly once per cycle (Kahn
//    topological order over the stop-dependency graph); only the cyclic
//    remainder — half stations and shells on combinational stop loops,
//    the paper's hazard case — iterates to the fixpoint.  Because the
//    stop system is monotone from its pessimistic (all-1) or optimistic
//    (all-0) start, the ordered single pass lands on the same extreme
//    fixpoint as System's repeated sweeps.
//
//  - SlicedEngine (xir/sliced.hpp): a bit-sliced evaluator packing 64
//    independent scenarios of one lowered program into each machine
//    word — 64 station-kind variants or screening scenarios settled per
//    pass, lane divergence handled by masked updates.
//
// Each job has one evaluator: a single design's screen, steady state,
// cure, replay and deadlock evidence run on ScalarEngine; batched
// variant screens run 64 variants per SlicedEngine pass; prove's
// frontiers step both engines under explicit sink stops.  Both engines
// encode the protocol state one way, the plane key (KeyLayout), and
// answer with System's own result type, lip::SteadyState, derived by
// lip::derive_steady_state under System's deadlock rule.  lip::System is
// the reference model the differential suite holds both against, whole
// result to whole result.
//
// See docs/xir.md for the IR layout and lowering rules.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "liplib/graph/topology.hpp"
#include "liplib/lip/steady_state.hpp"
#include "liplib/skeleton/skeleton.hpp"

namespace liplib::probe {
class Probe;
struct Wiring;
}  // namespace liplib::probe

namespace liplib::xir {

/// The settle schedule of a lowered program: the stop producers that can
/// be evaluated exactly once in dependency order, and the combinational
/// remainder that must iterate.  Unit ids: u < num_stations is station
/// u; otherwise shell (u - num_stations).
struct SettleSchedule {
  std::vector<std::uint32_t> order;    ///< acyclic units, consumers first
  std::vector<std::uint32_t> iterate;  ///< units on/behind stop cycles
};

/// The flattened IR: one topology lowered into CSR index arrays.  All
/// layout conventions match lip::System's (segments laid out channel by
/// channel, hop by hop; stations in channel-major order; shell branch
/// lists port-major with branches appended in channel-id order), so
/// unit indices are interchangeable between the engines, System and
/// probe::Wiring.
struct Program {
  graph::Topology topo;
  skeleton::SkeletonOptions opts;
  bool strict = false;       ///< StopPolicy::kCarloniStrict
  bool pessimistic = true;   ///< StopResolution::kPessimistic

  std::size_t num_segments = 0;

  // Stations, channel-major order.
  std::vector<std::uint32_t> st_in;    ///< upstream segment
  std::vector<std::uint32_t> st_out;   ///< downstream segment
  std::vector<std::uint8_t> st_half;   ///< base kind: 1 = RsKind::kHalf

  // Shells (process nodes), node-id order.
  std::vector<graph::NodeId> shell_node;
  std::vector<std::uint32_t> shell_in_begin;  ///< size shells+1
  std::vector<std::uint32_t> shell_in_seg;    ///< input segment per port
  std::vector<std::uint32_t> shell_br_begin;  ///< size shells+1
  std::vector<std::uint32_t> shell_br_seg;    ///< out branch segments
  /// Port boundaries inside the branch list (size = total out ports + 1,
  /// indexed via shell_port_begin); kept for probe wiring replay.
  std::vector<std::uint32_t> shell_port_begin;  ///< size shells+1
  std::vector<std::uint32_t> port_br_begin;     ///< per port, +1 sentinel

  // Sources and sinks, node-id order.
  std::vector<graph::NodeId> src_node;
  std::vector<std::uint32_t> src_br_begin;  ///< size sources+1
  std::vector<std::uint32_t> src_br_seg;
  std::vector<graph::NodeId> sink_node;
  std::vector<std::uint32_t> sink_seg;
  /// The sinks whose channel starts at a source: the only sinks whose
  /// tokens the engines count for the deadlock rule (a sink behind a
  /// shell takes, over a repeating period, what the shell put in).
  std::vector<std::uint32_t> src_fed_sinks;

  /// NodeId -> dense per-kind index (shell/source/sink), or npos.
  std::vector<std::size_t> node_index;

  /// Base settle schedule (computed from st_half; a SlicedEngine whose
  /// lanes upgrade stations to half builds its own).
  SettleSchedule schedule;

  std::size_t num_stations() const { return st_in.size(); }
  std::size_t num_shells() const { return shell_node.size(); }
  std::size_t num_sources() const { return src_node.size(); }
  std::size_t num_sinks() const { return sink_node.size(); }
};

using ProgramRef = std::shared_ptr<const Program>;

/// The plane key: the one encoding of a lowered program's protocol
/// state.  Both engines key their repeat searches with it and load and
/// emit it, and prove keys its state sets and documents with it.  The
/// state is a list of bit planes: one per shell out-branch pending flag
/// and one per source branch pending flag (every fanout branch has its
/// own plane, so no branch is ever folded away), then five per station
/// — occupancy >= 1, occupancy == 2, front slot valid, back slot valid,
/// registered stop — with slot validity masked by occupancy, since an
/// empty slot is not state.  Plane i is bit i % 8 of key byte i / 8,
/// zero-padded to whole 64-bit words, so 64 keys transpose into 64
/// lanes one word at a time.
struct KeyLayout {
  explicit KeyLayout(const Program& p);

  std::size_t n_pend = 0;     ///< shell out-branch planes
  std::size_t n_src = 0;      ///< source branch planes
  std::size_t n_st = 0;       ///< stations, five planes each
  std::size_t num_planes = 0;
  std::size_t num_words = 0;  ///< ceil(num_planes / 64)

  std::size_t key_bytes() const { return num_words * 8; }
  std::size_t pend_plane(std::size_t b) const { return b; }
  std::size_t src_plane(std::size_t b) const { return n_pend + b; }
  std::size_t occ1_plane(std::size_t s) const { return n_pend + n_src + s; }
  std::size_t occ2_plane(std::size_t s) const { return occ1_plane(s) + n_st; }
  std::size_t v0_plane(std::size_t s) const { return occ2_plane(s) + n_st; }
  std::size_t v1_plane(std::size_t s) const { return v0_plane(s) + n_st; }
  std::size_t sreg_plane(std::size_t s) const { return v1_plane(s) + n_st; }

  /// Plane `plane` of a key.
  static bool bit(const std::string& key, std::size_t plane) {
    return (static_cast<unsigned char>(key[plane >> 3]) >> (plane & 7)) & 1;
  }
};

/// Whether sink `sink` stops under an explicit stop mask: bit s stops
/// sink s, and bit 63 stops sink 63 and every sink past it, so ~0 stops
/// every sink of any design.
inline bool sink_stopped(std::uint64_t sink_stops, std::size_t sink) {
  return ((sink_stops >> (sink < 63 ? sink : 63)) & 1) != 0;
}

/// Lowers a topology into the flattened IR.  Validates the topology the
/// way lip::System's constructor does for the paper's simplified shell
/// and throws ApiError on structural errors or fanout beyond 32 branches.
ProgramRef lower(const graph::Topology& topo,
                 skeleton::SkeletonOptions opts = {});

/// Builds a settle schedule for a given dynamic-station set (1 = the
/// station's stop output is combinational, i.e. half in at least one
/// lane).  Shells are always dynamic.
SettleSchedule build_settle_schedule(
    const Program& p, const std::vector<std::uint8_t>& station_dynamic);

/// The compiled scalar engine: the skeleton simulator.  Its protocol
/// dynamics, steady states and probe observations are bit-exact against
/// lip::System's (the differential suite in tests/xir_test.cpp holds the
/// two together over 300 random topologies).
class ScalarEngine {
 public:
  explicit ScalarEngine(ProgramRef program);
  /// Convenience: lower + construct in one step.
  ScalarEngine(const graph::Topology& topo,
               skeleton::SkeletonOptions opts = {});

  const Program& program() const { return *prog_; }

  /// Gives sink `node` a cyclic stop pattern (true = stop); default is a
  /// greedy never-stopping consumer.  The environment's period is the
  /// lcm of the pattern lengths, which analyze() derives itself.
  void set_sink_pattern(graph::NodeId node, std::vector<bool> pattern);

  /// Worst-case-occupancy fault injection: marks every relay station as
  /// holding (at least) one valid token, as if the system were observed
  /// under maximal traffic or perturbed by soft errors.  From *reset* a
  /// loop can never saturate (every directed cycle holds exactly its
  /// shells' tokens forever), which is why the paper observes that the
  /// deadlock's "injection will never occur" in well-formed runs; under
  /// this worst case, a loop whose stop path is fully combinational (all
  /// half stations) becomes a self-sustaining stop latch — the paper's
  /// "potential deadlock iff half relay stations are present in loops".
  /// lip::System::saturate_stations is the full-data twin.
  void saturate_stations();

  void step();
  void run(std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) step();
  }

  struct StepReport {
    bool fired = false;    ///< some shell fired
    bool pending = false;  ///< some segment carried a valid token
  };

  /// One cycle whose sink stops are `sink_stops` (see sink_stopped)
  /// instead of the sink patterns: prove's transition function.
  StepReport step(std::uint64_t sink_stops);

  /// The settled valid and stop wires of a segment in the last step.
  bool valid_wire(std::uint32_t segment) const { return fwd_[segment] != 0; }
  bool stop_wire(std::uint32_t segment) const { return stop_[segment] != 0; }

  /// Valid tokens held by a shell out branch's pending register (0 or
  /// 1) and by a station's occupied slots (0 to 2): prove's token count.
  unsigned branch_tokens(std::uint32_t branch) const { return pend_[branch]; }
  unsigned station_tokens(std::uint32_t station) const {
    return (st_occ_[station] >= 1 && st_v0_[station]) +
           (st_occ_[station] == 2 && st_v1_[station]);
  }

  std::uint64_t cycle() const { return cycle_; }

  /// Firings of a process node so far.
  std::uint64_t fires(graph::NodeId process) const;

  /// The protocol state (no counters, no environment phase) as a plane
  /// key (KeyLayout).  Repeat cycles, not key bytes, are comparable with
  /// lip::System::protocol_state().
  std::string state_key() const;

  /// Replaces the protocol state with a plane key of the same program;
  /// the cycle, fire counts and sink patterns are kept.
  void load_state_key(const std::string& key);

  /// Runs lip::first_repeat until the protocol state and the
  /// environment's phase repeat (the period is the lcm of the sink
  /// pattern lengths), or max_cycles elapse: lip::measure_steady_state's
  /// answer for the same design, field for field.
  lip::SteadyState analyze(std::uint64_t max_cycles = 1u << 20);

  /// Attaches a probe through the same Wiring contract as lip::System
  /// (and thereby the telemetry watchdog, which rides the probe's
  /// CycleObserver hook).  Must be called before the first step() on an
  /// unbound probe; `probe` must outlive the engine.
  void attach_probe(probe::Probe& probe);

 private:
  bool shell_ready(std::size_t k) const;
  bool advance(const std::uint64_t* sink_stops);
  void settle_stops(const std::uint64_t* sink_stops);
  void eval_settle_unit(std::uint32_t unit);
  bool eval_settle_unit_changed(std::uint32_t unit);
  void observe_probe();

  ProgramRef prog_;
  probe::Probe* probe_ = nullptr;
  std::uint64_t cycle_ = 0;

  // Arena state: plain byte arrays indexed by the program's CSR ids.
  std::vector<std::uint8_t> fwd_;        ///< per segment
  std::vector<std::uint8_t> stop_;       ///< per segment
  std::vector<std::uint8_t> st_occ_;     ///< per station: 0, 1, 2
  std::vector<std::uint8_t> st_v0_;
  std::vector<std::uint8_t> st_v1_;
  std::vector<std::uint8_t> st_stop_reg_;
  std::vector<std::uint8_t> pend_;       ///< per shell out branch
  std::vector<std::uint8_t> src_pend_;   ///< per source branch
  std::vector<std::uint64_t> fire_count_;  ///< per shell
  std::uint64_t sink_tokens_ = 0;  ///< taken by Program::src_fed_sinks
  std::vector<std::vector<std::uint8_t>> sink_pattern_;  ///< per sink
};

/// The paper's deadlock screen, the one answer to "does this design
/// deadlock from this occupancy?": from reset or worst-case occupancy,
/// run to the transient's extinction (the first repeated state) within
/// `max_cycles`.  The answer is the steady state itself; its
/// deadlock_found() is the verdict.  A deadlock's evidence is
/// telemetry::deadlock_evidence; batched variant screens are
/// xir::screen_variants (xir/sliced.hpp).
lip::SteadyState screen_for_deadlock(const ProgramRef& prog,
                                     bool worst_case_occupancy,
                                     std::uint64_t max_cycles = 1u << 20);

/// Convenience: lower + screen.
lip::SteadyState screen_for_deadlock(
    const graph::Topology& topo, skeleton::ScreeningOptions opts = {},
    std::uint64_t max_cycles = 1u << 20);

/// The paper's cure: upgrades half relay stations on cycles to full ones
/// — one substitution at a time, re-screening after each — until the
/// design screens deadlock free or no half station remains on a cycle.
skeleton::CureResult cure_deadlocks(const graph::Topology& topo,
                                    skeleton::ScreeningOptions opts = {},
                                    std::uint64_t max_cycles = 1u << 20);

/// Builds the probe::Wiring of a lowered program (the wiring
/// lip::System::attach_probe builds for the same topology).
void build_probe_wiring(const Program& p, probe::Wiring* out);

}  // namespace liplib::xir

namespace liplib::skeleton {
/// perfbench's compatibility names for the skeleton simulator and its
/// answer.
using Skeleton = xir::ScalarEngine;
using SkeletonResult = lip::SteadyState;
}  // namespace liplib::skeleton
