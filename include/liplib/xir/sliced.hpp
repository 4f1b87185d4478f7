// liplib/xir/sliced.hpp
//
// The bit-sliced evaluator: 64 independent scenarios of one lowered
// program packed into each machine word.
//
// Every protocol wire of the skeleton is a boolean, so a scenario's
// whole control state is a bit position.  SlicedEngine keeps one
// uint64_t "bitplane" per segment wire and per station state bit; a
// single settle pass then advances 64 scenarios at once with plain word
// ops.  Lanes are fully independent: all updates are lane-wise boolean
// functions, so lane i of a 64-lane run is bit-identical to a 1-lane
// run (and to lip::System's protocol trajectory) — the differential
// suite asserts it.
//
// What may differ per lane: relay-station kinds (full/half per lane via
// a per-station lane mask — 64 netlist variants of one topology per
// pass), initial occupancy (saturate_stations takes a lane mask), the
// whole protocol state (load_state_keys) and, one cycle at a time, the
// sink stops (step(sink_stops)).  What is shared: the topology shape,
// the stop policy/resolution and the sink patterns that step() and
// analyze() follow.  Lane divergence in *time* (one lane reaches its
// steady state early) is handled in analyze() by per-lane rho
// detection: finished lanes simply keep stepping — their state is
// periodic, so the extra work is wasted but harmless — until every
// lane has an answer or the budget runs out.  Each lane answers with
// lip::SteadyState, derived by lip::derive_steady_state like System's
// and ScalarEngine's.
//
// See docs/xir.md for the exact masked-settle semantics.

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "liplib/xir/xir.hpp"

namespace liplib::xir {

/// 64 scenarios per word: one uint64_t bitplane per wire/state bit.
class SlicedEngine {
 public:
  static constexpr std::size_t kLanes = 64;

  /// `num_lanes` in [1, 64]: how many lanes carry live scenarios (all 64
  /// planes are computed regardless; the tail lanes just mirror the base
  /// program and are never reported).
  explicit SlicedEngine(ProgramRef program, std::size_t num_lanes = kLanes);
  SlicedEngine(const graph::Topology& topo, skeleton::SkeletonOptions opts,
               std::size_t num_lanes = kLanes);

  const Program& program() const { return *prog_; }
  std::size_t num_lanes() const { return num_lanes_; }

  /// Overrides the relay-station kinds of one lane.  `kinds` is in the
  /// program's station order (channel-major, producer-side first — the
  /// flattening of Channel::stations over channels in id order).  Must
  /// be called before the first step().
  void set_station_kinds(std::size_t lane,
                         const std::vector<graph::RsKind>& kinds);

  /// Sink stop patterns are shared by all lanes (the environment is part
  /// of the scenario batch's common harness).
  void set_sink_pattern(graph::NodeId node, std::vector<bool> pattern);

  /// Worst-case-occupancy injection on the lanes set in `lane_mask`
  /// (bit i = lane i); see ScalarEngine::saturate_stations.
  void saturate_stations(std::uint64_t lane_mask);

  void step();
  void run(std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) step();
  }

  struct StepReport {
    std::uint64_t fired = 0;    ///< live lanes in which some shell fired
    std::uint64_t pending = 0;  ///< live lanes with some valid segment
  };

  /// One cycle whose sink stops are explicit instead of the sink
  /// patterns: `sink_stops[s]` holds the lanes in which sink s stops
  /// (one word per sink, in the program's sink order).  Prove's sliced
  /// frontier steps 64 (state, environment) pairs this way.
  StepReport step(std::span<const std::uint64_t> sink_stops);

  std::uint64_t cycle() const { return cycle_; }

  /// Firings of a process node in one lane so far.
  std::uint64_t fires(std::size_t lane, graph::NodeId process) const;

  /// Every live lane's protocol state as a plane key (KeyLayout),
  /// byte-identical to ScalarEngine::state_key() for the equivalent
  /// scalar run; `out` is resized to num_lanes().
  void state_keys(std::vector<std::string>* out) const;

  /// Loads lane i's protocol state from the plane key `*keys[i]`, one
  /// key per live lane; the tail lanes copy lane 0.  Cycle, fire counts,
  /// station kinds and sink patterns are kept.
  void load_state_keys(std::span<const std::string* const> keys);

  /// Per-lane rho detection over all live lanes (the environment's
  /// period is the lcm of the sink pattern lengths); one batched pass of
  /// the protocol dynamics serves every lane, and each lane's repeat
  /// goes through lip::derive_steady_state.  Returns one steady state per
  /// live lane, equal to ScalarEngine::analyze() on the lane's scenario
  /// alone (`cycles` included: a lane's cycle when its repeat showed).
  std::vector<lip::SteadyState> analyze(std::uint64_t max_cycles = 1u << 20);

 private:
  void refresh_schedule();
  std::uint64_t shell_ready_word(std::size_t k) const;
  std::uint64_t advance(const std::uint64_t* sink_stops);
  void settle_stops(const std::uint64_t* sink_stops);
  void settle_station(std::size_t s);
  void settle_shell(std::size_t k);
  void step_stations();
  /// Every lane's plane key, transposed out of the state planes:
  /// afterwards (*planes)[64 * w + lane] is word w of the lane's key.
  void lane_key_words(std::vector<std::uint64_t>* planes) const;

  ProgramRef prog_;
  std::size_t num_lanes_ = kLanes;
  std::uint64_t live_mask_ = ~0ull;  ///< bits [0, num_lanes)
  std::uint64_t cycle_ = 0;
  bool schedule_dirty_ = false;
  SettleSchedule schedule_;  ///< for the union of per-lane dynamic sets

  // Bitplanes: bit i = lane i.
  std::vector<std::uint64_t> fwd_w_;      ///< per segment
  std::vector<std::uint64_t> stop_w_;     ///< per segment
  std::vector<std::uint64_t> half_mask_;  ///< per station: lane is kHalf
  std::vector<std::uint64_t> occ1_;       ///< per station: occ >= 1
  std::vector<std::uint64_t> occ2_;       ///< per station: occ == 2
  std::vector<std::uint64_t> v0_;
  std::vector<std::uint64_t> v1_;
  std::vector<std::uint64_t> stop_reg_;
  std::vector<std::uint64_t> pend_w_;     ///< per shell out branch
  std::vector<std::uint64_t> src_pend_w_; ///< per source branch
  std::vector<std::uint64_t> fires_;      ///< [shell * 64 + lane]
  /// Per lane: tokens taken by Program::src_fed_sinks.
  std::vector<std::uint64_t> sink_tokens_;
  std::vector<std::vector<std::uint8_t>> sink_pattern_;  ///< per sink
};

/// One station-kind scenario of a batched screen.
struct VariantSpec {
  /// Station kinds in program order (channel-major); empty = the base
  /// topology's kinds unchanged.
  std::vector<graph::RsKind> kinds;
  bool worst_case_occupancy = false;
};

/// Screens up to 64 kind-variants of one topology in a single sliced
/// evaluation: the topology is lowered once, each variant occupies one
/// lane, and one batched analyze() yields every verdict.  Verdicts are
/// equal to xir::screen_for_deadlock's on the equivalent per-variant
/// topologies.
std::vector<lip::SteadyState> screen_variants(
    const graph::Topology& topo, const std::vector<VariantSpec>& variants,
    skeleton::SkeletonOptions opts = {}, std::uint64_t max_cycles = 1u << 20);

}  // namespace liplib::xir
