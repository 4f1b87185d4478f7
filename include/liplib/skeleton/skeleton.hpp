// liplib/skeleton/skeleton.hpp
//
// The skeleton simulator: "we are allowed to simulate just the skeleton of
// the system consisting of stop and valid signals, thus the simulation
// cost is absolutely negligible" (paper, liveness section).
//
// A Skeleton simulates only the control plane of a latency-insensitive
// design — validity bits, occupancies and stop wires — with no data
// movement and no pearl evaluation.  Its protocol dynamics are exactly
// those of lip::System (the test suite locks the two together), but its
// state is a few bytes per block, which makes transient-extinction
// screening essentially free.
//
// Skeleton is the interpreter: the reference model the compiled xir
// engines are held to bit for bit, and the only evaluator of queued
// shells (input_queue_depth > 0).  Screening, steady-state analysis and
// the cure run on xir::ScalarEngine (liplib/xir/xir.hpp).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "liplib/graph/topology.hpp"
#include "liplib/lip/token.hpp"
#include "liplib/support/rational.hpp"

namespace liplib::probe {
class Probe;
}  // namespace liplib::probe

namespace liplib::skeleton {

/// Options mirroring lip::SystemOptions (control plane only).
struct SkeletonOptions {
  lip::StopPolicy policy = lip::StopPolicy::kCasuDiscardOnVoid;
  lip::StopResolution resolution = lip::StopResolution::kPessimistic;
  /// Shell flavour, mirroring lip::SystemOptions::input_queue_depth:
  /// 0 = the paper's simplified shell; k > 0 = Carloni-style shells with
  /// k-deep input FIFOs (the skeleton tracks occupancies only).
  std::size_t input_queue_depth = 0;
};

/// Result of steady-state analysis on the skeleton.
struct SkeletonResult {
  bool found = false;          ///< a period was detected in budget
  std::uint64_t transient = 0; ///< first cycle of the periodic regime
  std::uint64_t period = 0;
  /// Firings per cycle of each process node, in node-id order.
  std::vector<Rational> shell_throughput;
  std::vector<graph::NodeId> shell_ids;
  bool deadlocked = false;         ///< no progress at all in the period
  bool has_starved_shell = false;  ///< some shell never fires

  Rational system_throughput() const {
    if (shell_throughput.empty()) return Rational(0);
    Rational best(1);
    for (const auto& t : shell_throughput) {
      if (t < best) best = t;
    }
    return best;
  }
  /// Node ids of shells that never fire in the steady state.
  std::vector<graph::NodeId> starved_shells() const;
};

/// Control-plane-only simulator of a latency-insensitive design.
class Skeleton {
 public:
  explicit Skeleton(const graph::Topology& topo, SkeletonOptions opts = {});

  /// Gives sink `node` a cyclic stop pattern (true = stop); default is a
  /// greedy never-stopping consumer.  Patterns make the environment
  /// periodic with period = lcm of pattern lengths; pass that period to
  /// analyze().
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
  void saturate_stations();

  /// Advances one clock cycle.
  void step();

  void run(std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) step();
  }

  std::uint64_t cycle() const { return cycle_; }

  /// Firings of a process node so far.
  std::uint64_t fires(graph::NodeId process) const;

  /// Serialized protocol state (no counters), for period detection.
  std::string state_signature() const;

  /// Runs until the protocol state repeats (rho detection) and derives
  /// exact throughputs, transient, period and a deadlock verdict.
  SkeletonResult analyze(std::uint64_t max_cycles = 1u << 20,
                         std::uint64_t env_period = 1);

  /// Attaches an observability probe (liplib/probe).  Must be called
  /// before the first step() on an unbound probe; `probe` must outlive
  /// the Skeleton.  Requires the simplified shell
  /// (input_queue_depth == 0).
  void attach_probe(probe::Probe& probe);

 private:
  /// Fanout is capped at 32 branches per port (pend is a 32-bit mask);
  /// the constructor rejects wider fanout, mirroring lip::System.
  struct Port {
    std::uint32_t pend = 0;
    std::vector<std::size_t> branch;  // segment ids
    void load_all() {
      pend = branch.empty()
                 ? 0
                 : (branch.size() >= 32 ? ~0u
                                        : ((1u << branch.size()) - 1));
    }
  };
  struct Station {
    graph::RsKind kind = graph::RsKind::kFull;
    unsigned occ = 0;
    bool v0 = false, v1 = false;  // slot validity (voids under strict)
    bool stop_reg = false;
    std::size_t in_seg = 0, out_seg = 0;
  };
  struct Shell {
    graph::NodeId node = 0;
    std::vector<std::size_t> in_seg;
    std::vector<Port> out;
    std::vector<std::uint8_t> q_size;  // queued mode: FIFO occupancies
    std::uint64_t fire_count = 0;
  };
  struct Source {
    Port port;
  };
  struct Sink {
    std::size_t in_seg = 0;
    std::vector<bool> pattern;  // empty = greedy
    std::uint64_t consumed = 0;
  };

  bool strict() const {
    return opts_.policy == lip::StopPolicy::kCarloniStrict;
  }
  bool shell_can_fire(const Shell& s) const;
  void settle_stops();
  void observe_probe();

  graph::Topology topo_;
  SkeletonOptions opts_;
  probe::Probe* probe_ = nullptr;
  std::uint64_t cycle_ = 0;
  std::vector<std::uint8_t> fwd_;   // per segment: presented validity
  std::vector<std::uint8_t> stop_;  // per segment: settled stop
  std::vector<Station> stations_;
  std::vector<Shell> shells_;
  std::vector<Source> sources_;
  std::vector<Sink> sinks_;
  std::vector<std::size_t> node_index_;
};

/// Paper's deadlock screening recipe: simulate the skeleton up to the
/// transient's extinction; "either the deadlock will show, or will be
/// forever avoided".  xir::screen_for_deadlock runs the recipe on the
/// compiled scalar engine; xir::screen_variants batches it.
struct ScreeningVerdict {
  bool ran_to_steady_state = false;
  bool deadlock_found = false;  ///< full deadlock or starved shells
  std::uint64_t transient = 0;
  std::uint64_t period = 0;
  std::uint64_t cycles_simulated = 0;
  Rational min_throughput{0};
  std::vector<graph::NodeId> starved;
};

/// The screening verdict of a steady-state analysis that simulated
/// `cycles_simulated` cycles — the one verdict rule every evaluator
/// shares.
ScreeningVerdict screening_verdict(const SkeletonResult& r,
                                   std::uint64_t cycles_simulated);

/// The verdict word of a design's two screening passes, as serve's
/// screen and `lidtool screen` answer: "deadlock" when either found one,
/// else "unknown" when either ran out of budget first, else "live".
inline const char* screening_verdict_name(const ScreeningVerdict& a,
                                          const ScreeningVerdict& b) {
  if (a.deadlock_found || b.deadlock_found) return "deadlock";
  return a.ran_to_steady_state && b.ran_to_steady_state ? "live" : "unknown";
}

/// How xir::screen_for_deadlock initializes the design.
struct ScreeningOptions {
  SkeletonOptions skeleton;
  /// When set, screening starts from worst-case occupancy (one valid
  /// token in every relay station) instead of reset.  Reset-state
  /// screening proves the paper's observation that deadlock never injects
  /// in well-formed runs; worst-case screening exposes the latent stop
  /// latch of half stations on loops.
  bool worst_case_occupancy = false;
};

/// Result of xir::cure_deadlocks, the paper's cure: "the cases that
/// inject deadlocks can be cured by low intrusive changes
/// (adding/substituting few relay stations)".
struct CureResult {
  graph::Topology cured;
  bool success = false;
  std::size_t substitutions = 0;
  std::vector<graph::ChannelId> touched_channels;
};

}  // namespace liplib::skeleton
