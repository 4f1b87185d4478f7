// liplib/skeleton/skeleton.hpp
//
// The shared types of skeleton screening: "we are allowed to simulate
// just the skeleton of the system consisting of stop and valid signals,
// thus the simulation cost is absolutely negligible" (paper, liveness
// section).
//
// The skeleton — validity bits, occupancies and stop wires, with no data
// movement and no pearl evaluation — runs on the compiled xir engines
// (liplib/xir/xir.hpp), which the differential suite holds to the
// full-data lip::System's protocol trajectory.  This header keeps what
// every evaluator shares: the options, the steady-state result, the
// screening verdict and the one rule that derives it.

#pragma once

#include <cstdint>
#include <vector>

#include "liplib/graph/topology.hpp"
#include "liplib/lip/token.hpp"
#include "liplib/support/rational.hpp"

namespace liplib::skeleton {

/// Options mirroring lip::SystemOptions (control plane only; the
/// skeleton models the paper's simplified shell).
struct SkeletonOptions {
  lip::StopPolicy policy = lip::StopPolicy::kCasuDiscardOnVoid;
  lip::StopResolution resolution = lip::StopResolution::kPessimistic;
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
