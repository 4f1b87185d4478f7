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
// full-data lip::System's protocol trajectory.  Every evaluator answers
// with lip::SteadyState (liplib/lip/steady_state.hpp), whose
// deadlock_found() is the screening rule.  This header keeps the
// options, the verdict word of a two-pass screen and the cure's result.

#pragma once

#include <cstddef>
#include <vector>

#include "liplib/graph/topology.hpp"
#include "liplib/lip/steady_state.hpp"
#include "liplib/lip/token.hpp"

namespace liplib::skeleton {

/// Options mirroring lip::SystemOptions (control plane only; the
/// skeleton models the paper's simplified shell).
struct SkeletonOptions {
  lip::StopPolicy policy = lip::StopPolicy::kCasuDiscardOnVoid;
  lip::StopResolution resolution = lip::StopResolution::kPessimistic;
};

/// The verdict word of a design's two screening passes (each the
/// lip::SteadyState xir::screen_for_deadlock answers), as serve's screen
/// and `lidtool screen` answer: "deadlock" when either found one, else
/// "unknown" when either ran out of budget first, else "live".
inline const char* screening_verdict_name(const lip::SteadyState& a,
                                          const lip::SteadyState& b) {
  if (a.deadlock_found() || b.deadlock_found()) return "deadlock";
  return a.found && b.found ? "live" : "unknown";
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
