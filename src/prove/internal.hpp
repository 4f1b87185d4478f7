// src/prove/internal.hpp
//
// Shared internals of liplib::prove: the environment-choice
// enumeration, state rendering and the per-cycle token bookkeeping.
// model.cpp implements them; engine.cpp drives the searches over them.
//
// A state is xir's plane key (xir::KeyLayout), and every transition is
// an xir engine step under explicit sink stops: the scalar frontier,
// counterexample replay, blame and the token audit step a
// xir::ScalarEngine, and the bit-sliced frontier loads 64 keys into a
// xir::SlicedEngine, steps them under 64 environment choices at once
// and emits the 64 successor keys.  Prove has no transition function
// or state codec of its own.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "liplib/prove/prove.hpp"
#include "liplib/xir/xir.hpp"

namespace liplib::prove::detail {

/// The initial state's key: reset (shell outputs valid, stations per
/// policy) or worst-case occupancy.
std::string initial_key(const xir::ProgramRef& prog, bool worst_case);

/// Human rendering of a state for traces: "pend:.. src:.. st:[..]".
std::string describe_state(const xir::Program& p, const std::string& key);

/// The environment alphabet: per-sink stop masks (xir::sink_stopped),
/// exhaustive up to 2^max_env_sinks choices, otherwise just {greedy,
/// all-stop}.
struct EnvChoices {
  std::vector<std::uint64_t> masks;  ///< masks[0] == 0 (greedy) always
  bool exhaustive = true;
};
EnvChoices env_choices(const xir::Program& p, std::size_t max_env_sinks);

/// Channel-indexed views of the CSR arrays (segments and stations are
/// laid out channel-major by xir::lower).
struct ChannelMap {
  std::vector<std::uint32_t> seg_begin;  ///< first segment of channel c
  std::vector<std::uint32_t> st_begin;   ///< first station of channel c
  /// Shell out-branch index driving channel c (npos32 when the producer
  /// is a source).
  std::vector<std::uint32_t> branch_of_channel;
  static constexpr std::uint32_t npos32 = ~0u;

  explicit ChannelMap(const xir::Program& p);
};

/// The certificates of the simple directed cycles graph::enumerate_cycles
/// finds (throws ApiError beyond its budget of 4096 cycles, where
/// induction answers unknown rather than under-approximating).
std::vector<CycleCertificate> enumerate_certificates(
    const graph::Topology& topo, bool worst_case);

/// Valid tokens resident on a certificate's cycle registers in an
/// engine's current state.
std::size_t cycle_tokens(const xir::ScalarEngine& eng, const ChannelMap& cm,
                         const CycleCertificate& cert);

/// Violation string the SkeletonModel monitor emits on a dead state.
inline constexpr const char* kDeadlockViolation =
    "deadlock: stop-saturated fixed point (no shell can ever fire)";

/// Environment-choice label prefix used in formal::Succ::choice.
inline constexpr const char* kChoicePrefix = "sinks_stopped=";

}  // namespace liplib::prove::detail
