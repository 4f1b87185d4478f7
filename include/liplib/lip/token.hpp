// liplib/lip/token.hpp
//
// The basic vocabulary of the latency-insensitive protocol: tokens
// (valid data or voids) and the stop-handling policy.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace liplib::lip {

/// One item travelling on a channel in one clock cycle: either a valid
/// datum or a void ("τ" in the LIP literature; `valid == false`).
struct Token {
  std::uint64_t data = 0;
  bool valid = false;

  static Token make_void() { return {0, false}; }
  static Token of(std::uint64_t d) { return {d, true}; }

  friend bool operator==(const Token&, const Token&) = default;

  /// "n" for a void (the paper's notation in Fig. 1/2), the datum otherwise.
  std::string str() const {
    return valid ? std::to_string(data) : std::string("n");
  }
};

/// How blocks treat stop signals that arrive on channels currently
/// carrying an invalid (void) datum.
enum class StopPolicy {
  /// Carloni-style reference protocol: the stop signal is back-propagated
  /// regardless of the validity of the signal it stops; voids occupy
  /// relay-station storage and are frozen by stops like real data.
  kCarloniStrict,

  /// The paper's refinement: stops arriving on invalid signals are
  /// discarded, voids never occupy storage and are squashed at stall
  /// points.  Gives higher throughput and local void/stop management.
  kCasuDiscardOnVoid,
};

inline const char* to_string(StopPolicy p) {
  return p == StopPolicy::kCarloniStrict ? "CarloniStrict"
                                         : "CasuDiscardOnVoid";
}

/// Stable wire name of a stop policy, the spelling of every `policy`
/// knob: "strict" (kCarloniStrict) or "variant" (kCasuDiscardOnVoid).
inline const char* policy_name(StopPolicy p) {
  return p == StopPolicy::kCarloniStrict ? "strict" : "variant";
}

/// Inverse of policy_name; returns false on an unknown name.
inline bool parse_policy(std::string_view name, StopPolicy* out) {
  for (StopPolicy p :
       {StopPolicy::kCasuDiscardOnVoid, StopPolicy::kCarloniStrict}) {
    if (name == policy_name(p)) {
      *out = p;
      return true;
    }
  }
  return false;
}

/// How the simulator resolves the backward stop network when it contains
/// a combinational cycle.  Half relay stations and shells propagate stops
/// combinationally; a loop containing no full relay station therefore
/// closes a combinational cycle on the stop wires — a structural latch.
/// Real hardware may settle it either way; the paper's liveness result
/// ("potential deadlocks iff half relay stations are present in loops")
/// is exactly the pessimistic settling.  Acyclic stop networks have a
/// unique fixed point, so the choice only matters for half-RS loops.
enum class StopResolution {
  /// Least fixed point: a self-supporting stop cycle resolves to
  /// no-stop; models hardware that happens to settle low.
  kOptimistic,
  /// Greatest fixed point: a self-supporting stop cycle asserts itself
  /// and the loop deadlocks; worst-case hardware.  Screening under this
  /// mode is sound for both.  This is the default.
  kPessimistic,
};

inline const char* to_string(StopResolution r) {
  return r == StopResolution::kOptimistic ? "Optimistic" : "Pessimistic";
}

}  // namespace liplib::lip
