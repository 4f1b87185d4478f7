// liplib/formal/checker.hpp
//
// A small explicit-state model checker, standing in for the SMV runs of
// the paper.  The paper verified, at RT level and under an environment
// assumption ("all inputs keep their values on asserted stops"):
//   shells:         coherent data, in-order outputs, no skipped outputs;
//   relay stations: in-order outputs, no skipped outputs, output held on
//                   asserted stops.
// These are finite-state safety properties over a block composed with a
// nondeterministic environment; exhaustive breadth-first reachability is
// sound and complete for them, which is exactly the guarantee SMV gives.
//
// A Model enumerates, for each reachable state, all successor states (one
// per environment choice), flagging protocol violations detected by the
// in-model monitors.  check_safety explores the full reachable state
// space and returns either a clean bill with the state count, or a
// violation with a minimal-length counterexample trace.
//
// liplib::prove composes whole topologies onto this interface (its
// SkeletonModel adapter); docs/prove.md carries the shared contract.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "liplib/support/json.hpp"

namespace liplib::formal {

/// One successor of a state under one environment choice.
struct Succ {
  /// Encoded successor state (any byte string; must be canonical).
  std::string state;
  /// Human-readable label of the environment choice (for traces).
  std::string choice;
  /// Set when the transition trips a monitor.
  std::optional<std::string> violation;
};

/// A finite transition system with embedded safety monitors.
class Model {
 public:
  virtual ~Model() = default;

  /// Canonical encoding of the initial state.
  virtual std::string initial() const = 0;

  /// All successors of `state`, one per environment choice.  Must be
  /// deterministic in `state` (same input, same output order).
  virtual std::vector<Succ> successors(const std::string& state) const = 0;

  /// Pretty-prints a state for counterexample traces.
  virtual std::string describe(const std::string& state) const {
    std::string hex;
    for (unsigned char c : state) {
      static const char* digits = "0123456789abcdef";
      hex += digits[c >> 4];
      hex += digits[c & 15];
    }
    return hex;
  }
};

/// One step of a structured counterexample trace.  The first step is the
/// initial state with an empty choice; each later step records the
/// environment choice taken from its predecessor.
struct TraceStep {
  std::string choice;     ///< environment choice ("" on the initial step)
  std::string state;      ///< canonical encoded state (raw bytes)
  std::string described;  ///< Model::describe rendering
};

/// Outcome of exhaustive reachability.
struct CheckResult {
  bool ok = false;
  bool exhausted_budget = false;       ///< state budget hit before closure
  std::uint64_t states_explored = 0;   ///< distinct states visited
  std::uint64_t transitions = 0;       ///< transitions expanded
  std::uint64_t depth_reached = 0;     ///< deepest BFS layer expanded
  /// Peak bytes of search bookkeeping: visited keys + parent choice
  /// labels + per-record overhead + the frontier (which stores pointers
  /// into the visited set, not state copies).  formal_test bounds this
  /// at roughly one state copy per explored state.
  std::uint64_t peak_tracked_bytes = 0;
  std::string violation;               ///< first (minimal-depth) violation
  std::string violation_choice;        ///< choice that tripped the monitor
  /// Structured counterexample from the initial state to the state whose
  /// `violation_choice` successor trips the monitor.  Empty when ok.
  std::vector<TraceStep> steps;
  /// Flat human rendering of the same counterexample: described states
  /// interleaved with the environment choices taken.
  std::vector<std::string> trace;

  /// Machine rendering, schema "liplib.check/1" (stable field names;
  /// states hex-encoded; same conventions as lint diagnostic JSON).
  Json to_json() const;
};

/// Explores every reachable state (BFS, so counterexamples are minimal in
/// depth) up to `max_states`; stops at the first violation.
CheckResult check_safety(const Model& model,
                         std::uint64_t max_states = 1u << 22);

}  // namespace liplib::formal
