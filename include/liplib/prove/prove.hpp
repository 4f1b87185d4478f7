// liplib/prove/prove.hpp
//
// liplib::prove — whole-skeleton static verification: bounded model
// checking and k-induction over the protocol state space.
//
// Lint samples the deadlock risk structurally (LIP006) and campaigns
// sample it dynamically (screening millions of scenarios); prove closes
// the gap with an exhaustive answer.  A topology is lowered onto the
// xir flattened IR and its *protocol* state — shell/source pending
// bits, relay-station occupancy, slot validity and registered stops —
// is explored against a nondeterministic environment in which every
// sink independently chooses to assert stop each cycle (sources stay
// always-ready, the paper's environment assumption: inputs are held
// while stops are asserted).  Data never enters the picture: the
// skeleton is the tag-alphabet/data-independence abstraction of the
// full design, so a verdict over it is a verdict over any data binding
// (docs/prove.md gives the soundness argument).
//
// The property: **deadlock freedom** — no reachable state is a
// stop-saturated fixed point, i.e. a state that, under the most
// permissive environment (no sink stops), maps to itself with zero
// shell firings while valid tokens are pending.  Such a state is
// frozen forever: stops only restrict motion, so no environment can
// revive it.  Auxiliary properties ride along: per-cycle token
// conservation (checked on every counterexample path) and the analytic
// throughput bound for consistency cross-checks.
//
// Every transition is a step of the xir engines under explicit sink
// stops, and every state is xir's plane key (xir::KeyLayout): prove has
// no transition function or state encoding of its own.
//
// Three engines, one verdict:
//  (a) exhaustive BFS reachability, reusing formal::check_safety over
//      a Model adapter that steps a xir::ScalarEngine (minimal
//      counterexamples, small designs);
//  (b) bounded model checking to depth k with a bit-sliced frontier —
//      a xir::SlicedEngine carrying 64 (state, environment-choice)
//      pairs, expanded in one settle pass (>= 10x the scalar frontier;
//      bench_prove locks it);
//  (c) k-induction: the bounded base case plus a per-cycle inductive
//      certificate.  A directed cycle of S shells, H half and F full
//      stations latches only in the unique configuration holding
//      S + H + 2F resident valid tokens, and (under the paper's
//      variant protocol) a cycle's resident token count is invariant
//      under *every* transition — so an initial count below the
//      threshold is an unbounded proof that the latch never closes.
//      This is the paper's token-conservation argument, promoted from
//      a lint heuristic to a checked inductive invariant.
//
// A counterexample is emitted as a standard liplib.postmortem/1 bundle
// (the watchdog-guarded greedy run of the same design), so `lidtool
// replay` reproduces the proved deadlock in the simulator at the
// identical cycle with the identical blame.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "liplib/formal/checker.hpp"
#include "liplib/graph/topology.hpp"
#include "liplib/skeleton/skeleton.hpp"
#include "liplib/support/json.hpp"
#include "liplib/support/rational.hpp"
#include "liplib/telemetry/watchdog.hpp"
#include "liplib/xir/xir.hpp"

namespace liplib::prove {

/// Proof strategy.
enum class Method : std::uint8_t {
  /// Reachability first; when the state budget runs out before the
  /// space closes, fall back to the k-induction certificates.
  kAuto,
  /// Exhaustive BFS over the reachable space (unbounded proof when it
  /// closes within the state budget).
  kReachability,
  /// Bounded model checking to `depth` transitions; "unknown at bound"
  /// when neither a counterexample nor closure shows up in time.
  kBmc,
  /// k-induction: bounded base case + per-cycle token certificates.
  kInduction,
};

/// Stable lower-case name ("auto", "reach", "bmc", "induction").
const char* method_name(Method m);

/// Inverse of method_name; returns false on an unknown name.
bool parse_method(std::string_view name, Method* out);

/// Outcome class, mapped onto process exit codes by exit_code().
enum class Verdict : std::uint8_t {
  kProved,          ///< deadlock freedom holds in every reachable state
  kCounterexample,  ///< a reachable stop-saturated fixed point exists
  kUnknown,         ///< undecided at the configured bound/budget
};

const char* verdict_name(Verdict v);

struct ProveOptions {
  /// Protocol variant (stop policy and resolution).
  skeleton::SkeletonOptions skeleton;
  /// Initial state: reset (shell outputs valid, stations empty) or
  /// worst-case occupancy (every station holds one valid token — the
  /// soft-error / saturated-traffic regime of xir::ScalarEngine::
  /// saturate_stations).
  bool worst_case_occupancy = false;
  Method method = Method::kAuto;
  /// BMC depth bound (transitions from the initial state).  0 picks a
  /// default of transient_bound(topo) + 64 for kBmc/kInduction.
  std::uint64_t depth = 0;
  /// Distinct-state budget for reachability/BMC.
  std::uint64_t max_states = 1u << 20;
  /// Use the bit-sliced frontier (64 expansions per xir::SlicedEngine
  /// step); the scalar oracle is formal::check_safety over the Model
  /// adapter.  Verdicts are identical either way.
  bool sliced_frontier = true;
  /// Exhaustive environment enumeration up to 2^max_env_sinks choices
  /// per state (<= 64 keeps one choice set inside a sliced word).
  /// Designs with more sinks are explored with the two extreme
  /// environments only, which can find counterexamples but cannot
  /// prove — the result is then at best kUnknown.
  std::size_t max_env_sinks = 6;
  /// Simple-cycle enumeration budget for the induction certificates
  /// (graph::enumerate_cycles); beyond it induction answers unknown
  /// rather than silently under-approximating.
  std::size_t max_cycles = 4096;
};

/// One step of a counterexample trace: the environment choice taken
/// and the state it leads to (xir's plane key; hex in JSON).
struct CexStep {
  std::uint64_t cycle = 0;
  /// Sinks holding stop asserted during this transition (node ids).
  std::vector<graph::NodeId> stopped_sinks;
  std::string state;  ///< plane key of the state *after* the step
};

/// A minimal-depth reachable deadlock.
struct Counterexample {
  std::uint64_t depth = 0;  ///< transitions from init to the dead state
  std::string dead_state;   ///< plane key of the fixed point
  std::vector<CexStep> steps;  ///< init excluded; steps.size() == depth
  /// The saturated stop cycle blamed for the latch: shells on it and
  /// the channels closing it (lint-diagnostic locus conventions).
  std::vector<graph::NodeId> culprit_shells;
  std::vector<graph::ChannelId> culprit_channels;
  /// True when the greedy environment alone reaches the deadlock — in
  /// that case `postmortem` below replays it in the simulator.
  bool greedy_reproduces = false;
};

/// The k-induction certificate of one directed cycle: its resident
/// valid-token count is conserved by every transition, and the latch
/// configuration needs `dead_threshold` tokens; `tokens` below the
/// threshold is an unbounded proof for this cycle.
struct CycleCertificate {
  std::vector<graph::NodeId> nodes;        ///< shells, in cycle order
  std::vector<graph::ChannelId> channels;  ///< hop channels, in order
  std::size_t shells = 0;
  std::size_t half_stations = 0;
  std::size_t full_stations = 0;
  std::size_t tokens = 0;          ///< resident valid tokens at init
  std::size_t dead_threshold = 0;  ///< == shells + half + 2*full
  bool holds = false;              ///< tokens < dead_threshold
};

struct ProveResult {
  Verdict verdict = Verdict::kUnknown;
  Method method = Method::kAuto;       ///< as requested
  Method method_used = Method::kAuto;  ///< what decided the verdict
  bool worst_case_occupancy = false;
  /// The reachable space was fully explored (exhaustive proof or full
  /// certainty that the counterexample is depth-minimal).
  bool closed = false;
  /// Every enumerated cycle's certificate holds (k-induction proof).
  bool induction_closed = false;
  /// The environment enumeration was exhaustive (see max_env_sinks);
  /// required for any kProved verdict.
  bool env_exhaustive = true;
  std::uint64_t states_explored = 0;
  std::uint64_t transitions = 0;
  std::uint64_t depth_reached = 0;  ///< deepest BFS layer expanded
  std::uint64_t depth_bound = 0;    ///< effective BMC bound (0 = none)
  /// Token conservation held on every checked state (counterexample
  /// path and sampled frontier states); a failure is a prover bug, not
  /// a design bug, and forces kUnknown.
  bool token_conservation_ok = true;
  /// Analytic throughput bound min over cycles of S/(S+R) — reported
  /// for the throughput-consistency cross-check (a proved-live design
  /// must screen at or below it).
  Rational cycle_bound{1};
  std::vector<CycleCertificate> certificates;
  std::optional<Counterexample> counterexample;
  /// Replayable liplib.postmortem/1 bundle of the deadlock (present
  /// when the greedy environment reproduces it — every latch found by
  /// token-reachable saturation does).
  std::optional<telemetry::PostMortem> postmortem;
  std::string note;  ///< why unknown / informational

  /// 0 = proved, 1 = counterexample, 2 = unknown (the lidtool prove
  /// contract; 2 is also the usage-error exit).
  int exit_code() const;
  /// Machine rendering, schema "liplib.prove/1" (stable field names,
  /// node/channel-id loci like lint diagnostics).
  Json to_json(const graph::Topology& topo) const;
  /// Human rendering.
  std::string to_string(const graph::Topology& topo) const;
};

/// Proves (or refutes) deadlock freedom of a topology.  Throws
/// ApiError on structural errors (the same validation as xir::lower).
ProveResult prove(const graph::Topology& topo, ProveOptions opts = {});

/// The formal::Model adapter: the whole-skeleton transition system
/// with per-sink stop nondeterminism and the dead-state monitor wired
/// in as a safety violation; each successor is one xir::ScalarEngine
/// step under one sink-stop mask.  This is the scalar frontier —
/// formal::check_safety(*make_skeleton_model(...)) is exhaustive BFS
/// reachability over the protocol state space — and the oracle the
/// bit-sliced frontier is differentially tested against.
class SkeletonModel : public formal::Model {
 public:
  ~SkeletonModel() override = default;
  /// Number of environment choices per state (2^sinks, capped).
  virtual std::uint64_t num_env_choices() const = 0;
  virtual bool env_exhaustive() const = 0;
};

std::unique_ptr<SkeletonModel> make_skeleton_model(
    const graph::Topology& topo, const ProveOptions& opts = {});

/// The directed cycles the induction certificates cover (those of
/// graph::enumerate_cycles, in its order), with their initial token
/// counts under `opts`.  Exposed for tests and for the lint cross-check
/// (an all-half cycle's certificate fails exactly when LIP006 fires).
/// Throws ApiError when `opts.max_cycles` is exceeded.
std::vector<CycleCertificate> cycle_certificates(const graph::Topology& topo,
                                                 const ProveOptions& opts = {});

}  // namespace liplib::prove
