// liplib/campaign/jobs.hpp
//
// Standard job factories for the campaign engine: the workloads every
// experiment in the repo hand-rolled as serial loops, packaged as
// self-contained campaign jobs.
//
//  - screening jobs: skeleton deadlock screening from reset or from
//    worst-case occupancy (saturate_stations);
//  - steady-state jobs: skeleton periodicity detection with exact
//    throughputs;
//  - spot-check jobs: full-data lip::System steady state plus latency
//    equivalence against the zero-latency reference (default pearls);
//  - fuzz jobs: generate a random topology from the job's deterministic
//    seed (graph::generators + support::Rng), screen it and cross-check
//    the measured throughput against the analytic bounds — the
//    EXPERIMENTS.md §T1 offline fuzz pass as a reusable unit.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "liplib/campaign/campaign.hpp"
#include "liplib/graph/topology.hpp"
#include "liplib/lint/lint.hpp"
#include "liplib/lip/token.hpp"
#include "liplib/prove/prove.hpp"
#include "liplib/skeleton/skeleton.hpp"

namespace liplib::campaign {

/// Skeleton deadlock screen of a fixed topology (xir::screen_for_deadlock).
/// Outcome: kLive, kDeadlock (full deadlock), kStarvation (starved
/// shells), or kBudgetExhausted when no steady state shows within the
/// cycle budget.
Job make_screening_job(std::string name, graph::Topology topo,
                       skeleton::ScreeningOptions opts = {});

/// Skeleton steady-state analysis of a fixed topology on the compiled
/// scalar engine: exact throughput, transient and period.  Outcomes as
/// for screening.
Job make_steady_state_job(std::string name, graph::Topology topo,
                          skeleton::SkeletonOptions opts = {});

/// Full-data spot check of a fixed topology: binds default pearls,
/// measures the steady state on a lip::System and checks latency
/// equivalence against the reference over the budget (capped).  Outcome
/// kMismatch when equivalence breaks — the protocol safety net for
/// campaigns whose bulk runs on skeletons.
Job make_spot_check_job(std::string name, graph::Topology topo,
                        lip::StopPolicy policy =
                            lip::StopPolicy::kCasuDiscardOnVoid);

/// What a fuzz job generates and checks.
struct FuzzSpec {
  enum class Shape {
    /// make_reconvergent with randomized parameters and a randomized
    /// half/full station mix; measured skeleton throughput is checked
    /// against the exact implicit-loop bound (equality under the variant
    /// policy, upper bound under strict).
    kReconvergent,
    /// make_random_composite (the paper's "most general topology");
    /// checked live-from-reset, measured throughput against
    /// min(loop bound, implicit-loop bound), and latency equivalence on
    /// the full-data system.
    kComposite,
    /// make_random_feedforward; checked live and latency-equivalent.
    kFeedforward,
  };
  Shape shape = Shape::kComposite;
  lip::StopPolicy policy = lip::StopPolicy::kCasuDiscardOnVoid;
  /// Size knob: composite segments / feedforward processes; reconvergent
  /// parameters are drawn from the job's rng within this bound.
  std::size_t size = 3;
  /// Also run the full-data latency-equivalence check (slower; the
  /// skeleton checks alone are nearly free).
  bool check_equivalence = true;
};

/// Stable wire name of a fuzz shape ("composite", "reconvergent",
/// "feedforward"), the spelling of every `shape` knob.
const char* shape_name(FuzzSpec::Shape s);

/// Inverse of shape_name; returns false on an unknown name.
bool parse_shape(std::string_view name, FuzzSpec::Shape* out);

/// Randomized-topology fuzz job.  The topology is generated from the
/// job's deterministic rng, so a recorded failure replays from
/// (campaign seed, job index) alone.
Job make_fuzz_job(std::string name, FuzzSpec spec);

/// Static lint of a fixed topology — mass-linting a corpus of netlists
/// is a campaign of these.  Outcome: kLive when the report is clean
/// (no errors, no warnings), kDeadlock when LIP006 found a stop latch,
/// kError for any other error/warning; detail carries the first
/// offending diagnostics.  Purely static: r.cycles stays 0.
Job make_lint_job(std::string name, graph::Topology topo,
                  lint::Options options = {});

/// The linter-vs-simulator agreement check as a job: generates a random
/// composite topology of 1–4 segments from the job's deterministic seed
/// (half stations allowed on loops for half the jobs, so both verdicts
/// are exercised), and demands that the static LIP006 verdict equal the
/// dynamic worst-case screening verdict exactly — kMismatch on any
/// disagreement, kLive otherwise.  Hazardous topologies are also cured
/// via lint_and_fix; the cure must re-lint clean and screen live.
Job make_lint_crosscheck_job(std::string name);

/// `n` cross-check jobs (the keystone campaign; lidtool `campaign lint`).
std::vector<Job> make_lint_crosscheck_campaign(std::size_t n);

/// Static proof of a fixed topology via liplib::prove — mass-proving a
/// corpus of netlists is a campaign of these.  Outcome: kLive when the
/// prover returns kProved, kDeadlock on a counterexample (detail carries
/// the trace depth and the culprit loop), kBudgetExhausted when the
/// verdict is kUnknown (detail carries the prover's note).  Purely
/// static: `cycles` reports the search depth reached, not simulation
/// cycles.
Job make_prove_job(std::string name, graph::Topology topo,
                   prove::ProveOptions opts = {});

/// The prover-vs-linter-vs-simulator agreement check as a job: generates
/// a random composite topology from the job's deterministic seed
/// (exactly the lint cross-check recipe, so the corpora coincide) and
/// demands three-way agreement between the worst-case prove verdict
/// (default ProveOptions under worst-case occupancy),
/// the static LIP006 verdict, and the dynamic worst-case screening
/// verdict — kMismatch on any disagreement; unanimity is kLive (the
/// lint cross-check convention: the campaign tests the differential,
/// not the design; an agreed deadlock is a passing job whose detail
/// says "agreed: deadlock at depth ...").
Job make_prove_crosscheck_job(std::string name);

/// `n` cross-check jobs (lidtool `campaign prove`).
std::vector<Job> make_prove_crosscheck_campaign(std::size_t n);

/// Full-data probe measurement of a fixed topology (liplib/probe): the
/// skeleton is analyzed for the exact steady state, then a
/// probe-instrumented lip::System re-runs with the counting window
/// aligned to the periodic regime, and the measured per-shell
/// throughputs must equal the analytic ones exactly — kMismatch on any
/// disagreement.  On success `detail` carries the top entry of the
/// stall-attribution histogram ("victim waiting <- culprit xN").
Job make_probe_job(std::string name, graph::Topology topo,
                   lip::StopPolicy policy =
                       lip::StopPolicy::kCasuDiscardOnVoid);

/// `n` probe jobs over random composite topologies of 1–4 segments
/// (shape and stop policy drawn from each job's deterministic seed) —
/// the mass probe-vs-analytic agreement campaign behind `lidtool
/// campaign probe`.
std::vector<Job> make_probe_campaign(std::size_t n);

/// The EXPERIMENTS.md §T1 offline fuzz pass as a campaign: 300 random
/// reconvergences with mixed half/full chains checked under both stop
/// policies (600 jobs) plus 150 random composite topologies checked
/// against the analytic bounds and latency equivalence (150 jobs) —
/// 750 runs total.
std::vector<Job> make_t1_fuzz_campaign();

/// A mass station-kind screening sweep over one topology: `variants`
/// random half/full mixes (each ~1/3 half, drawn exactly like the T1
/// pass), all screened for deadlock.
struct MixScreenSpec {
  graph::Topology topo;
  skeleton::SkeletonOptions skeleton;
  /// Screen from worst-case occupancy (the regime where half-station
  /// mixes actually diverge; see xir::ScalarEngine::saturate_stations).
  bool worst_case_occupancy = true;
  /// Number of kind-variants to screen.
  std::size_t variants = 64;
};

/// Builds the sweep.  Variant `v`'s kinds are always drawn from
/// Rng(job_seed(base_seed, v)), so a variant's verdict is a pure
/// function of (base seed, variant index).  The topology is lowered once
/// and the campaign packs 64 variants per job into a single bit-sliced
/// evaluation (ceil(variants/64) jobs), each job's detail carrying the
/// per-variant outcome tally.
std::vector<Job> make_mix_screen_campaign(MixScreenSpec spec);

/// The self-contained campaign families a NamedCampaignSpec names.
enum class CampaignMode : std::uint8_t { kFuzz, kLint, kProbe, kProve };

/// Stable wire name of a campaign mode ("fuzz", "lint", "probe",
/// "prove").
const char* campaign_mode_name(CampaignMode m);

/// Inverse of campaign_mode_name; returns false on an unknown name.
bool parse_campaign_mode(std::string_view name, CampaignMode* out);

/// A generated campaign identified by a stable wire name — the
/// self-contained campaign families (no input netlist) that lidtool,
/// the serve daemon and the distributed layer (liplib/dist) rebuild
/// anywhere from the spec alone.
struct NamedCampaignSpec {
  std::string mode = "fuzz";  ///< a campaign_mode_name
  std::size_t jobs = 0;       ///< batch size
  /// fuzz only: stop policy and topology shape.  The other modes draw
  /// everything from each job's deterministic seed.
  lip::StopPolicy policy = lip::StopPolicy::kCasuDiscardOnVoid;
  FuzzSpec::Shape shape = FuzzSpec::Shape::kComposite;

  bool operator==(const NamedCampaignSpec&) const = default;
};

/// Builds the job vector of a named campaign.  A pure function of the
/// spec — job `i` of mode "fuzz" is always make_fuzz_job("fuzz/<i>",
/// ...) — so two processes handed the same spec construct identical
/// job vectors, which is what lets a campaign shard across machines by
/// job-index range alone.  Throws ApiError on an unknown mode.
std::vector<Job> make_named_campaign(const NamedCampaignSpec& spec);

/// The kind mix a variant index denotes, in the xir program's station
/// order (channel-major).  Exposed so differential tests can replay one
/// variant in isolation.
std::vector<graph::RsKind> mix_screen_variant_kinds(
    const graph::Topology& topo, std::uint64_t base_seed,
    std::uint64_t variant);

}  // namespace liplib::campaign
