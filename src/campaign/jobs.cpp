#include "liplib/campaign/jobs.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <utility>

#include "liplib/graph/analysis.hpp"
#include "liplib/graph/generators.hpp"
#include "liplib/lip/design.hpp"
#include "liplib/lip/steady_state.hpp"
#include "liplib/pearls/design_io.hpp"
#include "liplib/probe/probe.hpp"
#include "liplib/support/rng.hpp"
#include "liplib/xir/sliced.hpp"
#include "liplib/xir/xir.hpp"

namespace liplib::campaign {

namespace {

/// Upper bound on the make_random_composite segments the probe and
/// cross-check jobs draw per job.
constexpr std::size_t kMaxSegments = 4;

lip::Design make_default_design(graph::Topology topo) {
  lip::Design d(std::move(topo));
  const auto& t = d.topology();
  for (graph::NodeId v = 0; v < t.nodes().size(); ++v) {
    if (t.node(v).kind != graph::NodeKind::kProcess) continue;
    d.set_pearl(v, pearls::pearl_from_spec("", t.node(v).num_inputs,
                                           t.node(v).num_outputs));
  }
  return d;
}

/// A steady state as a job result, by the steady state's own outcome
/// rule: full deadlock and partial starvation apart.
JobResult from_steady_state(const lip::SteadyState& ss) {
  JobResult r;
  r.cycles = ss.cycles;
  if (!ss.found) {
    r.outcome = Outcome::kBudgetExhausted;
    r.detail = "no steady state within the cycle budget";
    return r;
  }
  r.has_throughput = true;
  r.throughput = ss.system_throughput();
  r.transient = ss.transient;
  r.period = ss.period;
  if (ss.deadlocked) {
    r.outcome = Outcome::kDeadlock;
    r.detail = "deadlock in steady state";
  } else if (ss.has_starved_shell) {
    r.outcome = Outcome::kStarvation;
    r.detail = std::to_string(ss.starved_shells().size()) +
               " starved shell(s)";
  } else {
    r.outcome = Outcome::kLive;
  }
  return r;
}

/// A screen's steady state as a job result, by the screen's rule
/// (deadlock_found()): a starved shell is a deadlock too.
JobResult from_screening(const lip::SteadyState& ss) {
  JobResult r = from_steady_state(ss);
  if (ss.deadlock_found()) {
    r.outcome = Outcome::kDeadlock;
    r.detail = "deadlock in steady state";
  }
  return r;
}

/// Steady-state analysis of one design on the compiled scalar engine.
JobResult analyze_steady_state(const graph::Topology& topo,
                               const skeleton::SkeletonOptions& opts,
                               std::uint64_t budget) {
  return from_steady_state(xir::ScalarEngine(topo, opts).analyze(budget));
}

/// Randomizes the station kinds of a feedforward topology in place
/// (~1/3 half stations) — the "mixed half/full chains" of the T1 pass.
void mix_station_kinds(graph::Topology& topo, Rng& rng) {
  for (graph::ChannelId c = 0; c < topo.channels().size(); ++c) {
    for (auto& kind : topo.stations_mut(c)) {
      kind = rng.chance(1, 3) ? graph::RsKind::kHalf : graph::RsKind::kFull;
    }
  }
}

JobResult fuzz_reconvergent(const FuzzSpec& spec, Rng& rng,
                            std::uint64_t budget);
JobResult fuzz_composite(const FuzzSpec& spec, Rng& rng,
                         std::uint64_t budget);
JobResult fuzz_feedforward(const FuzzSpec& spec, Rng& rng,
                           std::uint64_t budget);

}  // namespace

Job make_screening_job(std::string name, graph::Topology topo,
                       skeleton::ScreeningOptions opts) {
  return Job{std::move(name),
             [topo = std::move(topo), opts](const JobContext& ctx) {
               return from_screening(
                   xir::screen_for_deadlock(topo, opts, ctx.cycle_budget));
             }};
}

Job make_steady_state_job(std::string name, graph::Topology topo,
                          skeleton::SkeletonOptions opts) {
  return Job{std::move(name),
             [topo = std::move(topo), opts](const JobContext& ctx) {
               return analyze_steady_state(topo, opts, ctx.cycle_budget);
             }};
}

Job make_spot_check_job(std::string name, graph::Topology topo,
                        lip::StopPolicy policy) {
  return Job{
      std::move(name),
      [topo = std::move(topo), policy](const JobContext& ctx) {
        auto design = make_default_design(topo);
        lip::SystemOptions opts;
        opts.policy = policy;
        auto sys = design.instantiate(opts);
        JobResult r = from_steady_state(
            lip::measure_steady_state(*sys, ctx.cycle_budget));
        if (r.outcome != Outcome::kLive &&
            r.outcome != Outcome::kStarvation) {
          return r;
        }
        // Full-data safety net: the LID's sink streams must prefix the
        // zero-latency reference.  Equivalence runs are full-data, so
        // the horizon is capped independently of the skeleton budget.
        const std::uint64_t horizon =
            std::min<std::uint64_t>(ctx.cycle_budget, 2048);
        const auto equiv =
            lip::check_latency_equivalence(design, opts, horizon);
        if (!equiv.ok) {
          r.outcome = Outcome::kMismatch;
          r.detail = "latency equivalence broken: " + equiv.detail;
        }
        return r;
      }};
}

namespace {

JobResult fuzz_reconvergent(const FuzzSpec& spec, Rng& rng,
                            std::uint64_t budget) {
  const std::size_t short_st = 1 + rng.below(3);
  const std::size_t long_shells =
      1 + rng.below(std::max<std::size_t>(spec.size, 1));
  const std::size_t per_hop = 1 + rng.below(3);
  auto gen = graph::make_reconvergent(short_st, long_shells, per_hop);
  mix_station_kinds(gen.topo, rng);

  JobResult r = analyze_steady_state(gen.topo, {spec.policy}, budget);
  std::ostringstream shape;
  shape << "reconvergent short=" << short_st << " shells=" << long_shells
        << " per_hop=" << per_hop
        << " policy=" << lip::policy_name(spec.policy);
  if (r.outcome != Outcome::kLive) {
    r.detail += " (" + shape.str() + ")";
    return r;
  }

  const Rational bound = graph::exact_implicit_loop_bound(gen.topo);
  const bool variant = spec.policy == lip::StopPolicy::kCasuDiscardOnVoid;
  // The implicit-loop model is exact for the variant protocol; strict
  // can only be slower (EXPERIMENTS.md §T1 sharpening 2).
  if ((variant && r.throughput != bound) ||
      (!variant && r.throughput > bound)) {
    r.outcome = Outcome::kMismatch;
    std::ostringstream os;
    os << "measured " << r.throughput.str() << " vs implicit-loop bound "
       << bound.str() << " (" << shape.str() << ")";
    r.detail = os.str();
  }
  return r;
}

JobResult fuzz_composite(const FuzzSpec& spec, Rng& rng,
                         std::uint64_t budget) {
  const std::size_t segments =
      1 + rng.below(std::max<std::size_t>(spec.size, 1));
  auto gen = graph::make_random_composite(rng, segments,
                                          /*allow_half=*/true,
                                          /*allow_half_in_loops=*/false);

  JobResult r = analyze_steady_state(gen.topo, {spec.policy}, budget);
  if (r.outcome != Outcome::kLive) {
    r.detail += " (composite segments=" + std::to_string(segments) + ")";
    return r;
  }

  // The paper's "slowest subtopology" rule: measured throughput must not
  // exceed min(loop bound, exact implicit-loop bound).
  const auto pred = graph::predict_throughput(gen.topo);
  Rational bound = pred.cycle_bound;
  if (gen.topo.is_feedforward()) {
    const Rational implicit = graph::exact_implicit_loop_bound(gen.topo);
    if (implicit < bound) bound = implicit;
  }
  if (r.throughput > bound) {
    r.outcome = Outcome::kMismatch;
    std::ostringstream os;
    os << "measured " << r.throughput.str() << " above analytic bound "
       << bound.str() << " (composite segments=" << segments << ")";
    r.detail = os.str();
    return r;
  }

  if (spec.check_equivalence) {
    auto design = make_default_design(gen.topo);
    lip::SystemOptions opts;
    opts.policy = spec.policy;
    const std::uint64_t horizon = std::min<std::uint64_t>(budget, 400);
    const auto equiv = lip::check_latency_equivalence(design, opts, horizon);
    if (!equiv.ok) {
      r.outcome = Outcome::kMismatch;
      r.detail = "latency equivalence broken: " + equiv.detail;
    }
  }
  return r;
}

JobResult fuzz_feedforward(const FuzzSpec& spec, Rng& rng,
                           std::uint64_t budget) {
  const std::size_t processes =
      2 + rng.below(std::max<std::size_t>(spec.size, 1));
  auto gen = graph::make_random_feedforward(rng, processes);

  JobResult r = analyze_steady_state(gen.topo, {spec.policy}, budget);
  if (r.outcome != Outcome::kLive) {
    r.detail += " (feedforward processes=" + std::to_string(processes) + ")";
    return r;
  }

  if (spec.check_equivalence) {
    auto design = make_default_design(gen.topo);
    lip::SystemOptions opts;
    opts.policy = spec.policy;
    const std::uint64_t horizon = std::min<std::uint64_t>(budget, 400);
    const auto equiv = lip::check_latency_equivalence(design, opts, horizon);
    if (!equiv.ok) {
      r.outcome = Outcome::kMismatch;
      r.detail = "latency equivalence broken: " + equiv.detail;
    }
  }
  return r;
}

JobResult run_probe_measurement(const graph::Topology& topo,
                                lip::StopPolicy policy,
                                std::uint64_t budget) {
  // Exact steady state from the (cheap) skeleton; System and the
  // skeleton share one protocol trajectory from reset, so the
  // skeleton's transient/period window the full-data probe run.
  const auto res = xir::ScalarEngine(topo, {policy}).analyze(budget);
  JobResult r = from_steady_state(res);
  if (r.outcome != Outcome::kLive && r.outcome != Outcome::kStarvation) {
    return r;
  }

  auto design = make_default_design(topo);
  lip::SystemOptions opts;
  opts.policy = policy;
  auto sys = design.instantiate(opts);
  probe::Probe probe;
  sys->attach_probe(probe);
  sys->run(res.transient);
  probe.reset_window();
  sys->run(res.period);
  r.cycles += sys->cycle();

  const auto report = probe.report();
  for (std::size_t i = 0; i < res.shell_ids.size(); ++i) {
    const Rational measured = report.throughput(res.shell_ids[i]);
    if (measured != res.shell_throughput[i]) {
      r.outcome = Outcome::kMismatch;
      std::ostringstream os;
      os << "probe measured " << measured.str() << " for shell "
         << res.shell_ids[i] << " vs analytic "
         << res.shell_throughput[i].str() << " (policy="
         << lip::policy_name(policy) << ")";
      r.detail = os.str();
      return r;
    }
  }
  if (const auto* top = report.top_blame()) {
    std::ostringstream os;
    os << top->victim_name
       << (top->why == probe::Activity::kWaitingInput ? " waiting <- "
                                                      : " stopped <- ")
       << top->culprit_name << " x" << top->cycles;
    r.detail = os.str();
  }
  // Fold the blame histogram by culprit for the fleet-level
  // blame-by-culprit distribution (campaign::FleetMetrics).
  std::map<std::string, std::uint64_t> by_culprit;
  for (const auto& b : report.blame) by_culprit[b.culprit_name] += b.cycles;
  r.blame.assign(by_culprit.begin(), by_culprit.end());
  std::stable_sort(r.blame.begin(), r.blame.end(),
                   [](const auto& a, const auto& b) {
                     if (a.second != b.second) return a.second > b.second;
                     return a.first < b.first;
                   });
  return r;
}

}  // namespace

Job make_probe_job(std::string name, graph::Topology topo,
                   lip::StopPolicy policy) {
  return Job{std::move(name),
             [topo = std::move(topo), policy](const JobContext& ctx) {
               return run_probe_measurement(topo, policy, ctx.cycle_budget);
             }};
}

std::vector<Job> make_probe_campaign(std::size_t n) {
  std::vector<Job> jobs;
  jobs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    jobs.push_back(Job{
        "probe/" + std::to_string(i), [](const JobContext& ctx) {
          Rng rng(ctx.seed);
          const std::size_t segments = 1 + rng.below(kMaxSegments);
          const auto policy = rng.chance(1, 2)
                                  ? lip::StopPolicy::kCarloniStrict
                                  : lip::StopPolicy::kCasuDiscardOnVoid;
          auto gen = graph::make_random_composite(
              rng, segments, /*allow_half=*/true,
              /*allow_half_in_loops=*/false);
          return run_probe_measurement(gen.topo, policy, ctx.cycle_budget);
        }});
  }
  return jobs;
}

Job make_fuzz_job(std::string name, FuzzSpec spec) {
  return Job{std::move(name), [spec](const JobContext& ctx) {
               Rng rng(ctx.seed);
               switch (spec.shape) {
                 case FuzzSpec::Shape::kReconvergent:
                   return fuzz_reconvergent(spec, rng, ctx.cycle_budget);
                 case FuzzSpec::Shape::kComposite:
                   return fuzz_composite(spec, rng, ctx.cycle_budget);
                 case FuzzSpec::Shape::kFeedforward:
                   return fuzz_feedforward(spec, rng, ctx.cycle_budget);
               }
               JobResult r;
               r.outcome = Outcome::kError;
               r.detail = "unknown fuzz shape";
               return r;
             }};
}

Job make_lint_job(std::string name, graph::Topology topo,
                  lint::Options options) {
  return Job{std::move(name),
             [topo = std::move(topo), options](const JobContext&) {
               const auto report = lint::run_lint(topo, options);
               JobResult r;
               if (report.clean()) {
                 r.outcome = Outcome::kLive;
                 return r;
               }
               r.outcome = report.has_rule("LIP006") ? Outcome::kDeadlock
                                                     : Outcome::kError;
               std::ostringstream os;
               std::size_t shown = 0;
               for (const auto& d : report.diagnostics) {
                 if (d.severity == lint::Severity::kInfo) continue;
                 if (shown++) os << "; ";
                 if (shown > 3) {
                   os << "...";
                   break;
                 }
                 os << lint::severity_name(d.severity) << '[' << d.rule
                    << "] " << d.message;
               }
               r.detail = os.str();
               return r;
             }};
}

Job make_lint_crosscheck_job(std::string name) {
  return Job{std::move(name), [](const JobContext& ctx) {
    Rng rng(ctx.seed);
    const std::size_t segments = 1 + rng.below(kMaxSegments);
    // Half the jobs allow half stations on loops: those topologies can
    // carry a latent stop latch, so both verdicts get exercised.
    const bool risky = rng.chance(1, 2);
    auto gen = graph::make_random_composite(rng, segments,
                                            /*allow_half=*/true,
                                            /*allow_half_in_loops=*/risky);

    lint::Options structural;
    structural.structural_only = true;
    const auto report = lint::run_lint(gen.topo, structural);
    const bool hazard = report.has_rule("LIP006");

    const auto verdict = xir::screen_for_deadlock(
        xir::lower(gen.topo), /*worst_case_occupancy=*/true, ctx.cycle_budget);
    JobResult r;
    r.cycles = verdict.cycles;
    if (!verdict.found) {
      r.outcome = Outcome::kBudgetExhausted;
      r.detail = "no steady state within the cycle budget";
      return r;
    }
    if (hazard != verdict.deadlock_found()) {
      r.outcome = Outcome::kMismatch;
      r.detail = std::string("lint says ") +
                 (hazard ? "stop latch" : "clean") + ", screening says " +
                 (verdict.deadlock_found() ? "deadlock" : "live") +
                 " (segments=" + std::to_string(segments) + ")";
      return r;
    }
    if (hazard) {
      const auto fixed = lint::lint_and_fix(gen.topo, structural);
      if (!fixed.report.clean()) {
        r.outcome = Outcome::kMismatch;
        r.detail = "lint --fix did not converge to a clean report";
        return r;
      }
      const auto cured = xir::screen_for_deadlock(
          xir::lower(fixed.fixed), /*worst_case_occupancy=*/true,
          ctx.cycle_budget);
      r.cycles += cured.cycles;
      if (cured.deadlock_found()) {
        r.outcome = Outcome::kMismatch;
        r.detail = "lint --fix output still deadlocks under worst case";
        return r;
      }
    }
    r.outcome = Outcome::kLive;
    return r;
  }};
}

std::vector<Job> make_lint_crosscheck_campaign(std::size_t n) {
  std::vector<Job> jobs;
  jobs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    jobs.push_back(
        make_lint_crosscheck_job("lint-xcheck/" + std::to_string(i)));
  }
  return jobs;
}

namespace {

JobResult from_prove(const prove::ProveResult& pr) {
  JobResult r;
  r.cycles = pr.depth_reached;
  switch (pr.verdict) {
    case prove::Verdict::kProved:
      r.outcome = Outcome::kLive;
      r.detail = std::string("proved by ") + prove::method_name(pr.method_used);
      break;
    case prove::Verdict::kCounterexample: {
      r.outcome = Outcome::kDeadlock;
      std::ostringstream os;
      os << "deadlock at depth "
         << (pr.counterexample ? pr.counterexample->depth : 0);
      if (pr.counterexample && !pr.counterexample->culprit_channels.empty()) {
        os << "; culprit loop of "
           << pr.counterexample->culprit_channels.size() << " channels";
      }
      r.detail = os.str();
      break;
    }
    case prove::Verdict::kUnknown:
      r.outcome = Outcome::kBudgetExhausted;
      r.detail = pr.note.empty() ? "prover returned unknown" : pr.note;
      break;
  }
  return r;
}

}  // namespace

Job make_prove_job(std::string name, graph::Topology topo,
                   prove::ProveOptions opts) {
  return Job{std::move(name),
             [topo = std::move(topo), opts](const JobContext&) {
               return from_prove(prove::prove(topo, opts));
             }};
}

Job make_prove_crosscheck_job(std::string name) {
  return Job{std::move(name), [](const JobContext& ctx) {
    Rng rng(ctx.seed);
    const std::size_t segments = 1 + rng.below(kMaxSegments);
    // Same recipe as the lint cross-check, so the corpora coincide and
    // both deadlocking and live topologies get exercised.
    const bool risky = rng.chance(1, 2);
    auto gen = graph::make_random_composite(rng, segments,
                                            /*allow_half=*/true,
                                            /*allow_half_in_loops=*/risky);

    prove::ProveOptions popts;
    popts.worst_case_occupancy = true;
    const auto pr = prove::prove(gen.topo, popts);

    lint::Options structural;
    structural.structural_only = true;
    const bool hazard =
        lint::run_lint(gen.topo, structural).has_rule("LIP006");

    const auto verdict = xir::screen_for_deadlock(
        xir::lower(gen.topo), /*worst_case_occupancy=*/true, ctx.cycle_budget);
    JobResult r;
    r.cycles = verdict.cycles;
    if (!verdict.found) {
      r.outcome = Outcome::kBudgetExhausted;
      r.detail = "no steady state within the cycle budget";
      return r;
    }
    if (pr.verdict == prove::Verdict::kUnknown) {
      r.outcome = Outcome::kBudgetExhausted;
      r.detail = "prover returned unknown: " + pr.note;
      return r;
    }
    const bool proved_dead = pr.verdict == prove::Verdict::kCounterexample;
    if (proved_dead != hazard || proved_dead != verdict.deadlock_found()) {
      r.outcome = Outcome::kMismatch;
      r.detail = std::string("prove says ") +
                 (proved_dead ? "deadlock" : "proved") + ", lint says " +
                 (hazard ? "stop latch" : "clean") + ", screening says " +
                 (verdict.deadlock_found() ? "deadlock" : "live") +
                 " (segments=" + std::to_string(segments) + ")";
      return r;
    }
    // Agreement is the passing outcome either way (the lint cross-check
    // convention: the campaign tests the differential, not the design);
    // the detail records which verdict the triple agreed on.
    r.outcome = Outcome::kLive;
    r.detail = proved_dead ? "agreed: " + from_prove(pr).detail
                           : from_prove(pr).detail;
    return r;
  }};
}

std::vector<Job> make_prove_crosscheck_campaign(std::size_t n) {
  std::vector<Job> jobs;
  jobs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    jobs.push_back(
        make_prove_crosscheck_job("prove-xcheck/" + std::to_string(i)));
  }
  return jobs;
}

std::vector<graph::RsKind> mix_screen_variant_kinds(
    const graph::Topology& topo, std::uint64_t base_seed,
    std::uint64_t variant) {
  // The same draw order as mix_station_kinds (channel-major — which is
  // also the xir program's station order), from the variant's own
  // job_seed stream, so a variant's mix is a pure function of
  // (base seed, variant index) at any batching factor.
  Rng rng(job_seed(base_seed, variant));
  std::vector<graph::RsKind> kinds;
  kinds.reserve(topo.total_stations());
  for (graph::ChannelId c = 0; c < topo.channels().size(); ++c) {
    for (std::size_t i = 0; i < topo.channel(c).num_stations(); ++i) {
      kinds.push_back(rng.chance(1, 3) ? graph::RsKind::kHalf
                                       : graph::RsKind::kFull);
    }
  }
  return kinds;
}

namespace {

/// Severity order for folding a batch of screening verdicts into one
/// job outcome (worst lane wins).
int screen_severity(Outcome o) {
  switch (o) {
    case Outcome::kBudgetExhausted: return 3;
    case Outcome::kDeadlock: return 2;
    case Outcome::kStarvation: return 1;
    default: return 0;
  }
}

}  // namespace

std::vector<Job> make_mix_screen_campaign(MixScreenSpec spec) {
  std::vector<Job> jobs;
  // 64 variants ride one lowered program and one sliced evaluation.
  const std::size_t per_job = xir::SlicedEngine::kLanes;
  const std::size_t num_jobs = (spec.variants + per_job - 1) / per_job;
  jobs.reserve(num_jobs);
  for (std::size_t j = 0; j < num_jobs; ++j) {
    const std::size_t lo = j * per_job;
    const std::size_t hi = std::min(spec.variants, lo + per_job);
    jobs.push_back(Job{
        "mix-screen/" + std::to_string(lo) + ".." + std::to_string(hi - 1),
        [topo = spec.topo, opts = spec.skeleton,
         worst_case = spec.worst_case_occupancy, lo, hi](
            const JobContext& ctx) {
          std::vector<xir::VariantSpec> variants(hi - lo);
          for (std::size_t v = lo; v < hi; ++v) {
            variants[v - lo].kinds =
                mix_screen_variant_kinds(topo, ctx.base_seed, v);
            variants[v - lo].worst_case_occupancy = worst_case;
          }
          const auto verdicts =
              xir::screen_variants(topo, variants, opts, ctx.cycle_budget);
          // Fold the batch: worst outcome, summed cycles, min
          // throughput; detail tallies every lane.
          JobResult r;
          r.outcome = Outcome::kLive;
          r.has_throughput = true;
          r.throughput = Rational(1);
          std::map<std::string, std::size_t> tally;
          for (const auto& v : verdicts) {
            const JobResult one = from_screening(v);
            ++tally[outcome_name(one.outcome)];
            r.cycles += one.cycles;
            if (screen_severity(one.outcome) > screen_severity(r.outcome)) {
              r.outcome = one.outcome;
            }
            if (!one.has_throughput) {
              r.has_throughput = false;
            } else {
              if (one.throughput < r.throughput) r.throughput = one.throughput;
              if (one.transient > r.transient) r.transient = one.transient;
              if (one.period > r.period) r.period = one.period;
            }
          }
          if (!r.has_throughput) r.throughput = Rational(0);
          std::ostringstream os;
          os << "variants " << lo << ".." << (hi - 1) << ":";
          for (const auto& [name, count] : tally) {
            os << ' ' << name << '=' << count;
          }
          r.detail = os.str();
          return r;
        }});
  }
  return jobs;
}

std::vector<Job> make_t1_fuzz_campaign() {
  std::vector<Job> jobs;
  jobs.reserve(750);
  // 300 random reconvergences with mixed half/full chains, each checked
  // under both stop policies (600 runs).  The two policy jobs of a pair
  // share the index-derived random stream only through their own seeds;
  // the checks are per-policy (equality for variant, upper bound for
  // strict), so pairing on the same topology is not required for the
  // claim — each run stands alone and replays from its seed.
  for (int i = 0; i < 300; ++i) {
    for (auto policy : {lip::StopPolicy::kCasuDiscardOnVoid,
                        lip::StopPolicy::kCarloniStrict}) {
      FuzzSpec spec;
      spec.shape = FuzzSpec::Shape::kReconvergent;
      spec.policy = policy;
      spec.size = 3;
      jobs.push_back(make_fuzz_job("t1/reconv/" + std::to_string(i) + "/" +
                                       lip::policy_name(policy),
                                   spec));
    }
  }
  // 150 random composite topologies checked against the analytic bounds
  // and latency equivalence (150 runs) — 750 total.
  for (int i = 0; i < 150; ++i) {
    FuzzSpec spec;
    spec.shape = FuzzSpec::Shape::kComposite;
    spec.policy = lip::StopPolicy::kCasuDiscardOnVoid;
    spec.size = 4;
    spec.check_equivalence = true;
    jobs.push_back(make_fuzz_job("t1/composite/" + std::to_string(i), spec));
  }
  return jobs;
}

const char* shape_name(FuzzSpec::Shape s) {
  switch (s) {
    case FuzzSpec::Shape::kReconvergent: return "reconvergent";
    case FuzzSpec::Shape::kComposite: return "composite";
    case FuzzSpec::Shape::kFeedforward: return "feedforward";
  }
  return "?";
}

bool parse_shape(std::string_view name, FuzzSpec::Shape* out) {
  for (FuzzSpec::Shape s :
       {FuzzSpec::Shape::kComposite, FuzzSpec::Shape::kReconvergent,
        FuzzSpec::Shape::kFeedforward}) {
    if (name == shape_name(s)) {
      *out = s;
      return true;
    }
  }
  return false;
}

const char* campaign_mode_name(CampaignMode m) {
  switch (m) {
    case CampaignMode::kFuzz: return "fuzz";
    case CampaignMode::kLint: return "lint";
    case CampaignMode::kProbe: return "probe";
    case CampaignMode::kProve: return "prove";
  }
  return "?";
}

bool parse_campaign_mode(std::string_view name, CampaignMode* out) {
  for (CampaignMode m : {CampaignMode::kFuzz, CampaignMode::kLint,
                         CampaignMode::kProbe, CampaignMode::kProve}) {
    if (name == campaign_mode_name(m)) {
      *out = m;
      return true;
    }
  }
  return false;
}

std::vector<Job> make_named_campaign(const NamedCampaignSpec& spec) {
  CampaignMode mode = CampaignMode::kFuzz;
  LIPLIB_EXPECT(parse_campaign_mode(spec.mode, &mode),
                "unknown campaign mode '" + spec.mode + "'");
  switch (mode) {
    case CampaignMode::kLint: return make_lint_crosscheck_campaign(spec.jobs);
    case CampaignMode::kProve:
      return make_prove_crosscheck_campaign(spec.jobs);
    case CampaignMode::kProbe: return make_probe_campaign(spec.jobs);
    case CampaignMode::kFuzz: break;
  }
  std::vector<Job> jobs;
  jobs.reserve(spec.jobs);
  for (std::size_t i = 0; i < spec.jobs; ++i) {
    FuzzSpec fuzz;
    fuzz.shape = spec.shape;
    fuzz.policy = spec.policy;
    fuzz.size = 4;
    jobs.push_back(make_fuzz_job("fuzz/" + std::to_string(i), fuzz));
  }
  return jobs;
}

}  // namespace liplib::campaign
