// lidtool — command-line front end for latency-insensitive designs in the
// .lid netlist format (see liplib/graph/netlist_io.hpp).  kUsage below
// lists every command and its options.
//
// Run without arguments for a demo on the paper's Fig. 1 design.

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "liplib/campaign/campaign.hpp"
#include "liplib/campaign/jobs.hpp"
#include "liplib/campaign/report.hpp"
#include "liplib/dist/coordinator.hpp"
#include "liplib/dist/shard.hpp"
#include "liplib/dist/worker.hpp"
#include "liplib/flow/design_flow.hpp"
#include "liplib/graph/analysis.hpp"
#include "liplib/graph/equalize.hpp"
#include "liplib/graph/mcr.hpp"
#include "liplib/graph/netlist_io.hpp"
#include "liplib/lint/lint.hpp"
#include "liplib/lip/steady_state.hpp"
#include "liplib/pearls/design_io.hpp"
#include "liplib/probe/trace.hpp"
#include "liplib/prove/prove.hpp"
#include "liplib/serve/server.hpp"
#include "liplib/skeleton/skeleton.hpp"
#include "liplib/support/flags.hpp"
#include "liplib/support/table.hpp"
#include "liplib/telemetry/bench_diff.hpp"
#include "liplib/telemetry/watchdog.hpp"
#include "liplib/trace/trace.hpp"
#include "liplib/xir/xir.hpp"

using namespace liplib;

namespace {

const char* kUsage =
    R"(usage: lidtool <command> [arguments]

structural commands (take a .lid netlist file):
  validate  <file.lid>          structural checks + warnings
  lint      <file.lid>          static protocol analysis (rules LIP001...,
                                see docs/lint.md); exit 0 clean / 1 warnings
                                / 2 errors
    --json      render the report as canonical JSON
    --fix       apply machine-applicable fix-its; the cured netlist goes
                to -o FILE (or stdout) and the report to stderr
    -o FILE     output file for the cured netlist
  analyze   <file.lid>          analytic throughput (formulas + MCR)
  simulate  <file.lid>          skeleton simulation to steady state: a
                                deadlocked design is reported as DEADLOCK
                                (exit 1), with the watchdog's trip and blame
                                when the whole design froze; no steady
                                state within the budget also exits 1
    --worst-case       start from worst-case occupancy (saturated stations)
    --budget N         cycle budget of the steady-state search (default
                       2^18; 0 = default)
    --postmortem FILE  on trip, write the post-mortem bundle (replayable
                       with `lidtool replay`) to FILE
  screen    <file.lid>          deadlock screening (reset + worst case);
                                exit 0 live / 1 deadlock or no steady state
    --policy variant|strict  stop policy (default variant)
    --budget N         cycle budget of each pass (default 2^18; 0 = default)
  prove     <file.lid>          static deadlock-freedom proof: exhaustive
                                reachability, bounded model checking and
                                k-induction over every sink-stop environment
                                (see docs/prove.md);
                                exit 0 proved / 1 counterexample / 2 unknown
    --worst-case       prove from worst-case occupancy instead of reset
    --method M         auto | reach | bmc | induction (default auto)
    --depth K          BMC depth bound; without --method it means bmc
    --induction        k-induction certificates only (same as
                       --method induction)
    --budget N         distinct-state budget (default 2^20)
    --policy variant|strict  stop policy (default variant)
    --json             render the result as canonical JSON
    --postmortem FILE  write the counterexample's replayable
                       liplib.postmortem/1 bundle to FILE
  cure      <file.lid>          substitute stations until deadlock free
  equalize  <file.lid>          insert spare stations, print new netlist
  flow      <file.lid>          full flow: screen, cure, sign off
  dot       <file.lid>          graphviz rendering

behavioural commands (annotated netlists):
  run       <file.lid> [cycles] full-data simulation + equivalence check,
                                watchdog-guarded (deadlock -> exit 1)
    --postmortem FILE  on watchdog trip, write the bundle to FILE
  profile   <file.lid>          probe-instrumented full-data run: per-shell
                                activity counters, measured throughput and
                                stall attribution (see docs/probe.md),
                                watchdog-guarded (deadlock -> exit 1)
    --cycles N  cycles to simulate (default 10000; 0 = default)
    --trace F   stream a Chrome trace-event / Perfetto JSON file to F
    --json      render the probe report as canonical JSON

campaign commands (parallel mass simulation; see docs/campaign.md):
  campaign sweep <file.lid>     steady-state sweep over station counts
                                and stop policies
  campaign fuzz <N>             screen N random topologies
  campaign lint <N>             cross-check the linter against worst-case
                                screening on N random topologies
  campaign probe <N>            probe-vs-analytic agreement on N random
                                topologies (measured throughput must equal
                                the skeleton's exactly)
  campaign prove <N>            three-way cross-check of the prover against
                                the linter and worst-case screening on N
                                random topologies (any disagreement is a
                                mismatch failure)
  campaign mix <file.lid>       screen random half/full station-kind
                                variants of one design from worst-case
                                occupancy, 64 variants per bit-sliced job
  campaign t1                   the EXPERIMENTS.md T1 fuzz pass
                                (750 randomized runs) on the engine
  fuzz, lint, probe and prove are named campaigns: the same jobs, names
  and spec string as `dist coordinate` and the daemon's campaign request
  (N in 1..1000000).
  campaign options:
    --threads N   worker threads (default: hardware)
    --seed S      campaign base seed (default 1; decimal or 0x-hex)
    --budget B    per-job cycle budget (default 2^18)
    --stations LO:HI   sweep station-count range (default 1:4)
    --policy variant|strict   stop policy (default variant); sweep also
                              takes both, its default
    --shape composite|reconvergent|feedforward   fuzz topology shape
    --variants N  mix: number of kind-variants to screen (default 64)
    --json PATH   write the aggregated report as JSON
    --csv PATH    write per-job results as CSV
    --shard i/N   run only shard i of N (contiguous job-index slice with
                  global job identity); requires --out
    --out PATH    write the shard's liplib.dist.partial/1 document for
                  `lidtool merge` instead of the normal report

distributed campaign commands (see docs/dist.md):
  merge <a.json> <b.json> ...   deterministically reunite shard partials;
                                the merged aggregate is byte-identical to
                                the unsharded run's --json document
    --json PATH    write the merged aggregate as JSON
  dist coordinate <mode> <N>    run the lease coordinator for a named
                                campaign (mode: fuzz|lint|probe|prove) and
                                print the merged aggregate when done
    --port N       TCP port (default 0 = ephemeral, printed on start)
    --shards N     shards to split the campaign into (default 4)
    --seed S / --budget B / --policy P / --shape S   as for campaign
    --lease-ms N   lease deadline before re-dispatch (default 30000)
    --json PATH    write the merged aggregate as JSON
    --trace PATH   record the lease -> execute -> merge span timeline
                   (workers trace automatically when leases carry the
                   context) and write the liplib.trace/1 document
  dist work                     pull shard leases from a coordinator, run
                                them, submit partial aggregates
    --port N       coordinator port (required)
    --threads N    engine threads per shard (default: hardware)

telemetry commands (see docs/telemetry.md):
  replay    <bundle.json>       reconstruct the design from a watchdog
                                post-mortem bundle, re-run it and check the
                                deadlock reproduces at the identical cycle;
                                exit 0 reproduced / 1 not reproduced
  bench diff <old.json> <new.json>  compare two BENCH_*.json artifacts with
                                a noise-aware threshold; exit 0 clean /
                                1 regression / 2 bad input
    --threshold PCT    regression threshold in percent (default 10)
    --json             render the comparison as canonical JSON

serve commands (the liplib.rpc/1 daemon; see docs/serve.md):
  serve                         run the multi-tenant daemon on 127.0.0.1:
                                lint / screen / profile / campaign requests
                                from concurrent clients, answered through a
                                content-addressed result cache
    --port N       TCP port (default 7177; 0 = ephemeral, printed on start)
    --threads N    campaign worker threads (default: hardware)
    --cache-mb N   result cache budget in MiB (default 64)
    --ttl N        cache entry lifetime in seconds (default 600; 0 = never)
    --budget N     default screen/campaign cycle budget (default 2^18;
                   an N above 2^20 also raises the cap on every budget)
  client <kind> [args]          send one request, print the JSON response;
                                exit 0 live/clean, 1 diagnosed, 2 error.
                                Each kind takes only its own knobs:
    lint <file.lid>
    screen <file.lid>    --policy variant|strict  --budget N (cycles)
    profile <file.lid>   --cycles N
    prove <file.lid>     --policy P  --budget N (states)  --method M
                         --depth K (without --method: bmc)  --worst-case
    campaign <fuzz|lint|probe|prove> <jobs>   --policy P  --budget N
                         --seed S
    dist-status          --coordinator N (dist coordinator port to relay)
    status | shutdown | metrics | trace
           (metrics prints the raw Prometheus exposition text; trace
           prints the daemon's liplib.trace/1 span document)
    --port N       daemon port (default 7177)
    --id X         request id echoed in the response
    --trace FILE   attach a trace context to the request (the daemon's
                   spans join the client's trace) and write the client
                   round-trip span document to FILE

observability commands (see docs/trace.md and docs/observability.md):
  trace [files...]              merge liplib.trace/1 span documents and
                                Chrome/Perfetto trace files (lidtool
                                profile --trace output) into one timeline
    --scrape PORT       also scrape a serve daemon's span document
    --scrape-dist PORT  also scrape a dist coordinator's span document
    -o FILE             write the merged Perfetto JSON (ui.perfetto.dev)
    --check             exit 1 when span parent/child integrity is broken

other:
  --help, -h, help              this text

Run without arguments for a demo on the paper's Fig. 1 design.
)";

const char* kFig1Netlist = R"(# the paper's Fig. 1 design
source src
process A 1 2
process B 1 1
process C 2 1
sink out
channel src.0 -> A.0
channel A.0 -> B.0 : F
channel B.0 -> C.0 : F
channel A.1 -> C.1 : F
channel C.0 -> out.0
)";

using Args = std::vector<std::string>;

/// A usage or input error: main reports "error: <msg>" and exits 2.
void require(bool ok, const std::string& msg) {
  if (!ok) throw ApiError(msg);
}

std::vector<FlagSpec> with(std::vector<FlagSpec> a,
                           const std::vector<FlagSpec>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

/// The command's positional arguments, which must number exactly `n`.
const Args& expect_args(const Flags& f, std::size_t n,
                        const std::string& usage) {
  require(f.positional().size() == n, "usage: lidtool " + usage);
  return f.positional();
}

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  require(in.good(), "cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream os(path);
  require(os.good(), "cannot write " + path);
  os << text;
}

/// The netlist of a structural command's one <file.lid> argument
/// (annotated files are accepted too).
graph::Topology load_topology(const std::string& path) {
  return graph::parse_netlist_annotated_string(read_text(path)).topo;
}

/// flags -> Request: a design kind's <file.lid> argument is read into
/// the netlist, then the knob table validates everything.
serve::Request load_request(serve::RequestKind kind, Flags& f) {
  Args& pos = f.positional();
  if (serve::takes_netlist(kind) && !pos.empty()) pos[0] = read_text(pos[0]);
  return serve::request_from_flags(kind, f);
}

int cmd_validate(const graph::Topology& topo) {
  const auto report = topo.validate();
  if (report.issues.empty()) {
    std::cout << "ok: no issues\n";
  } else {
    std::cout << report.to_string();
  }
  return report.ok() ? 0 : 1;
}

int cmd_lint(const graph::Topology& topo, bool json, bool fix,
             const std::string& out_path) {
  if (!fix) {
    const auto report = lint::run_lint(topo);
    if (json) {
      std::cout << report.to_json(topo).dump(2) << "\n";
    } else {
      std::cout << report.to_string(topo);
    }
    return report.exit_code();
  }
  const auto result = lint::lint_and_fix(topo);
  if (json) {
    std::cerr << result.report.to_json(result.fixed).dump(2) << "\n";
  } else {
    std::cerr << "applied " << result.applied << " station edit(s) in "
              << result.iterations << " round(s)\n"
              << result.report.to_string(result.fixed);
  }
  const auto netlist = graph::write_netlist(result.fixed);
  if (out_path.empty()) {
    std::cout << netlist;
  } else {
    write_text(out_path, netlist);
    std::cerr << "wrote " << out_path << "\n";
  }
  return result.report.exit_code();
}

int cmd_analyze(const graph::Topology& topo) {
  std::cout << "feedforward: " << (topo.is_feedforward() ? "yes" : "no")
            << "\n";
  if (const auto loop = graph::min_cycle_ratio(topo)) {
    std::cout << "loop bound (min cycle ratio): " << loop->ratio.str() << "\n";
  }
  std::vector<graph::CycleInfo> cycles;
  try {
    cycles = graph::enumerate_cycles(topo);  // at most 4096
  } catch (const ApiError&) {
    std::cout << "cycle table skipped: past the enumeration budget (4096 "
              << "cycles, " << graph::kCycleIdBudget << " ids)\n";
  }
  if (!cycles.empty()) {
    Table t({"cycle (shells)", "S", "R", "T = S/(S+R)"});
    for (const auto& c : cycles) {
      std::string names;
      for (auto v : c.nodes) {
        if (!names.empty()) names += ",";
        names += topo.node(v).name;
      }
      t.add_row({names, std::to_string(c.shells), std::to_string(c.stations),
                 c.throughput.str()});
    }
    t.print(std::cout);
  }
  if (const auto recs = graph::analyze_reconvergence(topo); !recs.empty()) {
    Table t({"fork", "join", "i", "m", "T = (m-i)/m"});
    for (const auto& r : recs) {
      t.add_row({topo.node(r.fork).name, topo.node(r.join).name,
                 std::to_string(r.i()), std::to_string(r.m()),
                 r.throughput().str()});
    }
    t.print(std::cout);
  }
  const auto bound = graph::throughput_bound(topo);
  std::cout << "predicted system throughput: " << bound.ratio.str() << "\n";
  if (!bound.hops.empty()) {
    std::cout << "critical cycle: " << graph::hops_str(topo, bound.hops)
              << "\n";
  }
  std::cout << "transient bound: " << graph::transient_bound(topo)
            << " cycles\n";
  return 0;
}

/// Writes a post-mortem bundle; reports what happened on stdout.
void write_postmortem(const telemetry::PostMortem& pm,
                      const std::string& path) {
  write_text(path, pm.to_json().dump(2) + "\n");
  std::cout << "wrote post-mortem bundle " << path
            << " (replay with `lidtool replay " << path << "`)\n";
}

/// Prints the watchdog verdict after a trip.
void print_trip(const telemetry::PostMortem& pm) {
  std::cout << "DEADLOCK: watchdog tripped ("
            << telemetry::trip_reason_str(pm.reason)
            << "), no progress since cycle " << pm.no_progress_since
            << ", tripped at cycle " << pm.trip_cycle << "\n";
  if (!pm.blame.empty()) {
    const auto& top = pm.blame.front();
    std::cout << "top blame: " << top.victim << " " << top.why << " <- "
              << top.culprit << " x" << top.cycles << "\n";
  }
}

/// The daemon's default options, budget ceiling lifted, for local runs.
const serve::ServerOptions kLocal = [] {
  serve::ServerOptions opts;
  opts.max_budget = UINT64_MAX;
  return opts;
}();

/// A member of a result document as text: a string as is, else its JSON.
std::string text(const Json& doc, const char* member) {
  const Json& v = *doc.find(member);
  return v.is_string() ? v.as_string() : v.dump();
}

int cmd_simulate(const graph::Topology& topo, bool worst_case,
                 std::uint64_t budget, const std::string& pm_path) {
  // The daemon's screening pass: run to the first repeated state within
  // the budget; only a deadlock verdict re-runs the design under the
  // watchdog, for the trip and its post-mortem bundle.
  lip::SteadyState r;
  const Json pass = serve::screen_one(xir::lower(topo), worst_case, budget,
                                      kLocal.watchdog_threshold, &r);
  if (const Json* bundle = pass.find("post_mortem")) {
    const auto pm = telemetry::PostMortem::from_json(*bundle);
    print_trip(pm);
    if (!pm_path.empty()) write_postmortem(pm, pm_path);
    std::cout << "summary: simulate cycles=" << pm.trip_cycle + 1
              << " seed=0 (skeleton runs are deterministic) "
                 "verdict=deadlock\n";
    return 1;
  }
  if (!r.found) {
    std::cout << "no steady state within " << budget << " cycles\n";
    return 1;
  }
  std::cout << "transient: " << r.transient << " cycles, period: " << r.period
            << "\n";
  Table t({"shell", "throughput"});
  for (std::size_t i = 0; i < r.shell_ids.size(); ++i) {
    t.add_row({topo.node(r.shell_ids[i]).name, r.shell_throughput[i].str()});
  }
  t.print(std::cout);
  std::cout << "system throughput: " << r.system_throughput().str() << "\n";
  if (r.deadlock_found()) {
    // Part of the design still moves, so the watchdog never trips and
    // there is no bundle: the starved shells are the evidence.
    std::cout << "DEADLOCK: starved shells:";
    for (auto n : r.starved_shells()) std::cout << " " << topo.node(n).name;
    std::cout << "\n";
  }
  std::cout << "summary: simulate cycles=" << r.cycles << " (transient "
            << r.transient << " + period " << r.period
            << ") seed=0 (skeleton runs are deterministic) T="
            << r.system_throughput().str()
            << (r.deadlock_found() ? " verdict=deadlock" : "") << "\n";
  return r.deadlock_found() ? 1 : 0;
}

/// The daemon's screen request, run in-process and rendered from its
/// result document; exit 0 live, 1 otherwise.
int screen_request(const serve::Request& req) {
  const Json doc = serve::compute_screen(
      graph::parse_netlist_annotated_string(req.netlist).topo, req, kLocal);
  const std::string budget = text(doc, "budget");
  // One pass: its verdict (and a trip's top blame), then one line per
  // starved shell.
  auto pass = [&](const char* title, const char* member) {
    const Json& p = *doc.find(member);
    std::cout << title;
    if (const Json* bundle = p.find("post_mortem")) {
      print_trip(telemetry::PostMortem::from_json(*bundle));
    } else if (!p.find("found")->as_bool()) {
      std::cout << "no steady state within " << budget << " cycles\n";
    } else {
      std::cout << (p.find("deadlock")->as_bool() ? "DEADLOCK" : "live")
                << ", T = " << text(p, "throughput") << " (transient "
                << text(p, "transient") << ", period " << text(p, "period")
                << ")\n";
    }
    if (const Json* starved = p.find("starved")) {
      for (const Json& n : starved->elements()) {
        std::cout << "  starved shell: " << n.as_string() << "\n";
      }
    }
  };
  pass("from reset: ", "from_reset");
  pass("worst-case occupancy: ", "worst_case");
  const std::string verdict = text(doc, "verdict");
  std::cout << "summary: screen policy=" << text(doc, "policy")
            << " budget=" << budget
            << " seed=0 (skeleton runs are deterministic) verdict=" << verdict
            << "\n";
  return verdict == "live" ? 0 : 1;
}

int cmd_screen(const Args& args) {
  Flags f(args, serve::knob_flags(serve::RequestKind::kScreen));
  expect_args(f, 1, "screen <file.lid> [--policy P] [--budget N]");
  return screen_request(load_request(serve::RequestKind::kScreen, f));
}

/// `prove <file.lid>`: the daemon's prove request, run locally — the
/// same knobs, validator and ProveOptions.
int cmd_prove(const Args& args) {
  Flags f(args, with(serve::knob_flags(serve::RequestKind::kProve),
                     {{"--induction", false},
                      {"--json", false},
                      {"--postmortem"}}));
  expect_args(f, 1, "prove <file.lid> [options]");
  serve::Request req = load_request(serve::RequestKind::kProve, f);
  if (f.has("--induction")) req.method = prove::Method::kInduction;
  const auto topo = graph::parse_netlist_annotated_string(req.netlist).topo;
  const auto r = prove::prove(topo, serve::prove_options(req));
  if (f.has("--json")) {
    std::cout << r.to_json(topo).dump(2) << "\n";
  } else {
    std::cout << r.to_string(topo);
  }
  if (f.has("--postmortem")) {
    const std::string pm_path = f.value("--postmortem");
    if (!r.postmortem) {
      std::cerr << "no post-mortem bundle to write (verdict "
                << prove::verdict_name(r.verdict) << ")\n";
    } else {
      write_text(pm_path, r.postmortem->to_json().dump(2) + "\n");
      std::cerr << "wrote post-mortem bundle " << pm_path
                << " (replay with `lidtool replay " << pm_path << "`)\n";
    }
  }
  return r.exit_code();
}

int cmd_cure(const graph::Topology& topo) {
  skeleton::ScreeningOptions wc;
  wc.worst_case_occupancy = true;
  const auto cure = xir::cure_deadlocks(topo, wc);
  std::cout << "substitutions: " << cure.substitutions << "\n"
            << "result: " << (cure.success ? "deadlock free" : "NOT cured")
            << "\n\n"
            << graph::write_netlist(cure.cured);
  return cure.success ? 0 : 1;
}

int cmd_flow(const graph::Topology& topo) {
  flow::FlowOptions opts;  // keep stations as given; screen + cure + sign off
  const auto result = flow::run_design_flow(topo, opts);
  std::cout << result.summary();
  if (result.ok) {
    std::cout << "\n" << graph::write_netlist(result.topology);
  }
  return result.ok ? 0 : 1;
}

int cmd_dot(const graph::Topology& topo) {
  std::cout << topo.to_dot();
  return 0;
}

int cmd_run(const Args& args) {
  const Flags f(args, {{"--postmortem"}});
  const auto& pos = f.positional();
  require(pos.size() == 1 || pos.size() == 2,
          "usage: lidtool run <file.lid> [cycles] [--postmortem FILE]");
  const std::uint64_t cycles =
      pos.size() == 2 ? parse_u64(pos[1], "run cycle count") : 1000;
  auto design = pearls::parse_design_string(read_text(pos[0]));
  auto sys = design.instantiate();
  // Guard the full-data run: a design that deadlocks (half stations on a
  // loop under unlucky occupancy) is reported instead of burning the
  // cycle budget in silence.
  telemetry::Watchdog dog;
  dog.attach(*sys);
  const auto guarded = telemetry::run_guarded(*sys, dog, cycles);
  if (dog.tripped()) {
    const auto pm = dog.post_mortem();
    print_trip(pm);
    if (f.has("--postmortem")) write_postmortem(pm, f.value("--postmortem"));
    std::cout << "summary: run cycles=" << guarded.cycles
              << " verdict=deadlock\n";
    return 1;
  }
  const auto& topo = design.topology();
  for (graph::NodeId v = 0; v < topo.nodes().size(); ++v) {
    if (topo.node(v).kind != graph::NodeKind::kSink) continue;
    const auto& stream = sys->sink_stream(v);
    std::cout << topo.node(v).name << " consumed " << stream.size()
              << " tokens:";
    const std::size_t show = std::min<std::size_t>(stream.size(), 16);
    for (std::size_t i = 0; i < show; ++i) {
      std::cout << ' ' << stream[i].data;
    }
    if (stream.size() > show) std::cout << " ...";
    std::cout << "\n";
  }
  auto fresh = design.instantiate();
  if (fresh->environment_period() == 0) {
    std::cout << "steady state: not determined (aperiodic environment)\n";
  } else if (const auto ss = lip::measure_steady_state(*fresh); ss.found) {
    std::cout << "steady state (sound for periodic environments): T = "
              << ss.system_throughput().str()
              << ", transient " << ss.transient << ", period " << ss.period
              << "\n";
  }
  const auto equiv = lip::check_latency_equivalence(design, {}, cycles);
  std::cout << "latency equivalence vs ideal system: "
            << (equiv.ok ? "ok" : "BROKEN: " + equiv.detail) << "\n";
  return equiv.ok ? 0 : 1;
}

/// `profile <file.lid>`: the daemon's profile request, run in-process
/// and rendered from its result document (`--trace` streams the same
/// run's Chrome trace); exit 0 live, 1 deadlock.
int cmd_profile(const Args& args) {
  Flags f(args, with(serve::knob_flags(serve::RequestKind::kProfile),
                     {{"--trace"}, {"--json", false}}));
  expect_args(f, 1, "profile <file.lid> [options]");
  const serve::Request req = load_request(serve::RequestKind::kProfile, f);
  const auto net = graph::parse_netlist_annotated_string(req.netlist);
  std::ofstream trace_os;
  std::unique_ptr<probe::TraceSink> sink;
  const std::string trace_path = f.value("--trace");
  if (!trace_path.empty()) {
    trace_os.open(trace_path);
    require(trace_os.good(), "cannot write " + trace_path);
    sink = std::make_unique<probe::TraceSink>(trace_os);
  }
  const Json doc = serve::compute_profile(net, req, kLocal, sink.get());
  const int rc = text(doc, "verdict") == "live" ? 0 : 1;
  const Json& report = *doc.find("report");
  if (f.has("--json")) {
    std::cout << report.dump(2) << "\n";
    return rc;
  }
  Table t({"shell", "fired", "waiting", "stopped", "measured T"});
  for (const Json& s : report.find("shells")->elements()) {
    t.add_row({text(s, "name"), text(s, "fired"), text(s, "waiting"),
               text(s, "stopped"), text(s, "throughput")});
  }
  t.print(std::cout);
  std::cout << "measured system throughput: " << text(report, "min_throughput")
            << " (includes the transient; see docs/probe.md)\n";
  const auto& blame = report.find("blame")->elements();
  if (!blame.empty()) {
    std::cout << "\nstall attribution (top 10):\n\n";
    Table b({"victim", "state", "culprit", "cycles"});
    const std::size_t show = std::min<std::size_t>(blame.size(), 10);
    for (std::size_t i = 0; i < show; ++i) {
      b.add_row({text(blame[i], "victim"), text(blame[i], "why"),
                 text(blame[i], "culprit"), text(blame[i], "cycles")});
    }
    b.print(std::cout);
    if (blame.size() > show) {
      std::cout << "... and " << blame.size() - show << " more\n";
    }
  }
  if (const Json* bundle = doc.find("post_mortem")) {
    std::cout << "\n";
    print_trip(telemetry::PostMortem::from_json(*bundle));
  }
  if (sink) {
    std::cout << "\nwrote " << trace_path << " (" << sink->bytes_written()
              << " bytes; open at ui.perfetto.dev)\n";
  }
  std::cout << "summary: profile cycles=" << text(doc, "cycles")
            << " seed=0 (full-data runs are deterministic)"
            << (rc ? " verdict=deadlock" : "") << "\n";
  return rc;
}

int cmd_replay(const Args& args) {
  const Flags f(args, {});
  const auto& pos = expect_args(f, 1, "replay <bundle.json>");
  const auto pm =
      telemetry::PostMortem::from_json(Json::parse(read_text(pos[0])));
  std::cout << "bundle: " << telemetry::trip_reason_str(pm.reason)
            << " at cycle " << pm.trip_cycle << ", no progress since cycle "
            << pm.no_progress_since << ", seed " << pm.seed << " ("
            << lip::policy_name(pm.strict ? lip::StopPolicy::kCarloniStrict
                                          : lip::StopPolicy::kCasuDiscardOnVoid)
            << " policy, "
            << (pm.worst_case_occupancy ? "worst-case occupancy" : "from reset")
            << ")\n";
  const auto r = telemetry::replay(pm);
  if (!r.tripped) {
    std::cout << "replay: watchdog did NOT trip — failure not reproduced\n";
    return 1;
  }
  std::cout << "replay: " << telemetry::trip_reason_str(r.reason)
            << " at cycle " << r.trip_cycle << ", no progress since cycle "
            << r.no_progress_since << "\n"
            << "verdict: "
            << (r.reproduced ? "reproduced (identical deadlock cycle)"
                             : "TRIPPED DIFFERENTLY (bundle and replay "
                               "disagree)")
            << "\n";
  return r.reproduced ? 0 : 1;
}

int cmd_bench(const Args& args) {
  const Flags f(args, {{"--threshold"}, {"--json", false}});
  const auto& pos = f.positional();
  require(pos.size() == 3 && pos[0] == "diff",
          "usage: lidtool bench diff <old.json> <new.json>");
  telemetry::BenchDiffOptions opts;
  if (f.has("--threshold")) {
    const std::string v = f.value("--threshold");
    try {
      std::size_t used = 0;
      opts.threshold_pct = std::stod(v, &used);
      require(used == v.size() && opts.threshold_pct >= 0,
              "--threshold expects a non-negative percentage");
    } catch (const ApiError&) {
      throw;
    } catch (const std::exception&) {
      throw ApiError("--threshold expects a number, got '" + v + "'");
    }
  }
  const auto diff = telemetry::bench_diff_files(pos[1], pos[2], opts);
  if (f.has("--json")) {
    std::cout << diff.to_json().dump(2) << "\n";
  } else {
    std::cout << diff.to_text();
  }
  return diff.exit_code();
}

int cmd_equalize(const graph::Topology& design) {
  graph::Topology topo = design;
  if (!topo.is_feedforward()) {
    std::cout << "design has feedback loops; equalization applies to "
                 "feed-forward designs only\n";
    return 1;
  }
  const auto added = graph::equalize_paths(topo);
  std::cout << "# equalization added " << added << " spare stations\n"
            << graph::write_netlist(topo);
  return 0;
}

// ---- campaign subcommand --------------------------------------------------

/// Prints the outcome histogram, throughput distribution and failures
/// of an aggregate — shared by the run, merge and dist reports.
void print_aggregate_tables(const campaign::Aggregate& agg) {
  Table hist({"outcome", "jobs"});
  for (const auto& [o, n] : agg.outcomes) {
    if (n) hist.add_row({campaign::outcome_name(o), std::to_string(n)});
  }
  hist.print(std::cout);

  if (!agg.throughputs.empty()) {
    std::cout << "\nthroughput distribution (exact):\n\n";
    Table tp({"T", "jobs"});
    for (const auto& [t, n] : agg.throughputs) {
      tp.add_row({t.str(), std::to_string(n)});
    }
    tp.print(std::cout);
  }

  if (!agg.failures.empty()) {
    std::cout << "\nfailures (seed reproduces the job):\n\n";
    Table f({"job", "outcome", "seed", "detail"});
    const std::size_t show =
        std::min<std::size_t>(agg.failures.size(), 20);
    for (std::size_t i = 0; i < show; ++i) {
      const auto& r = agg.failures[i];
      f.add_row({r.name, campaign::outcome_name(r.outcome),
                 std::to_string(r.seed), r.detail});
    }
    f.print(std::cout);
    if (agg.failures.size() > show) {
      std::cout << "... and " << agg.failures.size() - show << " more\n";
    }
  }
}

/// Writes the aggregate's canonical JSON document to `--json PATH`, if
/// given, and says so.
void write_aggregate_json(const Flags& f, const campaign::Aggregate& agg) {
  if (!f.has("--json")) return;
  write_text(f.value("--json"), campaign::to_json(agg).dump(2) + "\n");
  std::cout << "\nwrote " << f.value("--json") << "\n";
}

/// Runs a job batch, prints the aggregate and failures, writes exports;
/// with `--shard i/N --out FILE` (or `--out` alone: shard 0/1) runs only
/// that shard and exports its liplib.dist.partial/1 document, stamped
/// with `spec_id`, for `lidtool merge`.  Returns 0 when every job is
/// live.
int run_campaign(const std::vector<campaign::Job>& jobs,
                 const std::string& spec_id,
                 const campaign::EngineOptions& eopts, const Flags& f) {
  campaign::RunStats stats;
  if (f.has("--shard") || f.has("--out")) {
    require(f.has("--out"),
            "--shard requires --out FILE for the partial aggregate");
    const auto [index, count] =
        dist::parse_shard_token(f.value("--shard", "0/1"));
    const auto range = dist::shard_range(jobs.size(), index, count);
    const auto part = dist::run_shard(
        jobs,
        dist::make_manifest(spec_id, jobs.size(), eopts.base_seed,
                            eopts.cycle_budget, range),
        eopts, &stats);
    write_text(f.value("--out"),
               dist::partial_to_json(part.manifest, part.aggregate).dump(2) +
                   "\n");
    std::cout << "shard " << range.index << "/" << range.count << ": jobs ["
              << range.lo << ", " << range.hi << ") of " << jobs.size()
              << ", base seed " << eopts.base_seed << ", " << stats.threads
              << " thread(s), " << part.aggregate.total_cycles
              << " simulated cycles\nwrote " << f.value("--out") << "\n";
    return part.aggregate.all_live() ? 0 : 1;
  }
  const auto results = campaign::Engine(eopts).run(jobs, &stats);
  const auto agg = campaign::aggregate(results);

  std::cout << jobs.size() << " jobs on " << stats.threads
            << " worker thread(s), base seed " << eopts.base_seed << ", "
            << agg.total_cycles
            << " simulated cycles, " << stats.wall_seconds << " s wall\n\n";
  print_aggregate_tables(agg);
  write_aggregate_json(f, agg);
  if (f.has("--csv")) {
    write_text(f.value("--csv"), campaign::to_csv(results));
    std::cout << "wrote " << f.value("--csv") << "\n";
  }
  return agg.all_live() ? 0 : 1;
}

/// The campaign a named-campaign request (`campaign <mode> <jobs>`,
/// `dist coordinate <mode> <jobs>`: the daemon's request, same knobs and
/// validator) runs, with the command line's `--shape`.
campaign::NamedCampaignSpec named_spec(const serve::Request& req,
                                       const Flags& f) {
  campaign::NamedCampaignSpec spec = serve::campaign_spec(req);
  if (f.has("--shape")) {
    const std::string shape = f.value("--shape");
    require(campaign::parse_shape(shape, &spec.shape),
            "unknown fuzz shape '" + shape + "'");
  }
  return spec;
}

/// A sweep or mix `--policy`: variant | strict, plus `both` where
/// `allow_both` (sweep only, where it is also the default).
std::vector<lip::StopPolicy> policy_flag(const Flags& f, bool allow_both) {
  const std::vector<lip::StopPolicy> both = {
      lip::StopPolicy::kCasuDiscardOnVoid, lip::StopPolicy::kCarloniStrict};
  if (!f.has("--policy")) return allow_both ? both : std::vector{both[0]};
  const std::string v = f.value("--policy");
  if (allow_both && v == "both") return both;
  lip::StopPolicy p = lip::StopPolicy::kCasuDiscardOnVoid;
  require(lip::parse_policy(v, &p),
          "unknown policy '" + v + "' (expected variant | strict" +
              (allow_both ? " | both)" : ")"));
  return {p};
}

/// `campaign sweep <file.lid>`: replicate the design's process-to-process
/// channels at every station count in the range, under each stop policy,
/// and measure the exact steady state of each variant.
std::pair<std::vector<campaign::Job>, std::string> sweep_jobs(
    const Flags& f) {
  const auto& pos = expect_args(f, 2, "campaign sweep <file.lid> [options]");
  const graph::Topology base = load_topology(pos[1]);
  std::size_t lo = 1, hi = 4;
  if (f.has("--stations")) {
    const std::string v = f.value("--stations");
    const auto colon = v.find(':');
    require(colon != std::string::npos, "--stations expects LO:HI");
    lo = static_cast<std::size_t>(parse_u64(v.substr(0, colon), "--stations"));
    hi = static_cast<std::size_t>(parse_u64(v.substr(colon + 1), "--stations"));
    require(lo >= 1 && lo <= hi,
            "--stations range must satisfy 1 <= LO <= HI");
  }
  const auto policies = policy_flag(f, /*allow_both=*/true);
  std::string spec_id = "lidtool/sweep;netlist=" +
                        std::to_string(serve::topology_hash(base)) +
                        ";stations=" + std::to_string(lo) + ":" +
                        std::to_string(hi) + ";policies=";
  for (std::size_t i = 0; i < policies.size(); ++i) {
    spec_id += (i ? "," : "") + std::string(lip::policy_name(policies[i]));
  }
  std::vector<campaign::Job> jobs;
  for (std::size_t k = lo; k <= hi; ++k) {
    graph::Topology variant = base;
    for (graph::ChannelId c = 0; c < variant.channels().size(); ++c) {
      const auto& ch = variant.channel(c);
      auto& stations = variant.stations_mut(c);
      const bool between_processes =
          variant.node(ch.from.node).kind == graph::NodeKind::kProcess &&
          variant.node(ch.to.node).kind == graph::NodeKind::kProcess;
      if (between_processes) {
        const graph::RsKind kind =
            stations.empty() ? graph::RsKind::kFull : stations.front();
        stations.assign(k, kind);
      }
    }
    for (auto policy : policies) {
      skeleton::SkeletonOptions opts;
      opts.policy = policy;
      jobs.push_back(campaign::make_steady_state_job(
          "sweep/st=" + std::to_string(k) + "/" + lip::policy_name(policy),
          variant, opts));
    }
  }
  return {std::move(jobs), spec_id};
}

/// `campaign mix <file.lid>`: screen N random half/full station-kind
/// variants of one design from worst-case occupancy, batched 64 variants
/// per job into one bit-sliced evaluation.
std::pair<std::vector<campaign::Job>, std::string> mix_jobs(const Flags& f) {
  const auto& pos = expect_args(f, 2, "campaign mix <file.lid> [options]");
  campaign::MixScreenSpec spec;
  spec.topo = load_topology(pos[1]);
  spec.skeleton.policy = policy_flag(f, /*allow_both=*/false).front();
  spec.variants = static_cast<std::size_t>(f.number("--variants", 64));
  require(spec.variants >= 1, "--variants must be at least 1");
  std::string spec_id = "lidtool/mix;netlist=" +
                        std::to_string(serve::topology_hash(spec.topo)) +
                        ";variants=" + std::to_string(spec.variants) +
                        ";policy=" + lip::policy_name(spec.skeleton.policy);
  std::cout << "screening " << spec.variants
            << " station-kind variants, 64 per bit-sliced job\n\n";
  return {campaign::make_mix_screen_campaign(std::move(spec)), spec_id};
}

int cmd_campaign(const Args& args) {
  const Flags f(args,
                with(serve::knob_flags(serve::RequestKind::kCampaign),
                     {{"--threads"}, {"--stations"}, {"--shape"},
                      {"--variants"}, {"--json"}, {"--csv"}, {"--shard"},
                      {"--out"}}));
  require(!f.positional().empty(),
          "campaign requires a mode: sweep | fuzz | lint | probe | "
          "prove | mix | t1");
  const std::string mode = f.positional()[0];
  campaign::EngineOptions eopts;
  eopts.threads = static_cast<unsigned>(f.number("--threads", 0));
  eopts.base_seed = f.number("--seed", 1);
  eopts.cycle_budget = f.number("--budget", 0);
  if (eopts.cycle_budget == 0) eopts.cycle_budget = serve::kDefaultCycleBudget;

  campaign::CampaignMode named = campaign::CampaignMode::kFuzz;
  if (campaign::parse_campaign_mode(mode, &named)) {
    const auto spec = named_spec(
        serve::request_from_flags(serve::RequestKind::kCampaign, f), f);
    return run_campaign(campaign::make_named_campaign(spec),
                        dist::named_campaign_to_string(spec), eopts, f);
  }
  if (mode == "sweep" || mode == "mix") {
    const auto [jobs, spec_id] = mode == "sweep" ? sweep_jobs(f) : mix_jobs(f);
    return run_campaign(jobs, spec_id, eopts, f);
  }
  require(mode == "t1", "unknown campaign mode '" + mode + "'");
  expect_args(f, 1, "campaign t1 [options]");
  std::cout << "EXPERIMENTS.md T1 fuzz pass: 300 random reconvergences "
               "x 2 policies + 150 random composites = 750 runs\n\n";
  return run_campaign(campaign::make_t1_fuzz_campaign(), "lidtool/t1", eopts,
                      f);
}

// ---- merge / dist subcommands ---------------------------------------------

/// `lidtool merge a.json b.json ...`: deterministic reunion of shard
/// partials.  Validates the manifests (same campaign, ranges tile the
/// whole job vector), folds the aggregates with campaign::merge and
/// writes/prints the result — byte-identical to the single-process
/// `campaign ... --json` document.
int cmd_merge(const Args& args) {
  const Flags f(args, {{"--json"}});
  require(!f.positional().empty(),
          "merge requires at least one partial.json");
  std::vector<dist::Partial> parts;
  for (const auto& file : f.positional()) {
    parts.push_back(dist::partial_from_json(Json::parse(read_text(file))));
  }
  const std::string campaign_spec = parts.front().manifest.campaign;
  const auto agg = dist::merge_partials(std::move(parts));
  std::cout << "merged " << f.positional().size()
            << " partial(s) of campaign '" << campaign_spec
            << "': " << agg.total << " jobs, " << agg.total_cycles
            << " simulated cycles\n\n";
  print_aggregate_tables(agg);
  write_aggregate_json(f, agg);
  return agg.all_live() ? 0 : 1;
}

/// `lidtool dist coordinate <mode> <jobs>`: run the straggler-aware
/// coordinator for a named campaign and print the merged aggregate.
int cmd_dist_coordinate(const Args& args) {
  const Flags f(args,
                with(serve::knob_flags(serve::RequestKind::kCampaign),
                     {{"--shape"}, {"--port"}, {"--shards"}, {"--lease-ms"},
                      {"--json"}, {"--trace"}}));
  const serve::Request req =
      serve::request_from_flags(serve::RequestKind::kCampaign, f);
  dist::CoordinatorOptions opts;
  opts.spec = named_spec(req, f);
  opts.base_seed = req.seed;
  opts.cycle_budget = serve::effective_budget(req);
  opts.port = static_cast<std::uint16_t>(f.number("--port", 0));
  opts.shards = static_cast<std::size_t>(f.number("--shards", opts.shards));
  require(opts.shards >= 1, "--shards must be at least 1");
  opts.lease_ms = f.number("--lease-ms", opts.lease_ms);
  opts.trace = f.has("--trace");

  dist::Coordinator coord(opts);
  coord.start();
  std::cout << "liplib.dist/1 coordinating '"
            << dist::named_campaign_to_string(opts.spec) << "' on 127.0.0.1:"
            << coord.port() << " (" << opts.shards
            << " shard(s), lease " << opts.lease_ms
            << " ms); workers: `lidtool dist work --port " << coord.port()
            << "`\n"
            << std::flush;
  const auto agg = coord.wait();
  const auto stats = coord.stats();
  std::cout << "campaign done: " << stats.shards_done << "/"
            << stats.shards_total << " shards, " << stats.leases_issued
            << " lease(s), " << stats.redispatches << " re-dispatch(es), "
            << stats.duplicates << " duplicate(s), " << stats.bytes_merged
            << " bytes merged\n\n";
  print_aggregate_tables(agg);
  write_aggregate_json(f, agg);
  if (opts.trace) {
    const std::string trace_path = f.value("--trace");
    write_text(trace_path, coord.trace_json().dump(2) + "\n");
    std::cout << "wrote " << trace_path
              << " (merge/export with `lidtool trace " << trace_path
              << " -o out.json`)\n";
  }
  return agg.all_live() ? 0 : 1;
}

/// `lidtool dist work`: pull shard leases from a coordinator until the
/// campaign is done.
int cmd_dist_work(const Args& args) {
  const Flags f(args, {{"--port"}, {"--threads"}, {"--die-after-lease"}});
  expect_args(f, 0, "dist work --port N [--threads N]");
  dist::WorkerOptions opts;
  opts.port = static_cast<std::uint16_t>(f.number("--port", 0));
  opts.threads = static_cast<unsigned>(f.number("--threads", 0));
  opts.die_after_lease =
      static_cast<std::size_t>(f.number("--die-after-lease", 0));
  require(opts.port != 0, "dist work requires --port <coordinator port>");
  const auto stats = dist::run_worker(opts);
  std::cout << "worker done: " << stats.leases << " lease(s), "
            << stats.submitted << " partial(s) submitted, " << stats.rejected
            << " dropped as duplicate(s)"
            << (stats.coordinator_gone ? ", coordinator gone" : "") << "\n";
  return 0;
}

int cmd_dist(const Args& args) {
  const std::string role = args.empty() ? "" : args[0];
  const Args rest(args.begin() + (args.empty() ? 0 : 1), args.end());
  if (role == "coordinate") return cmd_dist_coordinate(rest);
  if (role == "work") return cmd_dist_work(rest);
  throw ApiError("dist requires a role: coordinate | work");
}

// ---- trace subcommand -----------------------------------------------------

/// `lidtool trace`: fold span documents (files and/or live scrapes) and
/// Chrome/Perfetto trace files into one timeline; check integrity;
/// optionally export merged Perfetto JSON.
int cmd_trace(const Args& args) {
  const Flags f(args, {{"-o"}, {"--scrape"}, {"--scrape-dist"},
                       {"--check", false}});
  std::vector<trace::Span> spans;
  std::vector<std::string> raw_events;  // spliced Chrome events, verbatim
  auto fold_doc = [&](const Json& doc, const std::string& origin) {
    if (doc.is_object()) {
      if (const Json* schema = doc.find("schema")) {
        if (schema->is_string() &&
            schema->as_string() == trace::kTraceSchema) {
          for (trace::Span& s : trace::spans_from_json(doc)) {
            spans.push_back(std::move(s));
          }
          return;
        }
      }
      if (const Json* ev = doc.find("traceEvents")) {
        require(ev->is_array(),
                origin + ": 'traceEvents' must be an array");
        for (const Json& e : ev->elements()) raw_events.push_back(e.dump());
        return;
      }
    }
    if (doc.is_array()) {  // bare Chrome JSON Array Format
      for (const Json& e : doc.elements()) raw_events.push_back(e.dump());
      return;
    }
    throw ApiError(origin + ": neither a " + trace::kTraceSchema +
                   " document nor Chrome trace JSON");
  };

  for (const auto& file : f.positional()) {
    fold_doc(Json::parse(read_text(file)), file);
  }
  if (f.has("--scrape")) {
    serve::Request scrape;
    scrape.kind = serve::RequestKind::kTrace;
    const Json response = Json::parse(serve::call(
        static_cast<std::uint16_t>(f.number("--scrape", 0)),
        serve::to_json(scrape).dump()));
    const Json* ok = response.find("ok");
    require(ok && ok->is_bool() && ok->as_bool(),
            "serve daemon rejected the trace scrape");
    const Json* result = response.find("result");
    require(result, "trace response carries no result");
    fold_doc(*result, "serve scrape");
    if (const Json* omitted = result->find("omitted")) {
      std::cout << "serve scrape: " << omitted->dump()
                << " older span(s) omitted to fit one frame\n";
    }
  }
  if (f.has("--scrape-dist")) {
    const Json response = Json::parse(serve::call(
        static_cast<std::uint16_t>(f.number("--scrape-dist", 0)),
        Json::object()
            .set("rpc", dist::kDistRpcSchema)
            .set("msg", "trace")
            .dump()));
    const Json* doc = response.find("doc");
    require(doc, "coordinator trace response carries no 'doc'");
    fold_doc(*doc, "dist scrape");
  }

  std::string err;
  const bool sound = trace::check_integrity(spans, &err);
  std::vector<std::uint64_t> traces;
  for (const auto& s : spans) traces.push_back(s.trace_id);
  std::sort(traces.begin(), traces.end());
  traces.erase(std::unique(traces.begin(), traces.end()), traces.end());
  std::cout << spans.size() << " span(s) across " << traces.size()
            << " trace(s), " << raw_events.size()
            << " spliced probe event(s); integrity "
            << (sound ? "ok" : "BROKEN: " + err) << "\n";

  if (f.has("-o")) {
    const std::string out_path = f.value("-o");
    std::ofstream os(out_path);
    require(os.good(), "cannot write " + out_path);
    probe::TraceSink sink(os);
    trace::export_perfetto(spans, sink);
    for (const auto& e : raw_events) sink.raw_event(e);
    sink.finish();
    std::cout << "wrote " << out_path << " (" << sink.bytes_written()
              << " bytes; open at ui.perfetto.dev)\n";
  }
  return sound || !f.has("--check") ? 0 : 1;
}

// ---- serve / client subcommands -------------------------------------------

int cmd_serve(const Args& args) {
  const Flags f(args, {{"--port"}, {"--threads"}, {"--cache-mb"}, {"--ttl"},
                       {"--budget"}});
  expect_args(f, 0, "serve [options]");
  serve::ServerOptions opts;
  opts.port = static_cast<std::uint16_t>(f.number("--port", 7177));
  opts.threads = static_cast<unsigned>(f.number("--threads", 0));
  const std::uint64_t cache_mb = f.number("--cache-mb", 64);
  const std::uint64_t ttl_s = f.number("--ttl", 600);
  opts.default_budget = f.number("--budget", opts.default_budget);
  opts.max_budget = std::max(opts.max_budget, opts.default_budget);
  opts.cache.capacity_bytes = static_cast<std::size_t>(cache_mb) << 20;
  opts.cache.ttl_ms = ttl_s * 1000;

  serve::Server server(opts);
  server.start();
  std::cout << "liplib.rpc/1 serving on 127.0.0.1:" << server.port()
            << " (cache " << cache_mb << " MiB, ttl "
            << (ttl_s == 0 ? std::string("off") : std::to_string(ttl_s) + " s")
            << ", budget " << opts.default_budget
            << "); stop with `lidtool client shutdown --port "
            << server.port() << "`\n"
            << std::flush;
  server.wait();
  const auto stats = server.context().cache.stats();
  std::cout << "drained: served "
            << server.context().requests_total.value() << " request(s), "
            << stats.hits << " cache hit(s), " << stats.evictions
            << " eviction(s)\n";
  return 0;
}

/// `lidtool client <kind> ...`: flags -> Request through the knob table
/// (a kind accepts only its own knob flags), then the request's
/// canonical document goes to the daemon.
int cmd_client(const Args& args) {
  const std::vector<FlagSpec> own = {{"--port"}, {"--id"}, {"--trace"}};
  // Flags may precede the kind, so the kind is found with every knob
  // flag allowed, then the arguments are re-read with the kind's own.
  std::vector<FlagSpec> every = own;
  for (int k = 0; k < serve::kRequestKindCount; ++k) {
    every = with(every, serve::knob_flags(static_cast<serve::RequestKind>(k)));
  }
  const Flags any(args, every);
  require(!any.positional().empty(),
          "client requires a request kind: lint | screen | profile | "
          "prove | campaign | status | shutdown | dist-status | "
          "metrics | trace");
  serve::RequestKind kind = serve::RequestKind::kStatus;
  require(serve::parse_request_kind(any.positional()[0], &kind),
          "unknown client request kind '" + any.positional()[0] + "'");
  Flags f(args, with(serve::knob_flags(kind), own));
  f.positional().erase(f.positional().begin());
  serve::Request req = load_request(kind, f);
  if (f.has("--id")) req.id = f.value("--id");

  // --trace: derive a client-side trace context from the request bytes
  // (before the trace member joins them, so the id is reproducible from
  // the request alone) and hand it to the daemon, which parents its
  // serve-side spans under ours.
  trace::Recorder client_rec;
  const std::string trace_out = f.value("--trace");
  const std::uint64_t client_t0 = client_rec.now_us();
  if (!trace_out.empty()) {
    const std::uint64_t trace_id =
        trace::derive_trace_id(serve::fnv1a64(serve::to_json(req).dump()));
    req.trace = {trace_id, trace::derive_span_id(trace_id, 0, 0)};
  }

  const Json response = Json::parse(
      serve::call(static_cast<std::uint16_t>(f.number("--port", 7177)),
                  serve::to_json(req).dump()));
  const Json* ok = response.find("ok");
  const bool succeeded = ok && ok->is_bool() && ok->as_bool();
  const Json* result = response.find("result");
  if (kind == serve::RequestKind::kMetrics && succeeded && result) {
    // Prometheus exposition is a text format: print it raw so the
    // output pipes straight into promtool / a scrape file.
    const Json* text = result->find("text");
    require(text && text->is_string(),
            "metrics response carries no text");
    std::cout << text->as_string();
  } else {
    std::cout << response.dump(2) << "\n";
  }
  int rc = succeeded ? 0 : 2;
  if (const Json* verdict = succeeded && result ? result->find("verdict")
                                                : nullptr) {
    const std::string& v = verdict->as_string();
    if (v != "live" && v != "clean" && v != "all_live" && v != "proved") {
      rc = 1;
    }
  }
  if (!trace_out.empty()) {
    trace::Span s;
    s.trace_id = req.trace.trace_id;
    s.span_id = req.trace.parent_span;
    s.name = std::string("client.") + serve::request_kind_name(kind);
    s.category = "client";
    s.track = "client";
    s.ts_us = client_t0;
    s.dur_us = client_rec.now_us() - client_t0;
    s.attrs.emplace_back("ok", succeeded ? "true" : "false");
    client_rec.record(std::move(s));
    write_text(trace_out, client_rec.to_json().dump(2) + "\n");
  }
  return rc;
}

/// A structural command: one <file.lid> argument and the given flags.
template <class Run>
int structural(const Args& args, const std::vector<FlagSpec>& flags,
               const std::string& usage, Run run) {
  const Flags f(args, flags);
  return run(load_topology(expect_args(f, 1, usage)[0]), f);
}

int demo() {
  std::cout << kUsage
            << "\nrunning the full demo on the built-in Fig. 1 design:\n\n";
  auto topo = graph::parse_netlist_string(kFig1Netlist);
  std::cout << "--- validate ---\n";
  cmd_validate(topo);
  std::cout << "--- lint ---\n";
  cmd_lint(topo, /*json=*/false, /*fix=*/false, "");
  std::cout << "--- analyze ---\n";
  cmd_analyze(topo);
  std::cout << "--- simulate ---\n";
  cmd_simulate(topo, /*worst_case=*/false, serve::kDefaultCycleBudget, "");
  std::cout << "--- screen ---\n";
  serve::Request screen;
  screen.kind = serve::RequestKind::kScreen;
  screen.netlist = kFig1Netlist;
  screen_request(screen);
  std::cout << "--- equalize ---\n";
  return cmd_equalize(topo);
}

int dispatch(const std::string& cmd, const Args& args) {
  using T = const graph::Topology&;
  // Structural commands without flags: one <file.lid> argument.
  const std::pair<const char*, int (*)(T)> plain[] = {
      {"validate", cmd_validate}, {"analyze", cmd_analyze},
      {"cure", cmd_cure},         {"equalize", cmd_equalize},
      {"flow", cmd_flow},         {"dot", cmd_dot}};
  for (const auto& [name, run] : plain) {
    if (cmd == name) {
      return structural(args, {}, std::string(name) + " <file.lid>",
                        [run](T t, const Flags&) { return run(t); });
    }
  }
  if (cmd == "lint") {
    return structural(args, {{"--json", false}, {"--fix", false}, {"-o"}},
                      "lint <file.lid> [--json] [--fix] [-o FILE]",
                      [](T t, const Flags& f) {
                        return cmd_lint(t, f.has("--json"), f.has("--fix"),
                                        f.value("-o"));
                      });
  }
  if (cmd == "simulate") {
    return structural(
        args, {{"--worst-case", false}, {"--budget"}, {"--postmortem"}},
        "simulate <file.lid> [options]", [](T t, const Flags& f) {
          const std::uint64_t budget = f.number("--budget", 0);
          return cmd_simulate(t, f.has("--worst-case"),
                              budget ? budget : serve::kDefaultCycleBudget,
                              f.value("--postmortem"));
        });
  }
  const std::pair<const char*, int (*)(const Args&)> commands[] = {
      {"prove", cmd_prove},       {"screen", cmd_screen},
      {"run", cmd_run},           {"profile", cmd_profile},
      {"replay", cmd_replay},     {"bench", cmd_bench},
      {"campaign", cmd_campaign},
      {"merge", cmd_merge},       {"dist", cmd_dist},
      {"trace", cmd_trace},       {"serve", cmd_serve},
      {"client", cmd_client}};
  for (const auto& [name, run] : commands) {
    if (cmd == name) return run(args);
  }
  std::cerr << "unknown command '" << cmd << "'\n\n" << kUsage;
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) return demo();
    const std::string cmd = argv[1];
    const Args args(argv + 2, argv + argc);
    if (cmd == "--help" || cmd == "-h" || cmd == "help" ||
        (!args.empty() && (args[0] == "--help" || args[0] == "-h"))) {
      std::cout << kUsage;
      return 0;
    }
    return dispatch(cmd, args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
