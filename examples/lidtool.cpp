// lidtool — command-line front end for latency-insensitive designs in the
// .lid netlist format (see liplib/graph/netlist_io.hpp).
//
//   lidtool validate  <file.lid>    structural checks + warnings
//   lidtool lint      <file.lid>    static protocol analysis (LIP001...)
//   lidtool analyze   <file.lid>    analytic throughput (formulas + MCR)
//   lidtool simulate  <file.lid>    skeleton simulation to steady state
//   lidtool screen    <file.lid>    deadlock screening (reset + worst case)
//   lidtool cure      <file.lid>    substitute stations until deadlock free
//   lidtool equalize  <file.lid>    insert spare stations, print new netlist
//   lidtool flow      <file.lid>    full flow: screen, cure, sign off
//   lidtool run       <file.lid> [n] full-data simulation (annotated file)
//   lidtool profile   <file.lid>    probe-instrumented run: counters, stall
//                                   attribution, optional Perfetto trace
//   lidtool dot       <file.lid>    graphviz rendering
//   lidtool campaign  ...           parallel mass-simulation campaigns
//                                   (sweep / fuzz / probe / t1; see --help)
//   lidtool merge     ...           deterministic reunion of shard partials
//   lidtool dist      ...           distributed campaigns: lease coordinator
//                                   and pull workers (see docs/dist.md)
//   lidtool replay    <bundle.json> re-run a watchdog post-mortem bundle and
//                                   check the deadlock reproduces
//   lidtool bench diff <old> <new>  perf regression gate over BENCH_*.json
//   lidtool serve     ...           multi-tenant lint/screen/profile daemon
//                                   with a content-addressed result cache
//   lidtool client    ...           scripted requests against a daemon
//   lidtool trace     ...           merge/scrape liplib.trace/1 span docs and
//                                   probe Perfetto files into one timeline
//
// Run without arguments for a demo on the paper's Fig. 1 design.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "liplib/campaign/campaign.hpp"
#include "liplib/campaign/jobs.hpp"
#include "liplib/campaign/report.hpp"
#include "liplib/dist/coordinator.hpp"
#include "liplib/dist/shard.hpp"
#include "liplib/dist/worker.hpp"
#include "liplib/graph/analysis.hpp"
#include "liplib/graph/equalize.hpp"
#include "liplib/graph/mcr.hpp"
#include "liplib/flow/design_flow.hpp"
#include "liplib/graph/netlist_io.hpp"
#include "liplib/lint/lint.hpp"
#include "liplib/lip/steady_state.hpp"
#include "liplib/pearls/design_io.hpp"
#include "liplib/probe/probe.hpp"
#include "liplib/probe/trace.hpp"
#include "liplib/prove/prove.hpp"
#include "liplib/serve/server.hpp"
#include "liplib/skeleton/skeleton.hpp"
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
  simulate  <file.lid>          skeleton simulation to steady state, guarded
                                by the telemetry watchdog: a deadlocked or
                                livelocked design is reported as DEADLOCK
                                (exit 1) instead of draining the budget
    --worst-case       start from worst-case occupancy (saturated stations)
    --budget N         watchdog-guarded cycle budget (default 2^18)
    --postmortem FILE  on trip, write the post-mortem bundle (replayable
                       with `lidtool replay`) to FILE
  screen    <file.lid>          deadlock screening (reset + worst case)
  prove     <file.lid>          static deadlock-freedom proof: exhaustive
                                reachability, bounded model checking and
                                k-induction over every sink-stop environment
                                (see docs/prove.md);
                                exit 0 proved / 1 counterexample / 2 unknown
    --worst-case       prove from worst-case occupancy instead of reset
    --method M         auto | reach | bmc | induction (default auto)
    --depth K          bounded model checking to depth K (implies bmc)
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
                                stall attribution (see docs/probe.md)
    --cycles N  cycles to simulate (default 10000)
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
  campaign options:
    --threads N   worker threads (default: hardware)
    --seed S      campaign base seed (default 1; decimal or 0x-hex)
    --budget B    per-job cycle budget (default 2^18)
    --stations LO:HI   sweep station-count range (default 1:4)
    --policy variant|strict|both   stop policy (default both for sweep,
                                   variant for fuzz)
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
    --seed S       campaign base seed (default 1; decimal or 0x-hex)
    --budget B     per-job cycle budget (default 2^18)
    --lease-ms N   lease deadline before re-dispatch (default 30000)
    --policy P / --shape S   fuzz-job knobs as for campaign
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
    --budget N     default + maximum screening cycle budget (default 2^18)
  client <kind> [args]          send one request, print the JSON response;
                                exit 0 live/clean, 1 diagnosed, 2 error
    kinds: lint <file.lid> | screen <file.lid> | profile <file.lid> |
           prove <file.lid> | campaign <fuzz|lint|probe|prove> <jobs> |
           status | shutdown | dist-status | metrics | trace
           (metrics prints the raw Prometheus exposition text; trace
           prints the daemon's liplib.trace/1 span document)
    --port N       daemon port (default 7177)
    --policy P     variant | strict (screen / prove / campaign)
    --budget N     cycle budget (screen / campaign); state budget (prove)
    --cycles N     cycles to simulate (profile)
    --method M     auto | reach | bmc | induction (prove)
    --depth K      BMC depth bound (prove)
    --worst-case   prove from worst-case occupancy
    --seed S       campaign base seed (default 1)
    --coordinator N   dist coordinator port to relay (dist-status)
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
    std::ofstream os(out_path);
    if (!os) {
      std::cerr << "cannot write " << out_path << "\n";
      return 2;
    }
    os << netlist;
    std::cerr << "wrote " << out_path << "\n";
  }
  return result.report.exit_code();
}

int cmd_analyze(const graph::Topology& topo) {
  const auto pred = graph::predict_throughput(topo);
  std::cout << "feedforward: " << (topo.is_feedforward() ? "yes" : "no")
            << "\n";
  if (const auto mcr = graph::min_cycle_ratio(topo)) {
    std::cout << "loop bound (min cycle ratio): " << mcr->str() << "\n";
  }
  if (!pred.cycles.empty()) {
    Table t({"cycle (shells)", "S", "R", "T = S/(S+R)"});
    for (const auto& c : pred.cycles) {
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
  if (!pred.reconvergences.empty()) {
    Table t({"fork", "join", "i", "m", "T = (m-i)/m"});
    for (const auto& r : pred.reconvergences) {
      t.add_row({topo.node(r.fork).name, topo.node(r.join).name,
                 std::to_string(r.i()), std::to_string(r.m()),
                 r.throughput().str()});
    }
    t.print(std::cout);
  }
  std::cout << "predicted system throughput: " << pred.system().str() << "\n";
  std::cout << "transient bound: " << graph::transient_bound(topo)
            << " cycles\n";
  return 0;
}

std::uint64_t parse_u64(const std::string& text, const std::string& what);

/// Writes a post-mortem bundle; reports what happened on stdout.
bool write_postmortem(const telemetry::Watchdog& dog,
                      const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "cannot write " << path << "\n";
    return false;
  }
  os << dog.post_mortem().to_json().dump(2) << "\n";
  std::cout << "wrote post-mortem bundle " << path
            << " (replay with `lidtool replay " << path << "`)\n";
  return true;
}

/// Prints the watchdog verdict after a trip.
void print_trip(const telemetry::Watchdog& dog) {
  std::cout << "DEADLOCK: watchdog tripped ("
            << telemetry::trip_reason_str(dog.reason())
            << "), no progress since cycle " << dog.no_progress_since()
            << ", tripped at cycle " << dog.trip_cycle() << "\n";
  const auto report = dog.probe().report();
  if (const auto* top = report.top_blame()) {
    std::cout << "top blame: " << top->victim_name
              << (top->why == probe::Activity::kWaitingInput ? " waiting <- "
                                                             : " stopped <- ")
              << top->culprit_name << " x" << top->cycles << "\n";
  }
}

int cmd_simulate(const graph::Topology& topo,
                 const std::vector<std::string>& rest) {
  bool worst_case = false;
  std::uint64_t budget = 1u << 18;
  std::string pm_path;
  for (std::size_t i = 0; i < rest.size(); ++i) {
    if (rest[i] == "--worst-case") {
      worst_case = true;
    } else if (rest[i] == "--budget") {
      LIPLIB_EXPECT(i + 1 < rest.size(), "--budget requires a value");
      budget = parse_u64(rest[++i], "--budget");
    } else if (rest[i] == "--postmortem") {
      LIPLIB_EXPECT(i + 1 < rest.size(), "--postmortem requires a file name");
      pm_path = rest[++i];
    } else {
      std::cerr << "unknown simulate option '" << rest[i] << "'\n\n" << kUsage;
      return 2;
    }
  }

  // Watchdog-guarded pass first: a deadlocked/livelocked design is
  // reported (with evidence) instead of silently draining the analyze
  // budget.  Skeleton steps are cheap enough to pay twice.
  {
    xir::ScalarEngine guard(topo);
    if (worst_case) guard.saturate_stations();
    telemetry::WatchdogOptions wopts;
    wopts.worst_case_occupancy = worst_case;
    telemetry::Watchdog dog(wopts);
    dog.attach(guard);
    const auto guarded = telemetry::run_guarded(guard, dog, budget);
    if (dog.tripped()) {
      print_trip(dog);
      if (!pm_path.empty() && !write_postmortem(dog, pm_path)) return 2;
      std::cout << "summary: simulate cycles=" << guarded.cycles
                << " seed=0 (skeleton runs are deterministic) "
                   "verdict=deadlock\n";
      return 1;
    }
  }

  xir::ScalarEngine eng(topo);
  if (worst_case) eng.saturate_stations();
  const auto r = eng.analyze();
  if (!r.found) {
    std::cout << "no steady state within budget\n";
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
  std::cout << "summary: simulate cycles=" << r.transient + r.period
            << " (transient " << r.transient << " + period " << r.period
            << ") seed=0 (skeleton runs are deterministic) T="
            << r.system_throughput().str() << "\n";
  return 0;
}

int cmd_screen(const graph::Topology& topo) {
  const auto a = xir::screen_for_deadlock(topo);
  std::cout << "from reset: "
            << (a.deadlock_found ? "DEADLOCK" : "live, T = " +
                                                    a.min_throughput.str())
            << " (" << a.cycles_simulated << " skeleton cycles)\n";
  skeleton::ScreeningOptions wc;
  wc.worst_case_occupancy = true;
  const auto b = xir::screen_for_deadlock(topo, wc);
  std::cout << "worst-case occupancy: "
            << (b.deadlock_found ? "DEADLOCK" : "live, T = " +
                                                    b.min_throughput.str())
            << "\n";
  for (auto v : b.starved) {
    std::cout << "  starved shell: " << topo.node(v).name << "\n";
  }
  const bool bad = a.deadlock_found || b.deadlock_found;
  std::cout << "summary: screen cycles=" << a.cycles_simulated +
                   b.cycles_simulated
            << " (reset " << a.cycles_simulated << " + worst-case "
            << b.cycles_simulated
            << ") seed=0 (skeleton runs are deterministic) verdict="
            << (bad ? "deadlock" : "live") << "\n";
  return bad ? 1 : 0;
}

int cmd_prove(const graph::Topology& topo,
              const std::vector<std::string>& rest) {
  prove::ProveOptions opts;
  bool json = false;
  std::string pm_path;
  for (std::size_t i = 0; i < rest.size(); ++i) {
    if (rest[i] == "--worst-case") {
      opts.worst_case_occupancy = true;
    } else if (rest[i] == "--method") {
      LIPLIB_EXPECT(i + 1 < rest.size(), "--method requires a value");
      const std::string v = rest[++i];
      LIPLIB_EXPECT(prove::parse_method(v, &opts.method),
                    "unknown method '" + v +
                        "' (expected auto | reach | bmc | induction)");
    } else if (rest[i] == "--depth") {
      LIPLIB_EXPECT(i + 1 < rest.size(), "--depth requires a value");
      opts.method = prove::Method::kBmc;
      opts.depth = parse_u64(rest[++i], "--depth");
    } else if (rest[i] == "--induction") {
      opts.method = prove::Method::kInduction;
    } else if (rest[i] == "--budget") {
      LIPLIB_EXPECT(i + 1 < rest.size(), "--budget requires a value");
      opts.max_states = parse_u64(rest[++i], "--budget");
    } else if (rest[i] == "--policy") {
      LIPLIB_EXPECT(i + 1 < rest.size(), "--policy requires a value");
      const std::string v = rest[++i];
      if (v == "variant") {
        opts.skeleton.policy = lip::StopPolicy::kCasuDiscardOnVoid;
      } else if (v == "strict") {
        opts.skeleton.policy = lip::StopPolicy::kCarloniStrict;
      } else {
        std::cerr << "unknown policy '" << v
                  << "' (expected variant | strict)\n\n"
                  << kUsage;
        return 2;
      }
    } else if (rest[i] == "--json") {
      json = true;
    } else if (rest[i] == "--postmortem") {
      LIPLIB_EXPECT(i + 1 < rest.size(), "--postmortem requires a file name");
      pm_path = rest[++i];
    } else {
      std::cerr << "unknown prove option '" << rest[i] << "'\n\n" << kUsage;
      return 2;
    }
  }
  const auto r = prove::prove(topo, opts);
  if (json) {
    std::cout << r.to_json(topo).dump(2) << "\n";
  } else {
    std::cout << r.to_string(topo);
  }
  if (!pm_path.empty()) {
    if (!r.postmortem) {
      std::cerr << "no post-mortem bundle to write (verdict "
                << prove::verdict_name(r.verdict) << ")\n";
    } else {
      std::ofstream os(pm_path);
      if (!os) {
        std::cerr << "cannot write " << pm_path << "\n";
        return 2;
      }
      os << r.postmortem->to_json().dump(2) << "\n";
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

int cmd_run(std::istream& in, std::uint64_t cycles,
            const std::string& pm_path) {
  auto design = pearls::parse_design(in);
  auto sys = design.instantiate();
  // Guard the full-data run: a design that deadlocks (half stations on a
  // loop under unlucky occupancy) is reported instead of burning the
  // cycle budget in silence.
  telemetry::Watchdog dog;
  dog.attach(*sys);
  const auto guarded = telemetry::run_guarded(*sys, dog, cycles);
  if (dog.tripped()) {
    print_trip(dog);
    if (!pm_path.empty() && !write_postmortem(dog, pm_path)) return 2;
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
  const auto ss = lip::measure_steady_state(*fresh);
  if (ss.found) {
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

std::uint64_t parse_u64(const std::string& text, const std::string& what);

int cmd_profile(std::istream& in, const std::vector<std::string>& rest) {
  std::uint64_t cycles = 10000;
  std::string trace_path;
  bool json = false;
  for (std::size_t i = 0; i < rest.size(); ++i) {
    if (rest[i] == "--cycles") {
      LIPLIB_EXPECT(i + 1 < rest.size(), "--cycles requires a value");
      cycles = parse_u64(rest[++i], "--cycles");
    } else if (rest[i] == "--trace") {
      LIPLIB_EXPECT(i + 1 < rest.size(), "--trace requires a file name");
      trace_path = rest[++i];
    } else if (rest[i] == "--json") {
      json = true;
    } else {
      std::cerr << "unknown profile option '" << rest[i] << "'\n\n" << kUsage;
      return 2;
    }
  }
  auto design = pearls::parse_design(in);
  auto sys = design.instantiate();

  std::ofstream trace_os;
  std::unique_ptr<probe::TraceSink> sink;
  if (!trace_path.empty()) {
    trace_os.open(trace_path);
    if (!trace_os) {
      std::cerr << "cannot write " << trace_path << "\n";
      return 2;
    }
    sink = std::make_unique<probe::TraceSink>(trace_os);
  }
  probe::ProbeConfig cfg;
  cfg.trace = sink.get();
  probe::Probe probe(cfg);
  sys->attach_probe(probe);
  sys->run(cycles);
  probe.finish_trace();

  const auto report = probe.report();
  if (json) {
    std::cout << report.to_json().dump(2) << "\n";
    return 0;
  }
  Table t({"shell", "fired", "waiting", "stopped", "measured T"});
  for (const auto& s : report.shells) {
    t.add_row({s.name, std::to_string(s.fired), std::to_string(s.waiting),
               std::to_string(s.stopped), report.throughput(s.node).str()});
  }
  t.print(std::cout);
  std::cout << "measured system throughput: " << report.min_throughput().str()
            << " (includes the transient; see docs/probe.md)\n";
  if (!report.blame.empty()) {
    std::cout << "\nstall attribution (top 10):\n\n";
    Table b({"victim", "state", "culprit", "cycles"});
    const std::size_t show = std::min<std::size_t>(report.blame.size(), 10);
    for (std::size_t i = 0; i < show; ++i) {
      const auto& e = report.blame[i];
      b.add_row({e.victim_name,
                 e.why == probe::Activity::kWaitingInput ? "waiting"
                                                        : "stopped",
                 e.culprit_name, std::to_string(e.cycles)});
    }
    b.print(std::cout);
    if (report.blame.size() > show) {
      std::cout << "... and " << report.blame.size() - show << " more\n";
    }
  }
  if (sink) {
    std::cout << "\nwrote " << trace_path << " (" << sink->bytes_written()
              << " bytes; open at ui.perfetto.dev)\n";
  }
  std::cout << "summary: profile cycles=" << cycles
            << " seed=0 (full-data runs are deterministic)\n";
  return 0;
}

int cmd_replay(std::istream& in) {
  std::ostringstream ss;
  ss << in.rdbuf();
  const auto pm = telemetry::PostMortem::from_json(Json::parse(ss.str()));
  std::cout << "bundle: " << telemetry::trip_reason_str(pm.reason)
            << " at cycle " << pm.trip_cycle << ", no progress since cycle "
            << pm.no_progress_since << ", seed " << pm.seed << " ("
            << (pm.strict ? "strict" : "variant") << " policy, "
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

int cmd_bench(int argc, char** argv) {
  if (argc < 3 || std::string(argv[2]) != "diff") {
    std::cerr << "bench requires the 'diff' mode: lidtool bench diff "
                 "<old.json> <new.json>\n\n"
              << kUsage;
    return 2;
  }
  telemetry::BenchDiffOptions opts;
  bool json = false;
  std::vector<std::string> files;
  for (int i = 3; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--threshold") {
      LIPLIB_EXPECT(i + 1 < argc, "--threshold requires a value");
      const std::string v = argv[++i];
      try {
        std::size_t used = 0;
        opts.threshold_pct = std::stod(v, &used);
        LIPLIB_EXPECT(used == v.size() && opts.threshold_pct >= 0,
                      "--threshold expects a non-negative percentage");
      } catch (const ApiError&) {
        throw;
      } catch (const std::exception&) {
        throw ApiError("--threshold expects a number, got '" + v + "'");
      }
    } else if (a == "--json") {
      json = true;
    } else if (!a.empty() && a[0] == '-') {
      std::cerr << "unknown bench diff option '" << a << "'\n\n" << kUsage;
      return 2;
    } else {
      files.push_back(a);
    }
  }
  if (files.size() != 2) {
    std::cerr << "bench diff requires exactly two BENCH_*.json files\n";
    return 2;
  }
  const auto diff = telemetry::bench_diff_files(files[0], files[1], opts);
  if (json) {
    std::cout << diff.to_json().dump(2) << "\n";
  } else {
    std::cout << diff.to_text();
  }
  return diff.exit_code();
}

int cmd_equalize(graph::Topology topo) {
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

struct CampaignArgs {
  campaign::EngineOptions engine;
  std::size_t station_lo = 1, station_hi = 4;
  std::vector<lip::StopPolicy> policies;  // empty = command default
  campaign::FuzzSpec::Shape shape = campaign::FuzzSpec::Shape::kComposite;
  std::size_t variants = 64;  ///< campaign mix: kind variants to screen
  std::string json_path;
  std::string csv_path;
  /// --shard i/N: run only the planned slice of the job vector (with
  /// global job identity) and export a liplib.dist.partial/1 document
  /// to `out_path` instead of the normal report.
  bool has_shard = false;
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  std::string out_path;
  /// Canonical campaign identity for the shard manifest; filled by the
  /// per-mode command once defaults are resolved, so every process
  /// running the same command line renders the same string.
  std::string spec_id;
  std::vector<std::string> positional;
};

const char* policy_label(lip::StopPolicy p) {
  return p == lip::StopPolicy::kCarloniStrict ? "strict" : "variant";
}

const char* shape_label(campaign::FuzzSpec::Shape s) {
  switch (s) {
    case campaign::FuzzSpec::Shape::kReconvergent: return "reconvergent";
    case campaign::FuzzSpec::Shape::kComposite: return "composite";
    case campaign::FuzzSpec::Shape::kFeedforward: return "feedforward";
  }
  return "composite";
}

std::string policies_label(const std::vector<lip::StopPolicy>& ps) {
  std::string out;
  for (const auto p : ps) {
    if (!out.empty()) out += ',';
    out += policy_label(p);
  }
  return out;
}

/// An unsigned number with a readable diagnostic ("--seed expects a
/// number, got 'xyz'").  Decimal digits, or 0x-prefixed hex (seeds are
/// naturally quoted in hex: failure reports print them that way).
/// Signs, whitespace, trailing garbage and overflow are rejected, so
/// "-1", " 7", "1x" or "0x12g3" fail instead of wrapping or truncating.
std::uint64_t parse_u64(const std::string& text, const std::string& what) {
  const bool hex = text.size() > 2 && text[0] == '0' &&
                   (text[1] == 'x' || text[1] == 'X');
  const char* first = text.data() + (hex ? 2 : 0);
  const char* last = text.data() + text.size();
  std::uint64_t v = 0;
  const auto [p, ec] = std::from_chars(first, last, v, hex ? 16 : 10);
  if (ec != std::errc() || p != last) {
    throw ApiError(what + " expects a number, got '" + text + "'");
  }
  return v;
}

/// Parses the flags shared by the campaign subcommands; throws ApiError
/// on malformed values so main() reports them uniformly.
CampaignArgs parse_campaign_args(int argc, char** argv, int first) {
  CampaignArgs args;
  args.engine.cycle_budget = 1u << 18;
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](const char* flag) -> std::string {
      LIPLIB_EXPECT(i + 1 < argc,
                    std::string(flag) + " requires a value");
      return argv[++i];
    };
    if (a == "--threads") {
      args.engine.threads =
          static_cast<unsigned>(parse_u64(value("--threads"), "--threads"));
    } else if (a == "--seed") {
      args.engine.base_seed = parse_u64(value("--seed"), "--seed");
    } else if (a == "--budget") {
      args.engine.cycle_budget = parse_u64(value("--budget"), "--budget");
    } else if (a == "--stations") {
      const std::string v = value("--stations");
      const auto colon = v.find(':');
      LIPLIB_EXPECT(colon != std::string::npos,
                    "--stations expects LO:HI");
      args.station_lo =
          static_cast<std::size_t>(parse_u64(v.substr(0, colon), "--stations"));
      args.station_hi = static_cast<std::size_t>(
          parse_u64(v.substr(colon + 1), "--stations"));
      LIPLIB_EXPECT(args.station_lo >= 1 &&
                        args.station_lo <= args.station_hi,
                    "--stations range must satisfy 1 <= LO <= HI");
    } else if (a == "--policy") {
      const std::string v = value("--policy");
      if (v == "variant") {
        args.policies = {lip::StopPolicy::kCasuDiscardOnVoid};
      } else if (v == "strict") {
        args.policies = {lip::StopPolicy::kCarloniStrict};
      } else if (v == "both") {
        args.policies = {lip::StopPolicy::kCasuDiscardOnVoid,
                         lip::StopPolicy::kCarloniStrict};
      } else {
        throw ApiError("unknown policy '" + v + "'");
      }
    } else if (a == "--shape") {
      const std::string v = value("--shape");
      if (v == "composite") {
        args.shape = campaign::FuzzSpec::Shape::kComposite;
      } else if (v == "reconvergent") {
        args.shape = campaign::FuzzSpec::Shape::kReconvergent;
      } else if (v == "feedforward") {
        args.shape = campaign::FuzzSpec::Shape::kFeedforward;
      } else {
        throw ApiError("unknown fuzz shape '" + v + "'");
      }
    } else if (a == "--variants") {
      args.variants = static_cast<std::size_t>(
          parse_u64(value("--variants"), "--variants"));
      LIPLIB_EXPECT(args.variants >= 1, "--variants must be at least 1");
    } else if (a == "--json") {
      args.json_path = value("--json");
    } else if (a == "--csv") {
      args.csv_path = value("--csv");
    } else if (a == "--shard") {
      const auto [index, count] = dist::parse_shard_token(value("--shard"));
      args.has_shard = true;
      args.shard_index = index;
      args.shard_count = count;
    } else if (a == "--out") {
      args.out_path = value("--out");
    } else if (!a.empty() && a[0] == '-') {
      throw ApiError("unknown campaign option '" + a + "'");
    } else {
      args.positional.push_back(a);
    }
  }
  return args;
}

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

/// `--shard i/N --out partial.json`: run only the planned slice of the
/// full job vector — with index_base = lo, so every job keeps its
/// global (index, seed) identity — and export the slice's aggregate as
/// a liplib.dist.partial/1 document for `lidtool merge`.
int run_shard_and_export(const std::vector<campaign::Job>& jobs,
                         const CampaignArgs& args) {
  LIPLIB_EXPECT(!args.out_path.empty(),
                "--shard requires --out FILE for the partial aggregate");
  const auto range =
      dist::shard_range(jobs.size(), args.shard_index, args.shard_count);
  const std::vector<campaign::Job> slice(
      jobs.begin() + static_cast<std::ptrdiff_t>(range.lo),
      jobs.begin() + static_cast<std::ptrdiff_t>(range.hi));
  campaign::EngineOptions eopts = args.engine;
  eopts.index_base = range.lo;
  campaign::RunStats stats;
  const auto results = campaign::Engine(eopts).run(slice, &stats);
  const auto agg = campaign::aggregate(results);
  const auto manifest = dist::make_manifest(
      args.spec_id, jobs.size(), eopts.base_seed, eopts.cycle_budget, range);
  std::ofstream os(args.out_path);
  if (!os) {
    std::cerr << "cannot write " << args.out_path << "\n";
    return 2;
  }
  os << dist::partial_to_json(manifest, agg).dump(2) << "\n";
  std::cout << "shard " << range.index << "/" << range.count << ": jobs ["
            << range.lo << ", " << range.hi << ") of " << jobs.size()
            << ", base seed " << eopts.base_seed << ", " << stats.threads
            << " thread(s), " << agg.total_cycles
            << " simulated cycles\nwrote " << args.out_path << "\n";
  return agg.all_live() ? 0 : 1;
}

/// Runs a job batch, prints the aggregate and failures, writes exports.
/// Returns 0 when every job is live.
int run_campaign_and_report(const std::vector<campaign::Job>& jobs,
                            const CampaignArgs& args) {
  if (args.has_shard || !args.out_path.empty()) {
    return run_shard_and_export(jobs, args);
  }
  campaign::RunStats stats;
  const auto results = campaign::Engine(args.engine).run(jobs, &stats);
  const auto agg = campaign::aggregate(results);

  std::cout << jobs.size() << " jobs on " << stats.threads
            << " worker thread(s), base seed " << args.engine.base_seed
            << ", " << stats.steals << " steals, " << agg.total_cycles
            << " simulated cycles, " << stats.wall_seconds << " s wall\n\n";

  print_aggregate_tables(agg);

  if (!args.json_path.empty()) {
    std::ofstream os(args.json_path);
    os << campaign::to_json(agg).dump(2) << "\n";
    std::cout << "\nwrote " << args.json_path << "\n";
  }
  if (!args.csv_path.empty()) {
    std::ofstream os(args.csv_path);
    os << campaign::to_csv(results);
    std::cout << "wrote " << args.csv_path << "\n";
  }
  return agg.all_live() ? 0 : 1;
}

/// `campaign sweep <file.lid>`: replicate the design's process-to-process
/// channels at every station count in the range, under each stop policy,
/// and measure the exact steady state of each variant.
int cmd_campaign_sweep(const graph::Topology& base, CampaignArgs args) {
  if (args.policies.empty()) {
    args.policies = {lip::StopPolicy::kCasuDiscardOnVoid,
                     lip::StopPolicy::kCarloniStrict};
  }
  args.spec_id = "lidtool/sweep;netlist=" +
                 std::to_string(serve::topology_hash(base)) +
                 ";stations=" + std::to_string(args.station_lo) + ":" +
                 std::to_string(args.station_hi) +
                 ";policies=" + policies_label(args.policies);
  std::vector<campaign::Job> jobs;
  for (std::size_t k = args.station_lo; k <= args.station_hi; ++k) {
    graph::Topology variant = base;
    for (graph::ChannelId c = 0; c < variant.channels().size(); ++c) {
      auto& ch = variant.channel_mut(c);
      const bool between_processes =
          variant.node(ch.from.node).kind == graph::NodeKind::kProcess &&
          variant.node(ch.to.node).kind == graph::NodeKind::kProcess;
      if (between_processes) {
        const graph::RsKind kind =
            ch.stations.empty() ? graph::RsKind::kFull : ch.stations.front();
        ch.stations.assign(k, kind);
      }
    }
    for (auto policy : args.policies) {
      skeleton::SkeletonOptions opts;
      opts.policy = policy;
      jobs.push_back(campaign::make_steady_state_job(
          "sweep/st=" + std::to_string(k) + "/" + policy_label(policy),
          variant, opts));
    }
  }
  return run_campaign_and_report(jobs, args);
}

/// `campaign fuzz <N>`: screen N randomized topologies, cross-checking
/// measured throughput against the analytic bounds.
int cmd_campaign_fuzz(std::size_t n, CampaignArgs args) {
  if (args.policies.empty()) {
    args.policies = {lip::StopPolicy::kCasuDiscardOnVoid};
  }
  args.spec_id = "lidtool/fuzz;n=" + std::to_string(n) +
                 ";shape=" + shape_label(args.shape) +
                 ";policies=" + policies_label(args.policies);
  std::vector<campaign::Job> jobs;
  for (std::size_t i = 0; i < n; ++i) {
    campaign::FuzzSpec spec;
    spec.shape = args.shape;
    spec.policy = args.policies[i % args.policies.size()];
    spec.size = 4;
    jobs.push_back(campaign::make_fuzz_job(
        "fuzz/" + std::to_string(i) + "/" + policy_label(spec.policy),
        spec));
  }
  return run_campaign_and_report(jobs, args);
}

/// `campaign mix <file.lid>`: screen N random half/full station-kind
/// variants of one design from worst-case occupancy, batched 64 variants
/// per job into one bit-sliced evaluation.
int cmd_campaign_mix(graph::Topology topo, CampaignArgs args) {
  campaign::MixScreenSpec spec;
  spec.topo = std::move(topo);
  if (!args.policies.empty()) spec.skeleton.policy = args.policies.front();
  spec.variants = args.variants;
  args.spec_id = "lidtool/mix;netlist=" +
                 std::to_string(serve::topology_hash(spec.topo)) +
                 ";variants=" + std::to_string(spec.variants) +
                 ";policy=" + policy_label(spec.skeleton.policy);
  std::cout << "screening " << spec.variants
            << " station-kind variants, 64 per bit-sliced job\n\n";
  return run_campaign_and_report(campaign::make_mix_screen_campaign(spec),
                                 args);
}

int cmd_campaign(int argc, char** argv) {
  if (argc < 3) {
    std::cerr << "campaign requires a mode: "
                 "sweep | fuzz | lint | probe | prove | mix | t1\n"
              << kUsage;
    return 2;
  }
  const std::string mode = argv[2];
  auto args = parse_campaign_args(argc, argv, 3);
  if (mode == "sweep") {
    if (args.positional.size() != 1) {
      std::cerr << "campaign sweep requires exactly one <file.lid>\n";
      return 2;
    }
    std::ifstream in(args.positional[0]);
    if (!in) {
      std::cerr << "cannot open " << args.positional[0] << "\n";
      return 2;
    }
    return cmd_campaign_sweep(graph::parse_netlist_annotated(in).topo,
                              std::move(args));
  }
  if (mode == "fuzz") {
    if (args.positional.size() != 1) {
      std::cerr << "campaign fuzz requires a job count\n";
      return 2;
    }
    // Evaluated before the move below (argument order is unspecified).
    const std::size_t n =
        static_cast<std::size_t>(parse_u64(args.positional[0], "fuzz count"));
    return cmd_campaign_fuzz(n, std::move(args));
  }
  if (mode == "lint") {
    if (args.positional.size() != 1) {
      std::cerr << "campaign lint requires a job count\n";
      return 2;
    }
    const std::size_t n =
        static_cast<std::size_t>(parse_u64(args.positional[0], "lint count"));
    args.spec_id = "lidtool/lint;n=" + std::to_string(n);
    return run_campaign_and_report(campaign::make_lint_crosscheck_campaign(n),
                                   args);
  }
  if (mode == "probe") {
    if (args.positional.size() != 1) {
      std::cerr << "campaign probe requires a job count\n";
      return 2;
    }
    const std::size_t n =
        static_cast<std::size_t>(parse_u64(args.positional[0], "probe count"));
    args.spec_id = "lidtool/probe;n=" + std::to_string(n);
    return run_campaign_and_report(campaign::make_probe_campaign(n), args);
  }
  if (mode == "prove") {
    if (args.positional.size() != 1) {
      std::cerr << "campaign prove requires a job count\n";
      return 2;
    }
    const std::size_t n =
        static_cast<std::size_t>(parse_u64(args.positional[0], "prove count"));
    args.spec_id = "lidtool/prove;n=" + std::to_string(n);
    return run_campaign_and_report(campaign::make_prove_crosscheck_campaign(n),
                                   args);
  }
  if (mode == "mix") {
    if (args.positional.size() != 1) {
      std::cerr << "campaign mix requires exactly one <file.lid>\n";
      return 2;
    }
    std::ifstream in(args.positional[0]);
    if (!in) {
      std::cerr << "cannot open " << args.positional[0] << "\n";
      return 2;
    }
    return cmd_campaign_mix(graph::parse_netlist_annotated(in).topo,
                            std::move(args));
  }
  if (mode == "t1") {
    std::cout << "EXPERIMENTS.md T1 fuzz pass: 300 random reconvergences "
                 "x 2 policies + 150 random composites = 750 runs\n\n";
    args.spec_id = "lidtool/t1";
    return run_campaign_and_report(campaign::make_t1_fuzz_campaign(), args);
  }
  std::cerr << "unknown campaign mode '" << mode << "'\n" << kUsage;
  return 2;
}

// ---- merge / dist subcommands ---------------------------------------------

/// `lidtool merge a.json b.json ...`: deterministic reunion of shard
/// partials.  Validates the manifests (same campaign, ranges tile the
/// whole job vector), folds the aggregates with campaign::merge and
/// writes/prints the result — byte-identical to the single-process
/// `campaign ... --json` document.
int cmd_merge(int argc, char** argv) {
  std::vector<std::string> files;
  std::string json_path;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json") {
      LIPLIB_EXPECT(i + 1 < argc, "--json requires a file name");
      json_path = argv[++i];
    } else if (!a.empty() && a[0] == '-') {
      std::cerr << "unknown merge option '" << a << "'\n\n" << kUsage;
      return 2;
    } else {
      files.push_back(a);
    }
  }
  if (files.empty()) {
    std::cerr << "merge requires at least one partial.json\n\n" << kUsage;
    return 2;
  }
  std::vector<dist::Partial> parts;
  for (const auto& file : files) {
    std::ifstream in(file);
    if (!in) {
      std::cerr << "cannot open " << file << "\n";
      return 2;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    parts.push_back(dist::partial_from_json(Json::parse(ss.str())));
  }
  const std::string campaign_spec = parts.front().manifest.campaign;
  const auto agg = dist::merge_partials(std::move(parts));
  std::cout << "merged " << files.size() << " partial(s) of campaign '"
            << campaign_spec << "': " << agg.total << " jobs, "
            << agg.total_cycles << " simulated cycles\n\n";
  print_aggregate_tables(agg);
  if (!json_path.empty()) {
    std::ofstream os(json_path);
    if (!os) {
      std::cerr << "cannot write " << json_path << "\n";
      return 2;
    }
    os << campaign::to_json(agg).dump(2) << "\n";
    std::cout << "\nwrote " << json_path << "\n";
  }
  return agg.all_live() ? 0 : 1;
}

/// `lidtool dist coordinate <mode> <jobs>`: run the straggler-aware
/// coordinator for a named campaign and print the merged aggregate.
int cmd_dist_coordinate(int argc, char** argv) {
  dist::CoordinatorOptions opts;
  std::string json_path;
  std::string trace_path;
  std::vector<std::string> positional;
  for (int i = 3; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](const char* flag) -> std::string {
      LIPLIB_EXPECT(i + 1 < argc, std::string(flag) + " requires a value");
      return argv[++i];
    };
    if (a == "--port") {
      opts.port =
          static_cast<std::uint16_t>(parse_u64(value("--port"), "--port"));
    } else if (a == "--shards") {
      opts.shards =
          static_cast<std::size_t>(parse_u64(value("--shards"), "--shards"));
      LIPLIB_EXPECT(opts.shards >= 1, "--shards must be at least 1");
    } else if (a == "--seed") {
      opts.base_seed = parse_u64(value("--seed"), "--seed");
    } else if (a == "--budget") {
      opts.cycle_budget = parse_u64(value("--budget"), "--budget");
    } else if (a == "--lease-ms") {
      opts.lease_ms = parse_u64(value("--lease-ms"), "--lease-ms");
    } else if (a == "--policy") {
      const std::string v = value("--policy");
      if (v == "strict") {
        opts.spec.policy = lip::StopPolicy::kCarloniStrict;
      } else if (v == "variant") {
        opts.spec.policy = lip::StopPolicy::kCasuDiscardOnVoid;
      } else {
        throw ApiError("unknown policy '" + v + "'");
      }
    } else if (a == "--shape") {
      const std::string v = value("--shape");
      if (v == "composite") {
        opts.spec.shape = campaign::FuzzSpec::Shape::kComposite;
      } else if (v == "reconvergent") {
        opts.spec.shape = campaign::FuzzSpec::Shape::kReconvergent;
      } else if (v == "feedforward") {
        opts.spec.shape = campaign::FuzzSpec::Shape::kFeedforward;
      } else {
        throw ApiError("unknown fuzz shape '" + v + "'");
      }
    } else if (a == "--json") {
      json_path = value("--json");
    } else if (a == "--trace") {
      trace_path = value("--trace");
      opts.trace = true;
    } else if (!a.empty() && a[0] == '-') {
      std::cerr << "unknown dist coordinate option '" << a << "'\n\n"
                << kUsage;
      return 2;
    } else {
      positional.push_back(a);
    }
  }
  if (positional.size() != 2) {
    std::cerr << "dist coordinate requires <fuzz|lint|probe|prove> "
                 "<jobs>\n\n"
              << kUsage;
    return 2;
  }
  opts.spec.mode = positional[0];
  opts.spec.jobs =
      static_cast<std::size_t>(parse_u64(positional[1], "dist jobs"));
  LIPLIB_EXPECT(opts.spec.jobs >= 1, "dist jobs must be at least 1");

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
  if (!json_path.empty()) {
    std::ofstream os(json_path);
    if (!os) {
      std::cerr << "cannot write " << json_path << "\n";
      return 2;
    }
    os << campaign::to_json(agg).dump(2) << "\n";
    std::cout << "\nwrote " << json_path << "\n";
  }
  if (!trace_path.empty()) {
    std::ofstream os(trace_path);
    if (!os) {
      std::cerr << "cannot write " << trace_path << "\n";
      return 2;
    }
    os << coord.trace_json().dump(2) << "\n";
    std::cout << "wrote " << trace_path
              << " (merge/export with `lidtool trace " << trace_path
              << " -o out.json`)\n";
  }
  return agg.all_live() ? 0 : 1;
}

/// `lidtool dist work`: pull shard leases from a coordinator until the
/// campaign is done.
int cmd_dist_work(int argc, char** argv) {
  dist::WorkerOptions opts;
  for (int i = 3; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](const char* flag) -> std::string {
      LIPLIB_EXPECT(i + 1 < argc, std::string(flag) + " requires a value");
      return argv[++i];
    };
    if (a == "--port") {
      opts.port =
          static_cast<std::uint16_t>(parse_u64(value("--port"), "--port"));
    } else if (a == "--threads") {
      opts.threads =
          static_cast<unsigned>(parse_u64(value("--threads"), "--threads"));
    } else if (a == "--die-after-lease") {
      opts.die_after_lease = static_cast<std::size_t>(
          parse_u64(value("--die-after-lease"), "--die-after-lease"));
    } else {
      std::cerr << "unknown dist work option '" << a << "'\n\n" << kUsage;
      return 2;
    }
  }
  if (opts.port == 0) {
    std::cerr << "dist work requires --port <coordinator port>\n\n" << kUsage;
    return 2;
  }
  const auto stats = dist::run_worker(opts);
  std::cout << "worker done: " << stats.leases << " lease(s), "
            << stats.submitted << " partial(s) submitted, " << stats.rejected
            << " dropped as duplicate(s)"
            << (stats.coordinator_gone ? ", coordinator gone" : "") << "\n";
  return 0;
}

int cmd_dist(int argc, char** argv) {
  const std::string sub = argc >= 3 ? argv[2] : "";
  if (sub == "coordinate") return cmd_dist_coordinate(argc, argv);
  if (sub == "work") return cmd_dist_work(argc, argv);
  std::cerr << "dist requires a role: coordinate | work\n\n" << kUsage;
  return 2;
}

// ---- trace subcommand -----------------------------------------------------

/// One length-prefixed JSON round trip against a loopback daemon (serve
/// or dist coordinator — both use liplib.rpc/1 framing).  Throws
/// ApiError when the peer is unreachable or answers garbage.
Json loopback_rpc(std::uint16_t port, const Json& request,
                  const char* who) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  LIPLIB_EXPECT(fd >= 0, std::string("socket failed: ") +
                             std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int err = errno;
    ::close(fd);
    throw ApiError(std::string("cannot connect to ") + who +
                   " on 127.0.0.1:" + std::to_string(port) + ": " +
                   std::strerror(err));
  }
  try {
    serve::write_frame(fd, request.dump());
    std::string payload;
    LIPLIB_EXPECT(serve::read_frame(fd, payload),
                  std::string(who) +
                      " closed the connection without answering");
    ::close(fd);
    return Json::parse(payload);
  } catch (...) {
    ::close(fd);
    throw;
  }
}

/// `lidtool trace`: fold span documents (files and/or live scrapes) and
/// Chrome/Perfetto trace files into one timeline; check integrity;
/// optionally export merged Perfetto JSON.
int cmd_trace(int argc, char** argv) {
  std::vector<std::string> files;
  std::string out_path;
  bool check = false;
  std::uint64_t scrape_port = 0;
  std::uint64_t scrape_dist = 0;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](const char* flag) -> std::string {
      LIPLIB_EXPECT(i + 1 < argc, std::string(flag) + " requires a value");
      return argv[++i];
    };
    if (a == "-o") {
      out_path = value("-o");
    } else if (a == "--scrape") {
      scrape_port = parse_u64(value("--scrape"), "--scrape");
    } else if (a == "--scrape-dist") {
      scrape_dist = parse_u64(value("--scrape-dist"), "--scrape-dist");
    } else if (a == "--check") {
      check = true;
    } else if (!a.empty() && a[0] == '-') {
      std::cerr << "unknown trace option '" << a << "'\n\n" << kUsage;
      return 2;
    } else {
      files.push_back(a);
    }
  }

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
        LIPLIB_EXPECT(ev->is_array(),
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

  for (const auto& file : files) {
    std::ifstream in(file);
    if (!in) {
      std::cerr << "cannot open " << file << "\n";
      return 2;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    fold_doc(Json::parse(ss.str()), file);
  }
  if (scrape_port) {
    const Json response = loopback_rpc(
        static_cast<std::uint16_t>(scrape_port),
        Json::object().set("rpc", serve::kRpcSchema).set("kind", "trace"),
        "serve daemon");
    const Json* ok = response.find("ok");
    LIPLIB_EXPECT(ok && ok->is_bool() && ok->as_bool(),
                  "serve daemon rejected the trace scrape");
    const Json* result = response.find("result");
    LIPLIB_EXPECT(result, "trace response carries no result");
    fold_doc(*result, "serve scrape");
  }
  if (scrape_dist) {
    const Json response = loopback_rpc(
        static_cast<std::uint16_t>(scrape_dist),
        Json::object().set("rpc", dist::kDistRpcSchema).set("msg", "trace"),
        "dist coordinator");
    const Json* doc = response.find("doc");
    LIPLIB_EXPECT(doc, "coordinator trace response carries no 'doc'");
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

  if (!out_path.empty()) {
    std::ofstream os(out_path);
    if (!os) {
      std::cerr << "cannot write " << out_path << "\n";
      return 2;
    }
    probe::TraceSink sink(os);
    trace::export_perfetto(spans, sink);
    for (const auto& e : raw_events) sink.raw_event(e);
    sink.finish();
    std::cout << "wrote " << out_path << " (" << sink.bytes_written()
              << " bytes; open at ui.perfetto.dev)\n";
  }
  return sound ? 0 : (check ? 1 : 0);
}

// ---- serve / client subcommands -------------------------------------------

int cmd_serve(int argc, char** argv) {
  serve::ServerOptions opts;
  opts.port = 7177;
  std::uint64_t ttl_s = 600;
  std::uint64_t cache_mb = 64;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](const char* flag) -> std::string {
      LIPLIB_EXPECT(i + 1 < argc, std::string(flag) + " requires a value");
      return argv[++i];
    };
    if (a == "--port") {
      opts.port = static_cast<std::uint16_t>(
          parse_u64(value("--port"), "--port"));
    } else if (a == "--threads") {
      opts.threads =
          static_cast<unsigned>(parse_u64(value("--threads"), "--threads"));
    } else if (a == "--cache-mb") {
      cache_mb = parse_u64(value("--cache-mb"), "--cache-mb");
    } else if (a == "--ttl") {
      ttl_s = parse_u64(value("--ttl"), "--ttl");
    } else if (a == "--budget") {
      opts.default_budget = parse_u64(value("--budget"), "--budget");
      opts.max_budget = std::max(opts.max_budget, opts.default_budget);
    } else {
      std::cerr << "unknown serve option '" << a << "'\n\n" << kUsage;
      return 2;
    }
  }
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

int cmd_client(int argc, char** argv) {
  std::uint16_t port = 7177;
  Json request = Json::object().set("rpc", serve::kRpcSchema);
  std::string kind;
  std::string trace_out;
  std::vector<std::string> positional;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](const char* flag) -> std::string {
      LIPLIB_EXPECT(i + 1 < argc, std::string(flag) + " requires a value");
      return argv[++i];
    };
    if (a == "--port") {
      port = static_cast<std::uint16_t>(parse_u64(value("--port"), "--port"));
    } else if (a == "--policy") {
      request.set("policy", value("--policy"));
    } else if (a == "--budget") {
      request.set("budget", parse_u64(value("--budget"), "--budget"));
    } else if (a == "--cycles") {
      request.set("cycles", parse_u64(value("--cycles"), "--cycles"));
    } else if (a == "--seed") {
      request.set("seed", parse_u64(value("--seed"), "--seed"));
    } else if (a == "--method") {
      request.set("method", value("--method"));
    } else if (a == "--depth") {
      request.set("depth", parse_u64(value("--depth"), "--depth"));
    } else if (a == "--worst-case") {
      request.set("worst_case", true);
    } else if (a == "--coordinator") {
      request.set("port",
                  parse_u64(value("--coordinator"), "--coordinator"));
    } else if (a == "--id") {
      request.set("id", value("--id"));
    } else if (a == "--trace") {
      trace_out = value("--trace");
    } else if (!a.empty() && a[0] == '-') {
      std::cerr << "unknown client option '" << a << "'\n\n" << kUsage;
      return 2;
    } else if (kind.empty()) {
      kind = a;
    } else {
      positional.push_back(a);
    }
  }
  if (kind.empty()) {
    std::cerr << "client requires a request kind: lint | screen | profile | "
                 "prove | campaign | status | shutdown | dist-status | "
                 "metrics | trace\n\n"
              << kUsage;
    return 2;
  }
  request.set("kind", kind);
  if (kind == "lint" || kind == "screen" || kind == "profile" ||
      kind == "prove") {
    if (positional.size() != 1) {
      std::cerr << "client " << kind << " requires exactly one <file.lid>\n";
      return 2;
    }
    std::ifstream in(positional[0]);
    if (!in) {
      std::cerr << "cannot open " << positional[0] << "\n";
      return 2;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    request.set("netlist", ss.str());
  } else if (kind == "campaign") {
    if (positional.size() != 2) {
      std::cerr << "client campaign requires <fuzz|lint|probe|prove> "
                   "<jobs>\n";
      return 2;
    }
    request.set("mode", positional[0]);
    request.set("jobs", parse_u64(positional[1], "campaign jobs"));
  } else if (kind == "status" || kind == "shutdown" ||
             kind == "dist-status" || kind == "metrics" || kind == "trace") {
    if (!positional.empty()) {
      std::cerr << "client " << kind << " takes no arguments\n";
      return 2;
    }
  } else {
    std::cerr << "unknown client request kind '" << kind << "'\n\n" << kUsage;
    return 2;
  }

  // --trace: derive a client-side trace context from the request bytes
  // (before the trace member joins them, so the id is reproducible from
  // the request alone) and hand it to the daemon, which parents its
  // serve-side spans under ours.
  trace::Recorder client_rec;
  std::uint64_t client_trace_id = 0;
  std::uint64_t client_span = 0;
  std::uint64_t client_t0 = 0;
  if (!trace_out.empty()) {
    client_trace_id = trace::derive_trace_id(serve::fnv1a64(request.dump()));
    client_span = trace::derive_span_id(client_trace_id, 0, 0);
    request.set("trace",
                trace::TraceContext{client_trace_id, client_span}.to_json());
    client_t0 = client_rec.now_us();
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    std::cerr << "socket failed: " << std::strerror(errno) << "\n";
    return 2;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    std::cerr << "cannot connect to 127.0.0.1:" << port << ": "
              << std::strerror(errno) << " (is `lidtool serve` running?)\n";
    ::close(fd);
    return 2;
  }
  int rc = 2;
  try {
    serve::write_frame(fd, request.dump());
    std::string payload;
    if (!serve::read_frame(fd, payload)) {
      throw ApiError("server closed the connection without answering");
    }
    const Json response = Json::parse(payload);
    const Json* ok = response.find("ok");
    const bool succeeded = ok && ok->is_bool() && ok->as_bool();
    const Json* result = response.find("result");
    if (kind == "metrics" && succeeded && result) {
      // Prometheus exposition is a text format: print it raw so the
      // output pipes straight into promtool / a scrape file.
      const Json* text = result->find("text");
      LIPLIB_EXPECT(text && text->is_string(),
                    "metrics response carries no text");
      std::cout << text->as_string();
    } else {
      std::cout << response.dump(2) << "\n";
    }
    if (succeeded) {
      rc = 0;
      if (result) {
        if (const Json* verdict = result->find("verdict")) {
          const std::string& v = verdict->as_string();
          if (v != "live" && v != "clean" && v != "all_live" &&
              v != "proved") {
            rc = 1;
          }
        }
      }
    }
    if (!trace_out.empty()) {
      trace::Span s;
      s.trace_id = client_trace_id;
      s.span_id = client_span;
      s.name = "client." + kind;
      s.category = "client";
      s.track = "client";
      s.ts_us = client_t0;
      s.dur_us = client_rec.now_us() - client_t0;
      s.attrs.emplace_back("ok", succeeded ? "true" : "false");
      client_rec.record(std::move(s));
      std::ofstream os(trace_out);
      if (!os) {
        std::cerr << "cannot write " << trace_out << "\n";
        rc = 2;
      } else {
        os << client_rec.to_json().dump(2) << "\n";
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    rc = 2;
  }
  ::close(fd);
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string cmd = argc >= 2 ? argv[1] : "";
    if (cmd == "--help" || cmd == "-h" || cmd == "help") {
      std::cout << kUsage;
      return 0;
    }
    if (cmd == "campaign") return cmd_campaign(argc, argv);
    if (cmd == "merge") return cmd_merge(argc, argv);
    if (cmd == "dist") return cmd_dist(argc, argv);
    if (cmd == "bench") return cmd_bench(argc, argv);
    if (cmd == "serve") return cmd_serve(argc, argv);
    if (cmd == "client") return cmd_client(argc, argv);
    if (cmd == "trace") return cmd_trace(argc, argv);

    graph::Topology topo;
    // Arguments after the netlist file; every command must consume all
    // of them — unknown trailing flags are rejected, not ignored.
    std::vector<std::string> rest;
    for (int i = 3; i < argc; ++i) rest.emplace_back(argv[i]);
    auto reject_extras = [&](const char* command) {
      if (rest.empty()) return false;
      std::cerr << "unknown argument '" << rest.front() << "' for '"
                << command << "'\n\n"
                << kUsage;
      return true;
    };
    if (argc >= 3) {
      if (std::string(argv[2]) == "--help" || std::string(argv[2]) == "-h") {
        std::cout << kUsage;
        return 0;
      }
      std::ifstream in(argv[2]);
      if (!in) {
        std::cerr << "cannot open " << argv[2] << "\n";
        return 2;
      }
      if (cmd == "run") {
        std::uint64_t cycles = 1000;
        std::string pm_path;
        bool have_cycles = false;
        for (std::size_t i = 0; i < rest.size(); ++i) {
          if (rest[i] == "--postmortem") {
            LIPLIB_EXPECT(i + 1 < rest.size(),
                          "--postmortem requires a file name");
            pm_path = rest[++i];
          } else if (!have_cycles && !rest[i].empty() && rest[i][0] != '-') {
            cycles = parse_u64(rest[i], "run cycle count");
            have_cycles = true;
          } else {
            std::cerr << "unknown argument '" << rest[i] << "' for 'run'\n\n"
                      << kUsage;
            return 2;
          }
        }
        return cmd_run(in, cycles, pm_path);
      }
      if (cmd == "profile") return cmd_profile(in, rest);
      if (cmd == "replay") {
        if (!rest.empty()) {
          std::cerr << "unknown argument '" << rest.front()
                    << "' for 'replay'\n\n"
                    << kUsage;
          return 2;
        }
        return cmd_replay(in);
      }
      // Structural commands accept annotated files too.
      topo = graph::parse_netlist_annotated(in).topo;
    } else if (argc >= 2) {
      // A command without its file argument (or a typo'd command).
      std::cerr << "missing or unknown arguments for '" << cmd << "'\n\n"
                << kUsage;
      return 2;
    } else {
      std::cout << kUsage
                << "\nrunning the full demo on the built-in Fig. 1 "
                   "design:\n\n";
      topo = graph::parse_netlist_string(kFig1Netlist);
      std::cout << "--- validate ---\n";
      cmd_validate(topo);
      std::cout << "--- lint ---\n";
      cmd_lint(topo, /*json=*/false, /*fix=*/false, "");
      std::cout << "--- analyze ---\n";
      cmd_analyze(topo);
      std::cout << "--- simulate ---\n";
      cmd_simulate(topo, {});
      std::cout << "--- screen ---\n";
      cmd_screen(topo);
      std::cout << "--- equalize ---\n";
      return cmd_equalize(std::move(topo));
    }
    if (cmd == "lint") {
      bool json = false;
      bool fix = false;
      std::string out_path;
      for (std::size_t i = 0; i < rest.size(); ++i) {
        if (rest[i] == "--json") {
          json = true;
        } else if (rest[i] == "--fix") {
          fix = true;
        } else if (rest[i] == "-o") {
          LIPLIB_EXPECT(i + 1 < rest.size(), "-o requires a file name");
          out_path = rest[++i];
        } else {
          std::cerr << "unknown lint option '" << rest[i] << "'\n\n"
                    << kUsage;
          return 2;
        }
      }
      return cmd_lint(topo, json, fix, out_path);
    }
    if (cmd == "validate") {
      if (reject_extras("validate")) return 2;
      return cmd_validate(topo);
    }
    if (cmd == "analyze") {
      if (reject_extras("analyze")) return 2;
      return cmd_analyze(topo);
    }
    if (cmd == "simulate") {
      return cmd_simulate(topo, rest);
    }
    if (cmd == "screen") {
      if (reject_extras("screen")) return 2;
      return cmd_screen(topo);
    }
    if (cmd == "prove") {
      return cmd_prove(topo, rest);
    }
    if (cmd == "cure") {
      if (reject_extras("cure")) return 2;
      return cmd_cure(topo);
    }
    if (cmd == "equalize") {
      if (reject_extras("equalize")) return 2;
      return cmd_equalize(std::move(topo));
    }
    if (cmd == "flow") {
      if (reject_extras("flow")) return 2;
      return cmd_flow(topo);
    }
    if (cmd == "dot") {
      if (reject_extras("dot")) return 2;
      std::cout << topo.to_dot();
      return 0;
    }
    std::cerr << "unknown command '" << cmd << "'\n\n" << kUsage;
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
