// serve-hit and serve-miss: an in-process serve::Server on loopback,
// driven by closed-loop clients over real sockets.

#include <algorithm>
#include <array>
#include <deque>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "common.hpp"
#include "liplib/graph/analysis.hpp"
#include "liplib/graph/netlist_io.hpp"
#include "liplib/lint/lint.hpp"
#include "liplib/pearls/design_io.hpp"
#include "liplib/prove/prove.hpp"
#include "liplib/serve/cache.hpp"
#include "liplib/serve/protocol.hpp"
#include "liplib/serve/server.hpp"
#include "liplib/skeleton/skeleton.hpp"
#include "liplib/support/rng.hpp"
#include "liplib/telemetry/watchdog.hpp"

namespace perfbench {

using namespace liplib;

namespace {

/// Set-ups per run; setup_s is their median.
constexpr int kHitSetups = 3;
constexpr int kMissSetups = 5;
/// Timed requests per --seconds.  The count is fixed in advance, never
/// a time box: the daemon keeps its spans without bound, so a faster
/// build answering more requests in a fixed time would also be charged
/// more memory.
constexpr std::uint64_t kHitsPerSecond = 8000;
/// serve-miss rounds (one request of each kind) per connection and
/// --seconds, fixed in advance like the hits.
constexpr std::uint64_t kMissRoundsPerSecond = 33;
/// serve-hit's distinct designs.  With 32 the seed alone moved latency
/// by about 20% (the mean design size differs between corpora).
constexpr std::size_t kHitDesigns = 64;
constexpr std::size_t kMissConnections = 2;
/// serve-miss set-up rounds per connection, enough to keep a set-up
/// well above 0.1 s.
constexpr std::size_t kWarmupRounds = 16;
/// serve-miss designs per kind replayed through the public calls in a
/// traced run.
constexpr std::size_t kReplayPerKind = 32;

constexpr serve::RequestKind kWireKinds[4] = {
    serve::RequestKind::kLint, serve::RequestKind::kScreen,
    serve::RequestKind::kProve, serve::RequestKind::kProfile};

std::string status_request() {
  return Json::object()
      .set("rpc", serve::kRpcSchema)
      .set("kind", "status")
      .dump();
}

std::uint64_t uint_at(const Json& doc, std::string_view key) {
  const Json* f = doc.find(key);
  return f && f->is_number() ? f->as_uint() : 0;
}

bool bool_at(const Json& doc, std::string_view key) {
  const Json* f = doc.find(key);
  return f && f->is_bool() && f->as_bool();
}

std::string string_at(const Json& doc, std::string_view key) {
  const Json* f = doc.find(key);
  return f && f->is_string() ? f->as_string() : std::string();
}

/// The result document bytes spliced into a success envelope, or an
/// empty view when `response` is not the expected envelope.
std::string_view result_of(const std::string& response, int kind,
                           bool cached) {
  std::string head =
      serve::success_envelope(Json(), kWireKinds[kind], cached, "");
  head.pop_back();  // the closing '}' that follows the result
  if (response.size() <= head.size() ||
      response.compare(0, head.size(), head) != 0 || response.back() != '}') {
    return {};
  }
  return std::string_view(response).substr(
      head.size(), response.size() - head.size() - 1);
}

/// What one computed answer said, extracted right after receipt so the
/// run keeps only a few scalars per request.
struct Answer {
  int kind = 0;
  std::size_t design = 0;
  bool ok = false;  ///< ok:true with the expected cached flag
  std::size_t result_bytes = 0;
  bool deadlock = false;  ///< counted by the daemon's deadlock_verdicts
  // screen passes: [0] from reset, [1] from worst-case occupancy
  bool pass_deadlock[2] = {};
  bool pass_found[2] = {};
  std::uint64_t pass_trip_cycles[2] = {};
  std::uint64_t pass_transient[2] = {};
  std::uint64_t pass_period[2] = {};
  std::string reset_throughput;
  // prove
  std::string verdict;
  std::uint64_t states = 0;
  std::uint64_t transitions = 0;
  // profile
  std::uint64_t cycles = 0;
};

Answer read_answer(int kind, std::size_t design, const Json& response,
                   bool cached, std::size_t result_bytes) {
  Answer a;
  a.kind = kind;
  a.design = design;
  a.result_bytes = result_bytes;
  const Json* res = response.find("result");
  a.ok = bool_at(response, "ok") && response.find("cached") &&
         bool_at(response, "cached") == cached && res && res->is_object() &&
         result_bytes > 0;
  if (!a.ok) return a;
  if (kind == 1) {
    a.deadlock = string_at(*res, "verdict") == "deadlock";
    const char* passes[2] = {"from_reset", "worst_case"};
    for (int p = 0; p < 2; ++p) {
      const Json* ps = res->find(passes[p]);
      if (!ps) {
        a.ok = false;
        return a;
      }
      a.pass_deadlock[p] = bool_at(*ps, "deadlock");
      a.pass_found[p] = bool_at(*ps, "found");
      a.pass_trip_cycles[p] = uint_at(*ps, "cycles");
      a.pass_transient[p] = uint_at(*ps, "transient");
      a.pass_period[p] = uint_at(*ps, "period");
      if (p == 0) a.reset_throughput = string_at(*ps, "throughput");
    }
  } else if (kind == 2) {
    a.verdict = string_at(*res, "verdict");
    a.deadlock = a.verdict == "counterexample";
    if (const Json* pr = res->find("prove")) {
      a.states = uint_at(*pr, "states_explored");
      a.transitions = uint_at(*pr, "transitions");
    }
  } else if (kind == 3) {
    a.deadlock = string_at(*res, "verdict") == "deadlock";
    a.cycles = uint_at(*res, "cycles");
  }
  return a;
}

/// Exact work counts of a set of computed answers.
struct Tally {
  std::uint64_t guard_cycles = 0;
  std::uint64_t steady_cycles = 0;
  std::uint64_t states = 0;
  std::uint64_t transitions = 0;
  std::uint64_t lip_cycles = 0;
  std::uint64_t deadlocks = 0;
  std::uint64_t result_bytes = 0;
  bool operator==(const Tally&) const = default;
};

Tally tally(const std::vector<Answer>& answers) {
  Tally t;
  for (const Answer& a : answers) {
    t.deadlocks += a.deadlock;
    t.result_bytes += a.result_bytes;
    if (a.kind == 1) {
      for (int p = 0; p < 2; ++p) {
        // A guard that never trips runs the whole budget.
        t.guard_cycles +=
            a.pass_deadlock[p] ? a.pass_trip_cycles[p] : kScreenBudget;
        if (!a.pass_deadlock[p] && a.pass_found[p]) {
          t.steady_cycles += a.pass_transient[p] + a.pass_period[p];
        }
      }
    } else if (a.kind == 2) {
      t.states += a.states;
      t.transitions += a.transitions;
    } else if (a.kind == 3) {
      t.lip_cycles += a.cycles;
    }
  }
  return t;
}

/// The output checks on computed answers, against references computed
/// here from the design text (after the timed phase).
void check_answers(const std::vector<Answer>& answers,
                   const std::vector<std::string>& designs, Report& rep) {
  for (const Answer& a : answers) {
    const std::string what = std::string(kKinds[a.kind]) + " design " +
                             std::to_string(a.design) + ": ";
    if (!a.ok) {
      rep.fail(what + "response is not ok or has the wrong cached flag");
      continue;
    }
    if (a.kind == 1) {
      for (int p = 0; p < 2; ++p) {
        if (!a.pass_deadlock[p] && !a.pass_found[p]) {
          rep.fail(what + "live screen pass without a steady state");
        }
      }
      if (!a.pass_deadlock[0] && a.pass_found[0]) {
        const auto topo = graph::parse_netlist_string(designs[a.design]);
        Rational bound = graph::predict_throughput(topo).cycle_bound;
        if (topo.is_feedforward()) {
          bound = std::min(bound, graph::exact_implicit_loop_bound(topo));
        }
        if (Rational::parse(a.reset_throughput) > bound) {
          rep.fail(what + "from-reset throughput " + a.reset_throughput +
                   " above the analytic bound " + bound.str());
        }
      }
    } else if (a.kind == 2) {
      const auto topo = graph::parse_netlist_string(designs[a.design]);
      const bool latch = lint::run_lint(topo).has_rule("LIP006");
      const bool agree = (a.verdict == "proved" && !latch) ||
                         (a.verdict == "counterexample" && latch);
      if (!agree) {
        rep.fail(what + "worst-case prove says '" + a.verdict +
                 "' but lint " + (latch ? "reports" : "does not report") +
                 " LIP006");
      }
    }
  }
}

/// The daemon's status counters must equal what was sent to it.
void check_status(Client& client, const std::array<std::uint64_t, 4>& sent,
                  std::uint64_t status_sent, std::uint64_t hits,
                  std::uint64_t misses, std::uint64_t deadlocks,
                  Report& rep) {
  ++status_sent;  // the status request counts itself
  const Json doc = Json::parse(client.call(status_request()));
  const Json* res = doc.find("result");
  const Json* req = res ? res->find("requests") : nullptr;
  const Json* cache = res ? res->find("cache") : nullptr;
  if (!req || !cache) {
    rep.fail("status: malformed status document");
    return;
  }
  std::uint64_t total = status_sent;
  for (int k = 0; k < 4; ++k) total += sent[k];
  auto expect = [&](const std::string& name, std::uint64_t got,
                    std::uint64_t want) {
    if (got != want) {
      rep.fail("status: " + name + " = " + std::to_string(got) +
               ", expected " + std::to_string(want));
    }
  };
  expect("requests.total", uint_at(*req, "total"), total);
  expect("requests.status", uint_at(*req, "status"), status_sent);
  for (int k = 0; k < 4; ++k) {
    expect(std::string("requests.") + kKinds[k], uint_at(*req, kKinds[k]),
           sent[k]);
  }
  expect("requests.deadlock_verdicts", uint_at(*req, "deadlock_verdicts"),
         deadlocks);
  expect("cache.hits", uint_at(*cache, "hits"), hits);
  expect("cache.misses", uint_at(*cache, "misses"), misses);
}

/// One timed request as the client saw it.
struct Sample {
  int kind = 0;
  double end_ms = 0;     ///< steady clock at the decoded response
  double lat_ms = 0;     ///< socket write -> decoded response
  double cpu_ms = 0;     ///< CPU attributed to the request
  double decode_us = 0;  ///< response decode (traced phases only)
  std::uint64_t trace_id = 0;  ///< the daemon's trace id (traced only)
  std::size_t request_bytes = 0;
  std::size_t response_bytes = 0;
};

/// Throughput and CPU per request of a timed phase, each the median
/// over equal time slices (a slice counts the requests that completed in
/// it).  Slices hold about kSliceRequests requests, and at least
/// kMinSlices are taken, so a host stall costs a few slices rather than
/// the run.
struct Rates {
  double ops_per_s = 0;
  double cpu_ms_per_op = 0;
  std::size_t slices = 0;
};

constexpr std::size_t kSliceRequests = 200;
constexpr std::size_t kMinSlices = 20;

Rates slice_rates(const std::vector<std::vector<Sample>>& conns,
                  double start_ms, double end_ms) {
  std::size_t requests = 0;
  for (const auto& samples : conns) requests += samples.size();
  const std::size_t n = std::max(kMinSlices, requests / kSliceRequests);
  const double width = (end_ms - start_ms) / static_cast<double>(n);
  std::vector<double> ops(n, 0), cpu(n, 0);
  for (const auto& samples : conns) {
    for (const Sample& s : samples) {
      const std::size_t i = std::min(
          n - 1, static_cast<std::size_t>((s.end_ms - start_ms) / width));
      ops[i] += 1;
      cpu[i] += s.cpu_ms;
    }
  }
  std::vector<double> rate, per_op;
  for (std::size_t i = 0; i < n; ++i) {
    rate.push_back(ops[i] / (width / 1e3));
    if (ops[i] > 0) per_op.push_back(cpu[i] / ops[i]);
  }
  return {median(rate), median(per_op), n};
}

/// A request's split as the daemon's spans record it.
struct Split {
  int kind = 0;
  double rtt_self_us = 0;
  double root_self_us = 0;
  double lookup_us = 0;
  double execute_us = 0;
  bool executed = false;
};

/// Joins client samples to the daemon's root spans: a root's trace id
/// derives from the request payload, and one connection's requests
/// with the same payload are answered in order.
std::vector<Split> join_spans(const std::vector<trace::Span>& spans,
                              const std::vector<std::vector<Sample>>& conns) {
  struct Children {
    std::uint64_t lookup_us = 0;
    std::uint64_t execute_us = 0;
    bool executed = false;
  };
  std::unordered_map<std::uint64_t, Children> children;  // by root span id
  std::unordered_map<std::uint64_t, std::deque<const trace::Span*>> roots;
  for (const trace::Span& s : spans) {
    if (s.name == "serve.cache_lookup") {
      children[s.parent_span].lookup_us += s.dur_us;
    } else if (s.name == "serve.execute") {
      children[s.parent_span].execute_us += s.dur_us;
      children[s.parent_span].executed = true;
    } else if (s.parent_span == 0 && s.name.rfind("serve.", 0) == 0) {
      roots[s.trace_id].push_back(&s);
    }
  }
  std::vector<Split> out;
  for (const auto& samples : conns) {
    for (const Sample& c : samples) {
      auto& queue = roots[c.trace_id];
      if (queue.empty()) {
        throw std::runtime_error("no daemon root span for a timed request");
      }
      const trace::Span* root = queue.front();
      queue.pop_front();
      const Children ch = children[root->span_id];
      Split s;
      s.kind = c.kind;
      s.rtt_self_us = c.lat_ms * 1e3 - static_cast<double>(root->dur_us);
      s.root_self_us =
          static_cast<double>(root->dur_us - ch.lookup_us - ch.execute_us);
      s.lookup_us = static_cast<double>(ch.lookup_us);
      s.execute_us = static_cast<double>(ch.execute_us);
      s.executed = ch.executed;
      out.push_back(s);
    }
  }
  return out;
}

/// Median of one field over the splits of kind `kind` (-1: all kinds).
double median_of(const std::vector<Split>& v, int kind, double Split::*f) {
  std::vector<double> out;
  for (const Split& s : v) {
    if (kind < 0 || s.kind == kind) out.push_back(s.*f);
  }
  return median(out);
}

/// Span-derived layer metrics shared by both serve workloads.
void report_spans(const std::vector<trace::Span>& spans,
                  const std::vector<Split>& splits,
                  const std::vector<std::vector<Sample>>& conns,
                  Report& rep) {
  const std::size_t n = splits.size();
  rep.layer("serve.rtt_self_us", median_of(splits, -1, &Split::rtt_self_us),
            "us", n);
  rep.layer("serve.root_self_us", median_of(splits, -1, &Split::root_self_us),
            "us", n);
  rep.layer("serve.cache_lookup_us", median_of(splits, -1, &Split::lookup_us),
            "us", n);
  for (int k = 0; k < 4; ++k) {
    std::vector<double> ex;
    for (const Split& s : splits) {
      if (s.kind == k && s.executed) ex.push_back(s.execute_us / 1e3);
    }
    if (ex.empty()) continue;
    const std::string base = std::string("serve.execute_ms.") + kKinds[k];
    rep.layer(base + ".p50", percentile(ex, 50), "ms", ex.size());
    rep.layer(base + ".p90", percentile(ex, 90), "ms", ex.size());
  }
  std::vector<double> decode;
  double req_bytes = 0;
  double resp_bytes = 0;
  for (const auto& samples : conns) {
    for (const Sample& c : samples) {
      decode.push_back(c.decode_us);
      req_bytes += static_cast<double>(c.request_bytes);
      resp_bytes += static_cast<double>(c.response_bytes);
    }
  }
  rep.layer("json.decode_response_us", median(decode), "us", decode.size());
  rep.layer("serve.request_bytes", req_bytes / static_cast<double>(n), "B");
  rep.layer("serve.response_bytes", resp_bytes / static_cast<double>(n), "B");
  double bytes = 0;
  for (const trace::Span& s : spans) bytes += static_cast<double>(span_bytes(s));
  rep.layer("trace.spans_per_op",
            static_cast<double>(spans.size()) / static_cast<double>(n),
            "count");
  rep.layer("trace.bytes_per_op", bytes / static_cast<double>(n), "B");
}

/// Reconciliation: the layer self times of a traced phase against its
/// end-to-end median.
void report_reconciliation(double untraced_lat, double traced_lat,
                           double attributed_ms, Report& rep) {
  rep.layer("trace.untraced_lat_ms_p50", untraced_lat, "ms");
  rep.layer("trace.traced_lat_ms_p50", traced_lat, "ms");
  rep.layer("trace.overhead_frac", traced_lat / untraced_lat - 1, "ratio");
  rep.layer("trace.attributed_ms", attributed_ms, "ms");
  rep.layer("trace.unattributed_ms", traced_lat - attributed_ms, "ms");
}

template <typename F>
double time_us(F&& f) {
  const double t0 = wall_ms();
  f();
  return (wall_ms() - t0) * 1e3;
}

/// Median of three timed repetitions of `f`, in microseconds.
template <typename F>
double median3_us(F&& f) {
  return median({time_us(f), time_us(f), time_us(f)});
}

/// One request of the request-path replay: its payload and the result
/// bytes the daemon answered.
struct PathItem {
  int kind = 0;
  std::string payload;
  std::string result;
};

/// The request path's layers timed through their public calls on the
/// workload's own requests: what the daemon does before and after the
/// compute (decode, validate, parse, canonical write, hash, cache
/// insert, envelope).
void replay_request_path(const std::vector<PathItem>& items, Report& rep) {
  std::vector<double> parse, validate, net_parse, net_write, hash, insert,
      envelope;
  serve::ServerOptions defaults;
  serve::ResultCache cache(defaults.cache);
  Json::ParseLimits limits;
  limits.max_bytes = defaults.limits.max_frame_bytes;
  for (const PathItem& it : items) {
    Json doc;
    parse.push_back(median3_us([&] { doc = Json::parse(it.payload, limits); }));
    serve::Request req;
    validate.push_back(median3_us([&] { req = serve::parse_request(doc); }));
    graph::AnnotatedNetlist net;
    net_parse.push_back(median3_us(
        [&] { net = graph::parse_netlist_annotated_string(req.netlist); }));
    std::string canonical;
    net_write.push_back(
        median3_us([&] { canonical = graph::write_netlist(net.topo); }));
    std::uint64_t h = 0;
    hash.push_back(median3_us([&] {
      h = serve::fnv1a64(canonical);
      for (const auto& a : net.node_annotation) {
        h = serve::fnv1a64(a, h * 0x100000001b3ull + 1);
      }
    }));
    const std::string key = std::string(kKinds[it.kind]) + "/" + std::to_string(h);
    insert.push_back(time_us([&] { cache.insert(key, it.result); }));
    envelope.push_back(median3_us([&] {
      const std::string env = serve::success_envelope(
          Json(), kWireKinds[it.kind], true, it.result);
      if (env.empty()) throw std::logic_error("empty envelope");
    }));
  }
  const std::size_t n = items.size();
  rep.layer("json.parse_us", median(parse), "us", n);
  rep.layer("serve.parse_request_us", median(validate), "us", n);
  rep.layer("graph.netlist_parse_us", median(net_parse), "us", n);
  rep.layer("graph.netlist_write_us", median(net_write), "us", n);
  rep.layer("serve.hash_us", median(hash), "us", n);
  rep.layer("serve.cache_insert_us", median(insert), "us", n);
  rep.layer("serve.envelope_us", median(envelope), "us", n);
}

/// One design of the compute replay, with the daemon's answer on it.
struct ComputeItem {
  int kind = 0;
  const std::string* design = nullptr;
  const Answer* answer = nullptr;
};

/// The compute layers behind the daemon, timed through their public
/// calls with the daemon's own settings; every count the replay sees
/// must repeat the daemon's answer exactly.
void replay_compute(const std::vector<ComputeItem>& items, Report& rep) {
  const serve::ServerOptions so;
  std::vector<double> lint_ms, guard_ms, analyze_ms, prove_ms, profile_ms;
  auto mismatch = [&](const ComputeItem& it, const std::string& what) {
    rep.fail(std::string(kKinds[it.kind]) + " design " +
             std::to_string(it.answer->design) + ": replay " + what +
             " differs from the daemon's answer");
  };
  for (const ComputeItem& it : items) {
    const Answer& a = *it.answer;
    if (!a.ok) continue;
    const auto topo = graph::parse_netlist_string(*it.design);
    if (it.kind == 0) {
      lint_ms.push_back(time_us([&] { (void)lint::run_lint(topo); }) / 1e3);
    } else if (it.kind == 1) {
      double guard = 0;
      double analyze = 0;
      for (int p = 0; p < 2; ++p) {
        const bool wc = p == 1;
        skeleton::SkeletonOptions sopts;
        telemetry::WatchdogOptions wopts;
        wopts.no_progress_threshold = so.watchdog_threshold;
        wopts.worst_case_occupancy = wc;
        bool tripped = false;
        std::uint64_t cycles = 0;
        guard += time_us([&] {
          telemetry::Watchdog dog(wopts);
          skeleton::Skeleton sk(topo, sopts);
          if (wc) sk.saturate_stations();
          dog.attach(sk);
          cycles = telemetry::run_guarded(sk, dog, kScreenBudget).cycles;
          tripped = dog.tripped();
        });
        const std::uint64_t want =
            a.pass_deadlock[p] ? a.pass_trip_cycles[p] : kScreenBudget;
        if (tripped != a.pass_deadlock[p] || cycles != want) {
          mismatch(it, "guard cycles");
        }
        if (tripped) continue;
        skeleton::SkeletonResult r;
        analyze += time_us([&] {
          skeleton::Skeleton sk(topo, sopts);
          if (wc) sk.saturate_stations();
          r = sk.analyze(kScreenBudget);
        });
        if (r.found != a.pass_found[p] ||
            r.transient != a.pass_transient[p] ||
            r.period != a.pass_period[p]) {
          mismatch(it, "steady state");
        }
      }
      guard_ms.push_back(guard / 1e3);
      analyze_ms.push_back(analyze / 1e3);
    } else if (it.kind == 2) {
      prove::ProveOptions popts;
      popts.worst_case_occupancy = true;
      popts.sliced_frontier = false;  // what the daemon's default engine asks
      popts.max_states = kProveBudget;
      prove::ProveResult pr;
      prove_ms.push_back(time_us([&] { pr = prove::prove(topo, popts); }) /
                         1e3);
      if (pr.states_explored != a.states || pr.transitions != a.transitions ||
          prove::verdict_name(pr.verdict) != a.verdict) {
        mismatch(it, "states, transitions or verdict");
      }
    } else {
      std::uint64_t cycles = 0;
      profile_ms.push_back(time_us([&] {
                             auto design = pearls::parse_design_string(
                                 *it.design);
                             auto sys = design.instantiate();
                             telemetry::WatchdogOptions wopts;
                             wopts.no_progress_threshold =
                                 so.watchdog_threshold;
                             telemetry::Watchdog dog(wopts);
                             dog.attach(*sys);
                             cycles = telemetry::run_guarded(
                                          *sys, dog,
                                          so.default_profile_cycles)
                                          .cycles;
                           }) /
                           1e3);
      if (cycles != a.cycles) mismatch(it, "profile cycles");
    }
  }
  if (!lint_ms.empty()) {
    rep.layer("lint.run_ms", median(lint_ms), "ms", lint_ms.size());
  }
  if (!guard_ms.empty()) {
    rep.layer("telemetry.guard_ms", median(guard_ms), "ms", guard_ms.size());
    rep.layer("skeleton.analyze_ms", median(analyze_ms), "ms",
              analyze_ms.size());
  }
  if (!prove_ms.empty()) {
    rep.layer("prove.ms", median(prove_ms), "ms", prove_ms.size());
  }
  if (!profile_ms.empty()) {
    rep.layer("lip.profile_ms", median(profile_ms), "ms", profile_ms.size());
  }
}

/// Exact counts of the computed answers (totals over the answers).
void report_counts(const std::vector<Answer>& answers, Report& rep) {
  const Tally t = tally(answers);
  rep.layer("telemetry.guard_cycles", static_cast<double>(t.guard_cycles),
            "count");
  rep.layer("skeleton.steady_cycles", static_cast<double>(t.steady_cycles),
            "count");
  if (t.guard_cycles > 0) {
    rep.layer("screen.useful_cycle_frac",
              static_cast<double>(t.steady_cycles) /
                  static_cast<double>(t.guard_cycles),
              "ratio");
  }
  rep.layer("prove.states", static_cast<double>(t.states), "count");
  rep.layer("prove.transitions", static_cast<double>(t.transitions), "count");
  rep.layer("lip.cycles", static_cast<double>(t.lip_cycles), "count");
  rep.layer("serve.deadlock_verdicts", static_cast<double>(t.deadlocks),
            "count");
  rep.layer("serve.result_bytes",
            static_cast<double>(t.result_bytes) /
                static_cast<double>(answers.size()),
            "B", answers.size());
}

void stop_server(std::unique_ptr<serve::Server>& server) {
  if (!server) return;
  server->shutdown();
  server->wait();
  server.reset();
}

// ---- serve-hit ----------------------------------------------------------

struct Distinct {
  int kind = 0;
  std::size_t design = 0;
  std::string payload;
  std::string expected_hit;  ///< the exact response bytes of a hit
  std::uint64_t trace_id = 0;
};

/// The timed hit loop: one connection, every response checked against
/// the bytes of the fresh answer from set-up.
std::vector<Sample> run_hits(Client& client,
                             const std::vector<Distinct>& distinct,
                             const std::vector<std::uint32_t>& order,
                             bool traced, Report& rep) {
  std::vector<Sample> out;
  out.reserve(order.size());
  std::string response;
  std::uint64_t bad = 0;
  for (const std::uint32_t idx : order) {
    const Distinct& d = distinct[idx];
    const double c0 = process_cpu_ms();
    const double t0 = wall_ms();
    client.send(d.payload);
    client.receive(response);
    const double t1 = traced ? wall_ms() : 0;
    const Json doc = Json::parse(response);
    const double t2 = wall_ms();
    const double c1 = process_cpu_ms();
    Sample s;
    s.kind = d.kind;
    s.end_ms = t2;
    s.lat_ms = t2 - t0;
    s.cpu_ms = c1 - c0;
    s.decode_us = traced ? (t2 - t1) * 1e3 : 0;
    s.trace_id = d.trace_id;
    s.request_bytes = d.payload.size();
    s.response_bytes = response.size();
    out.push_back(s);
    if (response != d.expected_hit || !bool_at(doc, "ok") ||
        !bool_at(doc, "cached")) {
      ++bad;
    }
  }
  if (bad) {
    rep.fail(std::to_string(bad) +
                 " hit response(s) differ from the fresh answer",
             bad);
  }
  return out;
}

}  // namespace

void serve_hit(const Args& args, Report& rep) {
  // Inputs, all generated before any clock starts.
  const auto designs =
      make_designs(mix_seed(args.seed, 1), kHitDesigns, /*group=*/1);
  std::vector<Distinct> distinct;
  for (std::size_t d = 0; d < designs.size(); ++d) {
    for (int k = 0; k < 4; ++k) {
      Distinct q;
      q.kind = k;
      q.design = d;
      q.payload = make_request(k, designs[d]);
      q.trace_id = trace::derive_trace_id(serve::fnv1a64(q.payload));
      distinct.push_back(std::move(q));
    }
  }
  const std::uint64_t n = args.seconds * kHitsPerSecond;
  std::vector<std::uint32_t> order(n);
  {
    Rng rng(mix_seed(args.seed, 2));
    for (auto& o : order) o = static_cast<std::uint32_t>(rng.below(distinct.size()));
  }
  std::array<std::uint64_t, 4> hits_by_kind{};
  for (const auto o : order) hits_by_kind[distinct[o].kind]++;

  // Set-up: daemon start, connect, one pass over every distinct request.
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<Client> client;
  std::vector<double> setup_s;
  std::vector<std::string> fresh(distinct.size());
  for (int s = 0; s < kHitSetups; ++s) {
    client.reset();
    stop_server(server);
    const double t0 = wall_ms();
    server = std::make_unique<serve::Server>(serve::ServerOptions{});
    server->start();
    client = std::make_unique<Client>(server->port());
    std::vector<std::string> answers(distinct.size());
    for (std::size_t i = 0; i < distinct.size(); ++i) {
      answers[i] = client->call(distinct[i].payload);
    }
    setup_s.push_back((wall_ms() - t0) / 1e3);
    for (std::size_t i = 0; i < distinct.size(); ++i) {
      if (s == 0) {
        fresh[i] = std::move(answers[i]);
      } else if (answers[i] != fresh[i]) {
        rep.fail("set-up " + std::to_string(s) + ": fresh answer to request " +
                 std::to_string(i) + " differs from set-up 0");
      }
    }
  }
  std::vector<Answer> computed;
  for (std::size_t i = 0; i < distinct.size(); ++i) {
    Distinct& q = distinct[i];
    const std::string_view result = result_of(fresh[i], q.kind, false);
    q.expected_hit = serve::success_envelope(Json(), kWireKinds[q.kind], true,
                                             std::string(result));
    computed.push_back(read_answer(q.kind, q.design, Json::parse(fresh[i]),
                                   false, result.size()));
  }
  const Tally computed_tally = tally(computed);

  // Timed phase.
  const double cpu0 = process_cpu_ms();
  const double w0 = wall_ms();
  const auto samples = run_hits(*client, distinct, order, false, rep);
  const double w1 = wall_ms();
  const double cpu1 = process_cpu_ms();
  const double rss = peak_rss_mb();
  rep.attempted(n);

  std::vector<double> lat, cpu;
  for (const Sample& s : samples) {
    lat.push_back(s.lat_ms);
    cpu.push_back(s.cpu_ms);
  }
  const double lat_p50 = median(lat);
  rep.e2e("setup_s", median(setup_s), "s", setup_s.size());
  rep.e2e("peak_rss_mb", rss, "MiB");
  const Rates rates = slice_rates({samples}, w0, w1);
  rep.e2e("cpu_ms_per_op", rates.cpu_ms_per_op, "ms", rates.slices);
  rep.e2e("lat_ms_p50", lat_p50, "ms", lat.size());
  rep.e2e("cpu_ms_p99", percentile(cpu, 99), "ms", cpu.size());
  // One closed-loop connection's rate at the median round trip.  Its
  // measured rate is 1 / mean latency, which host stalls dominate (it
  // swings by a third between runs), so it is printed only as a note.
  rep.e2e("ops_per_s", 1e3 / lat_p50, "1/s", lat.size());
  rep.note("timed phase: " + std::to_string(n) + " hits over " +
           std::to_string(distinct.size()) + " distinct requests, process CPU " +
           std::to_string(cpu1 - cpu0) + " ms, measured rate " +
           std::to_string(rates.ops_per_s) + " requests/s (median over " +
           std::to_string(rates.slices) + " slices)");

  // Checks against references computed after the timed phase.
  check_answers(computed, designs, rep);
  std::array<std::uint64_t, 4> sent = hits_by_kind;
  for (int k = 0; k < 4; ++k) sent[k] += kHitDesigns;

  if (args.trace) {
    // Traced phase: the same hits again, with the client-side decode
    // timed; the daemon records its spans either way.
    const std::size_t mark = server->context().recorder.size();
    const auto traced = run_hits(*client, distinct, order, true, rep);
    rep.attempted(n);
    auto spans = server->context().recorder.snapshot();
    spans.erase(spans.begin(), spans.begin() + static_cast<std::ptrdiff_t>(mark));
    const auto splits = join_spans(spans, {traced});
    report_spans(spans, splits, {traced}, rep);
    std::vector<double> traced_lat;
    for (const Sample& s : traced) traced_lat.push_back(s.lat_ms);
    const double attributed = (median_of(splits, -1, &Split::rtt_self_us) +
                               median_of(splits, -1, &Split::root_self_us) +
                               median_of(splits, -1, &Split::lookup_us)) /
                              1e3;
    report_reconciliation(lat_p50, median(traced_lat), attributed, rep);
    rep.layer("samples.lat_ms_p50", static_cast<double>(lat.size()), "count");
    rep.layer("samples.cpu_ms_p99", static_cast<double>(cpu.size()), "count");
    for (int k = 0; k < 4; ++k) sent[k] += hits_by_kind[k];

    std::vector<PathItem> path;
    std::vector<ComputeItem> compute;
    for (std::size_t i = 0; i < distinct.size(); ++i) {
      path.push_back({distinct[i].kind, distinct[i].payload,
                      std::string(result_of(fresh[i], distinct[i].kind, false))});
      compute.push_back({distinct[i].kind, &designs[distinct[i].design],
                         &computed[i]});
    }
    replay_request_path(path, rep);
    replay_compute(compute, rep);
    report_counts(computed, rep);
  }
  std::uint64_t hits = 0;
  for (int k = 0; k < 4; ++k) hits += sent[k] - kHitDesigns;
  check_status(*client, sent, 0, hits, distinct.size(),
               computed_tally.deadlocks, rep);
  client.reset();
  stop_server(server);
}

// ---- serve-miss ---------------------------------------------------------

namespace {

/// One connection of serve-miss: the client socket and the daemon
/// thread serving it, so per-request CPU can be attributed while the
/// other connection is busy.
struct Connection {
  std::unique_ptr<Client> client;
  pid_t daemon_tid = 0;
};

Connection connect_attributed(std::uint16_t port) {
  const auto before = thread_ids();
  Connection c;
  c.client = std::make_unique<Client>(port);
  c.client->call(status_request());  // the connection's thread now exists
  const auto after = thread_ids();
  std::vector<pid_t> fresh;
  std::set_difference(after.begin(), after.end(), before.begin(),
                      before.end(), std::back_inserter(fresh));
  if (fresh.size() != 1) {
    throw std::runtime_error("cannot identify the daemon's connection thread");
  }
  c.daemon_tid = fresh[0];
  return c;
}

/// What one client thread saw.
struct MissRun {
  std::vector<Sample> samples;
  std::vector<Answer> answers;
  std::vector<std::string> kept_results;  ///< first results, for replay
  std::string error;
};

void run_misses(Connection& conn, const std::vector<std::string>& payloads,
                const std::vector<std::size_t>& design_of, bool traced,
                std::size_t keep, MissRun& out) {
  try {
    std::string response;
    out.samples.reserve(design_of.size());
    out.answers.reserve(design_of.size());
    for (std::size_t i = 0; i < design_of.size(); ++i) {
      const int kind = static_cast<int>(i % 4);
      const std::string& payload = payloads[design_of[i]];
      const double tc0 = thread_cpu_ms();
      const double dc0 = thread_cpu_ms(conn.daemon_tid);
      const double t0 = wall_ms();
      conn.client->send(payload);
      conn.client->receive(response);
      const double t1 = traced ? wall_ms() : 0;
      const Json doc = Json::parse(response);
      const double t2 = wall_ms();
      const double dc1 = thread_cpu_ms(conn.daemon_tid);
      const double tc1 = thread_cpu_ms();
      Sample s;
      s.kind = kind;
      s.end_ms = t2;
      s.lat_ms = t2 - t0;
      s.cpu_ms = (tc1 - tc0) + (dc1 - dc0);
      s.decode_us = traced ? (t2 - t1) * 1e3 : 0;
      s.trace_id =
          traced ? trace::derive_trace_id(serve::fnv1a64(payload)) : 0;
      s.request_bytes = payload.size();
      s.response_bytes = response.size();
      out.samples.push_back(s);
      const std::string_view result = result_of(response, kind, false);
      out.answers.push_back(
          read_answer(kind, design_of[i], doc, false, result.size()));
      if (i < keep) out.kept_results.emplace_back(result);
    }
  } catch (const std::exception& e) {
    out.error = e.what();
  }
}

/// Runs every connection's list on its own client thread and joins.
std::vector<MissRun> run_connections(
    std::vector<Connection>& conns, const std::vector<std::string>& payloads,
    const std::vector<std::vector<std::size_t>>& lists, bool traced,
    std::size_t keep) {
  std::vector<MissRun> runs(conns.size());
  {
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < conns.size(); ++c) {
      threads.emplace_back([&, c] {
        run_misses(conns[c], payloads, lists[c], traced, c == 0 ? keep : 0,
                   runs[c]);
      });
    }
  }
  for (const MissRun& r : runs) {
    if (!r.error.empty()) throw std::runtime_error("client: " + r.error);
  }
  return runs;
}

struct MissDaemon {
  std::unique_ptr<serve::Server> server;
  std::vector<Connection> conns;
  std::vector<Answer> warmup;

  void stop() {
    conns.clear();
    stop_server(server);
  }
};

/// Set-up of serve-miss: daemon start, two attributed connections and
/// a warm-up of kWarmupRounds rounds per connection on designs that the
/// timed phase never uses.
MissDaemon start_miss_daemon(const std::vector<std::string>& payloads,
                             const std::vector<std::vector<std::size_t>>&
                                 warmup_lists) {
  MissDaemon d;
  d.server = std::make_unique<serve::Server>(serve::ServerOptions{});
  d.server->start();
  for (std::size_t c = 0; c < kMissConnections; ++c) {
    d.conns.push_back(connect_attributed(d.server->port()));
  }
  for (auto& r : run_connections(d.conns, payloads, warmup_lists, false, 0)) {
    d.warmup.insert(d.warmup.end(), r.answers.begin(), r.answers.end());
  }
  return d;
}

/// Wall time of every round (one request of each kind, in order) on
/// every connection.
std::vector<double> round_latencies(const std::vector<MissRun>& runs) {
  std::vector<double> out;
  for (const MissRun& r : runs) {
    for (std::size_t i = 0; i + 3 < r.samples.size(); i += 4) {
      out.push_back(r.samples[i].lat_ms + r.samples[i + 1].lat_ms +
                    r.samples[i + 2].lat_ms + r.samples[i + 3].lat_ms);
    }
  }
  return out;
}

/// Status counters of a serve-miss daemon: the attribution probes, the
/// warm-up and `timed`, every request a miss.
void check_miss_status(MissDaemon& d, const std::vector<Answer>& timed,
                       Report& rep) {
  std::array<std::uint64_t, 4> sent{};
  std::uint64_t deadlocks = 0;
  std::uint64_t total = 0;
  const std::vector<Answer>& warmup = d.warmup;
  for (const std::vector<Answer>* set : {&warmup, &timed}) {
    for (const Answer& a : *set) {
      sent[a.kind]++;
      deadlocks += a.deadlock;
      total++;
    }
  }
  check_status(*d.conns[0].client, sent, kMissConnections, 0, total,
               deadlocks, rep);
}

}  // namespace

void serve_miss(const Args& args, Report& rep) {
  // Inputs: one fresh design per request, laid out round-major so each
  // round of four kinds shares a group (and every fourth group allows
  // half stations on loops).
  const std::uint64_t rounds = args.seconds * kMissRoundsPerSecond;
  const std::size_t timed_requests = kMissConnections * rounds * 4;
  const std::size_t warmup_requests = kMissConnections * kWarmupRounds * 4;
  const auto designs = make_designs(mix_seed(args.seed, 3),
                                    timed_requests + warmup_requests, 4);
  std::vector<std::string> payloads;
  payloads.reserve(designs.size());
  for (std::size_t i = 0; i < designs.size(); ++i) {
    payloads.push_back(make_request(static_cast<int>(i % 4), designs[i]));
  }
  std::vector<std::vector<std::size_t>> timed(kMissConnections);
  std::vector<std::vector<std::size_t>> warmup(kMissConnections);
  for (std::size_t c = 0; c < kMissConnections; ++c) {
    for (std::size_t i = 0; i < rounds * 4; ++i) {
      timed[c].push_back(c * rounds * 4 + i);
    }
    for (std::size_t i = 0; i < kWarmupRounds * 4; ++i) {
      warmup[c].push_back(timed_requests + c * kWarmupRounds * 4 + i);
    }
  }

  // Set-ups; the last daemon serves the timed phase.
  std::vector<double> setup_s;
  MissDaemon daemon;
  for (int s = 0; s < kMissSetups; ++s) {
    daemon.stop();
    const double t0 = wall_ms();
    daemon = start_miss_daemon(payloads, warmup);
    setup_s.push_back((wall_ms() - t0) / 1e3);
  }

  // Timed phase.
  const double cpu0 = process_cpu_ms();
  const double w0 = wall_ms();
  const auto runs = run_connections(daemon.conns, payloads, timed, false,
                                    kReplayPerKind * 4);
  const double w1 = wall_ms();
  const double cpu1 = process_cpu_ms();
  const double rss = peak_rss_mb();
  rep.attempted(timed_requests);

  const std::vector<double> round_lat = round_latencies(runs);
  std::vector<double> cpu;
  std::vector<Answer> answers;
  std::vector<std::vector<Sample>> conn_samples;
  for (const MissRun& r : runs) {
    for (const Sample& s : r.samples) cpu.push_back(s.cpu_ms);
    answers.insert(answers.end(), r.answers.begin(), r.answers.end());
    conn_samples.push_back(r.samples);
  }
  const double lat_p50 = median(round_lat);
  rep.e2e("setup_s", median(setup_s), "s", setup_s.size());
  rep.e2e("peak_rss_mb", rss, "MiB");
  const Rates rates = slice_rates(conn_samples, w0, w1);
  rep.e2e("cpu_ms_per_op", rates.cpu_ms_per_op, "ms", rates.slices);
  rep.e2e("lat_ms_p50", lat_p50, "ms", round_lat.size());
  rep.e2e("cpu_ms_p99", percentile(cpu, 99), "ms", cpu.size());
  rep.e2e("ops_per_s", rates.ops_per_s, "1/s", rates.slices);
  rep.note("timed phase: " + std::to_string(timed_requests) +
           " misses on " + std::to_string(kMissConnections) +
           " connections, process CPU " + std::to_string(cpu1 - cpu0) +
           " ms; lat_ms_p50 is per round of four kinds");

  // Checks against references computed after the timed phase.
  check_answers(daemon.warmup, designs, rep);
  check_answers(answers, designs, rep);
  check_miss_status(daemon, answers, rep);

  if (args.trace) {
    // Traced phase on a fresh daemon (so the same designs miss again),
    // with the client-side decode timed.
    daemon.stop();
    daemon = start_miss_daemon(payloads, warmup);
    const std::size_t mark = daemon.server->context().recorder.size();
    const auto traced = run_connections(daemon.conns, payloads, timed, true, 0);
    rep.attempted(timed_requests);
    auto spans = daemon.server->context().recorder.snapshot();
    spans.erase(spans.begin(), spans.begin() + static_cast<std::ptrdiff_t>(mark));
    std::vector<std::vector<Sample>> conns;
    for (const MissRun& r : traced) conns.push_back(r.samples);
    const std::vector<double> traced_round = round_latencies(traced);
    const auto splits = join_spans(spans, conns);
    report_spans(spans, splits, conns, rep);
    // A round is one request of each kind, so its attributed time is
    // the sum over kinds of each kind's median split.
    double attributed = 0;
    for (int k = 0; k < 4; ++k) {
      for (double Split::*f : {&Split::rtt_self_us, &Split::root_self_us,
                               &Split::lookup_us, &Split::execute_us}) {
        attributed += median_of(splits, k, f);
      }
    }
    report_reconciliation(lat_p50, median(traced_round), attributed / 1e3,
                          rep);
    rep.layer("samples.lat_ms_p50", static_cast<double>(round_lat.size()),
              "count");
    rep.layer("samples.cpu_ms_p99", static_cast<double>(cpu.size()), "count");

    std::vector<Answer> traced_answers;
    for (const MissRun& r : traced) {
      traced_answers.insert(traced_answers.end(), r.answers.begin(),
                            r.answers.end());
    }
    check_answers(traced_answers, designs, rep);
    if (tally(traced_answers) != tally(answers)) {
      rep.fail("traced phase: work counts differ from the untraced phase");
    }

    std::vector<PathItem> path;
    std::vector<ComputeItem> compute;
    const MissRun& first = runs[0];
    for (std::size_t i = 0; i < first.kept_results.size(); ++i) {
      const int kind = static_cast<int>(i % 4);
      path.push_back({kind, payloads[timed[0][i]], first.kept_results[i]});
      compute.push_back({kind, &designs[timed[0][i]], &first.answers[i]});
    }
    replay_request_path(path, rep);
    replay_compute(compute, rep);
    report_counts(answers, rep);
    check_miss_status(daemon, traced_answers, rep);
  }
  daemon.stop();
}

}  // namespace perfbench
