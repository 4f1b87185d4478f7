// Request dispatch of the serve daemon: parse + validate, consult the
// content-addressed cache, compute on miss, wrap in the envelope.  Pure
// protocol — no sockets — so the whole layer is unit-testable and the
// byte-identity of cached vs fresh responses is a property of this file
// alone.

#include <optional>
#include <sstream>
#include <string>
#include <utility>

#include "liplib/campaign/campaign.hpp"
#include "liplib/campaign/jobs.hpp"
#include "liplib/campaign/report.hpp"
#include "liplib/graph/netlist_io.hpp"
#include "liplib/lint/lint.hpp"
#include "liplib/pearls/design_io.hpp"
#include "liplib/prove/prove.hpp"
#include "liplib/serve/server.hpp"
#include "liplib/telemetry/watchdog.hpp"
#include "liplib/xir/xir.hpp"

namespace liplib::serve {

ServeContext::ServeContext(ServerOptions options,
                           std::function<std::uint64_t()> now_ms,
                           std::function<std::uint64_t()> now_us)
    : opts(options),
      cache(options.cache, std::move(now_ms)),
      designs({.capacity_bytes = options.cache.capacity_bytes / 16,
               .ttl_ms = 0}),
      recorder(std::move(now_us)) {
  registry.describe(
      "liplib_serve_request_latency_us", metrics::MetricType::kHistogram,
      "Request latency in microseconds by kind and cache outcome.");
  registry.describe("liplib_serve_cache_bytes", metrics::MetricType::kGauge,
                    "Result cache occupancy in bytes.");
  registry.describe("liplib_serve_cache_entries", metrics::MetricType::kGauge,
                    "Result cache entry count.");
  registry.describe("liplib_serve_cache_evictions_total",
                    metrics::MetricType::kCounter,
                    "Result cache entries evicted by the LRU byte budget.");
}

Json ServeContext::status_json() {
  std::lock_guard<std::mutex> lock(mu);
  Json requests = Json::object();
  requests.set("total", requests_total.value());
  for (int k = 0; k < kRequestKindCount; ++k) {
    requests.set(request_kind_name(static_cast<RequestKind>(k)),
                 requests_by_kind[k].value());
  }
  requests.set("protocol_errors", protocol_errors.value())
      .set("request_errors", request_errors.value())
      .set("deadlock_verdicts", deadlock_verdicts.value());
  const CacheStats cs = cache.stats();
  return Json::object()
      .set("schema", "liplib.serve.status/3")
      .set("draining", draining.load())
      .set("inflight", static_cast<std::int64_t>(inflight.value()))
      // Top-level eviction / occupancy mirrors of the cache block, so a
      // dashboard can alert on byte-budget pressure without digging into
      // the nested document.
      .set("evictions", cs.evictions)
      .set("cache_bytes", static_cast<std::uint64_t>(cs.bytes))
      .set("requests", std::move(requests))
      .set("cache", cache.stats_json())
      .set("design_memo", designs.stats_json())
      .set("config",
           Json::object()
               .set("threads", opts.threads)
               .set("max_connections", Listener::kMaxConnections)
               .set("max_frame_bytes",
                    static_cast<std::uint64_t>(opts.limits.max_frame_bytes))
               .set("default_budget", opts.default_budget)
               .set("max_budget", opts.max_budget)
               .set("default_profile_cycles", opts.default_profile_cycles));
}

namespace {

std::string hex64(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[v & 0xf];
    v >>= 4;
  }
  return out;
}

/// Request budget clamped to the server's ceiling (tenants may ask for
/// less, never for more).
std::uint64_t effective_budget(const Request& req, const ServerOptions& o) {
  return serve::effective_budget(req, o.default_budget, o.max_budget);
}

std::uint64_t effective_cycles(const Request& req, const ServerOptions& o) {
  const std::uint64_t asked =
      req.cycles == 0 ? o.default_profile_cycles : req.cycles;
  return std::min(asked, o.max_budget);
}

/// Parsed design artifacts shared by key derivation and computation:
/// the canonical content hash covers the topology *and* the behavioural
/// annotations, so two texts that differ only in formatting or comments
/// collapse to one cache entry while a changed pearl spec does not.
struct ParsedDesign {
  graph::AnnotatedNetlist net;
  std::uint64_t content_hash = 0;
};

ParsedDesign parse_design_text(const std::string& netlist) {
  ParsedDesign d;
  d.net = graph::parse_netlist_annotated_string(netlist);
  std::uint64_t h = fnv1a64(graph::write_netlist(d.net.topo));
  for (const auto& a : d.net.node_annotation) {
    h = fnv1a64(a, h * 0x100000001b3ull + 1);
  }
  d.content_hash = h;
  return d;
}

/// Outcome of one computed (uncached) request.
struct Computed {
  std::string result;     ///< serialized result document
  bool deadlock = false;  ///< a deadlock verdict was answered
};

/// A screen or profile result, serialized once.
Computed with_verdict(const Json& result) {
  return {result.dump(), result.find("verdict")->as_string() == "deadlock"};
}

// ---- lint ---------------------------------------------------------------

Computed compute_lint(const ParsedDesign& d) {
  const auto report = lint::run_lint(d.net.topo);
  const int exit_code = report.exit_code();
  Json result = Json::object()
                    .set("schema", "liplib.serve.lint/1")
                    .set("topology_hash", hex64(topology_hash(d.net.topo)))
                    .set("verdict", exit_code == 0   ? "clean"
                                    : exit_code == 1 ? "warnings"
                                                     : "errors")
                    .set("report", report.to_json(d.net.topo));
  return {result.dump(), false};
}

// ---- prove --------------------------------------------------------------

/// Static proof via liplib::prove on the library's default (bit-sliced)
/// frontier.  Purely deterministic in the request knobs, so the result
/// is ideal cache fodder: a fleet that keeps re-proving the same design
/// text is answered from memory.
Computed compute_prove(const ParsedDesign& d, const Request& req,
                       const ServerOptions& opts) {
  const auto pr = prove::prove(d.net.topo, prove_options(req, opts.max_budget));
  Json result = Json::object()
                    .set("schema", "liplib.serve.prove/2")
                    .set("topology_hash", hex64(topology_hash(d.net.topo)))
                    .set("policy", lip::policy_name(req.policy))
                    .set("worst_case", req.worst_case)
                    .set("verdict", prove::verdict_name(pr.verdict))
                    .set("exit_code", pr.exit_code())
                    .set("prove", pr.to_json(d.net.topo));
  return {result.dump(), pr.verdict == prove::Verdict::kCounterexample};
}

// ---- campaign -----------------------------------------------------------

Computed compute_campaign(const Request& req, const ServerOptions& opts,
                          trace::Recorder* recorder,
                          trace::TraceContext chunk_parent) {
  const auto jobs = campaign::make_named_campaign(campaign_spec(req));
  campaign::EngineOptions eopts;
  eopts.threads = opts.threads;
  eopts.base_seed = req.seed;
  eopts.cycle_budget = effective_budget(req, opts);
  eopts.recorder = recorder;
  eopts.trace_parent = chunk_parent;
  const auto results = campaign::Engine(eopts).run(jobs);
  const auto agg = campaign::aggregate(results);
  Json result =
      Json::object()
          .set("schema", "liplib.serve.campaign/2")
          .set("mode", campaign::campaign_mode_name(req.mode))
          .set("jobs", req.jobs)
          .set("seed", req.seed)
          .set("budget", eopts.cycle_budget)
          .set("verdict", agg.all_live() ? "all_live" : "failures")
          .set("deadlocks", agg.count(campaign::Outcome::kDeadlock))
          .set("aggregate", campaign::to_json(agg));
  return {result.dump(), agg.count(campaign::Outcome::kDeadlock) > 0};
}

// ---- dist-status --------------------------------------------------------

/// Relays a "liplib.dist/1" status query to the coordinator on
/// 127.0.0.1:<port> and wraps the answer.  Live state, never cached —
/// the whole point is watching shard progress move.  The dist protocol
/// reuses liplib.rpc/1 frames, so serve does not depend on the dist
/// library.
Computed compute_dist_status(const Request& req) {
  const Json status = Json::parse(
      call(static_cast<std::uint16_t>(req.port),
           Json::object()
               .set("rpc", "liplib.dist/1")
               .set("msg", "status")
               .dump()));
  Json result = Json::object()
                    .set("schema", "liplib.serve.dist_status/1")
                    .set("port", req.port)
                    .set("coordinator", status);
  return {result.dump(), false};
}

// ---- cache keys ---------------------------------------------------------

/// Content-addressed key of a cacheable request: its canonical document
/// without the envelope (id, trace), the netlist replaced by the
/// design's content hash (16 hex digits) and the budgets by their
/// effective values, so every knob the kind takes keys the entry and
/// nothing else does.
std::string cache_key(const Request& req, const std::string* content_hash,
                      const ServerOptions& opts) {
  Request keyed = req;  // a whole copy, so a new knob cannot miss the key
  keyed.id = Json();
  keyed.trace = {};
  if (content_hash) keyed.netlist = *content_hash;
  keyed.budget = effective_budget(req, opts);
  keyed.cycles = effective_cycles(req, opts);
  return to_json(keyed).dump();
}

/// The trace scrape's response: the newest recorded spans, in record
/// order, whose whole response frame fits `max_frame_bytes`, rendered in
/// spans_to_json's canonical order.  Serve records a parent after its
/// children (lookup and execute before the root, campaign chunks before
/// execute), so a record-order suffix never orphans a child.  A document
/// that leaves spans out counts them in "omitted"; one that keeps every
/// span is the plain spans_to_json document.
std::string trace_response(const Json& id, const ServeContext& ctx) {
  std::vector<trace::Span> spans = ctx.recorder.snapshot();
  const auto frame = [&id](std::vector<trace::Span> kept,
                           std::size_t omitted) {
    Json doc = trace::spans_to_json(std::move(kept));
    if (omitted > 0) doc.set("omitted", static_cast<std::uint64_t>(omitted));
    return success_envelope(id, RequestKind::kTrace, /*cached=*/false,
                            doc.dump());
  };
  // The frame without spans, and the `,"omitted":` member without its
  // digits; each kept span adds its document and, after the first, a
  // comma.
  const std::size_t empty = frame({}, 0).size();
  const std::size_t member = frame({}, 1).size() - empty - 1;
  std::size_t kept = 0;
  std::size_t span_bytes = 0;
  for (; kept < spans.size(); ++kept) {
    const std::size_t add =
        trace::span_to_json(spans[spans.size() - 1 - kept]).dump().size() +
        (kept > 0 ? 1 : 0);
    const std::size_t omitted = spans.size() - kept - 1;
    const std::size_t need =
        empty + span_bytes + add +
        (omitted > 0 ? member + std::to_string(omitted).size() : 0);
    if (need > ctx.opts.limits.max_frame_bytes) break;
    span_bytes += add;
  }
  const std::size_t omitted = spans.size() - kept;
  spans.erase(spans.begin(),
              spans.begin() + static_cast<std::ptrdiff_t>(omitted));
  return frame(std::move(spans), omitted);
}

}  // namespace

// ---- screen -------------------------------------------------------------

Json screen_one(const xir::ProgramRef& prog, bool worst_case,
                std::uint64_t budget, std::uint64_t threshold,
                lip::SteadyState* v) {
  *v = xir::screen_for_deadlock(prog, worst_case, budget);
  telemetry::WatchdogOptions wopts;
  wopts.no_progress_threshold = threshold;
  wopts.worst_case_occupancy = worst_case;
  if (const auto pm = telemetry::deadlock_evidence(prog, *v, wopts)) {
    return Json::object()
        .set("deadlock", true)
        .set("reason", telemetry::trip_reason_str(pm->reason))
        .set("no_progress_since", pm->no_progress_since)
        .set("trip_cycle", pm->trip_cycle)
        .set("cycles", pm->trip_cycle + 1)
        .set("post_mortem", pm->to_json());
  }
  Json j = Json::object()
               .set("deadlock", v->deadlock_found())
               .set("found", v->found);
  if (v->found) {
    j.set("transient", v->transient)
        .set("period", v->period)
        .set("throughput", v->system_throughput());
  }
  if (v->deadlock_found()) {
    Json starved = Json::array();
    for (graph::NodeId n : v->starved_shells()) {
      starved.push(prog->topo.node(n).name);
    }
    j.set("starved", std::move(starved));
  }
  return j;
}

Json compute_screen(const graph::Topology& topo, const Request& req,
                    const ServerOptions& opts) {
  const std::uint64_t budget = effective_budget(req, opts);
  // Both passes, and the evidence re-run of either, run one lowered
  // program.
  const xir::ProgramRef prog = xir::lower(topo, {req.policy});
  lip::SteadyState reset, worst;
  Json from_reset = screen_one(prog, /*worst_case=*/false, budget,
                               opts.watchdog_threshold, &reset);
  Json worst_case = screen_one(prog, /*worst_case=*/true, budget,
                               opts.watchdog_threshold, &worst);
  Json result = Json::object();
  result.set("schema", "liplib.serve.screen/2")
      .set("topology_hash", hex64(topology_hash(topo)))
      .set("policy", lip::policy_name(req.policy))
      .set("budget", budget)
      .set("verdict", skeleton::screening_verdict_name(reset, worst))
      .set("from_reset", std::move(from_reset))
      .set("worst_case", std::move(worst_case));
  return result;
}

// ---- profile ------------------------------------------------------------

Json compute_profile(const graph::AnnotatedNetlist& net, const Request& req,
                     const ServerOptions& opts, probe::TraceSink* trace) {
  // Full-data probe-instrumented run, counted in whole periods once the
  // design settles; annotations select pearls and environments,
  // unannotated nodes get the documented defaults.
  const lip::Design design = pearls::build_design(net);
  auto sys = design.instantiate();
  telemetry::WatchdogOptions wopts;
  wopts.no_progress_threshold = opts.watchdog_threshold;
  telemetry::Watchdog dog(wopts, trace);
  dog.attach(*sys);
  const std::uint64_t cycles = effective_cycles(req, opts);
  const auto run = telemetry::run_profiled(*sys, dog, cycles);

  Json result = Json::object()
                    .set("schema", "liplib.serve.profile/1")
                    .set("topology_hash", hex64(topology_hash(net.topo)))
                    .set("verdict", dog.tripped() ? "deadlock" : "live")
                    .set("cycles", run.cycles);
  if (dog.tripped()) {
    result.set("reason", telemetry::trip_reason_str(dog.reason()))
        .set("no_progress_since", dog.no_progress_since())
        .set("trip_cycle", dog.trip_cycle())
        .set("post_mortem", dog.post_mortem().to_json());
  }
  result.set("report", dog.probe().report().to_json());
  return result;
}

std::string handle_payload(std::string_view payload, ServeContext& ctx) {
  const std::uint64_t t0 = ctx.recorder.now_us();
  // Stage 1: decode.  Failures here are protocol errors; the id is
  // echoed when the document got far enough to carry one.
  Json doc;
  Json id;
  Request req;
  try {
    Json::ParseLimits limits;
    limits.max_bytes = ctx.opts.limits.max_frame_bytes;
    doc = Json::parse(payload, limits);
    if (doc.is_object()) {
      if (const Json* f = doc.find("id")) id = *f;
    }
    req = parse_request(doc);
  } catch (const std::exception& e) {
    std::lock_guard<std::mutex> lock(ctx.mu);
    ctx.protocol_errors.add();
    return error_envelope(id, e.what());
  }

  {
    std::lock_guard<std::mutex> lock(ctx.mu);
    ctx.requests_total.add();
    ctx.requests_by_kind[static_cast<int>(req.kind)].add();
    ctx.inflight.add(1);
  }

  // Tracing identity: the trace id comes from the caller's context when
  // present, else from the request's own content hash; the root span id
  // mixes in the per-process sequence so repeated identical requests
  // stay distinct spans of the same trace.  The trace scrape itself is
  // not instrumented (a scrape must not grow what it reports).
  const bool tracing = req.kind != RequestKind::kTrace;
  const std::uint64_t trace_id =
      req.trace.enabled() ? req.trace.trace_id
                          : trace::derive_trace_id(fnv1a64(payload));
  const std::uint64_t root_id = trace::derive_span_id(
      trace_id, req.trace.parent_span, ctx.recorder.next_seq());
  trace::Span root;
  root.trace_id = trace_id;
  root.span_id = root_id;
  root.parent_span = req.trace.parent_span;
  root.name = std::string("serve.") + request_kind_name(req.kind);
  root.category = "serve";
  root.track = "serve";
  root.ts_us = t0;

  /// Closes the request: counters, the latency sample (kept equal to
  /// the per-kind request counters whenever the daemon is idle) and the
  /// root span.  `observe_latency` is false only for the metrics kind,
  /// which records its sample *before* exposition instead.
  auto finish = [&](bool deadlock, bool error, const char* cache_label,
                    bool observe_latency = true) {
    {
      std::lock_guard<std::mutex> lock(ctx.mu);
      ctx.inflight.add(-1);
      if (deadlock) ctx.deadlock_verdicts.add();
      if (error) ctx.request_errors.add();
    }
    const std::uint64_t t1 = ctx.recorder.now_us();
    if (observe_latency) {
      ctx.registry.observe(
          "liplib_serve_request_latency_us",
          {{"kind", request_kind_name(req.kind)}, {"cache", cache_label}},
          t1 - t0);
    }
    if (tracing) {
      root.dur_us = t1 - t0;
      root.attrs.emplace_back("cache", cache_label);
      if (error) root.attrs.emplace_back("error", "1");
      ctx.recorder.record(root);
    }
  };

  // Stage 2: dispatch.  status/shutdown/metrics/trace answer live state
  // and are never cached; everything else flows through the
  // content-addressed cache.
  try {
    if (req.kind == RequestKind::kStatus) {
      const std::string result = ctx.status_json().dump();
      finish(false, false, "none");
      return success_envelope(req.id, req.kind, /*cached=*/false, result);
    }
    if (req.kind == RequestKind::kMetrics) {
      // Occupancy mirrors and this request's own latency sample land
      // before exposition, so an idle daemon's scrape is always
      // self-consistent with its status counters.
      const CacheStats cs = ctx.cache.stats();
      ctx.registry.gauge_set("liplib_serve_cache_bytes", {},
                             static_cast<std::int64_t>(cs.bytes));
      ctx.registry.gauge_set("liplib_serve_cache_entries", {},
                             static_cast<std::int64_t>(cs.entries));
      ctx.registry.counter_add(
          "liplib_serve_cache_evictions_total", {},
          cs.evictions - ctx.registry.counter_value(
                             "liplib_serve_cache_evictions_total", {}));
      ctx.registry.observe("liplib_serve_request_latency_us",
                           {{"kind", request_kind_name(req.kind)},
                            {"cache", "none"}},
                           ctx.recorder.now_us() - t0);
      const std::string result =
          Json::object()
              .set("schema", "liplib.serve.metrics/1")
              .set("content_type", "text/plain; version=0.0.4")
              .set("text", ctx.registry.expose_text())
              .dump();
      finish(false, false, "none", /*observe_latency=*/false);
      return success_envelope(req.id, req.kind, /*cached=*/false, result);
    }
    if (req.kind == RequestKind::kTrace) {
      std::string response = trace_response(req.id, ctx);
      finish(false, false, "none");
      return response;
    }
    if (req.kind == RequestKind::kDistStatus) {
      Computed relayed = compute_dist_status(req);
      finish(false, false, "none");
      return success_envelope(req.id, req.kind, /*cached=*/false,
                              relayed.result);
    }
    if (req.kind == RequestKind::kShutdown) {
      ctx.draining.store(true);
      const std::string result = Json::object()
                                     .set("schema", "liplib.serve.shutdown/1")
                                     .set("draining", true)
                                     .dump();
      finish(false, false, "none");
      return success_envelope(req.id, req.kind, /*cached=*/false, result);
    }

    // The content hash of a text the cache has answered before comes
    // from the design memo; any other text is parsed to find it.  The
    // memo compares whole texts, so it never trusts a hash alone.
    ParsedDesign design;
    const bool needs_design = takes_netlist(req.kind);
    std::optional<std::string> memo;
    std::string content_hash;
    if (needs_design) {
      memo = ctx.designs.lookup(req.netlist);
      if (!memo) design = parse_design_text(req.netlist);
      content_hash = memo ? *memo : hex64(design.content_hash);
    }

    const std::string key =
        cache_key(req, needs_design ? &content_hash : nullptr, ctx.opts);

    const std::uint64_t lookup_ts = ctx.recorder.now_us();
    auto hit = ctx.cache.lookup(key);
    if (tracing) {
      const std::uint64_t lookup_end = ctx.recorder.now_us();
      trace::Span lk;
      lk.trace_id = trace_id;
      lk.span_id = trace::derive_span_id(trace_id, root_id, 1);
      lk.parent_span = root_id;
      lk.name = "serve.cache_lookup";
      lk.category = "serve";
      lk.track = "serve";
      lk.ts_us = lookup_ts;
      lk.dur_us = lookup_end - lookup_ts;
      ctx.recorder.record(std::move(lk));
      root.events.push_back({hit ? "cache.hit" : "cache.miss", lookup_end});
    }
    if (hit) {
      // Admission on the first cache hit: fresh-design traffic, which
      // never hits, stores nothing.
      if (needs_design && !memo) ctx.designs.insert(req.netlist, content_hash);
      finish(false, false, "hit");
      return success_envelope(req.id, req.kind, /*cached=*/true, *hit);
    }
    // An evicted or expired result is computed again, from the text.
    if (needs_design && memo) design = parse_design_text(req.netlist);

    const std::uint64_t exec_ts = ctx.recorder.now_us();
    const std::uint64_t exec_id = trace::derive_span_id(trace_id, root_id, 2);
    Computed computed;
    switch (req.kind) {
      case RequestKind::kLint: computed = compute_lint(design); break;
      case RequestKind::kScreen:
        computed =
            with_verdict(compute_screen(design.net.topo, req, ctx.opts));
        break;
      case RequestKind::kProfile:
        computed = with_verdict(compute_profile(design.net, req, ctx.opts));
        break;
      case RequestKind::kProve:
        computed = compute_prove(design, req, ctx.opts);
        break;
      default:
        computed = compute_campaign(req, ctx.opts,
                                    tracing ? &ctx.recorder : nullptr,
                                    trace::TraceContext{trace_id, exec_id});
        break;
    }
    if (tracing) {
      trace::Span ex;
      ex.trace_id = trace_id;
      ex.span_id = exec_id;
      ex.parent_span = root_id;
      ex.name = "serve.execute";
      ex.category = "serve";
      ex.track = "serve";
      ex.ts_us = exec_ts;
      ex.dur_us = ctx.recorder.now_us() - exec_ts;
      ctx.recorder.record(std::move(ex));
    }
    const std::size_t evicted = ctx.cache.insert(key, computed.result);
    if (tracing && evicted > 0) {
      root.events.push_back({"cache.evict", ctx.recorder.now_us()});
      root.attrs.emplace_back("evicted", std::to_string(evicted));
    }
    finish(computed.deadlock, false, "miss");
    return success_envelope(req.id, req.kind, /*cached=*/false,
                            computed.result);
  } catch (const std::exception& e) {
    finish(false, true, "none");
    return error_envelope(req.id, e.what());
  }
}

}  // namespace liplib::serve
