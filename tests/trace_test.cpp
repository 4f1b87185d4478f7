// liplib::trace — end-to-end distributed tracing of the fleet.
//
// The acceptance spine: span ids are deterministic functions of content
// hashes and causal salts (never random), so with frozen clocks the
// serve daemon's trace scrape is BYTE-IDENTICAL across 1/2/8 engine
// threads and a coordinator's campaign timeline is byte-stable across
// repeated runs at 1/2/4 shards; a caller's trace context propagates
// through the liplib.rpc/1 envelope so serve-side spans join the
// caller's trace; a killed worker's re-dispatch appears as an explicit
// root-span event; every merged timeline passes referential integrity;
// a trace scrape beyond the frame limit keeps the newest spans that fit
// and still passes it; and the metrics scrape's request-latency
// histogram counts equal the status document's request counters.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "liplib/campaign/jobs.hpp"
#include "liplib/dist/coordinator.hpp"
#include "liplib/dist/worker.hpp"
#include "liplib/probe/trace.hpp"
#include "liplib/serve/cache.hpp"
#include "liplib/serve/server.hpp"
#include "liplib/support/check.hpp"
#include "liplib/support/json.hpp"
#include "liplib/trace/trace.hpp"

namespace {

using namespace liplib;

const char* kFig1 = R"(source src
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

std::string request_json(const char* kind, const char* netlist,
                         const char* extra = "") {
  Json r = Json::object().set("rpc", serve::kRpcSchema).set("kind", kind);
  if (netlist) r.set("netlist", netlist);
  std::string s = r.dump();
  if (*extra) {
    s.pop_back();
    s += ",";
    s += extra;
    s += "}";
  }
  return s;
}

// ---- identity -----------------------------------------------------------

TEST(TraceIds, DeterministicAndNonZero) {
  EXPECT_NE(trace::derive_trace_id(0), 0u);
  EXPECT_NE(trace::derive_trace_id(42), 0u);
  EXPECT_EQ(trace::derive_trace_id(42), trace::derive_trace_id(42));
  EXPECT_NE(trace::derive_trace_id(42), trace::derive_trace_id(43));

  const std::uint64_t tid = trace::derive_trace_id(42);
  EXPECT_NE(trace::derive_span_id(tid, 0, 0), 0u);
  EXPECT_EQ(trace::derive_span_id(tid, 1, 2), trace::derive_span_id(tid, 1, 2));
  EXPECT_NE(trace::derive_span_id(tid, 1, 2), trace::derive_span_id(tid, 2, 1));
  EXPECT_NE(trace::derive_span_id(tid, 1, 2), trace::derive_span_id(tid, 1, 3));
}

TEST(TraceIds, ContextRoundTripsThroughJson) {
  const trace::TraceContext ctx{trace::derive_trace_id(7),
                                trace::derive_span_id(7, 1, 1)};
  const trace::TraceContext back = trace::TraceContext::from_json(ctx.to_json());
  EXPECT_EQ(back.trace_id, ctx.trace_id);
  EXPECT_EQ(back.parent_span, ctx.parent_span);

  // A message without the optional member is a disabled context, not an
  // error — peers that predate tracing stay compatible.
  const trace::TraceContext none =
      trace::TraceContext::from_envelope(Json::object().set("msg", "lease"));
  EXPECT_FALSE(none.enabled());
  EXPECT_THROW(
      trace::TraceContext::from_json(Json::object().set("trace_id", "xyzzy!")),
      ApiError);
}

// ---- documents ----------------------------------------------------------

trace::Span make_span(std::uint64_t tid, std::uint64_t sid, std::uint64_t parent,
                      const char* name, const char* track, std::uint64_t ts) {
  trace::Span s;
  s.trace_id = tid;
  s.span_id = sid;
  s.parent_span = parent;
  s.name = name;
  s.category = "test";
  s.track = track;
  s.ts_us = ts;
  s.dur_us = 5;
  return s;
}

TEST(TraceDoc, RoundTripsAndSortsCanonically) {
  const std::uint64_t tid = trace::derive_trace_id(9);
  std::vector<trace::Span> spans;
  spans.push_back(make_span(tid, 30, 10, "late", "b", 200));
  spans.push_back(make_span(tid, 10, 0, "root", "a", 100));
  spans.back().events.push_back({"cache.miss", 101});
  spans.back().attrs.emplace_back("kind", "screen");
  spans.push_back(make_span(tid, 20, 10, "early", "b", 150));

  const Json doc = trace::spans_to_json(spans);
  // Recording order must not leak into the document: a permutation
  // serializes byte-identically.
  std::vector<trace::Span> shuffled{spans[2], spans[0], spans[1]};
  EXPECT_EQ(doc.dump(), trace::spans_to_json(shuffled).dump());

  const auto back = trace::spans_from_json(doc);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back[0].name, "root");  // canonical (trace, ts, span) order
  EXPECT_EQ(back[1].name, "early");
  EXPECT_EQ(back[2].name, "late");
  ASSERT_EQ(back[0].events.size(), 1u);
  EXPECT_EQ(back[0].events[0].name, "cache.miss");
  ASSERT_EQ(back[0].attrs.size(), 1u);
  EXPECT_EQ(back[0].attrs[0].second, "screen");
  EXPECT_EQ(trace::spans_to_json(back).dump(), doc.dump());

  EXPECT_THROW(trace::spans_from_json(Json::object().set("schema", "nope")),
               ApiError);
}

TEST(TraceDoc, MergeFoldsDocumentsIntoOneTimeline) {
  const std::uint64_t t1 = trace::derive_trace_id(1);
  const std::uint64_t t2 = trace::derive_trace_id(2);
  const Json a = trace::spans_to_json({make_span(t1, 10, 0, "a", "x", 5)});
  const Json b = trace::spans_to_json({make_span(t2, 10, 0, "b", "y", 3)});
  const auto merged = trace::spans_from_json(trace::merge_trace_docs({a, b}));
  ASSERT_EQ(merged.size(), 2u);
  // Sorted by trace id first: documents interleave deterministically.
  EXPECT_EQ(merged[0].trace_id, std::min(t1, t2));
}

TEST(TraceDoc, IntegrityCatchesOrphansAndDuplicates) {
  const std::uint64_t tid = trace::derive_trace_id(3);
  std::vector<trace::Span> ok{make_span(tid, 10, 0, "r", "x", 1),
                              make_span(tid, 20, 10, "c", "x", 2)};
  std::string err;
  EXPECT_TRUE(trace::check_integrity(ok, &err)) << err;

  // Parent id that names no span in the trace.
  std::vector<trace::Span> orphan{make_span(tid, 10, 99, "r", "x", 1)};
  EXPECT_FALSE(trace::check_integrity(orphan, &err));
  EXPECT_NE(err.find("parent"), std::string::npos);

  // Same span id twice within one trace.
  std::vector<trace::Span> dup{make_span(tid, 10, 0, "r", "x", 1),
                               make_span(tid, 10, 0, "r2", "x", 2)};
  EXPECT_FALSE(trace::check_integrity(dup, &err));

  // A parent in a *different* trace does not satisfy the check: causality
  // never crosses trace ids.
  std::vector<trace::Span> cross{
      make_span(trace::derive_trace_id(4), 10, 0, "r", "x", 1),
      make_span(trace::derive_trace_id(5), 20, 10, "c", "x", 2)};
  EXPECT_FALSE(trace::check_integrity(cross, &err));
}

TEST(TraceDoc, ExportsPerfettoEventsPerTrack) {
  const std::uint64_t tid = trace::derive_trace_id(6);
  std::vector<trace::Span> spans{make_span(tid, 10, 0, "serve.screen", "serve", 1),
                                 make_span(tid, 20, 10, "exec", "worker", 2)};
  spans[0].events.push_back({"cache.miss", 1});
  std::ostringstream os;
  {
    probe::TraceSink sink(os);
    trace::export_perfetto(spans, sink);
    sink.finish();
  }
  const std::string out = os.str();
  // One Perfetto process per track, named; spans as X events; span
  // events as instants.
  EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(out.find("\"serve\""), std::string::npos);
  EXPECT_NE(out.find("\"worker\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(out.find("cache.miss"), std::string::npos);
}

// ---- serve spans --------------------------------------------------------

/// A serve context with frozen clocks and a fixed engine thread count —
/// the determinism harness.
serve::ServeContext frozen_ctx(unsigned threads) {
  serve::ServerOptions opts;
  opts.threads = threads;
  return serve::ServeContext(
      opts, [] { return std::uint64_t{0}; },
      [] { return std::uint64_t{1000000}; });
}

/// Runs the canonical request sequence and returns the raw trace-scrape
/// response payload.
std::string serve_trace_bytes(unsigned threads) {
  serve::ServeContext ctx = frozen_ctx(threads);
  serve::handle_payload(request_json("screen", kFig1), ctx);
  serve::handle_payload(request_json("screen", kFig1), ctx);  // cache hit
  serve::handle_payload(
      request_json("campaign", nullptr, "\"mode\":\"fuzz\",\"jobs\":40"), ctx);
  serve::handle_payload(
      request_json("campaign", nullptr, "\"mode\":\"fuzz\",\"jobs\":200"),
      ctx);
  return serve::handle_payload(request_json("trace", nullptr), ctx);
}

TEST(ServeTrace, ByteIdenticalAcrossEngineThreadCounts) {
  const std::string one = serve_trace_bytes(1);
  EXPECT_EQ(one, serve_trace_bytes(2));
  EXPECT_EQ(one, serve_trace_bytes(8));

  const Json response = Json::parse(one);
  ASSERT_TRUE(response.find("ok")->as_bool());
  const auto spans = trace::spans_from_json(*response.find("result"));
  std::string err;
  EXPECT_TRUE(trace::check_integrity(spans, &err)) << err;

  // Four request roots (the scrape itself is not traced), a
  // cache-lookup child per cacheable request, one execute per miss, and
  // chunk spans under each campaign execute: 40 one-job chunks, then
  // 33 six-job chunks and a ragged two-job one at index 198.
  std::size_t roots = 0, lookups = 0, execs = 0, chunks = 0;
  std::map<std::string, std::size_t> chunks_by_size;
  bool saw_hit_event = false, saw_miss_event = false;
  for (const auto& s : spans) {
    if (s.name.rfind("serve.", 0) == 0 && s.parent_span == 0) roots++;
    if (s.name == "serve.cache_lookup") lookups++;
    if (s.name == "serve.execute") execs++;
    if (s.name == "campaign.chunk") {
      chunks++;
      ASSERT_EQ(s.attrs.size(), 2u);
      chunks_by_size[s.attrs[0].second]++;
      if (s.attrs[0].second == "2") {
        EXPECT_EQ(s.attrs[1].second, "198");
      }
    }
    for (const auto& e : s.events) {
      if (e.name == "cache.hit") saw_hit_event = true;
      if (e.name == "cache.miss") saw_miss_event = true;
    }
  }
  EXPECT_EQ(roots, 4u);
  EXPECT_EQ(lookups, 4u);
  EXPECT_EQ(execs, 3u);  // second screen was a hit
  EXPECT_EQ(chunks, 74u);
  const std::map<std::string, std::size_t> want_sizes{
      {"1", 40}, {"2", 1}, {"6", 33}};
  EXPECT_EQ(chunks_by_size, want_sizes);
  EXPECT_TRUE(saw_hit_event);
  EXPECT_TRUE(saw_miss_event);
}

// The trace scrape answers within the frame limit every client
// enforces: the newest spans, in record order, whose whole response fits,
// rendered in canonical order, with the older ones counted under
// "omitted".  Serve records a parent after its children, so wherever
// the cut falls the kept spans are a sound forest.
TEST(ServeTrace, ScrapeKeepsTheNewestSpansThatFitOneFrame) {
  serve::ServeContext ctx = frozen_ctx(2);
  serve::handle_payload(request_json("screen", kFig1), ctx);
  serve::handle_payload(request_json("screen", kFig1), ctx);  // cache hit
  serve::handle_payload(
      request_json("campaign", nullptr, "\"mode\":\"fuzz\",\"jobs\":40"), ctx);
  serve::handle_payload(request_json("lint", kFig1), ctx);
  serve::handle_payload(request_json("lint", kFig1), ctx);  // cache hit
  const std::vector<trace::Span> all = ctx.recorder.snapshot();
  const std::string scrape = request_json("trace", nullptr);
  const auto envelope = [](const Json& doc) {
    return serve::success_envelope(Json(), serve::RequestKind::kTrace,
                                   /*cached=*/false, doc.dump());
  };

  // Within the limit: the plain span document, no "omitted" member.
  const std::string whole = serve::handle_payload(scrape, ctx);
  EXPECT_EQ(whole, envelope(ctx.recorder.to_json()));

  std::size_t cuts = 0;
  for (std::size_t limit = 512; limit < whole.size(); limit += 256) {
    ctx.opts.limits.max_frame_bytes = limit;
    const std::string response = serve::handle_payload(scrape, ctx);
    ASSERT_LE(response.size(), limit);
    const Json doc = Json::parse(response);
    const Json* result = doc.find("result");
    ASSERT_NE(result, nullptr) << response;
    const auto kept = trace::spans_from_json(*result);
    const Json* omitted = result->find("omitted");
    ASSERT_NE(omitted, nullptr) << limit;
    const std::size_t n = kept.size();
    EXPECT_EQ(omitted->as_uint() + n, ctx.recorder.size()) << limit;
    std::string err;
    EXPECT_TRUE(trace::check_integrity(kept, &err)) << limit << ": " << err;

    // The newest n spans, and one more would not have fit.
    const auto first_kept = all.end() - static_cast<std::ptrdiff_t>(n);
    Json newest = trace::spans_to_json({first_kept, all.end()});
    newest.set("omitted", omitted->as_uint());
    EXPECT_EQ(response, envelope(newest)) << limit;
    Json bigger = trace::spans_to_json({first_kept - 1, all.end()});
    if (omitted->as_uint() > 1) bigger.set("omitted", omitted->as_uint() - 1);
    EXPECT_GT(envelope(bigger).size(), limit);
    ++cuts;
  }
  EXPECT_GT(cuts, 20u);
}

TEST(ServeTrace, CallerContextPropagatesThroughTheEnvelope) {
  serve::ServeContext ctx = frozen_ctx(1);
  const std::uint64_t caller_trace = trace::derive_trace_id(1234);
  const std::uint64_t caller_span = trace::derive_span_id(caller_trace, 0, 0);
  Json req = Json::object()
                 .set("rpc", serve::kRpcSchema)
                 .set("kind", "lint")
                 .set("netlist", kFig1)
                 .set("trace",
                      trace::TraceContext{caller_trace, caller_span}.to_json());
  serve::handle_payload(req.dump(), ctx);

  const auto spans = ctx.recorder.snapshot();
  ASSERT_FALSE(spans.empty());
  for (const auto& s : spans) EXPECT_EQ(s.trace_id, caller_trace);
  // The request root hangs off the caller's span — one forest.
  bool found_root = false;
  for (const auto& s : spans) {
    if (s.name == "serve.lint") {
      EXPECT_EQ(s.parent_span, caller_span);
      found_root = true;
    }
  }
  EXPECT_TRUE(found_root);
}

TEST(ServeTrace, MetricsHistogramCountsEqualStatusCounters) {
  serve::ServeContext ctx = frozen_ctx(1);
  serve::handle_payload(request_json("lint", kFig1), ctx);
  serve::handle_payload(request_json("lint", kFig1), ctx);  // hit
  serve::handle_payload(request_json("screen", kFig1), ctx);
  const Json response =
      Json::parse(serve::handle_payload(request_json("metrics", nullptr), ctx));
  ASSERT_TRUE(response.find("ok")->as_bool());
  const Json* result = response.find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->find("content_type")->as_string(),
            "text/plain; version=0.0.4");
  const std::string text = result->find("text")->as_string();
  EXPECT_NE(text.find("# TYPE liplib_serve_request_latency_us histogram"),
            std::string::npos);
  EXPECT_NE(text.find("liplib_serve_cache_bytes"), std::string::npos);

  // Sum the per-label _count samples; the scrape observed its own
  // latency before exposition, so the total equals requests_total.
  std::uint64_t histogram_total = 0;
  std::istringstream lines(text);
  std::string line;
  const std::string prefix = "liplib_serve_request_latency_us_count{";
  while (std::getline(lines, line)) {
    if (line.rfind(prefix, 0) == 0) {
      histogram_total +=
          std::stoull(line.substr(line.find_last_of(' ') + 1));
    }
  }
  const Json status = ctx.status_json();
  EXPECT_EQ(histogram_total,
            status.find("requests")->find("total")->as_uint());
  EXPECT_EQ(histogram_total, 4u);  // lint, lint, screen, metrics
}

// ---- dist spans ---------------------------------------------------------

campaign::NamedCampaignSpec fuzz_spec(std::size_t jobs) {
  campaign::NamedCampaignSpec spec;
  spec.mode = "fuzz";
  spec.jobs = jobs;
  return spec;
}

/// One full traced campaign: coordinator + a single sequential worker,
/// both on frozen clocks.  Returns the coordinator's span document.
Json traced_campaign(std::size_t shards) {
  dist::CoordinatorOptions copts;
  copts.spec = fuzz_spec(8);
  copts.base_seed = 7;
  copts.cycle_budget = 1u << 14;
  copts.shards = shards;
  copts.trace = true;
  copts.clock_us = [] { return std::uint64_t{5000000}; };
  dist::Coordinator coord(copts);
  coord.start();

  dist::WorkerOptions w;
  w.port = coord.port();
  w.threads = 1;
  w.clock_us = [] { return std::uint64_t{5000001}; };
  const auto stats = dist::run_worker(w);
  EXPECT_EQ(stats.submitted, shards);
  coord.wait();
  return coord.trace_json();
}

TEST(DistTrace, ByteStableTimelineAcrossShardCounts) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{4}}) {
    const std::string first = traced_campaign(shards).dump(2);
    EXPECT_EQ(first, traced_campaign(shards).dump(2))
        << "shards=" << shards;

    const auto spans = trace::spans_from_json(Json::parse(first));
    std::string err;
    EXPECT_TRUE(trace::check_integrity(spans, &err)) << err;

    // Every span of the campaign shares ONE trace id (the acceptance
    // criterion: lease -> execute -> merge is a single timeline).
    ASSERT_FALSE(spans.empty());
    for (const auto& s : spans) EXPECT_EQ(s.trace_id, spans[0].trace_id);

    std::size_t roots = 0, leases = 0, execs = 0, merges = 0, chunks = 0;
    for (const auto& s : spans) {
      if (s.name == "dist.campaign") roots++;
      if (s.name == "dist.lease") leases++;
      if (s.name == "dist.worker.execute") execs++;
      if (s.name == "dist.merge") merges++;
      if (s.name == "campaign.chunk") chunks++;
    }
    EXPECT_EQ(roots, 1u);
    EXPECT_EQ(leases, shards);
    EXPECT_EQ(execs, shards);
    EXPECT_EQ(merges, 1u);
    EXPECT_EQ(chunks, 8u);  // one chunk span per job at this size
  }
}

TEST(DistTrace, RedispatchIsAnExplicitEventAndMetricsSeeIt) {
  dist::CoordinatorOptions copts;
  copts.spec = fuzz_spec(8);
  copts.base_seed = 7;
  copts.cycle_budget = 1u << 14;
  copts.shards = 2;
  copts.lease_ms = 150;  // fast expiry of the dead worker's lease
  copts.wait_ms = 20;
  copts.trace = true;
  dist::Coordinator coord(copts);
  coord.start();

  // A worker that takes one lease and dies holding it.
  dist::WorkerOptions dead;
  dead.port = coord.port();
  dead.threads = 1;
  dead.die_after_lease = 1;
  EXPECT_EQ(dist::run_worker(dead).leases, 1u);

  // An honest worker finishes the campaign, re-dispatch included.
  dist::WorkerOptions w;
  w.port = coord.port();
  w.threads = 1;
  dist::WorkerStats ws;
  std::thread t([&] { ws = dist::run_worker(w); });
  coord.wait();
  t.join();
  EXPECT_EQ(ws.submitted, 2u);

  const Json doc = coord.trace_json();
  EXPECT_NE(doc.dump().find("dist.redispatch"), std::string::npos);
  const auto spans = trace::spans_from_json(doc);
  std::string err;
  EXPECT_TRUE(trace::check_integrity(spans, &err)) << err;

  const std::string metrics = coord.metrics_text();
  EXPECT_NE(metrics.find("liplib_dist_redispatches_total 1"),
            std::string::npos);
  EXPECT_NE(metrics.find("liplib_dist_shards_done 2"), std::string::npos);
  EXPECT_NE(metrics.find("liplib_dist_outstanding_leases 0"),
            std::string::npos);
}

TEST(DistTrace, CoordinatorJoinsAnEnclosingTrace) {
  const std::uint64_t outer_trace = trace::derive_trace_id(77);
  const std::uint64_t outer_span = trace::derive_span_id(outer_trace, 0, 0);
  dist::CoordinatorOptions copts;
  copts.spec = fuzz_spec(4);
  copts.base_seed = 7;
  copts.cycle_budget = 1u << 14;
  copts.shards = 1;
  copts.trace = true;
  copts.clock_us = [] { return std::uint64_t{100}; };
  copts.parent = trace::TraceContext{outer_trace, outer_span};
  dist::Coordinator coord(copts);
  coord.start();
  dist::WorkerOptions w;
  w.port = coord.port();
  w.threads = 1;
  w.clock_us = [] { return std::uint64_t{101}; };
  dist::run_worker(w);
  coord.wait();

  const auto spans = trace::spans_from_json(coord.trace_json());
  ASSERT_FALSE(spans.empty());
  bool root_seen = false;
  for (const auto& s : spans) {
    EXPECT_EQ(s.trace_id, outer_trace);
    if (s.name == "dist.campaign") {
      EXPECT_EQ(s.parent_span, outer_span);
      root_seen = true;
    }
  }
  EXPECT_TRUE(root_seen);
}

}  // namespace
