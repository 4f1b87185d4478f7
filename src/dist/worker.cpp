#include "liplib/dist/worker.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "liplib/campaign/campaign.hpp"
#include "liplib/campaign/jobs.hpp"
#include "liplib/dist/coordinator.hpp"
#include "liplib/dist/shard.hpp"
#include "liplib/serve/protocol.hpp"
#include "liplib/support/check.hpp"
#include "liplib/trace/trace.hpp"

namespace liplib::dist {

namespace {

/// Cap on the coordinator-suggested retry sleep.
constexpr std::uint64_t kMaxPollMs = 1000;

/// One request/response round trip on a fresh connection.  Returns
/// false when the coordinator is unreachable, hung up or cut the answer
/// short (the normal end of a campaign once the coordinator exited);
/// throws ApiError only on a protocol violation from a live coordinator.
bool round_trip(std::uint16_t port, const Json& request, Json* response) {
  try {
    *response = Json::parse(serve::call(port, request.dump()));
  } catch (const std::exception&) {
    return false;
  }
  const Json* msg = response->find("msg");
  LIPLIB_EXPECT(response->is_object() && msg && msg->is_string(),
                "coordinator sent a malformed dist message");
  if (msg->as_string() == "error") {
    const Json* err = response->find("error");
    throw ApiError("coordinator rejected the request: " +
                   (err && err->is_string() ? err->as_string()
                                            : std::string("unknown")));
  }
  return true;
}

/// Runs the leased slice and builds the partial document.  When
/// `recorder` is non-null the engine records one span per chunk under
/// `chunk_parent` (the worker's execute span).
Json compute_partial(const ShardManifest& m, unsigned threads,
                     trace::Recorder* recorder,
                     trace::TraceContext chunk_parent) {
  campaign::EngineOptions eopts;
  eopts.threads = threads;
  eopts.recorder = recorder;
  eopts.trace_parent = chunk_parent;
  const Partial p = run_shard(
      campaign::make_named_campaign(named_campaign_from_string(m.campaign)),
      m, eopts);
  return partial_to_json(p.manifest, p.aggregate);
}

}  // namespace

WorkerStats run_worker(const WorkerOptions& opts) {
  WorkerStats stats;
  const Json lease_req = Json::object()
                             .set("rpc", kDistRpcSchema)
                             .set("msg", "lease");
  for (;;) {
    Json response;
    if (!round_trip(opts.port, lease_req, &response)) {
      // Coordinator gone.  After progress that is the normal end of a
      // campaign (the coordinator exits once the last shard merges);
      // before any lease it means the worker was pointed at nothing.
      LIPLIB_EXPECT(stats.leases > 0,
                    "cannot reach a coordinator on 127.0.0.1:" +
                        std::to_string(opts.port));
      stats.coordinator_gone = true;
      return stats;
    }
    const std::string msg = response.find("msg")->as_string();
    if (msg == "done") return stats;
    if (msg == "wait") {
      std::uint64_t retry = 100;
      if (const Json* f = response.find("retry_ms")) {
        if (f->is_number()) retry = f->as_uint();
      }
      retry = std::min(retry, kMaxPollMs);
      std::this_thread::sleep_for(std::chrono::milliseconds(retry));
      continue;
    }
    LIPLIB_EXPECT(msg == "lease",
                  "coordinator sent unexpected message '" + msg + "'");
    const Json* mdoc = response.find("manifest");
    LIPLIB_EXPECT(mdoc, "lease message: missing 'manifest'");
    const ShardManifest manifest = manifest_from_json(*mdoc);
    stats.leases++;
    if (opts.die_after_lease && stats.leases >= opts.die_after_lease) {
      // Simulated crash: walk away holding the lease.  The coordinator
      // re-dispatches the shard once the lease deadline passes.
      return stats;
    }
    // Coordinator-driven tracing: a lease that carries a trace context
    // gets a fresh per-shard recorder — one "dist.worker.execute" span
    // wrapping the engine run (whose chunk spans nest under it) — and
    // the span document travels back with the partial.
    const trace::TraceContext lease_ctx =
        trace::TraceContext::from_envelope(response);
    Json partial;
    Json spans_doc;
    if (lease_ctx.enabled()) {
      trace::Recorder rec(opts.clock_us);
      const std::uint64_t exec_id =
          trace::derive_span_id(lease_ctx.trace_id, lease_ctx.parent_span, 0);
      const std::uint64_t ts = rec.now_us();
      partial = compute_partial(
          manifest, opts.threads, &rec,
          trace::TraceContext{lease_ctx.trace_id, exec_id});
      trace::Span ex;
      ex.trace_id = lease_ctx.trace_id;
      ex.span_id = exec_id;
      ex.parent_span = lease_ctx.parent_span;
      ex.name = "dist.worker.execute";
      ex.category = "dist";
      ex.track = "worker";
      ex.ts_us = ts;
      ex.dur_us = rec.now_us() - ts;
      ex.attrs.emplace_back(
          "shard", std::to_string(manifest.shard.index) + "/" +
                       std::to_string(manifest.shard.count));
      ex.attrs.emplace_back(
          "jobs", std::to_string(manifest.shard.hi - manifest.shard.lo));
      rec.record(std::move(ex));
      spans_doc = rec.to_json();
    } else {
      partial = compute_partial(manifest, opts.threads, nullptr, {});
    }
    Json submit = Json::object()
                      .set("rpc", kDistRpcSchema)
                      .set("msg", "result")
                      .set("partial", std::move(partial));
    if (lease_ctx.enabled()) submit.set("spans", std::move(spans_doc));
    Json ack;
    if (!round_trip(opts.port, submit, &ack)) {
      stats.coordinator_gone = true;
      return stats;
    }
    const Json* accepted = ack.find("accepted");
    if (accepted && accepted->is_bool() && accepted->as_bool()) {
      stats.submitted++;
    } else {
      stats.rejected++;
    }
  }
}

}  // namespace liplib::dist
