// liplib/dist/coordinator.hpp
//
// The straggler-aware coordinator of a distributed campaign.
//
// A Coordinator binds a loopback TCP socket and speaks "liplib.dist/1"
// — liplib.rpc/1 framing (4-byte big-endian length + JSON payload,
// serve/protocol.hpp) with its own message vocabulary:
//
//   {"rpc":"liplib.dist/1","msg":"lease"}
//       -> {"msg":"lease","manifest":{...liplib.shard/2...}}
//        | {"msg":"wait","retry_ms":N}     every shard leased, none expired
//        | {"msg":"done"}                  every shard merged
//   {"rpc":"liplib.dist/1","msg":"result","partial":{...},"spans":{...}}
//       -> {"msg":"ack","accepted":true|false}
//   {"rpc":"liplib.dist/1","msg":"status"}
//       -> the liplib.dist.status/1 counter document
//   {"rpc":"liplib.dist/1","msg":"metrics"}
//       -> {"msg":"metrics","content_type":...,"text":<Prometheus text>}
//   {"rpc":"liplib.dist/1","msg":"trace"}
//       -> {"msg":"trace","doc":<liplib.trace/1 span document>}
//
// Tracing (CoordinatorOptions::trace): lease responses carry a "trace"
// envelope member ({trace_id, parent_span = the lease's span id});
// workers execute under that context and attach their span document to
// the result message as "spans".  The coordinator folds accepted span
// documents into its own recorder, records one "dist.lease" span per
// merged shard (grant → accepted result), an explicit root-span event
// for every expired-lease re-dispatch and every duplicate drop, and a
// "dist.merge" span around the shard-order fold — so the scraped trace
// is the whole campaign's lease → execute → merge timeline.
//
// Scheduling is pull-based: workers ask for leases, the coordinator
// hands out pending shards with a deadline.  A shard whose lease
// expires (worker died, or is just slow) goes back in the pool on the
// next lease request — re-dispatch is lazy, no timer thread.  Results
// dedup by shard index, first complete wins: the duplicate from a
// straggler that finished after its re-dispatched twin is acknowledged
// (accepted:false) and dropped, which is safe precisely because both
// copies are byte-identical (the determinism argument in docs/dist.md).
// Partial aggregates are folded with campaign::merge in shard order at
// wait(), so the final aggregate is byte-identical to a single-process
// run of the whole campaign.
//
// Connections are served concurrently by the serve daemon's Listener, so
// a silent peer holds one connection thread, never the coordinator; every
// state transition takes the coordinator's one mutex.

#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "liplib/campaign/jobs.hpp"
#include "liplib/campaign/report.hpp"
#include "liplib/dist/shard.hpp"
#include "liplib/serve/server.hpp"
#include "liplib/support/json.hpp"
#include "liplib/support/metrics.hpp"
#include "liplib/trace/trace.hpp"

namespace liplib::dist {

/// Protocol identifier of coordinator/worker messages.
inline constexpr const char* kDistRpcSchema = "liplib.dist/1";

/// Coordinator configuration.
struct CoordinatorOptions {
  /// TCP port on 127.0.0.1; 0 = ephemeral (read back with port()).
  std::uint16_t port = 0;
  /// The campaign to distribute (netlist-free named family).
  campaign::NamedCampaignSpec spec;
  std::uint64_t base_seed = 1;
  std::uint64_t cycle_budget = 1u << 18;
  /// Shards the campaign is split into (>= 1).
  std::size_t shards = 4;
  /// Lease deadline: a shard not submitted within this window is
  /// eligible for re-dispatch to the next asking worker.
  std::uint64_t lease_ms = 30000;
  /// Retry interval suggested to workers when nothing is leasable.
  std::uint64_t wait_ms = 100;
  /// Enables span recording: lease responses carry a trace context,
  /// worker span documents are folded in, and the `trace` message
  /// answers with the campaign's span document.
  bool trace = false;
  /// Span-timestamp clock in microseconds; default = process steady
  /// clock.  Injectable so trace output is byte-stable in tests.  Lease
  /// deadlines keep their own real-time clock regardless.
  std::function<std::uint64_t()> clock_us;
  /// Optional enclosing trace (e.g. a serve request that launched the
  /// campaign).  When disabled the trace id derives from the campaign
  /// spec string's content hash.
  trace::TraceContext parent;
};

/// Scheduling counters (the `status` answer; never part of the
/// deterministic aggregate).
struct CoordinatorStats {
  std::uint64_t leases_issued = 0;  ///< lease responses carrying a shard
  std::uint64_t redispatches = 0;   ///< leases re-issued after expiry
  std::uint64_t duplicates = 0;     ///< results dropped, first-complete-wins
  std::uint64_t bytes_merged = 0;   ///< partial JSON bytes accepted
  std::size_t shards_total = 0;
  std::size_t shards_done = 0;
};

/// The coordinator daemon.  start() binds and serves; wait() blocks
/// until every shard's partial has arrived and returns the merged
/// aggregate.  The listening socket stays open until destruction so
/// late workers still hear "done" instead of a connection error;
/// destruction drains the listener, so an idle peer cannot hold it.
class Coordinator {
 public:
  explicit Coordinator(CoordinatorOptions opts);

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Binds 127.0.0.1:<port> and starts the accept loop.  Throws
  /// ApiError when the port cannot be bound.
  void start() {
    if (opts_.trace) start_us_ = recorder_.now_us();
    listener_.start(opts_.port);
  }

  /// The bound port (valid after start(); resolves port 0 requests).
  std::uint16_t port() const { return listener_.port(); }

  /// Blocks until all shards are merged; returns the campaign's full
  /// aggregate (byte-identical to a single-process run).
  campaign::Aggregate wait();

  CoordinatorStats stats() const;

  /// The "liplib.dist.status/1" counter document.
  Json status_json() const;

  /// The campaign's "liplib.trace/1" span document: every recorded span
  /// (lease spans, folded worker spans, the merge span) plus the
  /// campaign root span synthesized over [start, now) carrying the
  /// re-dispatch / duplicate events.  Valid whenever tracing is on.
  Json trace_json() const;

  /// Prometheus text exposition of the scheduling registry (outstanding
  /// leases, shards done, expired-lease re-dispatches).
  std::string metrics_text() const;

 private:
  enum class ShardState { kPending, kLeased, kDone };
  struct Slot {
    ShardState state = ShardState::kPending;
    /// steady_clock deadline of the current lease, in ms since an
    /// arbitrary epoch (only compared against now_ms()).
    std::uint64_t deadline_ms = 0;
    campaign::Aggregate aggregate;  ///< valid when kDone
    std::uint64_t lease_span = 0;   ///< span id of the current lease
    std::uint64_t lease_ts_us = 0;  ///< span clock at the current grant
    std::uint64_t attempts = 0;     ///< leases granted for this shard
  };

  std::string handle_message(const std::string& payload);
  Json handle_lease();
  Json handle_result(const Json& doc, std::size_t payload_bytes);
  static std::uint64_t now_ms();

  CoordinatorOptions opts_;
  std::string campaign_spec_;   ///< named_campaign_to_string(opts_.spec)
  std::size_t total_jobs_ = 0;  ///< job-vector length of the campaign

  /// Trace identity (fixed at construction when tracing is on).
  std::uint64_t trace_id_ = 0;
  std::uint64_t root_span_ = 0;
  std::uint64_t start_us_ = 0;  ///< root-span start (set in start())

  mutable std::mutex mu_;
  std::condition_variable done_cv_;
  std::vector<Slot> slots_;
  CoordinatorStats stats_;
  /// Root-span point events (re-dispatches, duplicate drops); guarded
  /// by mu_ like the stats.
  std::vector<trace::SpanEvent> root_events_;

  trace::Recorder recorder_;
  /// Mutable: the metrics scrape (const) mirrors live slot state into
  /// the registry; the registry is self-synchronized.
  mutable metrics::MetricsRegistry registry_;

  /// Last: destroyed first, so its connection threads are drained and
  /// joined while the state handle_message touches is still alive.
  serve::Listener listener_;
};

}  // namespace liplib::dist
