// liplib/serve/server.hpp
//
// liplib::serve — the multi-tenant lint/screen/profile daemon, and the
// loopback Listener it shares with the dist coordinator.
//
// A Server binds a loopback TCP socket and serves liplib.rpc/1 requests
// (protocol.hpp) from concurrent clients: static lint, steady-state
// deadlock screening, probe-instrumented profiling, and whole campaign
// batches executed on the campaign engine's shared work list.
// Every cacheable result flows through the content-addressed
// ResultCache (cache.hpp), so a fleet that keeps re-screening the same
// designs is served from memory, byte-for-byte identical to a fresh
// run.
//
// Concurrency model: the Listener's one thread per connection (at most
// Listener::kMaxConnections = 64; excess connects queue in the kernel
// backlog).  Finished connection threads are joined before the next one
// starts, so however many clients a daemon has served it holds at most
// that many connection threads.  Single-design requests run on their
// connection's thread — tenant concurrency is connection concurrency —
// while `campaign` requests fan out on a campaign::Engine sized by
// `threads`.  A deadlocked or livelocked design cannot wedge a worker:
// screening stops at the first repeated state within its budget and
// profiling runs under the telemetry watchdog, and both answer a
// DEADLOCK verdict with the post-mortem bundle when the design froze.
//
// Shutdown is graceful: a `shutdown` request (or Server::shutdown())
// stops the accept loop, lets every in-flight request finish and
// answer, then closes the connections.  `status` reports cache and
// request counters (support/metrics.hpp) for scraping.
//
// The request handler (handle_payload) is pure protocol — it maps a
// request payload plus a ServeContext to a response payload — so the
// full dispatch/cache layer is unit-testable without sockets.  lidtool
// runs its screen and profile computations below in-process.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

#include "liplib/graph/netlist_io.hpp"
#include "liplib/probe/trace.hpp"
#include "liplib/serve/cache.hpp"
#include "liplib/serve/protocol.hpp"
#include "liplib/support/json.hpp"
#include "liplib/support/metrics.hpp"
#include "liplib/xir/xir.hpp"

namespace liplib::serve {

/// Daemon configuration.
struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 = ephemeral (read the bound port back
  /// with Server::port()).
  std::uint16_t port = 0;
  /// Worker threads for `campaign` requests (campaign::EngineOptions::
  /// threads); 0 = hardware concurrency.
  unsigned threads = 0;
  CacheOptions cache;
  FrameLimits limits;
  /// Cycle budget ceiling of screen's steady-state search and of
  /// campaigns (and the cap for profile cycle counts); requests may ask
  /// for less, never for more.
  std::uint64_t max_budget = 1u << 20;
  std::uint64_t default_budget = kDefaultCycleBudget;
  std::uint64_t default_profile_cycles = 10000;
  /// Watchdog no-progress threshold (telemetry::WatchdogOptions).
  std::uint64_t watchdog_threshold = 64;
};

/// Shared state of one daemon instance: options, the result cache, the
/// status counters, the span recorder and the scrapeable metrics
/// registry.  Owned by Server in production; constructed standalone in
/// tests that exercise handle_payload directly.
struct ServeContext {
  /// `now_ms` is the cache TTL clock, `now_us` the span/latency clock;
  /// both default to the process steady clock and are injectable so
  /// trace output is byte-stable in tests.
  explicit ServeContext(ServerOptions options = {},
                        std::function<std::uint64_t()> now_ms = {},
                        std::function<std::uint64_t()> now_us = {});

  ServerOptions opts;
  ResultCache cache;
  /// The design memo: netlist text -> the 16-hex-digit content hash its
  /// cache key embeds, so a repeat request keys the cache without
  /// parsing.  A text is admitted only once the cache has answered it;
  /// entries never expire (the hash is a pure function of the text) and
  /// share a byte budget of `cache.capacity_bytes / 16`.
  ResultCache designs;

  std::mutex mu;  ///< guards the counters below
  metrics::Counter requests_total;
  /// Indexed by RequestKind.
  metrics::Counter requests_by_kind[kRequestKindCount];
  metrics::Counter protocol_errors;      ///< malformed frames / requests
  metrics::Counter request_errors;       ///< well-formed requests that failed
  metrics::Counter deadlock_verdicts;    ///< computed deadlock answers
  metrics::Gauge inflight;               ///< requests being computed now

  /// Request-lifecycle spans (serve.<kind> roots with cache-lookup /
  /// execute children); scraped via the `trace` request kind.
  trace::Recorder recorder;
  /// The scrapeable registry (`metrics` request kind):
  /// liplib_serve_request_latency_us{kind,cache} histograms plus
  /// cache occupancy gauges.  Self-synchronized; not guarded by `mu`.
  metrics::MetricsRegistry registry;

  std::atomic<bool> draining{false};  ///< set by a shutdown request

  /// Counter snapshot for the status document (schema
  /// "liplib.serve.status/3"); includes the cache counters, the design
  /// memo's (`design_memo`), plus the top-level `evictions` counter and
  /// `cache_bytes` gauge.
  Json status_json();
};

/// Maps one request payload to one response payload: parse + validate,
/// consult the cache, compute on miss, insert, wrap in the envelope.
/// Never throws — every failure becomes an {"ok": false} envelope.
/// This is the whole daemon except the sockets.
std::string handle_payload(std::string_view payload, ServeContext& ctx);

/// One screening pass from reset or worst-case occupancy: the
/// steady-state search within `budget` cycles (into `*v`), then, on a
/// deadlock verdict, the watchdog re-run (threshold `threshold`) for the
/// trip and post-mortem when the whole design froze, else starved shells.
Json screen_one(const xir::ProgramRef& prog, bool worst_case,
                std::uint64_t budget, std::uint64_t threshold,
                lip::SteadyState* v);

/// The screen request's result ("liplib.serve.screen/2"): both passes
/// on one lowered program, under the request's policy and budget.
Json compute_screen(const graph::Topology& topo, const Request& req,
                    const ServerOptions& opts);

/// The profile request's result ("liplib.serve.profile/1"): the
/// full-data design under the watchdog, counted in whole periods
/// (telemetry::run_profiled).  A `trace` sink streams the run's Chrome
/// trace, and the run then steps every cycle.
Json compute_profile(const graph::AnnotatedNetlist& net, const Request& req,
                     const ServerOptions& opts,
                     probe::TraceSink* trace = nullptr);

/// The loopback TCP listener of both daemons (Server, dist::Coordinator):
/// one thread per connection, at most kMaxConnections at once, each
/// running one frame loop — read a frame under `limits`, hand its
/// payload to the handler, write the reply.  A framing violation or I/O
/// error gets an rpc/1 error frame and a hang-up.  Finished connection
/// threads are joined before the next connection starts.  The
/// destructor drains and joins, so declare a Listener after the state
/// its handler touches.
class Listener {
 public:
  /// The answer to one request frame; `drain` drains the listener once
  /// the payload is on the wire.
  struct Reply {
    std::string payload;
    bool drain = false;
  };
  using Handler = std::function<Reply(const std::string& payload)>;

  /// Concurrent connections served; further connects wait in the
  /// kernel's listen backlog.
  static constexpr unsigned kMaxConnections = 64;

  /// `on_violation` runs once for every connection dropped for a framing
  /// violation or I/O error, after its error frame.
  explicit Listener(Handler handler, FrameLimits limits = {},
                    std::function<void()> on_violation = {});
  ~Listener();

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds 127.0.0.1:<port> (0 = ephemeral) and starts accepting.
  /// Throws ApiError when the port cannot be bound.
  void start(std::uint16_t port);

  /// The bound port (valid after start()).
  std::uint16_t port() const { return port_; }

  /// Stops accepting and shuts the read side of every open connection
  /// (idempotent): idle readers see EOF and hang up, while a request
  /// being computed still answers on the open write side.
  void drain();

  /// Blocks until the listener has drained: the accept loop has stopped
  /// and every connection is closed.
  void join();

 private:
  struct Connection {
    int fd = -1;  ///< -1 once the connection is closed
    std::thread thread;
  };

  void accept_loop();
  void serve(Connection& conn);

  Handler handler_;
  FrameLimits limits_;
  std::function<void()> on_violation_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread accept_thread_;

  std::mutex mu_;  ///< guards the members below
  std::condition_variable slot_freed_;
  /// Open connections, plus closed ones whose threads are not joined yet.
  std::list<Connection> connections_;
  unsigned open_ = 0;
  /// Set under mu_ by drain(); read without it by the frame loops.
  std::atomic<bool> stopping_{false};
};

/// The TCP daemon: a ServeContext plus a Listener whose handler is
/// handle_payload.  start() binds and spawns the accept loop; wait()
/// blocks until a shutdown request (or shutdown()) has drained the
/// in-flight work and every connection is closed.
class Server {
 public:
  explicit Server(ServerOptions opts = {});

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds 127.0.0.1:<port> and starts accepting.  Throws ApiError when
  /// the port cannot be bound.
  void start() { listener_.start(ctx_.opts.port); }

  /// The bound port (valid after start(); resolves port 0 requests).
  std::uint16_t port() const { return listener_.port(); }

  /// Blocks until the daemon has fully drained after a shutdown.
  void wait() { listener_.join(); }

  /// Programmatic graceful shutdown (idempotent): equivalent to
  /// receiving a `shutdown` request.
  void shutdown() {
    ctx_.draining.store(true);
    listener_.drain();
  }

  ServeContext& context() { return ctx_; }

 private:
  ServeContext ctx_;
  Listener listener_;  ///< after ctx_: drained and joined before it goes
};

}  // namespace liplib::serve
