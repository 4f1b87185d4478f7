// liplib/dist/worker.hpp
//
// The pull-side of a distributed campaign: a worker connects to a
// coordinator (coordinator.hpp), asks for shard leases, rebuilds the
// leased slice of the campaign from the manifest alone — the named
// campaign spec string plus the [lo, hi) range — runs it on the
// campaign engine with index_base = lo, and submits the partial
// aggregate.  The loop exits when the coordinator answers "done", or
// when the coordinator has gone away after the worker made progress
// (the coordinator may exit as soon as the last shard merges; a
// trailing poll hitting a closed port is a normal end of campaign, not
// an error).
//
// Workers are connect-per-message: every lease request, result and
// poll is its own TCP connection, so a worker that dies mid-shard
// holds no server-side resources — only a lease that expires.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

namespace liplib::dist {

/// Worker configuration.
struct WorkerOptions {
  /// Coordinator port on 127.0.0.1.
  std::uint16_t port = 0;
  /// Engine threads per shard; 0 = hardware concurrency.
  unsigned threads = 0;
  /// Test hook simulating a crash: exit the loop immediately after
  /// *taking* the Nth lease, without computing or submitting it — the
  /// deterministic straggler for the re-dispatch tests.  0 = disabled.
  std::size_t die_after_lease = 0;
  /// Span-timestamp clock (microseconds) for traced shards; default =
  /// process steady clock.  Tracing itself is coordinator-driven: the
  /// worker records spans whenever a lease carries a trace context.
  std::function<std::uint64_t()> clock_us;
};

/// What the loop did (for logs and tests).
struct WorkerStats {
  std::size_t leases = 0;     ///< shard leases obtained
  std::size_t submitted = 0;  ///< partials accepted by the coordinator
  std::size_t rejected = 0;   ///< partials dropped as duplicates
  bool coordinator_gone = false;  ///< loop ended on a dead coordinator
};

/// Runs the pull loop until the campaign is done.  Throws ApiError when
/// the coordinator is unreachable before any lease was obtained (a
/// worker pointed at nothing); a connection failure after progress is a
/// clean exit with coordinator_gone set.
WorkerStats run_worker(const WorkerOptions& opts);

}  // namespace liplib::dist
