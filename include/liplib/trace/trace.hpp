// liplib/trace/trace.hpp
//
// liplib::trace — end-to-end distributed tracing of the production ring.
//
// The probe (liplib/probe) gives one simulation exact cycle-level
// observability; this module gives the *fleet* the same property: spans
// with causal parent/child links that cross process boundaries, so a
// sharded campaign's lease → execute → merge timeline, or a serve
// tenant's cache-lookup → compute path, is one picture instead of four
// log files.
//
// Design constraints, in order:
//
//  - Determinism.  Ids are never random: a trace id derives from the
//    request's content hash (derive_trace_id), a span id from the trace
//    id plus two caller-chosen salts (derive_span_id) — typically a
//    parent span id and a per-process monotonic sequence number, or a
//    job index for spans whose identity is positional (campaign
//    chunks).  With an injected clock the full span document is
//    byte-stable across thread counts, which is what
//    tests/trace_test.cpp locks.
//  - Wire neutrality.  A TraceContext is two ids.  It rides as an
//    optional "trace" envelope member of liplib.rpc/1 requests and
//    liplib.dist/1 lease/result messages; a peer that does not know the
//    field ignores it.
//  - One timeline.  Span documents ("liplib.trace/1") merge and export
//    into the same Chrome trace-event / Perfetto JSON the probe emits
//    (probe::TraceSink), so `lidtool trace` folds kernel-level and
//    fleet-level views into a single viewer file.
//
// The clock is injectable (like the ResultCache TTL clock) so tests
// freeze time; production uses the steady clock in microseconds.

#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "liplib/support/json.hpp"

namespace liplib::probe {
class TraceSink;  // probe/trace.hpp — the Chrome trace-event sink
}

namespace liplib::trace {

/// Schema tag of a span document.
inline constexpr const char* kTraceSchema = "liplib.trace/1";

/// Derives a non-zero trace id from a request content hash.  Pure and
/// platform-stable (FNV-1a over the hash bytes), so the same request
/// always opens the same trace — the byte-stability anchor.
std::uint64_t derive_trace_id(std::uint64_t content_hash);

/// Derives a non-zero span id from the trace id and two salts.  Callers
/// pick salts that make the id unique *and* deterministic: (parent span
/// id, per-process sequence) for request-shaped spans, (parent span id,
/// job index) for positional spans like campaign chunks.
std::uint64_t derive_span_id(std::uint64_t trace_id, std::uint64_t salt_a,
                             std::uint64_t salt_b);

/// The causality capsule that crosses a process boundary: which trace
/// the work belongs to and which span caused it.  Zero trace_id means
/// "no tracing requested".
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;

  bool enabled() const { return trace_id != 0; }
  bool operator==(const TraceContext&) const = default;

  /// {"trace_id": "<hex16>", "parent_span": "<hex16>"}.
  Json to_json() const;

  /// Strict inverse of to_json (throws ApiError on malformed hex or a
  /// zero trace_id).
  static TraceContext from_json(const Json& doc);

  /// Reads the optional "trace" member of a message envelope; a missing
  /// or null member yields a disabled (all-zero) context.
  static TraceContext from_envelope(const Json& envelope);
};

/// A point event inside a span (cache hit/miss, eviction, re-dispatch,
/// duplicate drop, ...).
struct SpanEvent {
  std::string name;
  std::uint64_t ts_us = 0;
};

/// One completed span.  `track` is the display rail the span renders on
/// ("serve", "coordinator", "worker", "campaign", ...) — it becomes a
/// Perfetto process on export.  Attrs are free-form string pairs.
struct Span {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span = 0;  ///< 0 = root
  std::string name;
  std::string category;
  std::string track;
  std::uint64_t ts_us = 0;
  std::uint64_t dur_us = 0;
  std::vector<SpanEvent> events;
  std::vector<std::pair<std::string, std::string>> attrs;
};

/// Thread-safe span accumulator with an injectable microsecond clock
/// and the per-process monotonic sequence the deterministic span ids
/// are built from.
class Recorder {
 public:
  /// `now_us` supplies span timestamps; the default is the process
  /// steady clock.  Tests inject a frozen clock for byte-stable output.
  explicit Recorder(std::function<std::uint64_t()> now_us = {});

  std::uint64_t now_us() const { return now_us_(); }

  /// Next value of the per-process monotonic sequence (starts at 0).
  std::uint64_t next_seq() { return seq_.fetch_add(1); }

  void record(Span span);

  /// Number of spans recorded so far.
  std::size_t size() const;

  /// Copy of every span recorded so far, in record order.
  std::vector<Span> snapshot() const;

  /// snapshot() rendered as a "liplib.trace/1" document (spans in the
  /// canonical sort of spans_to_json).
  Json to_json() const;

  /// Drops every recorded span (the sequence keeps counting).
  void clear();

 private:
  std::function<std::uint64_t()> now_us_;
  std::atomic<std::uint64_t> seq_{0};
  mutable std::mutex mu_;
  /// A deque, not a vector: growing never holds an old and a new copy
  /// of every span at once.
  std::deque<Span> spans_;
};

/// One span as an element of a "liplib.trace/1" document's `spans`
/// array.
Json span_to_json(const Span& span);

/// Renders spans as a "liplib.trace/1" document.  Spans are sorted by
/// (trace_id, ts_us, span_id) — a canonical order independent of which
/// thread recorded what first, so two recorders that saw the same spans
/// serialize byte-identically.
Json spans_to_json(std::vector<Span> spans);

/// Strict inverse of spans_to_json; throws ApiError on a malformed or
/// mis-tagged document.
std::vector<Span> spans_from_json(const Json& doc);

/// Concatenates the spans of several documents (each "liplib.trace/1")
/// into one canonical document — the `lidtool trace` merge primitive.
Json merge_trace_docs(const std::vector<Json>& docs);

/// Referential integrity: every span's parent_span is either 0 or the
/// span_id of some span *in the same trace*, and span ids are unique
/// within a trace.  Returns true when the forest is sound; otherwise
/// fills `error` (when non-null) with the first violation.
bool check_integrity(const std::vector<Span>& spans, std::string* error);

/// Exports spans into an open Chrome trace-event sink (the same format
/// the probe emits, so kernel and fleet views merge into one file).
/// Each distinct track label becomes one Perfetto process, pids
/// assigned by sorted track order starting at `pid_base`; span events
/// render as instant events on the span's rail.  The caller finishes
/// the sink.
void export_perfetto(const std::vector<Span>& spans, probe::TraceSink& sink,
                     std::uint64_t pid_base = 1000);

}  // namespace liplib::trace
