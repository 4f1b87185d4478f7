// liplib/serve/protocol.hpp
//
// The wire protocol of the lidtool daemon: "liplib.rpc/1", a
// length-prefixed JSON request/response stream over a byte pipe (TCP in
// production, a socketpair in tests).
//
// Framing: every message is a 4-byte big-endian payload length followed
// by that many bytes of UTF-8 JSON.  A frame whose declared length
// exceeds the receiver's limit is a protocol violation (the peer is
// told why and the connection is closed); a stream that ends mid-frame
// is reported as truncation, while EOF on a frame boundary is a clean
// close.
//
// Requests: {"rpc": "liplib.rpc/1", "kind": <kind>, ...} with kinds
// lint | screen | profile | campaign | prove | status | shutdown |
// dist-status | metrics | trace.  Responses
// echo the request's optional "id" verbatim and carry either
// "ok": true plus a "result" document or "ok": false plus "error".
// An optional "trace" envelope member ({"trace_id", "parent_span"},
// liplib/trace) joins the request to a caller-side trace; peers that do
// not know the field ignore it.
// The full field catalog lives in docs/serve.md and docs/trace.md.
//
// Everything here is deliberately free of server state so the codec and
// validation layer can be unit-tested without sockets.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "liplib/support/json.hpp"
#include "liplib/trace/trace.hpp"

namespace liplib::serve {

/// Protocol identifier, sent in every request and response.
inline constexpr const char* kRpcSchema = "liplib.rpc/1";

/// Receive-side framing limits.  The frame cap bounds a single request
/// or response; it is also handed to Json::parse as the byte limit so a
/// hostile peer cannot smuggle an oversized document past the framer.
struct FrameLimits {
  std::size_t max_frame_bytes = 16u << 20;  ///< 16 MiB
};

/// Renders a frame (length prefix + payload) into a byte string.
/// Throws ApiError when the payload exceeds the 32-bit length field.
std::string encode_frame(std::string_view payload);

/// Reads one frame from `fd` into `payload`.  Returns false on a clean
/// EOF at a frame boundary; throws ApiError on truncation (EOF inside a
/// frame), on a declared length beyond `limits`, or on an I/O error.
bool read_frame(int fd, std::string& payload, const FrameLimits& limits = {});

/// Writes one frame to `fd` (retrying on short writes / EINTR).  Throws
/// ApiError on I/O failure; never raises SIGPIPE.
void write_frame(int fd, std::string_view payload);

/// Request kinds of liplib.rpc/1.
enum class RequestKind : std::uint8_t {
  kLint,
  kScreen,
  kProfile,
  kCampaign,
  kProve,
  kStatus,
  kShutdown,
  /// Relay of a distributed-campaign coordinator's status document
  /// (liplib/dist): the daemon queries 127.0.0.1:<port> over
  /// liplib.dist/1 and wraps the answer — fleet dashboards scrape one
  /// endpoint for both the cache and the campaign in flight.
  kDistStatus,
  /// Prometheus text exposition of the daemon's MetricsRegistry
  /// (request-latency histograms split by kind and cache outcome).
  kMetrics,
  /// The daemon's accumulated span document ("liplib.trace/1") — the
  /// scrape side of `lidtool trace`.
  kTrace,
};

/// Number of request kinds (sizes the per-kind counter array).
inline constexpr int kRequestKindCount = 10;

/// Stable wire name of a request kind ("lint", "screen", ...).
const char* request_kind_name(RequestKind k);

/// A validated liplib.rpc/1 request.
struct Request {
  RequestKind kind = RequestKind::kStatus;
  Json id;                   ///< echoed verbatim in the response (null ok)
  std::string netlist;       ///< lint / screen / profile: .lid text
  std::string policy = "variant";  ///< screen / profile: variant | strict
  std::uint64_t budget = 0;  ///< screen: watchdog cycle budget; 0 = default
  std::uint64_t cycles = 0;  ///< profile: cycles to simulate; 0 = default
  std::string mode = "fuzz";  ///< campaign: fuzz | lint | probe | prove
  std::uint64_t jobs = 0;    ///< campaign: batch size
  std::uint64_t seed = 1;    ///< campaign: base seed
  /// prove: proof method, auto | reach | bmc | induction
  /// (prove::parse_method).
  std::string method = "auto";
  std::uint64_t depth = 0;   ///< prove: BMC depth bound; 0 = default
  bool worst_case = false;   ///< prove: start from worst-case occupancy
  /// dist-status: loopback port of the dist coordinator to query.
  std::uint64_t port = 0;
  /// Optional caller-side trace context (the "trace" envelope member);
  /// disabled (all-zero) when absent.
  trace::TraceContext trace;
};

/// Validates a parsed request document: schema tag, known kind, known
/// policy/mode, required fields present and in range (campaign batches
/// are capped at 1e6 jobs so one tenant cannot monopolize the pool).
/// Throws ApiError with a message suitable for the error envelope.
Request parse_request(const Json& doc);

/// Builds the non-result response envelope for an error:
/// {"rpc", "id", "ok": false, "error"}.
std::string error_envelope(const Json& id, const std::string& message);

/// Builds a success envelope around an already-serialized result
/// document.  The result bytes are spliced verbatim, which is what makes
/// a cache hit byte-identical to the fresh computation:
/// {"rpc", "id", "kind", "ok": true, "cached", "result"}.
std::string success_envelope(const Json& id, RequestKind kind, bool cached,
                             const std::string& result_bytes);

}  // namespace liplib::serve
