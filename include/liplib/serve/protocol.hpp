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
// validation layer can be unit-tested without sockets; call() is the one
// client round trip every loopback caller (lidtool, the dist worker, the
// daemon's dist-status relay) shares.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "liplib/campaign/jobs.hpp"
#include "liplib/lip/token.hpp"
#include "liplib/prove/prove.hpp"
#include "liplib/support/flags.hpp"
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

/// Inverse of request_kind_name; returns false on an unknown name.
bool parse_request_kind(std::string_view name, RequestKind* out);

/// Default cycle budget of screen and campaign requests (the daemon's
/// ServerOptions::default_budget, lidtool's campaign default).
inline constexpr std::uint64_t kDefaultCycleBudget = 1u << 18;

/// A validated liplib.rpc/1 request: its kind, the envelope (`id`,
/// `trace`) and the typed knobs.  One knob table (protocol.cpp) names
/// every knob, its type, the kinds that take it and its default (the
/// member initializers below); it drives the JSON decoder
/// (parse_request), lidtool's flags (request_from_flags) and the
/// canonical form (to_json).  Every member is a knob or part of the
/// envelope, and a knob its kind does not take keeps its default.
struct Request {
  RequestKind kind = RequestKind::kStatus;
  Json id;              ///< echoed verbatim in the response (null ok)
  std::string netlist;  ///< lint / screen / profile / prove: .lid text
  /// screen / prove / campaign: stop policy.
  lip::StopPolicy policy = lip::StopPolicy::kCasuDiscardOnVoid;
  /// screen / campaign: cycle budget; prove: distinct-state budget;
  /// 0 = the kind's default (effective_budget).
  std::uint64_t budget = 0;
  std::uint64_t cycles = 0;  ///< profile: cycles to simulate; 0 = default
  /// prove: proof method; `bmc` when `depth` is given without it.
  prove::Method method = prove::Method::kAuto;
  std::uint64_t depth = 0;  ///< prove: BMC depth bound; 0 = default
  bool worst_case = false;  ///< prove: start from worst-case occupancy
  /// campaign: which named campaign and its batch size.
  campaign::CampaignMode mode = campaign::CampaignMode::kFuzz;
  std::uint64_t jobs = 0;
  std::uint64_t seed = 1;  ///< campaign: base seed
  /// dist-status: loopback port of the dist coordinator to query.
  std::uint64_t port = 0;
  /// Optional caller-side trace context (the "trace" envelope member);
  /// disabled (all-zero) when absent.
  trace::TraceContext trace;

  bool operator==(const Request&) const = default;
};

/// Validates a parsed request document: schema tag, known kind, and the
/// knobs the kind takes — typed, known policy/method/mode names, required
/// fields present and in range (campaign batches are capped at 1e6 jobs
/// so one tenant cannot monopolize the pool).  Members the kind does not
/// take are ignored.  Throws ApiError with a message suitable for the
/// error envelope.
Request parse_request(const Json& doc);

/// The canonical document of a request: rpc, kind, the id when not
/// null, every knob its kind takes (defaults spelled out) in knob-table
/// order, and the trace context when enabled.  parse_request inverts it
/// exactly, and equal requests render byte-identical documents.
Json to_json(const Request& r);

/// The command-line flags of the knobs `kind` takes ("--policy",
/// "--worst-case", ...).  Positional knobs (the netlist; a campaign's
/// mode and jobs) are not flags.
std::vector<FlagSpec> knob_flags(RequestKind kind);

/// Builds a request of `kind` from lidtool arguments parsed with (at
/// least) knob_flags(kind): each knob flag's text becomes the value the
/// JSON member would carry (numbers via parse_u64, switches as true),
/// the positional arguments fill the positional knobs in order — the
/// netlist *text* for design kinds, mode then jobs for campaigns — and
/// the result goes through parse_request, so both surfaces share one
/// validator.  Throws ApiError on a bad value or positional count.
Request request_from_flags(RequestKind kind, const Flags& flags);

/// Whether `kind` takes a netlist: the .lid text that is lidtool's first
/// positional argument.
bool takes_netlist(RequestKind kind);

/// The named campaign a campaign request runs: its mode, jobs and
/// policy, composite-shaped (the shape is no wire knob; lidtool's
/// `--shape` edits the returned spec).
campaign::NamedCampaignSpec campaign_spec(const Request& r);

/// The budget a request runs with: its own, else the kind's default —
/// ProveOptions{}.max_states for prove, `default_budget` otherwise —
/// never above `cap`.
std::uint64_t effective_budget(const Request& r,
                               std::uint64_t default_budget =
                                   kDefaultCycleBudget,
                               std::uint64_t cap = UINT64_MAX);

/// The ProveOptions of a prove request (policy, start state, method,
/// depth, and the effective state budget, capped at `max_states`) —
/// what both `lidtool prove` and the daemon run.
prove::ProveOptions prove_options(const Request& r,
                                  std::uint64_t max_states = UINT64_MAX);

/// One round trip on a fresh loopback connection: connects to
/// 127.0.0.1:<port>, writes `request` as one frame, half-closes, and
/// returns the one frame that answers it.  Serve daemons and dist
/// coordinators both speak this framing.  Throws ApiError when the peer
/// is unreachable, hangs up without answering, or the connection fails
/// mid-frame.
std::string call(std::uint16_t port, std::string_view request);

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
