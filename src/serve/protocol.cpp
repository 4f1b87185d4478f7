#include "liplib/serve/protocol.hpp"

#include <sys/socket.h>

#include <cerrno>
#include <cstring>

#include "liplib/prove/prove.hpp"
#include "liplib/support/check.hpp"

namespace liplib::serve {

namespace {

/// recv that retries EINTR; returns 0 on EOF, throws on error.
std::size_t recv_some(int fd, char* buf, std::size_t n) {
  for (;;) {
    const ssize_t got = ::recv(fd, buf, n, 0);
    if (got >= 0) return static_cast<std::size_t>(got);
    if (errno == EINTR) continue;
    throw ApiError(std::string("recv failed: ") + std::strerror(errno));
  }
}

/// Reads exactly n bytes.  Returns the number actually read (short only
/// at EOF).
std::size_t recv_exact(int fd, char* buf, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const std::size_t got = recv_some(fd, buf + off, n - off);
    if (got == 0) break;
    off += got;
  }
  return off;
}

}  // namespace

std::string encode_frame(std::string_view payload) {
  LIPLIB_EXPECT(payload.size() <= 0xffffffffull,
                "frame payload exceeds the 32-bit length field");
  const auto n = static_cast<std::uint32_t>(payload.size());
  std::string out;
  out.reserve(4 + payload.size());
  out.push_back(static_cast<char>((n >> 24) & 0xff));
  out.push_back(static_cast<char>((n >> 16) & 0xff));
  out.push_back(static_cast<char>((n >> 8) & 0xff));
  out.push_back(static_cast<char>(n & 0xff));
  out.append(payload);
  return out;
}

bool read_frame(int fd, std::string& payload, const FrameLimits& limits) {
  char hdr[4];
  const std::size_t got = recv_exact(fd, hdr, 4);
  if (got == 0) return false;  // clean EOF between frames
  if (got < 4) {
    throw ApiError("truncated frame: EOF inside the 4-byte length prefix");
  }
  const std::uint32_t n = (static_cast<std::uint32_t>(
                               static_cast<unsigned char>(hdr[0]))
                           << 24) |
                          (static_cast<std::uint32_t>(
                               static_cast<unsigned char>(hdr[1]))
                           << 16) |
                          (static_cast<std::uint32_t>(
                               static_cast<unsigned char>(hdr[2]))
                           << 8) |
                          static_cast<std::uint32_t>(
                              static_cast<unsigned char>(hdr[3]));
  if (n > limits.max_frame_bytes) {
    throw ApiError("frame length " + std::to_string(n) +
                   " exceeds the limit of " +
                   std::to_string(limits.max_frame_bytes) + " bytes");
  }
  payload.resize(n);
  const std::size_t body = n == 0 ? 0 : recv_exact(fd, payload.data(), n);
  if (body < n) {
    throw ApiError("truncated frame: expected " + std::to_string(n) +
                   " payload bytes, got " + std::to_string(body));
  }
  return true;
}

void write_frame(int fd, std::string_view payload) {
  const std::string frame = encode_frame(payload);
  std::size_t off = 0;
  while (off < frame.size()) {
    // MSG_NOSIGNAL: a peer that hung up yields EPIPE, not a fatal signal.
    const ssize_t put =
        ::send(fd, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
    if (put < 0) {
      if (errno == EINTR) continue;
      throw ApiError(std::string("send failed: ") + std::strerror(errno));
    }
    off += static_cast<std::size_t>(put);
  }
}

const char* request_kind_name(RequestKind k) {
  switch (k) {
    case RequestKind::kLint: return "lint";
    case RequestKind::kScreen: return "screen";
    case RequestKind::kProfile: return "profile";
    case RequestKind::kCampaign: return "campaign";
    case RequestKind::kProve: return "prove";
    case RequestKind::kStatus: return "status";
    case RequestKind::kShutdown: return "shutdown";
    case RequestKind::kDistStatus: return "dist-status";
    case RequestKind::kMetrics: return "metrics";
    case RequestKind::kTrace: return "trace";
  }
  return "unknown";
}

namespace {

std::uint64_t uint_field(const Json& doc, const char* key,
                         std::uint64_t fallback) {
  const Json* f = doc.find(key);
  if (!f) return fallback;
  if (!f->is_number()) {
    throw ApiError(std::string("field '") + key +
                   "' must be an unsigned integer");
  }
  return f->as_uint();
}

std::string string_field(const Json& doc, const char* key,
                         const std::string& fallback) {
  const Json* f = doc.find(key);
  if (!f) return fallback;
  if (!f->is_string()) {
    throw ApiError(std::string("field '") + key + "' must be a string");
  }
  return f->as_string();
}

}  // namespace

Request parse_request(const Json& doc) {
  if (!doc.is_object()) throw ApiError("request must be a JSON object");
  const std::string rpc = string_field(doc, "rpc", "");
  if (rpc != kRpcSchema) {
    throw ApiError("missing or unsupported rpc schema (expected \"" +
                   std::string(kRpcSchema) + "\")");
  }
  Request req;
  if (const Json* id = doc.find("id")) req.id = *id;

  const std::string kind = string_field(doc, "kind", "");
  if (kind == "lint") req.kind = RequestKind::kLint;
  else if (kind == "screen") req.kind = RequestKind::kScreen;
  else if (kind == "profile") req.kind = RequestKind::kProfile;
  else if (kind == "campaign") req.kind = RequestKind::kCampaign;
  else if (kind == "prove") req.kind = RequestKind::kProve;
  else if (kind == "status") req.kind = RequestKind::kStatus;
  else if (kind == "shutdown") req.kind = RequestKind::kShutdown;
  else if (kind == "dist-status") req.kind = RequestKind::kDistStatus;
  else if (kind == "metrics") req.kind = RequestKind::kMetrics;
  else if (kind == "trace") req.kind = RequestKind::kTrace;
  else throw ApiError("unknown request kind '" + kind + "'");

  // The optional trace envelope: malformed contexts are protocol errors
  // (from_json throws ApiError), absent ones leave tracing off.
  req.trace = trace::TraceContext::from_envelope(doc);

  req.policy = string_field(doc, "policy", "variant");
  if (req.policy != "variant" && req.policy != "strict") {
    throw ApiError("unknown policy '" + req.policy +
                   "' (expected variant | strict)");
  }
  req.budget = uint_field(doc, "budget", 0);
  req.cycles = uint_field(doc, "cycles", 0);

  switch (req.kind) {
    case RequestKind::kLint:
    case RequestKind::kScreen:
    case RequestKind::kProfile:
    case RequestKind::kProve: {
      req.netlist = string_field(doc, "netlist", "");
      if (req.netlist.empty()) {
        throw ApiError(std::string(request_kind_name(req.kind)) +
                       " request requires a non-empty 'netlist' field");
      }
      if (req.kind == RequestKind::kProve) {
        req.method = string_field(doc, "method", "auto");
        prove::Method m;
        if (!prove::parse_method(req.method, &m)) {
          throw ApiError("unknown prove method '" + req.method +
                         "' (expected auto | reach | bmc | induction)");
        }
        req.depth = uint_field(doc, "depth", 0);
        if (const Json* f = doc.find("worst_case")) {
          if (!f->is_bool()) {
            throw ApiError("field 'worst_case' must be a boolean");
          }
          req.worst_case = f->as_bool();
        }
      }
      break;
    }
    case RequestKind::kCampaign: {
      req.mode = string_field(doc, "mode", "fuzz");
      if (req.mode != "fuzz" && req.mode != "lint" && req.mode != "probe" &&
          req.mode != "prove") {
        throw ApiError("unknown campaign mode '" + req.mode +
                       "' (expected fuzz | lint | probe | prove)");
      }
      req.jobs = uint_field(doc, "jobs", 0);
      if (req.jobs < 1 || req.jobs > 1000000) {
        throw ApiError("campaign 'jobs' must be in [1, 1000000]");
      }
      req.seed = uint_field(doc, "seed", 1);
      break;
    }
    case RequestKind::kDistStatus: {
      req.port = uint_field(doc, "port", 0);
      if (req.port < 1 || req.port > 65535) {
        throw ApiError("dist-status 'port' must be in [1, 65535]");
      }
      break;
    }
    case RequestKind::kStatus:
    case RequestKind::kShutdown:
    case RequestKind::kMetrics:
    case RequestKind::kTrace:
      break;
  }
  return req;
}

std::string error_envelope(const Json& id, const std::string& message) {
  return Json::object()
      .set("rpc", kRpcSchema)
      .set("id", id)
      .set("ok", false)
      .set("error", message)
      .dump();
}

std::string success_envelope(const Json& id, RequestKind kind, bool cached,
                             const std::string& result_bytes) {
  // The prefix is rendered through Json so id/string escaping matches the
  // rest of the dialect; the result document is spliced as-is, which is
  // the byte-identity guarantee for cache hits.
  std::string head = Json::object()
                         .set("rpc", kRpcSchema)
                         .set("id", id)
                         .set("kind", request_kind_name(kind))
                         .set("ok", true)
                         .set("cached", cached)
                         .dump();
  head.pop_back();  // trailing '}'
  head += ",\"result\":";
  head += result_bytes;
  head += '}';
  return head;
}

}  // namespace liplib::serve
