#include "liplib/serve/protocol.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

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

bool parse_request_kind(std::string_view name, RequestKind* out) {
  for (int k = 0; k < kRequestKindCount; ++k) {
    if (name == request_kind_name(static_cast<RequestKind>(k))) {
      *out = static_cast<RequestKind>(k);
      return true;
    }
  }
  return false;
}

namespace {

// ---- the knob table -----------------------------------------------------

constexpr unsigned bit(RequestKind k) {
  return 1u << static_cast<unsigned>(k);
}
constexpr unsigned kDesignKinds =
    bit(RequestKind::kLint) | bit(RequestKind::kScreen) |
    bit(RequestKind::kProfile) | bit(RequestKind::kProve);
/// The kinds that run the protocol: each takes a stop policy and a
/// budget.
constexpr unsigned kRunKinds = bit(RequestKind::kScreen) |
                               bit(RequestKind::kProve) |
                               bit(RequestKind::kCampaign);

/// How a knob's command-line text becomes its JSON value.
enum class KnobType : std::uint8_t {
  kText,  ///< the text itself (names are checked by their parse_* pair)
  kUint,  ///< parse_u64
  kBool,  ///< a bare switch: present = true
};

struct Knob {
  const char* name;  ///< JSON member
  const char* flag;  ///< lidtool flag; nullptr = positional argument
  KnobType type;
  unsigned kinds;  ///< RequestKind bits of the kinds that take it
  void (*set)(Request&, const Json&);  ///< validates and stores
  Json (*get)(const Request&);         ///< the canonical value
};

std::uint64_t uint_of(const Json& v, const char* knob) {
  try {
    return v.as_uint();
  } catch (const ApiError&) {  // not a number, negative or fractional
  }
  throw ApiError(std::string("field '") + knob +
                 "' must be an unsigned integer");
}

const std::string& text_of(const Json& v, const char* knob) {
  if (!v.is_string()) {
    throw ApiError(std::string("field '") + knob + "' must be a string");
  }
  return v.as_string();
}

/// A name knob through its enum's parse function; `what` names the
/// value in the error ("unknown prove method 'x' (expected ...)").
template <class E>
E name_of(const Json& v, const char* knob, const char* what,
          bool (*parse)(std::string_view, E*), const char* expected) {
  E out{};
  const std::string& text = text_of(v, knob);
  if (!parse(text, &out)) {
    throw ApiError(std::string("unknown ") + what + " '" + text +
                   "' (expected " + expected + ")");
  }
  return out;
}

/// Every knob of liplib.rpc/1.  Defaults are Request's member
/// initializers; the order is the canonical member order of to_json and
/// the order of the positional arguments.
const Knob kKnobs[] = {
    {"netlist", nullptr, KnobType::kText, kDesignKinds,
     [](Request& r, const Json& v) { r.netlist = text_of(v, "netlist"); },
     [](const Request& r) { return Json(r.netlist); }},
    {"policy", "--policy", KnobType::kText, kRunKinds,
     [](Request& r, const Json& v) {
       r.policy = name_of(v, "policy", "policy", lip::parse_policy,
                          "variant | strict");
     },
     [](const Request& r) { return Json(lip::policy_name(r.policy)); }},
    {"budget", "--budget", KnobType::kUint, kRunKinds,
     [](Request& r, const Json& v) { r.budget = uint_of(v, "budget"); },
     [](const Request& r) { return Json(r.budget); }},
    {"cycles", "--cycles", KnobType::kUint, bit(RequestKind::kProfile),
     [](Request& r, const Json& v) { r.cycles = uint_of(v, "cycles"); },
     [](const Request& r) { return Json(r.cycles); }},
    {"method", "--method", KnobType::kText, bit(RequestKind::kProve),
     [](Request& r, const Json& v) {
       r.method = name_of(v, "method", "prove method", prove::parse_method,
                          "auto | reach | bmc | induction");
     },
     [](const Request& r) { return Json(prove::method_name(r.method)); }},
    {"depth", "--depth", KnobType::kUint, bit(RequestKind::kProve),
     [](Request& r, const Json& v) { r.depth = uint_of(v, "depth"); },
     [](const Request& r) { return Json(r.depth); }},
    {"worst_case", "--worst-case", KnobType::kBool, bit(RequestKind::kProve),
     [](Request& r, const Json& v) {
       if (!v.is_bool()) {
         throw ApiError("field 'worst_case' must be a boolean");
       }
       r.worst_case = v.as_bool();
     },
     [](const Request& r) { return Json(r.worst_case); }},
    {"mode", nullptr, KnobType::kText, bit(RequestKind::kCampaign),
     [](Request& r, const Json& v) {
       r.mode = name_of(v, "mode", "campaign mode",
                        campaign::parse_campaign_mode,
                        "fuzz | lint | probe | prove");
     },
     [](const Request& r) {
       return Json(campaign::campaign_mode_name(r.mode));
     }},
    {"jobs", nullptr, KnobType::kUint, bit(RequestKind::kCampaign),
     [](Request& r, const Json& v) { r.jobs = uint_of(v, "jobs"); },
     [](const Request& r) { return Json(r.jobs); }},
    {"seed", "--seed", KnobType::kUint, bit(RequestKind::kCampaign),
     [](Request& r, const Json& v) { r.seed = uint_of(v, "seed"); },
     [](const Request& r) { return Json(r.seed); }},
    {"port", "--coordinator", KnobType::kUint, bit(RequestKind::kDistStatus),
     [](Request& r, const Json& v) { r.port = uint_of(v, "port"); },
     [](const Request& r) { return Json(r.port); }},
};

bool takes(const Knob& k, RequestKind kind) { return k.kinds & bit(kind); }

}  // namespace

Request parse_request(const Json& doc) {
  if (!doc.is_object()) throw ApiError("request must be a JSON object");
  const Json* rpc = doc.find("rpc");
  if (!rpc || !rpc->is_string() || rpc->as_string() != kRpcSchema) {
    throw ApiError("missing or unsupported rpc schema (expected \"" +
                   std::string(kRpcSchema) + "\")");
  }
  Request req;
  if (const Json* id = doc.find("id")) req.id = *id;
  const Json* kind = doc.find("kind");
  const std::string kind_text = kind && kind->is_string() ? kind->as_string()
                                                          : std::string();
  if (!parse_request_kind(kind_text, &req.kind)) {
    throw ApiError("unknown request kind '" + kind_text + "'");
  }
  // The optional trace envelope: malformed contexts are protocol errors
  // (from_json throws ApiError), absent ones leave tracing off.
  req.trace = trace::TraceContext::from_envelope(doc);

  for (const Knob& k : kKnobs) {
    if (!takes(k, req.kind)) continue;
    if (const Json* v = doc.find(k.name)) k.set(req, *v);
  }
  switch (req.kind) {
    case RequestKind::kLint:
    case RequestKind::kScreen:
    case RequestKind::kProfile:
    case RequestKind::kProve:
      if (req.netlist.empty()) {
        throw ApiError(std::string(request_kind_name(req.kind)) +
                       " request requires a non-empty 'netlist' field");
      }
      // A depth bound without a method asks for bounded model checking.
      if (req.kind == RequestKind::kProve && doc.find("depth") &&
          !doc.find("method")) {
        req.method = prove::Method::kBmc;
      }
      break;
    case RequestKind::kCampaign:
      if (req.jobs < 1 || req.jobs > 1000000) {
        throw ApiError("campaign 'jobs' must be in [1, 1000000]");
      }
      break;
    case RequestKind::kDistStatus:
      if (req.port < 1 || req.port > 65535) {
        throw ApiError("dist-status 'port' must be in [1, 65535]");
      }
      break;
    default:
      break;
  }
  return req;
}

Json to_json(const Request& r) {
  Json doc = Json::object()
                 .set("rpc", kRpcSchema)
                 .set("kind", request_kind_name(r.kind));
  if (!r.id.is_null()) doc.set("id", r.id);
  for (const Knob& k : kKnobs) {
    if (takes(k, r.kind)) doc.set(k.name, k.get(r));
  }
  if (r.trace.enabled()) doc.set("trace", r.trace.to_json());
  return doc;
}

std::vector<FlagSpec> knob_flags(RequestKind kind) {
  std::vector<FlagSpec> out;
  for (const Knob& k : kKnobs) {
    if (k.flag && takes(k, kind)) {
      out.push_back({k.flag, k.type != KnobType::kBool});
    }
  }
  return out;
}

Request request_from_flags(RequestKind kind, const Flags& flags) {
  Json doc = Json::object()
                 .set("rpc", kRpcSchema)
                 .set("kind", request_kind_name(kind));
  const std::vector<std::string>& args = flags.positional();
  std::size_t next = 0;
  for (const Knob& k : kKnobs) {
    if (!takes(k, kind) || (k.flag && !flags.has(k.flag))) continue;
    if (k.type == KnobType::kBool) {
      doc.set(k.name, true);
      continue;
    }
    if (!k.flag && next == args.size()) {
      throw ApiError(std::string(request_kind_name(kind)) + " requires <" +
                     k.name + ">");
    }
    const std::string text = k.flag ? flags.value(k.flag) : args[next++];
    if (k.type == KnobType::kUint) {
      doc.set(k.name, parse_u64(text, k.flag ? k.flag : k.name));
    } else {
      doc.set(k.name, text);
    }
  }
  if (next < args.size()) {
    throw ApiError("unexpected argument '" + args[next] + "' for " +
                   request_kind_name(kind));
  }
  return parse_request(doc);
}

bool takes_netlist(RequestKind kind) {
  return (kDesignKinds & bit(kind)) != 0;
}

campaign::NamedCampaignSpec campaign_spec(const Request& r) {
  campaign::NamedCampaignSpec spec;
  spec.mode = campaign::campaign_mode_name(r.mode);
  spec.jobs = static_cast<std::size_t>(r.jobs);
  spec.policy = r.policy;
  return spec;
}

std::uint64_t effective_budget(const Request& r, std::uint64_t default_budget,
                               std::uint64_t cap) {
  const std::uint64_t fallback = r.kind == RequestKind::kProve
                                     ? prove::ProveOptions{}.max_states
                                     : default_budget;
  return std::min(r.budget ? r.budget : fallback, cap);
}

prove::ProveOptions prove_options(const Request& r,
                                  std::uint64_t max_states) {
  prove::ProveOptions o;
  o.skeleton.policy = r.policy;
  o.worst_case_occupancy = r.worst_case;
  o.method = r.method;
  o.depth = r.depth;
  o.max_states = effective_budget(r, kDefaultCycleBudget, max_states);
  return o;
}

std::string call(std::uint16_t port, std::string_view request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  LIPLIB_EXPECT(fd >= 0, std::string("socket failed: ") +
                             std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  std::string payload;
  try {
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      const int err = errno;
      throw ApiError("cannot connect to 127.0.0.1:" + std::to_string(port) +
                     ": " + std::strerror(err));
    }
    write_frame(fd, request);
    // One request per connection: the half-close tells the daemon so,
    // and its connection thread ends as soon as the answer is written.
    ::shutdown(fd, SHUT_WR);
    if (!read_frame(fd, payload)) {
      throw ApiError("127.0.0.1:" + std::to_string(port) +
                     " closed the connection without answering");
    }
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  return payload;
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
