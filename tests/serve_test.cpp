// liplib::serve — the multi-tenant daemon and its content-addressed
// result cache.
//
// The acceptance spine: the cache answers repeated requests
// byte-identically to a fresh computation (lint and screen), survives
// 8 client threads hammering the same hot key (TSan-clean hit/miss
// races), expires on TTL and evicts in LRU order; the protocol layer
// rejects truncated and oversized frames with explicit errors; the
// design memo answers repeats without a parse yet exactly like a fresh
// daemon, admitting a text only once the cache has answered it; and the
// daemon proper serves 8 concurrent loopback clients, answers a
// deadlocked design with a DEADLOCK verdict + post-mortem instead of
// wedging a worker, surfaces a non-zero hit rate via `status`, drains
// cleanly on `shutdown`, and grows its VmSize by less than 64 MiB from
// the 200th to the 1,000th one-request connection.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "liplib/graph/netlist_io.hpp"
#include "liplib/serve/cache.hpp"
#include "liplib/serve/protocol.hpp"
#include "liplib/serve/server.hpp"
#include "liplib/support/check.hpp"
#include "liplib/support/flags.hpp"
#include "liplib/support/json.hpp"
#include "liplib/support/rng.hpp"
#include "test_util.hpp"

namespace {

using namespace liplib;
using namespace liplib::serve;

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

// The paper's latent stop latch: a two-shell ring of half stations
// deadlocks under worst-case occupancy.
const char* kHalfRing = R"(process P 1 1
process Q 1 1
channel P.0 -> Q.0 : H
channel Q.0 -> P.0 : H
)";

// examples/designs/half_ring.lid beside an independent pipeline on full
// stations.  From worst-case occupancy the ring latches and its shells
// starve forever, while the pipeline keeps moving tokens — so the
// watchdog never trips, yet the design deadlocks.
const char* kRingBesidePipeline = R"(process ctl 1 1
process plant 1 1
process est 1 1
channel ctl.0 -> plant.0 : H
channel plant.0 -> est.0 : H
channel est.0 -> ctl.0 : H
source src
process p 1 1
sink snk
channel src.0 -> p.0 : F
channel p.0 -> snk.0 : F
)";

std::string request_json(const char* kind, const char* netlist,
                         const char* extra = "") {
  Json r = Json::object().set("rpc", kRpcSchema).set("kind", kind);
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

// ---- content hashing ----------------------------------------------------

TEST(Cache, TopologyHashIsContentAddressed) {
  const auto a = graph::parse_netlist_string(kFig1);
  // Same design, different formatting and comments.
  const std::string reformatted = std::string("# a comment\n") + kFig1;
  const auto b = graph::parse_netlist_string(reformatted);
  EXPECT_EQ(topology_hash(a), topology_hash(b));

  // A changed station kind is a different content address.
  auto c = graph::parse_netlist_string(
      std::string(kFig1).replace(std::string(kFig1).find(": F"), 3, ": H"));
  EXPECT_NE(topology_hash(a), topology_hash(c));
}

// ---- TTL ----------------------------------------------------------------

TEST(Cache, TtlExpiryWithInjectedClock) {
  std::uint64_t now = 1000;
  CacheOptions opts;
  opts.ttl_ms = 50;
  ResultCache cache(opts, [&now] { return now; });

  cache.insert("k", "v");
  EXPECT_TRUE(cache.lookup("k").has_value());

  now += 49;  // one tick before the deadline: still alive
  EXPECT_TRUE(cache.lookup("k").has_value());

  now += 1;  // TTL elapsed: explicit expiration, counted as a miss too
  EXPECT_FALSE(cache.lookup("k").has_value());
  const auto s = cache.stats();
  EXPECT_EQ(s.expirations, 1u);
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.bytes, 0u);
}

TEST(Cache, TtlZeroNeverExpires) {
  std::uint64_t now = 0;
  CacheOptions opts;
  opts.ttl_ms = 0;
  ResultCache cache(opts, [&now] { return now; });
  cache.insert("k", "v");
  now = ~0ull;
  EXPECT_TRUE(cache.lookup("k").has_value());
}

// ---- LRU ----------------------------------------------------------------

TEST(Cache, LruEvictsColdestFirstAndLookupRefreshes) {
  CacheOptions opts;
  opts.ttl_ms = 0;
  // Room for three two-byte entries (key 1 + value 1), not four.
  opts.capacity_bytes = 6;
  ResultCache cache(opts);

  cache.insert("a", "1");
  cache.insert("b", "2");
  cache.insert("c", "3");
  // Touch "a": now "b" is the coldest.
  EXPECT_TRUE(cache.lookup("a").has_value());

  cache.insert("d", "4");  // evicts exactly "b"
  EXPECT_FALSE(cache.lookup("b").has_value());
  EXPECT_TRUE(cache.lookup("a").has_value());
  EXPECT_TRUE(cache.lookup("c").has_value());
  EXPECT_TRUE(cache.lookup("d").has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);

  // Overwriting a key replaces the entry instead of duplicating it.
  cache.insert("d", "5");
  EXPECT_EQ(cache.lookup("d").value(), "5");
  EXPECT_EQ(cache.stats().entries, 3u);
}

TEST(Cache, OversizedEntrySurvivesUntilNextInsert) {
  CacheOptions opts;
  opts.ttl_ms = 0;
  opts.capacity_bytes = 4;
  ResultCache cache(opts);
  cache.insert("big", std::string(100, 'x'));  // alone beyond the budget
  EXPECT_TRUE(cache.lookup("big").has_value());
  cache.insert("k", "v");
  EXPECT_FALSE(cache.lookup("big").has_value());
}

// ---- concurrent hit/miss races ------------------------------------------

TEST(Cache, ConcurrentHitMissRacesUnderEightThreads) {
  CacheOptions opts;
  opts.ttl_ms = 0;
  opts.capacity_bytes = 1 << 10;  // small: eviction races included
  ResultCache cache(opts);

  std::atomic<std::uint64_t> served{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&cache, &served, t] {
      for (int i = 0; i < 500; ++i) {
        const std::string key = "k" + std::to_string((t + i) % 16);
        auto hit = cache.lookup(key);
        if (!hit) {
          cache.insert(key, "value-of-" + key);
        } else {
          EXPECT_EQ(*hit, "value-of-" + key);
          served.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  const auto s = cache.stats();
  EXPECT_EQ(s.hits, served.load());
  EXPECT_EQ(s.hits + s.misses, 8u * 500u);
  EXPECT_GT(s.hits, 0u);
  EXPECT_LE(s.bytes, opts.capacity_bytes);
}

// ---- framing ------------------------------------------------------------

struct SocketPair {
  int a = -1, b = -1;
  SocketPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = fds[0];
    b = fds[1];
  }
  ~SocketPair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
};

TEST(Protocol, FrameRoundTrip) {
  SocketPair sp;
  write_frame(sp.a, "hello");
  write_frame(sp.a, "");
  std::string got;
  ASSERT_TRUE(read_frame(sp.b, got));
  EXPECT_EQ(got, "hello");
  ASSERT_TRUE(read_frame(sp.b, got));
  EXPECT_EQ(got, "");
  ::close(sp.a);
  sp.a = -1;
  EXPECT_FALSE(read_frame(sp.b, got));  // clean EOF on the boundary
}

TEST(Protocol, TruncatedFrameIsAnExplicitError) {
  {
    SocketPair sp;
    const std::string frame = encode_frame("payload");
    // Cut inside the payload.
    ASSERT_GT(::send(sp.a, frame.data(), frame.size() - 3, MSG_NOSIGNAL), 0);
    ::close(sp.a);
    sp.a = -1;
    std::string got;
    try {
      read_frame(sp.b, got);
      FAIL() << "expected truncation error";
    } catch (const ApiError& e) {
      EXPECT_NE(std::string(e.what()).find("truncated frame"),
                std::string::npos);
    }
  }
  {
    SocketPair sp;
    // Cut inside the length prefix.
    ASSERT_GT(::send(sp.a, "\x00\x00", 2, MSG_NOSIGNAL), 0);
    ::close(sp.a);
    sp.a = -1;
    std::string got;
    EXPECT_THROW(read_frame(sp.b, got), ApiError);
  }
}

TEST(Protocol, OversizedFrameIsRejectedBeforeAllocation) {
  SocketPair sp;
  // Declare a 1 GiB payload; the limit must trip on the header alone.
  const char hdr[4] = {0x40, 0x00, 0x00, 0x00};
  ASSERT_EQ(::send(sp.a, hdr, 4, MSG_NOSIGNAL), 4);
  FrameLimits limits;
  limits.max_frame_bytes = 1 << 20;
  std::string got;
  try {
    read_frame(sp.b, got, limits);
    FAIL() << "expected frame-length error";
  } catch (const ApiError& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds the limit"),
              std::string::npos);
  }
}

// ---- request validation -------------------------------------------------

TEST(Protocol, RequestValidation) {
  EXPECT_THROW(parse_request(Json::parse("[1,2]")), ApiError);
  EXPECT_THROW(parse_request(Json::parse("{\"kind\":\"lint\"}")),
               ApiError);  // missing rpc tag
  EXPECT_THROW(
      parse_request(Json::parse(request_json("frobnicate", nullptr))),
      ApiError);
  EXPECT_THROW(parse_request(Json::parse(request_json("lint", nullptr))),
               ApiError);  // netlist required
  EXPECT_THROW(parse_request(Json::parse(request_json(
                   "campaign", nullptr, "\"mode\":\"fuzz\",\"jobs\":0"))),
               ApiError);  // jobs out of range
  EXPECT_THROW(parse_request(Json::parse(request_json(
                   "screen", "x", "\"policy\":\"bogus\""))),
               ApiError);

  const auto req = parse_request(Json::parse(request_json(
      "screen", kHalfRing, "\"policy\":\"strict\",\"budget\":4096")));
  EXPECT_EQ(req.kind, RequestKind::kScreen);
  EXPECT_EQ(req.policy, lip::StopPolicy::kCarloniStrict);
  EXPECT_EQ(req.budget, 4096u);
}

// ---- one validator: the daemon's JSON and lidtool's flags ----------------

constexpr RequestKind kAllKinds[] = {
    RequestKind::kLint,     RequestKind::kScreen,     RequestKind::kProfile,
    RequestKind::kCampaign, RequestKind::kProve,      RequestKind::kStatus,
    RequestKind::kShutdown, RequestKind::kDistStatus, RequestKind::kMetrics,
    RequestKind::kTrace};

/// The smallest request of a kind: its required knobs (netlist, the
/// campaign's mode and jobs, the coordinator port) as JSON members and
/// as lidtool arguments.
struct Base {
  std::vector<std::pair<std::string, std::string>> members;  // name, JSON
  std::vector<std::string> args;
};

Base base_of(RequestKind kind) {
  switch (kind) {
    case RequestKind::kLint:
    case RequestKind::kScreen:
    case RequestKind::kProfile:
    case RequestKind::kProve:
      return {{{"netlist", Json(kFig1).dump()}}, {kFig1}};
    case RequestKind::kCampaign:
      return {{{"mode", "\"fuzz\""}, {"jobs", "8"}}, {"fuzz", "8"}};
    case RequestKind::kDistStatus:
      return {{{"port", "7177"}}, {"--coordinator", "7177"}};
    default:
      return {};
  }
}

/// The lidtool spelling of a knob: a flag, or (empty flag) the index of
/// the positional argument it fills.
struct Spelling {
  std::string flag;
  std::size_t position = 0;
};

Spelling spelling_of(const std::string& knob) {
  if (knob == "netlist" || knob == "mode") return {"", 0};
  if (knob == "jobs") return {"", 1};
  if (knob == "worst_case") return {"--worst-case"};
  if (knob == "port") return {"--coordinator"};
  return {"--" + knob};
}

/// Decodes `kind` with `knob` set to the JSON literal `value`; nullopt
/// when the validator rejects it.
std::optional<Request> from_json(RequestKind kind, const std::string& knob,
                                 const std::string& value) {
  std::string doc = std::string("{\"rpc\":\"") + kRpcSchema +
                    "\",\"kind\":\"" + request_kind_name(kind) + "\"";
  for (const auto& [name, json] : base_of(kind).members) {
    if (name != knob) doc += ",\"" + name + "\":" + json;
  }
  if (!knob.empty()) doc += ",\"" + knob + "\":" + value;
  doc += "}";
  try {
    return parse_request(Json::parse(doc));
  } catch (const ApiError&) {
    return std::nullopt;
  }
}

/// The same through lidtool's flag parser: a string literal is the
/// flag's text, a number its digits, `true` a bare switch, `false` no
/// flag at all.
std::optional<Request> from_flags(RequestKind kind, const std::string& knob,
                                  const std::string& value) {
  std::vector<std::string> args = base_of(kind).args;
  if (!knob.empty()) {
    const Spelling sp = spelling_of(knob);
    const std::string text = value.front() == '"'
                                 ? Json::parse(value).as_string()
                                 : value;
    if (sp.flag.empty()) {
      args[sp.position] = text;
    } else if (value == "true") {
      args.push_back(sp.flag);
    } else if (value != "false") {
      args.push_back(sp.flag);
      args.push_back(text);
    }
  }
  try {
    return request_from_flags(kind, Flags(args, knob_flags(kind)));
  } catch (const ApiError&) {
    return std::nullopt;
  }
}

/// parse_request(to_json(r)) == r, and the canonical bytes are stable.
/// The id is compared as the text the daemon echoes: the writer prints
/// an integral double as an integer, which parses back as one.
void expect_round_trip(const Request& r, const std::string& what) {
  const std::string bytes = to_json(r).dump();
  Request again = parse_request(Json::parse(bytes));
  EXPECT_EQ(again.id.dump(), r.id.dump()) << what;
  again.id = r.id;
  EXPECT_TRUE(again == r) << what << ": " << bytes;
  EXPECT_EQ(to_json(again).dump(), bytes) << what;
}

TEST(Protocol, JsonAndFlagsShareOneValidator) {
  struct Case {
    RequestKind kind;
    const char* knob;
    const char* value;  // JSON literal
    bool accepted;
  };
  const Case cases[] = {
      {RequestKind::kLint, "", "", true},
      {RequestKind::kLint, "netlist", "\"\"", false},
      {RequestKind::kScreen, "policy", "\"strict\"", true},
      {RequestKind::kScreen, "policy", "\"variant\"", true},
      {RequestKind::kScreen, "policy", "\"both\"", false},
      {RequestKind::kScreen, "policy", "\"Strict\"", false},
      {RequestKind::kScreen, "budget", "4096", true},
      {RequestKind::kScreen, "budget", "0", true},
      {RequestKind::kScreen, "budget", "-5", false},
      {RequestKind::kScreen, "budget", "1.5", false},
      {RequestKind::kScreen, "budget", "99999999999999999999", false},
      {RequestKind::kProfile, "cycles", "2000", true},
      {RequestKind::kProfile, "cycles", "-3", false},
      {RequestKind::kProve, "policy", "\"strict\"", true},
      {RequestKind::kProve, "budget", "1024", true},
      {RequestKind::kProve, "method", "\"auto\"", true},
      {RequestKind::kProve, "method", "\"reach\"", true},
      {RequestKind::kProve, "method", "\"bmc\"", true},
      {RequestKind::kProve, "method", "\"induction\"", true},
      {RequestKind::kProve, "method", "\"bogus\"", false},
      {RequestKind::kProve, "depth", "7", true},
      {RequestKind::kProve, "depth", "-1", false},
      {RequestKind::kProve, "worst_case", "true", true},
      {RequestKind::kProve, "worst_case", "false", true},
      {RequestKind::kCampaign, "mode", "\"lint\"", true},
      {RequestKind::kCampaign, "mode", "\"probe\"", true},
      {RequestKind::kCampaign, "mode", "\"prove\"", true},
      {RequestKind::kCampaign, "mode", "\"sweep\"", false},
      {RequestKind::kCampaign, "jobs", "1", true},
      {RequestKind::kCampaign, "jobs", "1000000", true},
      {RequestKind::kCampaign, "jobs", "0", false},
      {RequestKind::kCampaign, "jobs", "1000001", false},
      {RequestKind::kCampaign, "seed", "7", true},
      {RequestKind::kCampaign, "seed", "-1", false},
      {RequestKind::kCampaign, "policy", "\"strict\"", true},
      {RequestKind::kCampaign, "policy", "\"both\"", false},
      {RequestKind::kCampaign, "budget", "65536", true},
      {RequestKind::kDistStatus, "port", "1", true},
      {RequestKind::kDistStatus, "port", "65535", true},
      {RequestKind::kDistStatus, "port", "0", false},
      {RequestKind::kDistStatus, "port", "65536", false},
      {RequestKind::kStatus, "", "", true},
      {RequestKind::kMetrics, "", "", true},
  };
  for (const Case& c : cases) {
    const std::string what = std::string(request_kind_name(c.kind)) + " " +
                             c.knob + "=" + c.value;
    const auto j = from_json(c.kind, c.knob, c.value);
    const auto f = from_flags(c.kind, c.knob, c.value);
    EXPECT_EQ(j.has_value(), c.accepted) << "JSON " << what;
    EXPECT_EQ(f.has_value(), c.accepted) << "flags " << what;
    if (!j || !f) continue;
    EXPECT_TRUE(*j == *f) << what << ": " << to_json(*j).dump() << " vs "
                          << to_json(*f).dump();
    expect_round_trip(*j, what);
  }

  // One depth rule on both surfaces: depth without method means bmc.
  EXPECT_EQ(from_json(RequestKind::kProve, "depth", "7")->method,
            prove::Method::kBmc);
  EXPECT_EQ(from_flags(RequestKind::kProve, "depth", "7")->method,
            prove::Method::kBmc);
  const auto explicit_auto = parse_request(Json::parse(request_json(
      "prove", kFig1, "\"method\":\"auto\",\"depth\":7")));
  EXPECT_EQ(explicit_auto.method, prove::Method::kAuto);
  expect_round_trip(explicit_auto, "prove auto depth 7");

  // One prove default budget: ProveOptions{}.max_states, for lidtool
  // (no cap) and under a default daemon's cap alike; a larger explicit
  // budget is clamped by the daemon only.
  const Request prove_req = *from_json(RequestKind::kProve, "", "");
  const std::uint64_t cap = ServerOptions{}.max_budget;
  EXPECT_EQ(prove_options(prove_req).max_states,
            prove::ProveOptions{}.max_states);
  EXPECT_EQ(prove_options(prove_req, cap).max_states,
            prove::ProveOptions{}.max_states);
  const Request big = *from_json(RequestKind::kProve, "budget", "99999999");
  EXPECT_EQ(prove_options(big).max_states, 99999999u);
  EXPECT_EQ(prove_options(big, cap).max_states, cap);

  // A knob its kind does not take: ignored in JSON (the request equals
  // the one without it), an unknown flag on the command line.
  const std::pair<const char*, const char*> flagged[] = {
      {"policy", "\"strict\""}, {"budget", "64"},    {"cycles", "64"},
      {"method", "\"bmc\""},    {"depth", "3"},      {"worst_case", "true"},
      {"seed", "9"},            {"port", "7177"}};
  for (RequestKind kind : kAllKinds) {
    const auto flags = knob_flags(kind);
    for (const auto& [knob, value] : flagged) {
      const std::string flag = spelling_of(knob).flag;
      const bool takes =
          std::any_of(flags.begin(), flags.end(),
                      [&](const FlagSpec& s) { return s.name == flag; });
      if (takes) continue;
      const std::string what =
          std::string(request_kind_name(kind)) + " " + knob;
      const auto j = from_json(kind, knob, value);
      ASSERT_TRUE(j.has_value()) << what;
      EXPECT_TRUE(*j == *from_json(kind, "", "")) << what;
      EXPECT_FALSE(from_flags(kind, knob, value).has_value()) << what;
    }
  }
  // profile takes cycles only.
  EXPECT_FALSE(from_flags(RequestKind::kProfile, "policy", "\"strict\""));

  // The envelope round-trips too.
  Request r = *from_json(RequestKind::kProve, "worst_case", "true");
  r.id = Json::object().set("n", 1.0).set("tag", "x");
  r.trace = trace::TraceContext{0x1234, 0x5678};
  expect_round_trip(r, "envelope");
}

// ROADMAP's fuzz invariant on the request parser: seeded mutations of
// every kind's canonical document never crash the decoder (only
// ApiError), and every mutant it accepts round-trips through to_json.
TEST(Protocol, MutatedRequestsNeverCrashAndAcceptedOnesRoundTrip) {
  Rng rng(0x5eed);
  const char* tokens[] = {"-1", "0", "1.5", "\"", "{", "}", "[", "]", ",",
                          ":", "true", "null", "\"strict\"", "\"bmc\"",
                          "99999999999999999999", "\\u0000"};
  std::size_t accepted = 0;
  for (RequestKind kind : kAllKinds) {
    Request seed = *from_json(kind, "", "");
    seed.id = "req-1";
    seed.trace = trace::TraceContext{0xabc, 0xdef};
    const std::string canonical = to_json(seed).dump();
    for (int i = 0; i < 400; ++i) {
      std::string text = canonical;
      for (std::uint64_t m = 0, n = 1 + rng.below(3); m < n; ++m) {
        const std::size_t at = rng.below(text.size() + 1);
        switch (rng.below(4)) {
          case 0:
            if (at < text.size()) {
              text[at] = static_cast<char>(0x20 + rng.below(0x5f));
            }
            break;
          case 1:
            if (at < text.size()) text.erase(at, 1 + rng.below(4));
            break;
          case 2:
            text.insert(at, tokens[rng.below(std::size(tokens))]);
            break;
          default:
            text.insert(at, text.substr(rng.below(text.size()),
                                        rng.below(12)));
            break;
        }
      }
      Request r;
      try {
        r = parse_request(Json::parse(text));
      } catch (const ApiError&) {
        continue;
      }
      ++accepted;
      expect_round_trip(r, text);
    }
  }
  EXPECT_GT(accepted, 400u);  // the accept path is exercised, not just rejects
}

// ---- dispatch: cached vs fresh byte identity ----------------------------

/// Extracts the raw bytes of the "result" member and the "cached" flag
/// from a response payload.
void split_response(const std::string& payload, std::string* result,
                    bool* cached, bool* ok) {
  const Json doc = Json::parse(payload);
  ASSERT_TRUE(doc.find("ok") != nullptr) << payload;
  *ok = doc.find("ok")->as_bool();
  if (const Json* c = doc.find("cached")) *cached = c->as_bool();
  if (const Json* r = doc.find("result")) *result = r->dump();
}

TEST(Handlers, LintCachedResponseIsByteIdenticalToFresh) {
  ServeContext ctx;
  const std::string req = request_json("lint", kFig1);
  const std::string first = handle_payload(req, ctx);
  const std::string second = handle_payload(req, ctx);

  std::string r1, r2;
  bool c1 = false, c2 = false, ok1 = false, ok2 = false;
  split_response(first, &r1, &c1, &ok1);
  split_response(second, &r2, &c2, &ok2);
  ASSERT_TRUE(ok1 && ok2);
  EXPECT_FALSE(c1);
  EXPECT_TRUE(c2);
  EXPECT_EQ(r1, r2);  // byte-identical result documents
  EXPECT_EQ(ctx.cache.stats().hits, 1u);

  // Same design, different text formatting: still one cache entry.
  const std::string reformatted =
      request_json("lint", (std::string("# comment\n\n") + kFig1).c_str());
  std::string r3;
  bool c3 = false, ok3 = false;
  split_response(handle_payload(reformatted, ctx), &r3, &c3, &ok3);
  EXPECT_TRUE(c3);
  EXPECT_EQ(r1, r3);
}

TEST(Handlers, ScreenCachedResponseIsByteIdenticalToFresh) {
  ServeContext ctx;
  const std::string req = request_json("screen", kHalfRing);
  std::string r1, r2;
  bool c1 = false, c2 = false, ok1 = false, ok2 = false;
  split_response(handle_payload(req, ctx), &r1, &c1, &ok1);
  split_response(handle_payload(req, ctx), &r2, &c2, &ok2);
  ASSERT_TRUE(ok1 && ok2);
  EXPECT_FALSE(c1);
  EXPECT_TRUE(c2);
  EXPECT_EQ(r1, r2);

  // The deadlock verdict rides the cached bytes: both carry the
  // post-mortem bundle of the worst-case stop latch.
  const Json result = Json::parse(r1);
  EXPECT_EQ(result.find("verdict")->as_string(), "deadlock");
  const Json* worst = result.find("worst_case");
  ASSERT_NE(worst, nullptr);
  EXPECT_TRUE(worst->find("deadlock")->as_bool());
  EXPECT_NE(worst->find("post_mortem"), nullptr);
  // From reset the latch is unreachable (the paper's observation).
  EXPECT_FALSE(result.find("from_reset")->find("deadlock")->as_bool());
  EXPECT_EQ(ctx.status_json()
                .find("requests")->find("deadlock_verdicts")->as_uint(),
            1u);
}

// One screen, one verdict: the steady-state search answers, and the
// watchdog only supplies evidence.  A deadlock the watchdog cannot see —
// part of the design still moves — carries its starved shells and no
// post-mortem.
TEST(Handlers, ScreenCallsAStarvedRingBesideALivePipelineADeadlock) {
  ServeContext ctx;
  std::string r;
  bool cached = true, ok = false;
  split_response(
      handle_payload(request_json("screen", kRingBesidePipeline), ctx), &r,
      &cached, &ok);
  ASSERT_TRUE(ok) << r;
  const Json result = Json::parse(r);
  EXPECT_EQ(result.find("verdict")->as_string(), "deadlock");
  const Json* worst = result.find("worst_case");
  ASSERT_NE(worst, nullptr);
  EXPECT_TRUE(worst->find("deadlock")->as_bool());
  EXPECT_TRUE(worst->find("found")->as_bool());
  EXPECT_EQ(worst->find("transient")->as_uint(), 0u);
  EXPECT_EQ(worst->find("period")->as_uint(), 1u);
  EXPECT_EQ(worst->find("throughput")->as_string(), "0");
  EXPECT_EQ(worst->find("post_mortem"), nullptr);
  EXPECT_EQ(worst->find("trip_cycle"), nullptr);
  const Json* starved = worst->find("starved");
  ASSERT_NE(starved, nullptr);
  ASSERT_EQ(starved->size(), 3u);
  EXPECT_EQ(starved->at(0).as_string(), "ctl");
  EXPECT_EQ(starved->at(1).as_string(), "plant");
  EXPECT_EQ(starved->at(2).as_string(), "est");
  // From reset every shell fires: a live pass carries no starved list.
  const Json* reset = result.find("from_reset");
  EXPECT_FALSE(reset->find("deadlock")->as_bool());
  EXPECT_EQ(reset->find("starved"), nullptr);
  EXPECT_EQ(ctx.status_json()
                .find("requests")->find("deadlock_verdicts")->as_uint(),
            1u);
}

// The search settles within any budget that reaches the first repeated
// state, so a budget below the watchdog's 64-cycle threshold still finds
// the worst-case latch; the evidence re-run then shows the trip.
TEST(Handlers, ScreenBelowTheWatchdogThresholdStillFindsTheLatch) {
  ServeContext ctx;
  std::string r;
  bool cached = true, ok = false;
  split_response(
      handle_payload(request_json("screen", kHalfRing, "\"budget\":10"), ctx),
      &r, &cached, &ok);
  ASSERT_TRUE(ok) << r;
  const Json result = Json::parse(r);
  EXPECT_EQ(result.find("budget")->as_uint(), 10u);
  EXPECT_EQ(result.find("verdict")->as_string(), "deadlock");
  const Json* worst = result.find("worst_case");
  EXPECT_TRUE(worst->find("deadlock")->as_bool());
  ASSERT_NE(worst->find("post_mortem"), nullptr);
  EXPECT_EQ(worst->find("reason")->as_string(), "stop_saturation");
  EXPECT_EQ(worst->find("no_progress_since")->as_uint(), 0u);
  EXPECT_EQ(worst->find("trip_cycle")->as_uint(), 63u);
  EXPECT_EQ(worst->find("cycles")->as_uint(), 64u);
  EXPECT_FALSE(result.find("from_reset")->find("deadlock")->as_bool());
}

// No steady state within the budget is not live: the verdict is
// "unknown", which `lidtool client` exits 1 on.
TEST(Handlers, ScreenWithoutASteadyStateIsUnknown) {
  ServeContext ctx;
  std::string r;
  bool cached = true, ok = false;
  split_response(
      handle_payload(request_json("screen", kFig1, "\"budget\":3"), ctx), &r,
      &cached, &ok);
  ASSERT_TRUE(ok) << r;
  const Json result = Json::parse(r);
  EXPECT_EQ(result.find("verdict")->as_string(), "unknown");
  const Json* reset = result.find("from_reset");
  EXPECT_FALSE(reset->find("deadlock")->as_bool());
  EXPECT_FALSE(reset->find("found")->as_bool());
  EXPECT_EQ(reset->find("transient"), nullptr);
  EXPECT_EQ(ctx.status_json()
                .find("requests")->find("deadlock_verdicts")->as_uint(),
            0u);
}

TEST(Handlers, ProveRequestsAreProvedCachedAndKeyedByKnobs) {
  ServeContext ctx;

  // Fig. 1 from reset: proved, and the second ask is a byte-identical
  // cache hit.
  const std::string req = request_json("prove", kFig1);
  std::string r1, r2;
  bool c1 = false, c2 = false, ok1 = false, ok2 = false;
  split_response(handle_payload(req, ctx), &r1, &c1, &ok1);
  split_response(handle_payload(req, ctx), &r2, &c2, &ok2);
  ASSERT_TRUE(ok1 && ok2) << r1;
  EXPECT_FALSE(c1);
  EXPECT_TRUE(c2);
  EXPECT_EQ(r1, r2);
  const Json proved = Json::parse(r1);
  EXPECT_EQ(proved.find("schema")->as_string(), "liplib.serve.prove/2");
  EXPECT_EQ(proved.find("verdict")->as_string(), "proved");
  EXPECT_EQ(proved.find("exit_code")->as_uint(), 0u);

  // The half-station ring under worst-case occupancy: counterexample,
  // counted as a deadlock verdict, with the trace in the result.
  std::string r3;
  bool c3 = false, ok3 = false;
  split_response(handle_payload(request_json("prove", kHalfRing,
                                             "\"worst_case\":true"),
                                ctx),
                 &r3, &c3, &ok3);
  ASSERT_TRUE(ok3) << r3;
  const Json dead = Json::parse(r3);
  EXPECT_EQ(dead.find("verdict")->as_string(), "counterexample");
  EXPECT_EQ(dead.find("exit_code")->as_uint(), 1u);
  ASSERT_NE(dead.find("prove"), nullptr);
  EXPECT_NE(dead.find("prove")->find("counterexample"), nullptr);
  EXPECT_EQ(ctx.status_json()
                .find("requests")->find("deadlock_verdicts")->as_uint(),
            1u);

  // Every knob keys the cache separately; a legacy "engine" member is
  // not a knob and is answered from the existing entry.
  handle_payload(request_json("prove", kFig1, "\"method\":\"induction\""),
                 ctx);
  handle_payload(request_json("prove", kFig1, "\"worst_case\":true"), ctx);
  handle_payload(request_json("prove", kFig1, "\"engine\":\"interp\""), ctx);
  EXPECT_EQ(ctx.cache.stats().entries, 4u);

  // Validation: bogus method is a request error, missing netlist too.
  EXPECT_THROW(parse_request(Json::parse(request_json(
                   "prove", "x", "\"method\":\"bogus\""))),
               ApiError);
  EXPECT_THROW(parse_request(Json::parse(request_json("prove", nullptr))),
               ApiError);
  const auto parsed = parse_request(Json::parse(request_json(
      "prove", kHalfRing,
      "\"method\":\"bmc\",\"depth\":7,\"worst_case\":true")));
  EXPECT_EQ(parsed.kind, RequestKind::kProve);
  EXPECT_EQ(parsed.method, prove::Method::kBmc);
  EXPECT_EQ(parsed.depth, 7u);
  EXPECT_TRUE(parsed.worst_case);
}

TEST(Handlers, ProveCampaignModeRunsTheCrossCheck) {
  ServeContext ctx;
  std::string r;
  bool cached = false, ok = false;
  split_response(handle_payload(request_json("campaign", nullptr,
                                             "\"mode\":\"prove\",\"jobs\":8,"
                                             "\"seed\":7"),
                                ctx),
                 &r, &cached, &ok);
  ASSERT_TRUE(ok) << r;
  const Json result = Json::parse(r);
  EXPECT_EQ(result.find("mode")->as_string(), "prove");
  EXPECT_EQ(result.find("jobs")->as_uint(), 8u);
  ASSERT_NE(result.find("aggregate"), nullptr);
  // Prover/lint/screen disagreement would surface as a mismatch outcome.
  const Json* agg = result.find("aggregate");
  if (const Json* by = agg->find("outcomes")) {
    if (const Json* mm = by->find("mismatch")) {
      EXPECT_EQ(mm->as_uint(), 0u);
    }
  }
}

// Requests written for the retired evaluator knob still work: "engine"
// is ignored like any unknown member, so the request keys and answers
// exactly as if it were absent.
TEST(Handlers, LegacyEngineMemberIsIgnored) {
  ServeContext ctx;
  std::string fresh, legacy;
  bool c1 = true, c2 = false, ok1 = false, ok2 = false;
  split_response(handle_payload(request_json("screen", kHalfRing), ctx),
                 &fresh, &c1, &ok1);
  split_response(handle_payload(request_json("screen", kHalfRing,
                                              "\"engine\":\"interp\""),
                                ctx),
                 &legacy, &c2, &ok2);
  ASSERT_TRUE(ok1 && ok2) << legacy;
  EXPECT_FALSE(c1);
  EXPECT_TRUE(c2);
  EXPECT_EQ(fresh, legacy);
  const Json result = Json::parse(fresh);
  EXPECT_EQ(result.find("schema")->as_string(), "liplib.serve.screen/2");
  EXPECT_EQ(result.find("engine"), nullptr);
  EXPECT_NE(result.find("worst_case")->find("post_mortem"), nullptr);
  // Even a value the old validator refused is now just ignored.
  bool c3 = false, ok3 = false;
  std::string turbo;
  split_response(handle_payload(request_json("screen", kHalfRing,
                                             "\"engine\":\"turbo\""),
                                ctx),
                 &turbo, &c3, &ok3);
  EXPECT_TRUE(ok3 && c3);
  EXPECT_EQ(fresh, turbo);

  const Json status = ctx.status_json();
  EXPECT_EQ(status.find("schema")->as_string(), "liplib.serve.status/3");
  EXPECT_EQ(status.find("engines"), nullptr);
  EXPECT_EQ(status.find("cache")->find("hits")->as_uint(), 2u);
}

// `profile` takes no policy: the knob table gives it `cycles` only, so a
// daemon request carrying one is answered from the same cache entry, as
// with any member its kind does not take.
TEST(Handlers, ProfilePolicyMemberIsIgnored) {
  ServeContext ctx;
  std::string fresh, strict;
  bool c1 = true, c2 = false, ok1 = false, ok2 = false;
  split_response(handle_payload(request_json("profile", kFig1,
                                             "\"cycles\":500"),
                                ctx),
                 &fresh, &c1, &ok1);
  split_response(handle_payload(request_json("profile", kFig1,
                                             "\"cycles\":500,"
                                             "\"policy\":\"strict\""),
                                ctx),
                 &strict, &c2, &ok2);
  ASSERT_TRUE(ok1 && ok2) << strict;
  EXPECT_FALSE(c1);
  EXPECT_TRUE(c2);
  EXPECT_EQ(fresh, strict);
  EXPECT_EQ(ctx.cache.stats().entries, 1u);
}

TEST(Handlers, DistinctPoliciesAndBudgetsAreDistinctCacheEntries) {
  ServeContext ctx;
  handle_payload(request_json("screen", kFig1), ctx);
  handle_payload(
      request_json("screen", kFig1, "\"policy\":\"strict\""), ctx);
  handle_payload(request_json("screen", kFig1, "\"budget\":8192"), ctx);
  const auto s = ctx.cache.stats();
  EXPECT_EQ(s.entries, 3u);
  EXPECT_EQ(s.hits, 0u);
}

TEST(Handlers, MalformedPayloadsBecomeErrorEnvelopes) {
  ServeContext ctx;
  for (const char* bad :
       {"not json at all", "{\"rpc\":\"bogus/9\",\"kind\":\"status\"}",
        "{\"rpc\":\"liplib.rpc/1\",\"kind\":\"lint\",\"netlist\":\"not a "
        "netlist\"}"}) {
    const Json doc = Json::parse(handle_payload(bad, ctx));
    EXPECT_FALSE(doc.find("ok")->as_bool());
    EXPECT_FALSE(doc.find("error")->as_string().empty());
  }
  // The first two are protocol errors, the last a request error.
  const Json status = ctx.status_json();
  EXPECT_EQ(status.find("requests")->find("protocol_errors")->as_uint(), 2u);
  EXPECT_EQ(status.find("requests")->find("request_errors")->as_uint(), 1u);
  // Nothing leaks into the inflight gauge.
  EXPECT_EQ(status.find("inflight")->as_int(), 0);
}

// A tenant's netlist cannot make the daemon allocate the arity it
// names: four billion inputs are refused at parse time, with the
// parser's line-numbered error, before any port exists.
TEST(Handlers, AnOversizedArityIsRefusedAtParseTime) {
  ServeContext ctx;
  const Json doc = Json::parse(
      handle_payload(request_json("lint", "process A 4000000000 1\n"), ctx));
  EXPECT_FALSE(doc.find("ok")->as_bool());
  EXPECT_NE(doc.find("error")->as_string().find(
                "netlist line 1: bad input count '4000000000'"),
            std::string::npos)
      << doc.dump();
}

// ---- the design memo ----------------------------------------------------

// A pipeline whose last annotation carries a number, for the
// equal-length edit below.
const char* kPeriodicSink = R"(source src
process p 1 1
sink out periodic(3)
channel src.0 -> p.0 : F
channel p.0 -> out.0 : F
)";

/// examples/designs/*.lid and this file's fixtures, by name.
std::vector<std::pair<std::string, std::string>> memo_designs() {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& entry :
       std::filesystem::directory_iterator(LIPLIB_DESIGNS_DIR)) {
    if (entry.path().extension() != ".lid") continue;
    std::ifstream is(entry.path());
    std::stringstream text;
    text << is.rdbuf();
    out.emplace_back(entry.path().filename().string(), text.str());
  }
  std::sort(out.begin(), out.end());  // directory order is unspecified
  EXPECT_GE(out.size(), 3u);
  out.emplace_back("kFig1", kFig1);
  out.emplace_back("kHalfRing", kHalfRing);
  out.emplace_back("kRingBesidePipeline", kRingBesidePipeline);
  out.emplace_back("kPeriodicSink", kPeriodicSink);
  return out;
}

/// The same design formatted differently: a comment, blank lines and
/// doubled spaces.
std::string reformatted(const std::string& text) {
  std::string out = "# a reformatted twin\n\n";
  for (const char c : text) {
    if (c == ' ') {
      out += "  ";
    } else if (c == '\n') {
      out += "\n\n";
    } else {
      out += c;
    }
  }
  return out;
}

/// The text with the first digit of its last `periodic(N)` annotation
/// changed: the same length and all but one byte the same, another
/// design.  Empty when the text has no such annotation.
std::string edit_last_period(const std::string& text) {
  const std::size_t at = text.rfind("periodic(");
  if (at == std::string::npos) return "";
  std::string out = text;
  char& digit = out[at + std::string("periodic(").size()];
  digit = digit == '5' ? '7' : '5';
  return out;
}

/// Answers `request` on `ctx` and expects the response of a fresh
/// daemon to it, byte for byte but for the envelope's cached flag.
/// Returns that flag.
bool expect_fresh_answer(const std::string& request, ServeContext& ctx,
                         const std::string& what) {
  std::string got = handle_payload(request, ctx);
  ServeContext fresh;
  const std::string want = handle_payload(request, fresh);
  const std::string hit = "\"cached\":true";
  const std::size_t at = got.find(hit);
  const bool cached = at != std::string::npos && at < got.find("\"result\":");
  if (cached) got.replace(at, hit.size(), "\"cached\":false");
  EXPECT_EQ(got, want) << what;
  return cached;
}

// The memo skips only the work of finding the content hash: every answer
// is a fresh daemon's, the result cache counts exactly what it would
// count without a memo, and a text enters the memo only once the cache
// has answered it.  An equal-length edit at the very end of the text is
// another design, so the memo must compare whole texts.
TEST(DesignMemo, RepeatsTwinsAndEditsAnswerLikeAFreshDaemon) {
  std::size_t edits = 0;
  for (const auto& [name, text] : memo_designs()) {
    ServeContext ctx;
    const auto screen = [](const std::string& netlist) {
      return request_json("screen", netlist.c_str());
    };
    EXPECT_FALSE(expect_fresh_answer(screen(text), ctx, name + " fresh"));
    // The first hit admits the text; the next one finds it.
    EXPECT_TRUE(expect_fresh_answer(screen(text), ctx, name + " repeat"));
    EXPECT_TRUE(expect_fresh_answer(screen(text), ctx, name + " memo hit"));
    // A reformatted twin is the same key, and a memo entry of its own.
    const std::string twin = reformatted(text);
    EXPECT_TRUE(expect_fresh_answer(screen(twin), ctx, name + " twin"));
    EXPECT_TRUE(expect_fresh_answer(screen(twin), ctx, name + " twin again"));
    std::uint64_t misses = 1;
    std::uint64_t memo_misses = 3;
    const std::string edit = edit_last_period(text);
    if (!edit.empty()) {
      ++edits;
      ASSERT_EQ(edit.size(), text.size());
      EXPECT_FALSE(expect_fresh_answer(screen(edit), ctx, name + " edit"));
      ++misses;
      ++memo_misses;
    }
    // A malformed text fails to parse before any cache lookup.
    expect_fresh_answer(screen(text + "process\n"), ctx, name + " malformed");
    ++memo_misses;

    const CacheStats cs = ctx.cache.stats();
    EXPECT_EQ(cs.hits, 4u) << name;
    EXPECT_EQ(cs.misses, misses) << name;
    EXPECT_EQ(cs.insertions, misses) << name;
    const CacheStats ms = ctx.designs.stats();
    EXPECT_EQ(ms.hits, 2u) << name;
    EXPECT_EQ(ms.misses, memo_misses) << name;
    EXPECT_EQ(ms.insertions, 2u) << name;
    EXPECT_EQ(ms.entries, 2u) << name;  // the text and its twin
    EXPECT_EQ(ms.bytes, text.size() + twin.size() + 32) << name;

    const Json status = ctx.status_json();
    EXPECT_EQ(status.find("schema")->as_string(), "liplib.serve.status/3");
    EXPECT_EQ(status.find("design_memo")->dump(),
              ctx.designs.stats_json().dump());
  }
  EXPECT_GE(edits, 2u);
}

// Fresh-design traffic stores nothing: a text that was only ever
// computed never enters the memo.
TEST(DesignMemo, MissesOnlyTrafficLeavesTheMemoEmpty) {
  ServeContext ctx;
  std::uint64_t requests = 0;
  for (const auto& [name, text] : memo_designs()) {
    for (const char* kind : {"lint", "screen"}) {
      EXPECT_FALSE(
          expect_fresh_answer(request_json(kind, text.c_str()), ctx, name));
      ++requests;
    }
  }
  EXPECT_EQ(ctx.cache.stats().misses, requests);
  const CacheStats ms = ctx.designs.stats();
  EXPECT_EQ(ms.misses, requests);
  EXPECT_EQ(ms.entries, 0u);
  EXPECT_EQ(ms.bytes, 0u);
  // The memo's budget is a sixteenth of the result cache's.
  EXPECT_EQ(ctx.designs.options().capacity_bytes,
            ctx.cache.options().capacity_bytes / 16);
  EXPECT_EQ(ctx.designs.options().ttl_ms, 0u);
}

// A result that left the cache is computed again from the text, though
// the memo still knows the text's hash.
TEST(DesignMemo, EvictedAndExpiredResultsAreComputedFromTheText) {
  const auto designs = memo_designs();
  for (std::size_t i = 0; i < designs.size(); ++i) {
    const auto& [name, text] = designs[i];
    const std::string& other = designs[(i + 1) % designs.size()].second;
    {
      // A one-byte budget keeps only the newest result, and the memo's
      // (a sixteenth of it) only the newest admitted text.
      ServerOptions opts;
      opts.cache.capacity_bytes = 1;
      ServeContext ctx(opts);
      const std::string req = request_json("lint", text.c_str());
      EXPECT_FALSE(expect_fresh_answer(req, ctx, name + " fresh"));
      EXPECT_TRUE(expect_fresh_answer(req, ctx, name + " repeat"));
      EXPECT_FALSE(expect_fresh_answer(request_json("lint", other.c_str()),
                                       ctx, name + " evicting"));
      EXPECT_FALSE(expect_fresh_answer(req, ctx, name + " evicted"));
      const CacheStats cs = ctx.cache.stats();
      EXPECT_EQ(cs.hits, 1u) << name;
      EXPECT_EQ(cs.misses, 3u) << name;
      EXPECT_EQ(cs.insertions, 3u) << name;
      EXPECT_EQ(cs.evictions, 2u) << name;
      const CacheStats ms = ctx.designs.stats();
      EXPECT_EQ(ms.hits, 1u) << name;
      EXPECT_EQ(ms.misses, 3u) << name;
      EXPECT_EQ(ms.entries, 1u) << name;
    }
    {
      std::uint64_t now = 1000;
      ServerOptions opts;
      opts.cache.ttl_ms = 50;
      ServeContext ctx(opts, [&now] { return now; });
      const std::string req =
          request_json("profile", text.c_str(), "\"cycles\":500");
      EXPECT_FALSE(expect_fresh_answer(req, ctx, name + " fresh"));
      EXPECT_TRUE(expect_fresh_answer(req, ctx, name + " repeat"));
      now += 50;  // the result expires; the memo entry never does
      EXPECT_FALSE(expect_fresh_answer(req, ctx, name + " expired"));
      EXPECT_TRUE(expect_fresh_answer(req, ctx, name + " recomputed"));
      const CacheStats cs = ctx.cache.stats();
      EXPECT_EQ(cs.hits, 2u) << name;
      EXPECT_EQ(cs.misses, 2u) << name;
      EXPECT_EQ(cs.insertions, 2u) << name;
      EXPECT_EQ(cs.expirations, 1u) << name;
      const CacheStats ms = ctx.designs.stats();
      EXPECT_EQ(ms.hits, 2u) << name;
      EXPECT_EQ(ms.misses, 2u) << name;
      EXPECT_EQ(ms.entries, 1u) << name;
    }
  }
}

// 8 threads race memo lookups and admissions over 4 texts and their
// reformatted twins (run under TSan in CI); every answer is still the
// fresh one.
TEST(DesignMemo, ConcurrentLookupsAndAdmissionsUnderEightThreads) {
  const auto designs = memo_designs();
  std::vector<std::string> requests;
  std::vector<std::string> want;
  for (std::size_t d = 0; d < 4; ++d) {
    const std::string& text = designs[d].second;
    for (const std::string& t : {text, reformatted(text)}) {
      requests.push_back(request_json("lint", t.c_str()));
      ServeContext fresh;
      std::string result;
      bool cached = false, ok = false;
      split_response(handle_payload(requests.back(), fresh), &result, &cached,
                     &ok);
      want.push_back(result);
    }
  }
  ServeContext ctx;
  constexpr int kThreads = 8;
  constexpr int kEach = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kEach; ++i) {
        const std::size_t r = static_cast<std::size_t>(t + i) % requests.size();
        std::string result;
        bool cached = false, ok = false;
        split_response(handle_payload(requests[r], ctx), &result, &cached,
                       &ok);
        EXPECT_TRUE(ok);
        EXPECT_EQ(result, want[r]);
      }
    });
  }
  for (auto& th : threads) th.join();

  const CacheStats cs = ctx.cache.stats();
  EXPECT_EQ(cs.hits + cs.misses, std::uint64_t{kThreads * kEach});
  EXPECT_EQ(cs.entries, 4u);
  // Each thread asks for every text at least twice, the second time
  // after its own first answer landed: every text is admitted.
  const CacheStats ms = ctx.designs.stats();
  EXPECT_EQ(ms.hits + ms.misses, std::uint64_t{kThreads * kEach});
  EXPECT_EQ(ms.entries, 8u);
  EXPECT_GT(ms.hits, 0u);
}

// ---- the daemon over loopback -------------------------------------------

/// Minimal scripted client: one connection, n sequential requests.
std::vector<std::string> roundtrip(std::uint16_t port,
                                   const std::vector<std::string>& requests) {
  const testutil::Socket conn(testutil::connect_loopback(port));
  EXPECT_GE(conn.fd, 0);
  std::vector<std::string> responses;
  for (const auto& r : requests) {
    write_frame(conn.fd, r);
    std::string payload;
    if (!read_frame(conn.fd, payload)) break;
    responses.push_back(std::move(payload));
  }
  return responses;
}

TEST(Server, EightConcurrentClientsGetByteIdenticalAnswersAndCacheHits) {
  ServerOptions opts;
  opts.port = 0;  // ephemeral
  Server server(opts);
  server.start();
  ASSERT_GT(server.port(), 0);

  // 8 clients x 8 requests over the same two designs: after the first
  // computation of each key every answer must come from the cache,
  // byte-identical (modulo the envelope's cached flag).
  std::vector<std::thread> clients;
  std::vector<std::vector<std::string>> results(8);
  for (int t = 0; t < 8; ++t) {
    clients.emplace_back([port = server.port(), t, &results] {
      std::vector<std::string> reqs;
      for (int i = 0; i < 8; ++i) {
        reqs.push_back(request_json(i % 2 ? "screen" : "lint",
                                    i % 2 ? kHalfRing : kFig1));
      }
      const auto responses = roundtrip(port, reqs);
      for (const auto& p : responses) {
        const Json doc = Json::parse(p);
        ASSERT_TRUE(doc.find("ok")->as_bool()) << p;
        results[static_cast<std::size_t>(t)].push_back(
            doc.find("result")->dump());
      }
    });
  }
  for (auto& c : clients) c.join();

  // Every client saw both requests answered; all lint results agree and
  // all screen results agree, bytewise, across clients.
  const std::string lint_ref = results[0][0];
  const std::string screen_ref = results[0][1];
  for (const auto& per_client : results) {
    ASSERT_EQ(per_client.size(), 8u);
    for (std::size_t i = 0; i < per_client.size(); ++i) {
      EXPECT_EQ(per_client[i], i % 2 ? screen_ref : lint_ref);
    }
  }
  EXPECT_EQ(Json::parse(screen_ref).find("verdict")->as_string(), "deadlock");

  // 64 requests over 2 distinct keys.  The cache does not serialize
  // concurrent first computations of a key (a deliberate trade: a
  // stampede costs duplicate work, a per-key lock would stall every
  // tenant behind the slowest), so each of the 8 clients may miss once
  // per key; everything else must hit.
  const auto stats = server.context().cache.stats();
  EXPECT_GE(stats.hits, 64u - 2u * 8u);
  EXPECT_EQ(stats.entries, 2u);

  // status surfaces the measured hit rate; shutdown drains cleanly.
  const auto tail = roundtrip(
      server.port(), {request_json("status", nullptr),
                      request_json("shutdown", nullptr)});
  ASSERT_EQ(tail.size(), 2u);
  const Json status = Json::parse(tail[0]);
  EXPECT_GE(status.find("result")->find("cache")->find("hits")->as_uint(),
            64u - 2u * 8u);
  EXPECT_TRUE(
      Json::parse(tail[1]).find("result")->find("draining")->as_bool());
  server.wait();  // returns only after a full drain
}

// A closed ring of 30,000 shells, one full station per channel (a
// 1.5 MB netlist): prove walks its one cycle with an explicit stack, so
// the daemon answers instead of overflowing its worker's stack.
TEST(Server, ProvesAThirtyThousandShellRing) {
  constexpr std::size_t kShells = 30000;
  std::string ring;
  for (std::size_t i = 0; i < kShells; ++i) {
    ring += "process P" + std::to_string(i) + " 1 1\n";
  }
  for (std::size_t i = 0; i < kShells; ++i) {
    ring += "channel P" + std::to_string(i) + ".0 -> P" +
            std::to_string((i + 1) % kShells) + ".0 : F\n";
  }
  ServerOptions opts;
  opts.port = 0;
  Server server(opts);
  server.start();
  const auto answers = roundtrip(
      server.port(), {request_json("prove", ring.c_str()),
                      request_json("shutdown", nullptr)});
  ASSERT_EQ(answers.size(), 2u);
  const Json doc = Json::parse(answers[0]);
  ASSERT_TRUE(doc.find("ok")->as_bool()) << answers[0].substr(0, 400);
  EXPECT_EQ(doc.find("result")->find("verdict")->as_string(), "proved");
  server.wait();
}

TEST(Server, ProtocolViolationGetsAnErrorFrameAndTheConnectionDropped) {
  ServerOptions opts;
  opts.port = 0;
  opts.limits.max_frame_bytes = 1 << 10;
  Server server(opts);
  server.start();

  const testutil::Socket conn(testutil::connect_loopback(server.port()));
  ASSERT_GE(conn.fd, 0);
  // Declared length beyond the server's limit.
  const char hdr[4] = {0x01, 0x00, 0x00, 0x00};
  ASSERT_EQ(::send(conn.fd, hdr, 4, MSG_NOSIGNAL), 4);
  std::string payload;
  ASSERT_TRUE(read_frame(conn.fd, payload));
  const Json doc = Json::parse(payload);
  EXPECT_FALSE(doc.find("ok")->as_bool());
  EXPECT_NE(doc.find("error")->as_string().find("exceeds the limit"),
            std::string::npos);
  EXPECT_FALSE(read_frame(conn.fd, payload));  // server hung up

  server.shutdown();
  server.wait();
  // The listener hands the violation to the daemon's counter.
  EXPECT_EQ(server.context().protocol_errors.value(), 1u);
}

// One failed accept must not end a daemon's accepting.  A client
// connects while every descriptor below RLIMIT_NOFILE is taken: the
// accept the listener is blocked in still delivers it (it reserved a
// descriptor before blocking), and the next accept fails with EMFILE.
// Once descriptors are free again, that client and a fresh one must
// both be answered.
TEST(Server, AcceptsAgainAfterRunningOutOfDescriptors) {
  Server server;
  server.start();
  const std::string status = request_json("status", nullptr);
  {
    // One answered request first, so the listener is back in accept,
    // and its descriptor closed, so none comes free during the test.
    const testutil::Socket warm(testutil::connect_loopback(server.port()));
    std::string answer;
    write_frame(warm.fd, status);
    ASSERT_TRUE(read_frame(warm.fd, answer));
    ::shutdown(warm.fd, SHUT_WR);
    ASSERT_FALSE(read_frame(warm.fd, answer));  // the daemon hung up
  }

  // Made now: a socket cannot be made while the descriptors are out.
  const testutil::Socket early(::socket(AF_INET, SOCK_STREAM, 0));
  ASSERT_GE(early.fd, 0);
  const timeval timeout{5, 0};
  ::setsockopt(early.fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));

  // Lower the soft limit to just past the lowest free descriptor, then
  // take every free one below it.  setrlimit acts on this process only.
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  const int lowest_free = ::dup(early.fd);
  ASSERT_GE(lowest_free, 0);
  ::close(lowest_free);
  rlimit low = saved;
  low.rlim_cur = static_cast<rlim_t>(lowest_free) + 1;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);
  std::vector<int> taken;
  for (int fd; (fd = ::dup(early.fd)) >= 0;) taken.push_back(fd);
  const int dup_errno = errno;

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.port());
  const int connected =
      ::connect(early.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (connected == 0) write_frame(early.fd, status);
  // Long enough for the accept loop to meet EMFILE.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  for (int fd : taken) ::close(fd);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  ASSERT_EQ(dup_errno, EMFILE);
  ASSERT_EQ(connected, 0);

  auto answered = [](int fd) {
    std::string payload;
    try {
      return read_frame(fd, payload) &&
             Json::parse(payload).find("ok")->as_bool();
    } catch (const std::exception&) {
      return false;  // no answer within the read deadline
    }
  };
  EXPECT_TRUE(answered(early.fd));
  const testutil::Socket fresh(testutil::connect_loopback(server.port(), 5));
  ASSERT_GE(fresh.fd, 0);
  write_frame(fresh.fd, status);
  EXPECT_TRUE(answered(fresh.fd));
  server.shutdown();
  server.wait();
}

// Every `lidtool client` call is one connection carrying one request, so
// the daemon's memory must not grow with the connections it has served:
// each finished connection's thread is joined and its stack unmapped.
TEST(Server, MemoryStopsGrowingWithTheConnectionCount) {
  Server server;
  server.start();
  const auto grown_kib = testutil::vm_growth_over_connections_kib(
      server.port(), request_json("status", nullptr));
  ASSERT_TRUE(grown_kib.has_value());
  EXPECT_LT(*grown_kib, 64 << 10)
      << "VmSize grew " << *grown_kib << " KiB over 800 connections";
}

}  // namespace
