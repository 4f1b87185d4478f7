#include "liplib/trace/trace.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <set>

#include "liplib/probe/trace.hpp"
#include "liplib/support/check.hpp"

namespace liplib::trace {

namespace {

/// FNV-1a 64-bit over raw bytes (duplicated from serve/cache so the
/// trace library stays below serve in the dependency order).
std::uint64_t fnv1a64_bytes(const void* data, std::size_t n,
                            std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t fnv1a64_u64(std::uint64_t v, std::uint64_t seed) {
  unsigned char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<unsigned char>(v >> (8 * i));
  }
  return fnv1a64_bytes(bytes, 8, seed);
}

std::string hex16(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[v & 0xf];
    v >>= 4;
  }
  return out;
}

std::uint64_t parse_hex16(const std::string& text, const char* what) {
  LIPLIB_EXPECT(!text.empty() && text.size() <= 16,
                std::string(what) + " must be 1..16 hex digits");
  std::uint64_t v = 0;
  for (const char c : text) {
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') digit = c - 'A' + 10;
    else {
      throw ApiError(std::string(what) + " contains a non-hex character");
    }
    v = (v << 4) | static_cast<std::uint64_t>(digit);
  }
  return v;
}

std::uint64_t steady_now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string string_member(const Json& doc, const char* key) {
  const Json* f = doc.find(key);
  LIPLIB_EXPECT(f && f->is_string(),
                std::string("trace document: field '") + key +
                    "' missing or not a string");
  return f->as_string();
}

std::uint64_t uint_member(const Json& doc, const char* key) {
  const Json* f = doc.find(key);
  LIPLIB_EXPECT(f && f->is_number(),
                std::string("trace document: field '") + key +
                    "' missing or non-numeric");
  return f->as_uint();
}

}  // namespace

std::uint64_t derive_trace_id(std::uint64_t content_hash) {
  const std::uint64_t id = fnv1a64_u64(content_hash, 0xcbf29ce484222325ull);
  return id == 0 ? 1 : id;
}

std::uint64_t derive_span_id(std::uint64_t trace_id, std::uint64_t salt_a,
                             std::uint64_t salt_b) {
  std::uint64_t h = fnv1a64_u64(trace_id, 0xcbf29ce484222325ull);
  h = fnv1a64_u64(salt_a, h);
  h = fnv1a64_u64(salt_b, h);
  return h == 0 ? 1 : h;
}

Json TraceContext::to_json() const {
  return Json::object()
      .set("trace_id", hex16(trace_id))
      .set("parent_span", hex16(parent_span));
}

TraceContext TraceContext::from_json(const Json& doc) {
  LIPLIB_EXPECT(doc.is_object(), "trace context must be a JSON object");
  TraceContext ctx;
  ctx.trace_id = parse_hex16(string_member(doc, "trace_id"), "trace_id");
  // A zero id is the disabled context, which is sent by omission, so
  // every accepted context re-renders as itself.
  LIPLIB_EXPECT(ctx.enabled(), "trace context: 'trace_id' must be non-zero");
  if (const Json* p = doc.find("parent_span")) {
    LIPLIB_EXPECT(p->is_string(), "trace context: 'parent_span' must be a "
                                  "hex string");
    ctx.parent_span = parse_hex16(p->as_string(), "parent_span");
  }
  return ctx;
}

TraceContext TraceContext::from_envelope(const Json& envelope) {
  if (!envelope.is_object()) return {};
  const Json* t = envelope.find("trace");
  if (!t || t->is_null()) return {};
  return from_json(*t);
}

Recorder::Recorder(std::function<std::uint64_t()> now_us)
    : now_us_(now_us ? std::move(now_us) : steady_now_us) {}

void Recorder::record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::size_t Recorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::vector<Span> Recorder::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {spans_.begin(), spans_.end()};
}

Json Recorder::to_json() const { return spans_to_json(snapshot()); }

void Recorder::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
}

Json span_to_json(const Span& s) {
  Json j = Json::object()
               .set("trace_id", hex16(s.trace_id))
               .set("span_id", hex16(s.span_id))
               .set("parent_span", hex16(s.parent_span))
               .set("name", s.name)
               .set("cat", s.category)
               .set("track", s.track)
               .set("ts_us", s.ts_us)
               .set("dur_us", s.dur_us);
  if (!s.events.empty()) {
    Json events = Json::array();
    for (const SpanEvent& e : s.events) {
      events.push(Json::object().set("name", e.name).set("ts_us", e.ts_us));
    }
    j.set("events", std::move(events));
  }
  if (!s.attrs.empty()) {
    Json attrs = Json::object();
    for (const auto& [k, v] : s.attrs) attrs.set(k, v);
    j.set("attrs", std::move(attrs));
  }
  return j;
}

Json spans_to_json(std::vector<Span> spans) {
  // Canonical order: whatever interleaving the recording threads saw,
  // the document bytes depend only on the span set itself.
  std::stable_sort(spans.begin(), spans.end(),
                   [](const Span& a, const Span& b) {
                     if (a.trace_id != b.trace_id)
                       return a.trace_id < b.trace_id;
                     if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
                     return a.span_id < b.span_id;
                   });
  Json arr = Json::array();
  for (const Span& s : spans) arr.push(span_to_json(s));
  return Json::object()
      .set("schema", kTraceSchema)
      .set("spans", std::move(arr));
}

std::vector<Span> spans_from_json(const Json& doc) {
  LIPLIB_EXPECT(doc.is_object(), "trace document must be a JSON object");
  const Json* schema = doc.find("schema");
  LIPLIB_EXPECT(schema && schema->is_string() &&
                    schema->as_string() == kTraceSchema,
                std::string("trace document missing schema ") + kTraceSchema);
  const Json* spans = doc.find("spans");
  LIPLIB_EXPECT(spans && spans->is_array(),
                "trace document missing 'spans' array");
  std::vector<Span> out;
  out.reserve(spans->size());
  for (const Json& j : spans->elements()) {
    LIPLIB_EXPECT(j.is_object(), "trace span must be a JSON object");
    Span s;
    s.trace_id = parse_hex16(string_member(j, "trace_id"), "trace_id");
    s.span_id = parse_hex16(string_member(j, "span_id"), "span_id");
    s.parent_span =
        parse_hex16(string_member(j, "parent_span"), "parent_span");
    s.name = string_member(j, "name");
    s.category = string_member(j, "cat");
    s.track = string_member(j, "track");
    s.ts_us = uint_member(j, "ts_us");
    s.dur_us = uint_member(j, "dur_us");
    if (const Json* events = j.find("events")) {
      LIPLIB_EXPECT(events->is_array(), "trace span 'events' must be an "
                                        "array");
      for (const Json& e : events->elements()) {
        SpanEvent ev;
        ev.name = string_member(e, "name");
        ev.ts_us = uint_member(e, "ts_us");
        s.events.push_back(std::move(ev));
      }
    }
    if (const Json* attrs = j.find("attrs")) {
      LIPLIB_EXPECT(attrs->is_object(), "trace span 'attrs' must be an "
                                        "object");
      for (const auto& [k, v] : attrs->members()) {
        LIPLIB_EXPECT(v.is_string(),
                      "trace span attr '" + k + "' must be a string");
        s.attrs.emplace_back(k, v.as_string());
      }
    }
    out.push_back(std::move(s));
  }
  return out;
}

Json merge_trace_docs(const std::vector<Json>& docs) {
  std::vector<Span> all;
  for (const Json& doc : docs) {
    std::vector<Span> part = spans_from_json(doc);
    all.insert(all.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
  }
  return spans_to_json(std::move(all));
}

bool check_integrity(const std::vector<Span>& spans, std::string* error) {
  const auto fail = [error](std::string msg) {
    if (error) *error = std::move(msg);
    return false;
  };
  // (trace_id, span_id) must be unique; parents must resolve in-trace.
  std::set<std::pair<std::uint64_t, std::uint64_t>> ids;
  for (const Span& s : spans) {
    if (s.trace_id == 0) {
      return fail("span '" + s.name + "' has trace_id 0");
    }
    if (s.span_id == 0) {
      return fail("span '" + s.name + "' has span_id 0");
    }
    if (!ids.insert({s.trace_id, s.span_id}).second) {
      return fail("duplicate span id " + hex16(s.span_id) + " in trace " +
                  hex16(s.trace_id));
    }
  }
  for (const Span& s : spans) {
    if (s.parent_span == 0) continue;
    if (!ids.count({s.trace_id, s.parent_span})) {
      return fail("span '" + s.name + "' (" + hex16(s.span_id) +
                  ") references missing parent " + hex16(s.parent_span) +
                  " in trace " + hex16(s.trace_id));
    }
    if (s.parent_span == s.span_id) {
      return fail("span '" + s.name + "' is its own parent");
    }
  }
  return true;
}

void export_perfetto(const std::vector<Span>& spans, probe::TraceSink& sink,
                     std::uint64_t pid_base) {
  // One Perfetto process per distinct track label, pids in sorted track
  // order so the export is byte-stable for a fixed span set.
  std::map<std::string, std::uint64_t> pids;
  for (const Span& s : spans) pids.emplace(s.track, 0);
  std::uint64_t next = pid_base;
  for (auto& [track, pid] : pids) {
    pid = next++;
    sink.name_process(pid, track);
    sink.name_thread(pid, 1, track);
  }
  // Canonical event order, matching spans_to_json.
  std::vector<const Span*> ordered;
  ordered.reserve(spans.size());
  for (const Span& s : spans) ordered.push_back(&s);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const Span* a, const Span* b) {
                     if (a->trace_id != b->trace_id)
                       return a->trace_id < b->trace_id;
                     if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
                     return a->span_id < b->span_id;
                   });
  for (const Span* s : ordered) {
    const std::uint64_t pid = pids[s->track];
    sink.complete_event(s->name, s->category, s->ts_us, s->dur_us, pid, 1);
    for (const SpanEvent& e : s->events) {
      sink.instant_event(e.name, s->category, e.ts_us, pid, 1);
    }
  }
}

}  // namespace liplib::trace
