// liplib/support/json.hpp
//
// A minimal JSON value builder with deterministic serialization: object
// keys keep insertion order and numbers are emitted exactly (integers as
// integers, rationals as "num/den" strings), so two structurally equal
// documents built in the same order serialize byte-identically.  This is
// what the campaign aggregation layer and the machine-readable bench
// outputs rely on — no locale, no float formatting drift, no hash-map
// ordering.
//
// Json::parse is the reader half: a strict recursive-descent parser for
// the same dialect (UTF-8 text, \uXXXX escapes, int/uint/double split on
// the number grammar), so the BENCH_*.json perf artifacts and telemetry
// post-mortem bundles the repo writes can be consumed back (lidtool
// `bench diff`, `replay`).  parse(dump(x)) reconstructs x.

#pragma once

#include <charconv>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "liplib/support/check.hpp"
#include "liplib/support/rational.hpp"

namespace liplib {

/// An ordered JSON value (null, bool, integer, double, string, array,
/// object).  Build with the static factories and set()/push(); serialize
/// with dump().
class Json {
 public:
  Json() : kind_(Kind::kNull) {}
  Json(bool b) : kind_(Kind::kBool), bool_(b) {}  // NOLINT
  Json(std::int64_t v) : kind_(Kind::kInt), int_(v) {}  // NOLINT
  Json(std::uint64_t v)  // NOLINT
      : kind_(Kind::kUInt), uint_(v) {}
  Json(int v) : kind_(Kind::kInt), int_(v) {}  // NOLINT
  Json(unsigned v) : kind_(Kind::kUInt), uint_(v) {}  // NOLINT
  Json(double v) : kind_(Kind::kDouble), double_(v) {}  // NOLINT
  Json(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}  // NOLINT
  Json(const char* s) : kind_(Kind::kString), str_(s) {}  // NOLINT
  /// Rationals serialize as the exact string "num/den" (or "num").
  Json(const Rational& r)  // NOLINT
      : kind_(Kind::kString), str_(r.str()) {}

  static Json object() {
    Json j;
    j.kind_ = Kind::kObject;
    return j;
  }
  static Json array() {
    Json j;
    j.kind_ = Kind::kArray;
    return j;
  }

  /// Sets a key on an object (insertion-ordered; duplicate keys are a
  /// caller bug).  Returns *this for chaining.
  Json& set(std::string key, Json value) {
    LIPLIB_EXPECT(kind_ == Kind::kObject, "Json::set on a non-object");
    members_.emplace_back(std::move(key), std::move(value));
    return *this;
  }

  /// Appends an element to an array.  Returns *this for chaining.
  Json& push(Json value) {
    LIPLIB_EXPECT(kind_ == Kind::kArray, "Json::push on a non-array");
    elements_.push_back(std::move(value));
    return *this;
  }

  bool empty() const { return members_.empty() && elements_.empty(); }

  /// Structural equality (same kind, same members in the same order).
  bool operator==(const Json&) const = default;

  // ---- inspection (for parsed documents) --------------------------------

  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const {
    return kind_ == Kind::kInt || kind_ == Kind::kUInt ||
           kind_ == Kind::kDouble;
  }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool as_bool() const {
    LIPLIB_EXPECT(kind_ == Kind::kBool, "Json::as_bool on a non-bool");
    return bool_;
  }
  /// Any numeric kind, widened to double (ints above 2^53 lose precision,
  /// as in any JSON consumer).
  double as_double() const {
    switch (kind_) {
      case Kind::kInt: return static_cast<double>(int_);
      case Kind::kUInt: return static_cast<double>(uint_);
      case Kind::kDouble: return double_;
      default: break;
    }
    throw ApiError("Json::as_double on a non-number");
  }
  std::uint64_t as_uint() const {
    if (kind_ == Kind::kUInt) return uint_;
    if (kind_ == Kind::kInt && int_ >= 0) {
      return static_cast<std::uint64_t>(int_);
    }
    throw ApiError("Json::as_uint on a non-(unsigned-)integer");
  }
  std::int64_t as_int() const {
    if (kind_ == Kind::kInt) return int_;
    if (kind_ == Kind::kUInt && uint_ <= 0x7fffffffffffffffull) {
      return static_cast<std::int64_t>(uint_);
    }
    throw ApiError("Json::as_int on a non-integer");
  }
  const std::string& as_string() const {
    LIPLIB_EXPECT(kind_ == Kind::kString, "Json::as_string on a non-string");
    return str_;
  }

  /// Array length / object member count.
  std::size_t size() const {
    return kind_ == Kind::kArray ? elements_.size() : members_.size();
  }
  /// Array element access.
  const Json& at(std::size_t i) const {
    LIPLIB_EXPECT(kind_ == Kind::kArray && i < elements_.size(),
                  "Json::at out of range or on a non-array");
    return elements_[i];
  }
  /// Object member lookup (first match, insertion order); nullptr when
  /// the key is absent or the value is not an object.
  const Json* find(std::string_view key) const {
    if (kind_ != Kind::kObject) return nullptr;
    for (const auto& [k, v] : members_) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  /// Insertion-ordered members of an object (empty for other kinds).
  const std::vector<std::pair<std::string, Json>>& members() const {
    return members_;
  }
  /// Elements of an array (empty for other kinds).
  const std::vector<Json>& elements() const { return elements_; }

  /// Serializes the value.  indent = 0: compact one-line form; indent > 0:
  /// pretty-printed with that many spaces per level.
  std::string dump(int indent = 0) const {
    std::string out;
    write(out, indent, 0);
    out.shrink_to_fit();  // dumps are kept (cache entries): no growth slack
    return out;
  }

  /// Input guards for parse().  The defaults are generous for trusted
  /// artifacts (BENCH_*.json, post-mortem bundles); layers that feed the
  /// parser untrusted bytes — the serve RPC layer — pass their own
  /// ceilings.  Violations are explicit ApiErrors, never silent
  /// truncation and never an unbounded recursion.
  struct ParseLimits {
    /// Maximum input length in bytes.
    std::size_t max_bytes = 64u << 20;
    /// Maximum object/array nesting depth (each level is one native
    /// recursion frame, so this bounds stack use).
    std::size_t max_depth = 128;
  };

  /// Parses with the default limits.
  static Json parse(std::string_view text) { return parse(text, ParseLimits()); }

  /// Parses a JSON document.  Strict: one value, nothing but whitespace
  /// after it; throws ApiError with a byte offset on malformed input,
  /// and up front when the input breaches `limits`.
  static Json parse(std::string_view text, const ParseLimits& limits) {
    if (text.size() > limits.max_bytes) {
      throw ApiError("JSON input of " + std::to_string(text.size()) +
                     " bytes exceeds the limit of " +
                     std::to_string(limits.max_bytes) + " bytes");
    }
    Parser p{text, 0, 0, limits.max_depth};
    Json v = p.value();
    p.skip_ws();
    if (p.pos != text.size()) p.fail("trailing characters after the value");
    return v;
  }

 private:
  enum class Kind { kNull, kBool, kInt, kUInt, kDouble, kString, kArray,
                    kObject };

  struct Parser {
    std::string_view text;
    std::size_t pos;
    std::size_t depth;
    std::size_t max_depth;

    [[noreturn]] void fail(const std::string& what) const {
      throw ApiError("JSON parse error at byte " + std::to_string(pos) +
                     ": " + what);
    }
    void skip_ws() {
      while (pos < text.size() &&
             (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
              text[pos] == '\r')) {
        ++pos;
      }
    }
    char peek() {
      if (pos >= text.size()) fail("unexpected end of input");
      return text[pos];
    }
    void expect(char c) {
      if (peek() != c) fail(std::string("expected '") + c + "'");
      ++pos;
    }
    bool consume_word(std::string_view w) {
      if (text.substr(pos, w.size()) != w) return false;
      pos += w.size();
      return true;
    }

    Json value() {
      skip_ws();
      switch (peek()) {
        case '{':
        case '[': {
          if (depth >= max_depth) {
            fail("nesting deeper than the limit of " +
                 std::to_string(max_depth) + " levels");
          }
          ++depth;
          Json v = text[pos] == '{' ? object() : array();
          --depth;
          return v;
        }
        case '"': return Json(string());
        case 't':
          if (consume_word("true")) return Json(true);
          fail("bad literal");
        case 'f':
          if (consume_word("false")) return Json(false);
          fail("bad literal");
        case 'n':
          if (consume_word("null")) return Json();
          fail("bad literal");
        default: return number();
      }
    }

    Json object() {
      expect('{');
      Json o = Json::object();
      skip_ws();
      if (peek() == '}') {
        ++pos;
        return o;
      }
      for (;;) {
        skip_ws();
        std::string key = string();
        skip_ws();
        expect(':');
        o.set(std::move(key), value());
        skip_ws();
        if (peek() == ',') {
          ++pos;
          continue;
        }
        expect('}');
        return o;
      }
    }

    Json array() {
      expect('[');
      Json a = Json::array();
      skip_ws();
      if (peek() == ']') {
        ++pos;
        return a;
      }
      for (;;) {
        a.push(value());
        skip_ws();
        if (peek() == ',') {
          ++pos;
          continue;
        }
        expect(']');
        return a;
      }
    }

    std::string string() {
      expect('"');
      std::string out;
      for (;;) {
        const char c = peek();
        ++pos;
        if (c == '"') return out;
        if (c != '\\') {
          out.push_back(c);
          continue;
        }
        const char e = peek();
        ++pos;
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            unsigned cp = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = peek();
              ++pos;
              cp <<= 4;
              if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
              else fail("bad \\u escape");
            }
            // UTF-8 encode the code point (surrogate pairs are passed
            // through as-is; the writer never emits them).
            if (cp < 0x80) {
              out.push_back(static_cast<char>(cp));
            } else if (cp < 0x800) {
              out.push_back(static_cast<char>(0xc0 | (cp >> 6)));
              out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
            } else {
              out.push_back(static_cast<char>(0xe0 | (cp >> 12)));
              out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
              out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
            }
            break;
          }
          default: fail("bad escape");
        }
      }
    }

    Json number() {
      const std::size_t start = pos;
      if (pos < text.size() && text[pos] == '-') ++pos;
      bool integral = true;
      while (pos < text.size()) {
        const char c = text[pos];
        if (c >= '0' && c <= '9') {
          ++pos;
        } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                   c == '-') {
          integral = false;
          ++pos;
        } else {
          break;
        }
      }
      const std::string_view tok = text.substr(start, pos - start);
      if (tok.empty() || tok == "-") fail("bad number");
      const char* first = tok.data();
      const char* last = tok.data() + tok.size();
      if (integral) {
        if (tok[0] == '-') {
          std::int64_t v = 0;
          const auto [p, ec] = std::from_chars(first, last, v);
          if (ec == std::errc() && p == last) return Json(v);
        } else {
          std::uint64_t v = 0;
          const auto [p, ec] = std::from_chars(first, last, v);
          if (ec == std::errc() && p == last) {
            if (v <= 0x7fffffffffffffffull) {
              // Small magnitudes normalize to the signed kind so that
              // parse(dump(Json(int))) round-trips through set()/push()
              // chains uniformly; as_uint accepts both.
              return Json(static_cast<std::int64_t>(v));
            }
            return Json(v);
          }
        }
        // Out-of-range integer literal: fall through to double.
      }
      double d = 0;
      const auto [p, ec] = std::from_chars(first, last, d);
      if (ec != std::errc() || p != last) fail("bad number");
      return Json(d);
    }
  };

  static void write_escaped(std::string& out, const std::string& s) {
    out += '"';
    for (char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            const char* hex = "0123456789abcdef";
            out += "\\u00";
            out += hex[(c >> 4) & 0xf];
            out += hex[c & 0xf];
          } else {
            out += c;
          }
      }
    }
    out += '"';
  }

  template <class Int>
  static void write_integer(std::string& out, Int v) {
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
  }

  // Appends to one string rather than streaming: a dump is on every
  // request's path (responses, cache keys), and the stream costs most of
  // it for small documents.
  void write(std::string& out, int indent, int depth) const {
    const std::string pad(static_cast<std::size_t>(indent) * (depth + 1), ' ');
    const std::string close_pad(static_cast<std::size_t>(indent) * depth, ' ');
    const char* nl = indent > 0 ? "\n" : "";
    switch (kind_) {
      case Kind::kNull: out += "null"; break;
      case Kind::kBool: out += bool_ ? "true" : "false"; break;
      case Kind::kInt: write_integer(out, int_); break;
      case Kind::kUInt: write_integer(out, uint_); break;
      case Kind::kDouble: {
        // Shortest round-trippable form, locale-independent.
        std::ostringstream tmp;
        tmp.imbue(std::locale::classic());
        tmp.precision(17);
        tmp << double_;
        out += tmp.str();
        break;
      }
      case Kind::kString: write_escaped(out, str_); break;
      case Kind::kArray: {
        if (elements_.empty()) {
          out += "[]";
          break;
        }
        out += '[';
        out += nl;
        for (std::size_t i = 0; i < elements_.size(); ++i) {
          out += pad;
          elements_[i].write(out, indent, depth + 1);
          if (i + 1 < elements_.size()) out += ',';
          out += nl;
        }
        out += close_pad;
        out += ']';
        break;
      }
      case Kind::kObject: {
        if (members_.empty()) {
          out += "{}";
          break;
        }
        out += '{';
        out += nl;
        for (std::size_t i = 0; i < members_.size(); ++i) {
          out += pad;
          write_escaped(out, members_[i].first);
          out += indent > 0 ? ": " : ":";
          members_[i].second.write(out, indent, depth + 1);
          if (i + 1 < members_.size()) out += ',';
          out += nl;
        }
        out += close_pad;
        out += '}';
        break;
      }
    }
  }

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  std::uint64_t uint_ = 0;
  double double_ = 0;
  std::string str_;
  std::vector<Json> elements_;
  std::vector<std::pair<std::string, Json>> members_;
};

}  // namespace liplib
