#include "liplib/support/flags.hpp"

#include <algorithm>
#include <charconv>

#include "liplib/support/check.hpp"

namespace liplib {

Flags::Flags(const std::vector<std::string>& args,
             const std::vector<FlagSpec>& known) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a.size() < 2 || a[0] != '-') {
      positional_.push_back(a);
      continue;
    }
    const auto spec =
        std::find_if(known.begin(), known.end(),
                     [&](const FlagSpec& f) { return f.name == a; });
    if (spec == known.end()) throw ApiError("unknown option '" + a + "'");
    if (!spec->takes_value) {
      values_.emplace_back(a, "");
      continue;
    }
    if (i + 1 == args.size()) throw ApiError(a + " requires a value");
    values_.emplace_back(a, args[++i]);
  }
}

bool Flags::has(std::string_view flag) const {
  return std::any_of(values_.begin(), values_.end(),
                     [&](const auto& v) { return v.first == flag; });
}

std::string Flags::value(std::string_view flag, std::string fallback) const {
  for (auto it = values_.rbegin(); it != values_.rend(); ++it) {
    if (it->first == flag) return it->second;
  }
  return fallback;
}

std::uint64_t Flags::number(std::string_view flag,
                            std::uint64_t fallback) const {
  return has(flag) ? parse_u64(value(flag), std::string(flag)) : fallback;
}

std::uint64_t parse_u64(const std::string& text, const std::string& what) {
  const bool hex = text.size() > 2 && text[0] == '0' &&
                   (text[1] == 'x' || text[1] == 'X');
  const char* first = text.data() + (hex ? 2 : 0);
  const char* last = text.data() + text.size();
  std::uint64_t v = 0;
  const auto [p, ec] = std::from_chars(first, last, v, hex ? 16 : 10);
  if (ec != std::errc() || p != last) {
    throw ApiError(what + " expects a number, got '" + text + "'");
  }
  return v;
}

}  // namespace liplib
