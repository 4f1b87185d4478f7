// liplib/support/flags.hpp
//
// The command-line parser behind every lidtool subcommand.  A command
// lists the flags it takes (spelling, and whether a value follows);
// Flags splits the arguments into flag values and positional arguments.
// An unknown flag, or a flag missing its value, is an ApiError, which
// lidtool reports as a usage error (exit 2).  The request knobs of
// liplib/serve contribute their flags through serve::knob_flags, so a
// knob is spelled the same on every command that takes it.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace liplib {

/// One flag a command accepts.
struct FlagSpec {
  std::string name;         ///< "--budget", "-o"
  bool takes_value = true;  ///< false: a bare switch ("--json")
};

/// A parsed command line.
class Flags {
 public:
  /// Parses `args` against `known`.  An argument starting with '-' (other
  /// than "-" itself) must be a known flag; a flag that takes a value
  /// consumes the next argument whatever it looks like.  Throws ApiError
  /// on an unknown flag or a missing value.
  Flags(const std::vector<std::string>& args,
        const std::vector<FlagSpec>& known);

  bool has(std::string_view flag) const;
  /// The flag's value (the last one when repeated), or `fallback`.
  std::string value(std::string_view flag, std::string fallback = {}) const;
  /// The flag's value as parse_u64 reads it, or `fallback`.
  std::uint64_t number(std::string_view flag, std::uint64_t fallback) const;

  std::vector<std::string>& positional() { return positional_; }
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::vector<std::pair<std::string, std::string>> values_;
  std::vector<std::string> positional_;
};

/// An unsigned number with a readable diagnostic ("--seed expects a
/// number, got 'xyz'"): decimal digits, or 0x-prefixed hex (seeds are
/// naturally quoted in hex: failure reports print them that way).
/// Signs, whitespace, trailing garbage and overflow are rejected, so
/// "-1", " 7", "1x" or "0x12g3" fail instead of wrapping or truncating.
std::uint64_t parse_u64(const std::string& text, const std::string& what);

/// Plain decimal digits only: no sign, no whitespace, no trailing
/// bytes, no overflow (std::stoull would accept " 7", "+7" and "-1").
/// The parser of every count a document or netlist spells in digits.
bool parse_digits(const std::string& text, std::uint64_t* out);

}  // namespace liplib
