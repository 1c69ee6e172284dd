// Tiny command-line option parser for the example programs.
// Supports `--name=value`, `--name value` and boolean `--flag`.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace jamelect {

/// Parses argv into named options and positional arguments, with typed,
/// defaulted accessors. Unknown options are collected (not rejected) so
/// wrappers can pass through extra flags.
class Cli {
 public:
  Cli(int argc, const char* const* argv);

  [[nodiscard]] const std::string& program() const noexcept { return program_; }

  [[nodiscard]] bool has(const std::string& name) const;

  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& fallback) const;
  /// Numeric accessors parse the whole value and throw
  /// std::invalid_argument naming the option on anything else
  /// ("12x", "-1" for an unsigned, a value out of the type's range).
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  /// Also throws when the value lies outside [lo, hi].
  [[nodiscard]] std::uint64_t get_uint(
      const std::string& name, std::uint64_t fallback, std::uint64_t lo = 0,
      std::uint64_t hi = std::numeric_limits<std::uint64_t>::max()) const;
  [[nodiscard]] double get_double(const std::string& name, double fallback) const;
  /// Boolean flags: `--x`, `--x=true/false/1/0/yes/no`.
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// Names that were provided on the command line (for help/validation).
  [[nodiscard]] std::vector<std::string> provided_names() const;

 private:
  [[nodiscard]] std::optional<std::string> raw(const std::string& name) const;

  std::string program_;
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

}  // namespace jamelect
