#include "support/cli.hpp"

#include <algorithm>
#include <charconv>
#include <stdexcept>

#include "support/expects.hpp"

namespace jamelect {

Cli::Cli(int argc, const char* const* argv) {
  JAMELECT_EXPECTS(argc >= 1);
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      options_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // `--name value` form: consume the next token as the value unless it
    // looks like another option; bare `--flag` means "true".
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      options_[arg] = argv[++i];
    } else {
      options_[arg] = "true";
    }
  }
}

bool Cli::has(const std::string& name) const {
  return options_.count(name) != 0;
}

std::optional<std::string> Cli::raw(const std::string& name) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return std::nullopt;
  return it->second;
}

std::string Cli::get_string(const std::string& name,
                            const std::string& fallback) const {
  return raw(name).value_or(fallback);
}

namespace {

// Parses the whole of `text` as a T, or throws std::invalid_argument
// naming the option: no trailing junk, no sign on an unsigned, no
// out-of-range value wrapped or clamped.
template <class T>
T parse_number(const std::string& name, const std::string& text,
               const char* what) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) {
    throw std::invalid_argument("--" + name + "=" + text + ": not " + what);
  }
  return value;
}

}  // namespace

std::int64_t Cli::get_int(const std::string& name, std::int64_t fallback) const {
  const auto v = raw(name);
  if (!v) return fallback;
  return parse_number<std::int64_t>(name, *v, "an integer");
}

std::uint64_t Cli::get_uint(const std::string& name, std::uint64_t fallback,
                            std::uint64_t lo, std::uint64_t hi) const {
  const auto v = raw(name);
  if (!v) return fallback;
  const auto value =
      parse_number<std::uint64_t>(name, *v, "an unsigned integer");
  if (value < lo || value > hi) {
    throw std::invalid_argument("--" + name + "=" + *v + ": not in [" +
                                std::to_string(lo) + ", " +
                                std::to_string(hi) + "]");
  }
  return value;
}

double Cli::get_double(const std::string& name, double fallback) const {
  const auto v = raw(name);
  if (!v) return fallback;
  return parse_number<double>(name, *v, "a number");
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
  const auto v = raw(name);
  if (!v) return fallback;
  std::string s = *v;
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char ch) { return static_cast<char>(std::tolower(ch)); });
  if (s == "1" || s == "true" || s == "yes" || s == "on") return true;
  if (s == "0" || s == "false" || s == "no" || s == "off") return false;
  throw std::invalid_argument("not a boolean: --" + name + "=" + *v);
}

std::vector<std::string> Cli::provided_names() const {
  std::vector<std::string> names;
  names.reserve(options_.size());
  for (const auto& [k, _] : options_) names.push_back(k);
  return names;
}

}  // namespace jamelect
