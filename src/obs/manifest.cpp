#include "obs/manifest.hpp"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "obs/build_info.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"

namespace jamelect::obs {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string canonical_config_json(
    const std::map<std::string, std::string>& config) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : config) {
    if (!first) out += ',';
    out += '"';
    out += json_escape(k);
    out += "\":\"";
    out += json_escape(v);
    out += '"';
    first = false;
  }
  out += '}';
  return out;
}

std::string canonical_number(double value) {
  const double r = value < 0 ? -value : value;
  if (value == static_cast<double>(static_cast<long long>(value)) &&
      r <= 9007199254740992.0) {  // 2^53: exactly representable integers
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(value));
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

Fnv128Hex fnv128_hex(std::string_view bytes) noexcept {
  // Two independent 64-bit lanes (distinct offset bases) for a 128-bit
  // hash: collisions across a cache of millions of configs are ~2^-64
  // likely — comfortably below any operational concern.
  std::uint64_t h1 = 0xcbf29ce484222325ULL;
  std::uint64_t h2 = 0x84222325cbf29ce4ULL;
  for (const char ch : bytes) {
    const auto c = static_cast<unsigned char>(ch);
    h1 = (h1 ^ c) * 0x100000001b3ULL;
    h2 = (h2 ^ c) * 0x100000001b3ULL;
  }
  static constexpr char kHex[] = "0123456789abcdef";
  Fnv128Hex out;
  for (int i = 0; i < 16; ++i) {
    out[15 - i] = kHex[(h1 >> (4 * i)) & 0xf];
    out[31 - i] = kHex[(h2 >> (4 * i)) & 0xf];
  }
  return out;
}

std::string config_fingerprint(
    const std::map<std::string, std::string>& config) {
  const Fnv128Hex hex = fnv128_hex(canonical_config_json(config));
  return std::string(hex.data(), hex.size());
}

std::string RunManifest::to_json() const {
  std::ostringstream out;
  const auto now_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::system_clock::now().time_since_epoch())
                          .count();
  out << "{\n";
  out << "  \"name\": \"" << json_escape(name) << "\",\n";
  out << "  \"seed\": " << seed << ",\n";
  out << "  \"created_unix_ms\": " << now_ms << ",\n";
  out << "  \"build\": {\n";
  out << "    \"git_sha\": \"" << json_escape(kGitSha) << "\",\n";
  out << "    \"build_type\": \"" << json_escape(kBuildType) << "\",\n";
  out << "    \"compiler\": \"" << json_escape(kCompiler) << "\",\n";
  out << "    \"cxx_flags\": \"" << json_escape(kCxxFlags) << "\",\n";
  out << "    \"obs_option\": \"" << json_escape(kObsOption) << "\",\n";
  out << "    \"obs_compiled_in\": " << (kObsCompiledIn ? "true" : "false")
      << "\n  },\n";
  out << "  \"config\": {";
  bool first = true;
  for (const auto& [k, v] : config) {
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(k) << "\": \""
        << json_escape(v) << '"';
    first = false;
  }
  out << (first ? "}" : "\n  }");
  if (include_metrics) {
    const MetricsSnapshot snap = MetricsRegistry::global().aggregate();
    out << ",\n  \"metrics\": {\n    \"counters\": {";
    first = true;
    for (const auto& [k, v] : snap.counters) {
      out << (first ? "\n" : ",\n") << "      \"" << json_escape(k)
          << "\": " << v;
      first = false;
    }
    out << (first ? "}" : "\n    }") << ",\n    \"gauges\": {";
    first = true;
    for (const auto& [k, v] : snap.gauges) {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.17g", v);
      out << (first ? "\n" : ",\n") << "      \"" << json_escape(k)
          << "\": " << buf;
      first = false;
    }
    out << (first ? "}" : "\n    }") << ",\n    \"histograms\": {";
    first = true;
    for (const auto& [k, h] : snap.histograms) {
      out << (first ? "\n" : ",\n") << "      \"" << json_escape(k)
          << "\": {\"count\": " << h.count << ", \"sum\": " << h.sum
          << ", \"min\": " << h.min << ", \"max\": " << h.max << '}';
      first = false;
    }
    out << (first ? "}" : "\n    }") << "\n  }";
  }
  if (kObsCompiledIn && PhaseProfiler::global().enabled()) {
    const ProfSnapshot prof = PhaseProfiler::global().snapshot();
    out << ",\n  \"profile\": {\n    \"phases\": {";
    for (std::size_t i = 0; i < kPhaseCount; ++i) {
      out << (i == 0 ? "\n" : ",\n") << "      \""
          << phase_name(static_cast<Phase>(i)) << "\": {\"ns\": " << prof.ns[i]
          << ", \"calls\": " << prof.calls[i] << '}';
    }
    out << "\n    },\n    \"counters\": {";
    for (std::size_t i = 0; i < kProfCounterCount; ++i) {
      out << (i == 0 ? "\n" : ",\n") << "      \""
          << prof_counter_name(static_cast<ProfCounter>(i))
          << "\": " << prof.counters[i];
    }
    out << "\n    }\n  }";
  }
  out << "\n}\n";
  return out.str();
}

bool RunManifest::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << to_json();
  return out.good();
}

std::string manifest_path_for(const std::string& name) {
  if (const char* flag = std::getenv("JAMELECT_MANIFEST")) {
    if (std::strcmp(flag, "0") == 0 || std::strcmp(flag, "off") == 0) {
      return "";
    }
  }
  std::string dir = ".";
  if (const char* env = std::getenv("JAMELECT_MANIFEST_DIR")) {
    if (*env != '\0') dir = env;
  }
  return dir + "/" + name + ".manifest.json";
}

}  // namespace jamelect::obs
