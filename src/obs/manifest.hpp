// RunManifest — a self-describing record of one run.
//
// Every bench (and any example or sweep that opts in) writes a
// `<name>.manifest.json` next to its results so a BENCH_*.json or CSV
// series can be traced back to the exact configuration that produced
// it: config key-values, RNG seed, git SHA, build type and flags
// (obs/build_info.hpp, generated at configure time), whether telemetry
// macros were compiled in, a rollup of every metric the global
// MetricsRegistry collected during the run, and — when the profiler is
// compiled in and enabled (JAMELECT_OBS_PROF) — a `profile` object with
// the PhaseProfiler's cross-thread ns and calls per phase and its
// counter totals.
//
// Schema: docs/OBSERVABILITY.md §Manifests.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace jamelect::obs {

struct RunManifest {
  std::string name;
  std::uint64_t seed = 0;
  /// Free-form configuration key-values (trial counts, sweep ranges,
  /// argv, environment knobs — whatever makes the run reproducible).
  std::map<std::string, std::string> config;
  /// Include the global MetricsRegistry rollup in the JSON.
  bool include_metrics = true;

  /// Serializes the manifest (plus build info and a wall-clock
  /// timestamp) as a JSON object.
  [[nodiscard]] std::string to_json() const;

  /// Writes to_json() to `path`; returns false on I/O failure.
  bool write_file(const std::string& path) const;
};

/// Escapes a string for embedding in a JSON string literal.
[[nodiscard]] std::string json_escape(const std::string& s);

// Canonical config serialization — the sweep service's cache identity.
//
// A manifest config map serializes to EXACTLY one byte sequence:
// std::map iteration gives a total key order, json_escape is
// deterministic, and there is no whitespace variance (single-line,
// `{"k":"v",...}`). Two configs are the same run if and only if their
// canonical JSON bytes are equal, so the fingerprint below is a sound
// memoization key (src/service/result_cache.hpp).

/// Single-line canonical JSON object of a config map: keys in byte
/// order (std::map), no insignificant whitespace.
[[nodiscard]] std::string canonical_config_json(
    const std::map<std::string, std::string>& config);

/// Canonical text form for numeric config values: integral doubles in
/// [-2^53, 2^53] print as integers ("4096"), everything else as %.17g
/// (shortest exact round-trip is version-dependent; 17 significant
/// digits is exact and stable). Use this when building config maps so
/// 0.5 serializes identically no matter which code path formatted it.
[[nodiscard]] std::string canonical_number(double value);

/// 128-bit FNV-1a of `bytes` as 32 hex chars: two independent 64-bit
/// lanes (distinct offset bases). The config fingerprint and the
/// result-cache envelope checksum both use it.
using Fnv128Hex = std::array<char, 32>;
[[nodiscard]] Fnv128Hex fnv128_hex(std::string_view bytes) noexcept;

/// fnv128_hex of canonical_config_json(config), hex-encoded
/// (32 chars). Deterministic across processes, platforms and field
/// insertion orders — the manifest-keyed result cache key.
[[nodiscard]] std::string config_fingerprint(
    const std::map<std::string, std::string>& config);

/// Resolves where manifests should be written:
///  * env JAMELECT_MANIFEST=0 (or "off") disables writing — returns "";
///  * env JAMELECT_MANIFEST_DIR overrides the directory;
///  * otherwise the current working directory.
/// The returned path is "<dir>/<name>.manifest.json" (or "").
[[nodiscard]] std::string manifest_path_for(const std::string& name);

}  // namespace jamelect::obs
