// SweepRequest — one validated, canonicalized parameter-sweep job.
//
// A request names a protocol, an engine, a network size, an adversary
// and a Monte-Carlo budget; the service canonicalizes it into a
// RunManifest-style config map (every field rendered with
// obs::canonical_number) whose obs::config_fingerprint — which also
// covers the build's git SHA — is the result-cache key. Two requests
// with the same key are THE SAME run by the reproducibility contract
// (trial k derives all randomness from mix64(seed, k)), so a cached
// result is bit-identical to recomputation.
//
// Parsing rejects unknown fields: an ignored field would alias two
// different-looking requests onto one cache key.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "service/json.hpp"

namespace jamelect::service {

/// Validation ceilings, so one hostile request can't pin a worker for
/// hours. Raise them for trusted deployments via ServiceConfig.
struct SweepLimits {
  std::size_t max_trials = 1'000'000;
  std::int64_t max_slots = 10'000'000;
  std::uint64_t max_n = 1u << 22;
};

struct SweepRequest {
  std::string protocol = "lesk";     ///< lesk | lesu | uniform
  std::string engine = "aggregate";  ///< aggregate | hybrid | cohort
  std::uint64_t n = 1024;
  double eps = 0.5;      ///< protocol eps (lesk) and adversary eps
  double u = -1.0;       ///< uniform: broadcast exponent; -1 -> log2(n)
  double c = 6.0;        ///< lesu t0 constant
  std::string adversary = "none";  ///< an adversary_policy_names() entry
  std::int64_t T = 64;
  double q = 0.0;            ///< bernoulli jam probability (0 -> 1-eps)
  std::int64_t period = 0;   ///< periodic period (0 -> T)
  std::int64_t burst = -1;   ///< periodic burst (-1 -> floor((1-eps)T))
  std::int64_t on = 1;       ///< pulse on-length
  std::int64_t off = 1;      ///< pulse off-length
  std::size_t trials = 64;
  std::uint64_t seed = 1;
  std::int64_t max_slots = 100'000;
  std::size_t batch = 64;  ///< SoA lanes per work item; 0 = sequential

  /// Parses the `params` object of a sweep request. Returns nullopt and
  /// an explanation on malformed shape, unknown field, or a value
  /// outside `limits`.
  [[nodiscard]] static std::optional<SweepRequest> from_json(
      const Json& params, const SweepLimits& limits, std::string* error);

  /// Re-validates an already-constructed request (from_json calls this).
  [[nodiscard]] bool validate(const SweepLimits& limits,
                              std::string* error) const;

  /// The RunManifest-style canonical config map: every field, stringly,
  /// numerics via obs::canonical_number, plus the build git SHA.
  [[nodiscard]] std::map<std::string, std::string> config_map() const;

  /// obs::config_fingerprint(config_map()) — the result-cache key.
  [[nodiscard]] std::string cache_key() const;

  /// The request as a canonical JSON object (for envelopes and logs).
  [[nodiscard]] Json to_json() const;
};

}  // namespace jamelect::service
