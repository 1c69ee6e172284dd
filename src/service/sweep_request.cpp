#include "service/sweep_request.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "obs/build_info.hpp"
#include "obs/manifest.hpp"
#include "sim/adversary_spec.hpp"

namespace jamelect::service {

namespace {

bool is_one_of(const std::string& v,
               std::initializer_list<const char*> options) {
  for (const char* o : options) {
    if (v == o) return true;
  }
  return false;
}

}  // namespace

std::optional<SweepRequest> SweepRequest::from_json(const Json& params,
                                                    const SweepLimits& limits,
                                                    std::string* error) {
  const auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  if (!params.is_object()) return fail("params must be a JSON object");

  SweepRequest req;
  for (const auto& [key, value] : params.as_object()) {
    const auto want_string = [&]() { return value.is_string(); };
    const auto want_number = [&]() { return value.is_number(); };
    if (key == "protocol" && want_string()) {
      req.protocol = value.as_string();
    } else if (key == "engine" && want_string()) {
      req.engine = value.as_string();
    } else if (key == "adversary" && want_string()) {
      req.adversary = value.as_string();
    } else if (key == "n" && want_number()) {
      req.n = static_cast<std::uint64_t>(value.as_int());
    } else if (key == "eps" && want_number()) {
      req.eps = value.as_double();
    } else if (key == "u" && want_number()) {
      req.u = value.as_double();
    } else if (key == "c" && want_number()) {
      req.c = value.as_double();
    } else if (key == "T" && want_number()) {
      req.T = value.as_int();
    } else if (key == "q" && want_number()) {
      req.q = value.as_double();
    } else if (key == "period" && want_number()) {
      req.period = value.as_int();
    } else if (key == "burst" && want_number()) {
      req.burst = value.as_int();
    } else if (key == "on" && want_number()) {
      req.on = value.as_int();
    } else if (key == "off" && want_number()) {
      req.off = value.as_int();
    } else if (key == "trials" && want_number()) {
      if (value.as_int() < 0) return fail("trials must be >= 1");
      req.trials = static_cast<std::size_t>(value.as_int());
    } else if (key == "seed" && want_number()) {
      req.seed = static_cast<std::uint64_t>(value.as_int());
    } else if (key == "max_slots" && want_number()) {
      req.max_slots = value.as_int();
    } else if (key == "batch" && want_number()) {
      if (value.as_int() < 0) return fail("batch must be >= 0");
      req.batch = static_cast<std::size_t>(value.as_int());
    } else if (is_one_of(key, {"protocol", "engine", "adversary", "n", "eps",
                               "u", "c", "T", "q", "period", "burst", "on",
                               "off", "trials", "seed", "max_slots",
                               "batch"})) {
      return fail("field '" + key + "' has the wrong type");
    } else {
      // Unknown fields are rejected, not ignored: an ignored field
      // would let two different-looking requests share a cache key.
      return fail("unknown field '" + key + "'");
    }
  }
  if (!req.validate(limits, error)) return std::nullopt;
  return req;
}

bool SweepRequest::validate(const SweepLimits& limits,
                            std::string* error) const {
  const auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (!is_one_of(protocol, {"lesk", "lesu", "uniform"})) {
    return fail("unknown protocol '" + protocol +
                "' (expected lesk|lesu|uniform)");
  }
  if (!is_one_of(engine, {"aggregate", "hybrid", "cohort"})) {
    return fail("unknown engine '" + engine +
                "' (expected aggregate|hybrid|cohort)");
  }
  const auto& policies = adversary_policy_names();
  if (std::find(policies.begin(), policies.end(), adversary) ==
      policies.end()) {
    return fail("unknown adversary policy '" + adversary + "'");
  }
  if (n < 1 || n > limits.max_n) return fail("n out of range");
  if (engine == "hybrid" && n < 3) return fail("hybrid needs n >= 3");
  if (!(eps > 0.0) || eps > 1.0) return fail("eps must be in (0, 1]");
  if (protocol == "uniform" && u != -1.0 && u < 0.0) {
    return fail("u must be >= 0 (or -1 for log2(n))");
  }
  if (!(c > 0.0)) return fail("c must be > 0");
  if (T < 1) return fail("T must be >= 1");
  if (q < 0.0 || q > 1.0) return fail("q must be in [0, 1]");
  if (adversary == "pulse") {
    if (on < 1) return fail("pulse on must be >= 1");
    if (off < 0) return fail("pulse off must be >= 0");
    if (off > std::numeric_limits<std::int64_t>::max() - on) {
      return fail("pulse on + off overflows");
    }
  }
  if (trials < 1 || trials > limits.max_trials) {
    return fail("trials out of range (1.." +
                std::to_string(limits.max_trials) + ")");
  }
  if (max_slots < 1 || max_slots > limits.max_slots) {
    return fail("max_slots out of range (1.." +
                std::to_string(limits.max_slots) + ")");
  }
  return true;
}

std::map<std::string, std::string> SweepRequest::config_map() const {
  using obs::canonical_number;
  std::map<std::string, std::string> config;
  config["protocol"] = protocol;
  config["engine"] = engine;
  config["adversary"] = adversary;
  // Integral fields format exactly via to_string (a 2^53 cast ceiling
  // would silently alias large seeds); only true doubles go through
  // canonical_number.
  config["n"] = std::to_string(n);
  config["eps"] = canonical_number(eps);
  config["u"] = canonical_number(u);
  config["c"] = canonical_number(c);
  config["T"] = std::to_string(T);
  config["q"] = canonical_number(q);
  config["period"] = std::to_string(period);
  config["burst"] = std::to_string(burst);
  config["on"] = std::to_string(on);
  config["off"] = std::to_string(off);
  config["trials"] = std::to_string(trials);
  config["seed"] = std::to_string(seed);
  config["max_slots"] = std::to_string(max_slots);
  // Deliberately NOT keyed: `batch` is a pure throughput knob with
  // bit-identical outcomes (McConfig::batch), so requests differing
  // only in batch size share one cache entry.
  config["git_sha"] = obs::kGitSha;
  return config;
}

std::string SweepRequest::cache_key() const {
  return obs::config_fingerprint(config_map());
}

Json SweepRequest::to_json() const {
  Json out;
  out.set_object();
  out.set("protocol", protocol);
  out.set("engine", engine);
  out.set("adversary", adversary);
  out.set("n", n);
  out.set("eps", eps);
  out.set("u", u);
  out.set("c", c);
  out.set("T", T);
  out.set("q", q);
  out.set("period", period);
  out.set("burst", burst);
  out.set("on", on);
  out.set("off", off);
  out.set("trials", static_cast<std::uint64_t>(trials));
  out.set("seed", seed);
  out.set("max_slots", max_slots);
  out.set("batch", static_cast<std::uint64_t>(batch));
  return out;
}

}  // namespace jamelect::service
