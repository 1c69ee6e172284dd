// perfbench_layers — per-layer timings for the traced run.
//
//   perfbench_layers --tmp=DIR [--seed=1]
//
// Times calls into each module's public functions at fixed, seeded
// inputs, single-threaded, with std::chrono::steady_clock wall time.
// Each metric runs kReps repetitions of a loop calibrated to last about
// kRepSeconds and reports the median repetition. Prints one JSON object
// {"metric": value, ...}. DIR is scratch space for the result-cache
// disk tier.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "baselines/arss.hpp"
#include "protocols/lesk.hpp"
#include "protocols/uniform_station.hpp"
#include "service/json.hpp"
#include "service/result_cache.hpp"
#include "service/service.hpp"
#include "service/sweep_request.hpp"
#include "service/sweep_runner.hpp"
#include "sim/montecarlo.hpp"
#include "support/binomial.hpp"
#include "support/binomial_cache.hpp"
#include "support/cli.hpp"
#include "support/math.hpp"
#include "support/rng.hpp"
#include "support/slot_prob_cache.hpp"
#include "support/thread_pool.hpp"
#include "support/wide_rng.hpp"

namespace {

using namespace jamelect;
using Clock = std::chrono::steady_clock;

constexpr double kRepSeconds = 0.1;
constexpr int kReps = 5;

// Keeps a result observable so the timed call is not optimized away.
inline void keep(std::uint64_t v) { asm volatile("" : : "r"(v) : "memory"); }

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// Median seconds per op of `op` (one call = `ops_per_call` ops), over
// kReps repetitions of a call count calibrated to kRepSeconds.
double time_per_op(const std::function<void()>& op, double ops_per_call = 1.0) {
  std::size_t calls = 1;
  for (;;) {
    const auto t = Clock::now();
    for (std::size_t i = 0; i < calls; ++i) op();
    const double dt = seconds_since(t);
    if (dt >= kRepSeconds / 4 || calls >= (std::size_t{1} << 30)) {
      calls = std::max<std::size_t>(
          1, static_cast<std::size_t>(static_cast<double>(calls) *
                                      kRepSeconds / std::max(dt, 1e-9)));
      break;
    }
    calls *= 4;
  }
  std::vector<double> per_op;
  for (int r = 0; r < kReps; ++r) {
    const auto t = Clock::now();
    for (std::size_t i = 0; i < calls; ++i) op();
    per_op.push_back(seconds_since(t) /
                     (static_cast<double>(calls) * ops_per_call));
  }
  std::sort(per_op.begin(), per_op.end());
  return per_op[per_op.size() / 2];
}

// Slots simulated per wall-clock second by one single-threaded MC call.
double slots_per_s(const std::function<McResult(const McConfig&)>& run,
                   std::size_t trials) {
  McConfig cfg;
  cfg.trials = trials;
  cfg.seed = 0xBE7C;
  cfg.max_slots = 1 << 22;
  cfg.parallel = false;
  cfg.batch = 64;
  const McResult probe = run(cfg);
  const double slots = probe.slots.mean * static_cast<double>(probe.trials);
  const double s = time_per_op([&] { keep(run(cfg).successes); });
  return slots / s;
}

UniformProtocolFactory lesk() {
  return [] { return std::make_unique<Lesk>(0.5); };
}

AdversarySpec adversary(const char* policy) {
  AdversarySpec spec;
  spec.policy = policy;
  spec.T = 64;
  spec.eps = 0.5;
  return spec;
}

service::SweepRequest sweep(std::uint64_t seed) {
  service::SweepRequest req;
  req.engine = "cohort";
  req.n = 1 << 14;
  req.trials = 64;
  req.seed = seed;
  return req;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const std::string tmp = cli.get_string("tmp", "");
  const std::uint64_t seed = cli.get_uint("seed", 1);
  if (tmp.empty()) {
    std::cerr << "usage: perfbench_layers --tmp=DIR [--seed=N]\n";
    return 2;
  }
  service::Json out;
  out.set_object();

  // sim: the batched MC engines, one thread, LESK eps=0.5.
  constexpr std::uint64_t kN = 1 << 20;
  out.set("sim.batch.aggregate_slots_per_s", slots_per_s([](const McConfig& c) {
    return run_aggregate_mc(lesk(), adversary("none"), kN, c);
  }, 512));
  out.set("sim.batch.hybrid_slots_per_s", slots_per_s([](const McConfig& c) {
    return run_hybrid_mc(lesk(), adversary("none"), kN, c);
  }, 256));
  out.set("sim.batch.adaptive_slots_per_s", slots_per_s([](const McConfig& c) {
    return run_aggregate_mc(lesk(), adversary("collision_forcer"), kN, c);
  }, 512));
  out.set("sim.cohort_batch.slots_per_s", slots_per_s([](const McConfig& c) {
    return run_cohort_mc(
        [] { return std::make_unique<UniformStationAdapter>(lesk()()); },
        adversary("none"), kN,
        {CdMode::kStrong, StopRule::kAllDone, c.max_slots}, c);
  }, 256));
  out.set("sim.station_batch.slots_per_s", slots_per_s([](const McConfig& c0) {
    McConfig c = c0;
    c.batch = 4;
    c.max_slots = 1 << 19;
    constexpr std::uint64_t n = 256;
    const double gamma = arss_gamma(n, 64);
    return run_station_mc(
        [gamma](StationId) -> StationProtocolPtr {
          ArssParams params;
          params.gamma = gamma;
          return std::make_unique<ArssStation>(params);
        },
        adversary("none"), n, {CdMode::kStrong, StopRule::kAllDone, c.max_slots},
        c);
  }, 4));

  // support: RNG planes, slot-probability and binomial caches, pool.
  {
    WideXoshiro rng(64);
    for (std::size_t k = 0; k < 64; ++k) rng.seed_lane(k, seed * 64 + k);
    std::vector<double> u(64);
    out.set("support.wide_rng.ns_per_draw",
            1e9 * time_per_op([&] {
              rng.uniform_groups(16, u.data());
              keep(static_cast<std::uint64_t>(u[7] * 8.0));
            }, 64));
  }
  {
    constexpr double kStep = 0.5 / 8;  // LESK eps/8 lattice
    SlotProbCache cache(kN);
    cache.set_lattice_step(kStep);
    Rng rng(seed);
    std::vector<double> us(64), c_null(64), c_single(64), exp_tx(64);
    for (double& v : us) v = kStep * static_cast<double>(rng.below(400));
    out.set("support.slot_prob_cache.ns_per_lane",
            1e9 * time_per_op([&] {
              cache.lookup_lanes(us.data(), us.size(), c_null.data(),
                                 c_single.data(), exp_tx.data());
              keep(static_cast<std::uint64_t>(c_null[3] * 8.0));
            }, 64));
  }
  {
    // Cohort-like draws: sizes and exponents from a small working set.
    Rng pick(seed + 1);
    std::vector<std::pair<std::uint64_t, double>> draws(256);
    for (auto& [n, u] : draws) {
      n = std::uint64_t{1} << (1 + pick.below(20));
      u = 0.0625 * static_cast<double>(pick.below(400));
    }
    BinomialSamplerCache cache;
    Rng rng(seed + 2);
    out.set("support.binomial_cache.ns_per_draw",
            1e9 * time_per_op([&] {
              std::uint64_t acc = 0;
              for (const auto& [n, u] : draws) {
                acc += binomial_plan_draw(cache.plan(n, u), rng);
              }
              keep(acc);
            }, static_cast<double>(draws.size())));
    out.set("support.binomial.ns_per_draw",
            1e9 * time_per_op([&] {
              std::uint64_t acc = 0;
              for (const auto& [n, u] : draws) {
                acc += binomial_sample(n, transmit_probability(u), rng);
              }
              keep(acc);
            }, static_cast<double>(draws.size())));
  }
  {
    ThreadPool& pool = global_pool();
    const std::size_t width = pool.size() + 1;
    std::vector<std::uint64_t> cells(width * 8);
    out.set("support.thread_pool.dispatch_us",
            1e6 * time_per_op([&] {
              pool.parallel_for(width, [&](std::size_t i) { ++cells[i * 8]; });
            }));
    keep(cells[0]);
  }

  // service: JSON, request canonicalization, result serialization, cache.
  const McResult result =
      service::run_sweep(sweep(seed), service::RunnerConfig{});
  const std::string result_json = service::mc_result_to_json(result).dump();
  out.set("service.sweep_runner.to_json_us",
          1e6 * time_per_op([&] {
            keep(service::mc_result_to_json(result).dump().size());
          }));
  out.set("service.json.parse_us", 1e6 * time_per_op([&] {
            keep(service::Json::parse(result_json).has_value());
          }));
  const service::Json parsed = *service::Json::parse(result_json);
  out.set("service.json.dump_us",
          1e6 * time_per_op([&] { keep(parsed.dump().size()); }));
  const service::Json params = sweep(seed).to_json();
  out.set("service.sweep_request.canonicalize_us", 1e6 * time_per_op([&] {
            const auto req = service::SweepRequest::from_json(
                params, service::SweepLimits{}, nullptr);
            keep(req ? req->cache_key().size() : 0);
          }));

  constexpr std::size_t kKeys = 256;
  std::vector<std::string> keys, canon;
  for (std::size_t i = 0; i < kKeys; ++i) {
    const service::SweepRequest req = sweep(seed * 1000003 + i);
    keys.push_back(req.cache_key());
    canon.push_back(req.to_json().dump());
  }
  const std::filesystem::path dir = std::filesystem::path(tmp) / "cache";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    std::size_t i = 0;
    service::ResultCache cache(dir.string(), kKeys);
    out.set("service.result_cache.store_us", 1e6 * time_per_op([&] {
              const std::size_t k = i++ % kKeys;
              cache.store(keys[k], canon[k], result_json);
            }));
    out.set("service.result_cache.lookup_mem_us", 1e6 * time_per_op([&] {
              keep(cache.lookup(keys[i++ % kKeys]).value().size());
            }));
  }
  {
    // A one-entry memory tier: every lookup of another key reloads and
    // validates the envelope from disk.
    std::size_t i = 0;
    service::ResultCache cache(dir.string(), 1);
    out.set("service.result_cache.lookup_disk_us", 1e6 * time_per_op([&] {
              keep(cache.lookup(keys[i++ % kKeys]).value().size());
            }));
  }
  std::filesystem::remove_all(dir);
  {
    // Admission of a request whose result is in the memory tier:
    // validation, cache key and memory probe, no queue. The first
    // submit computes it (submit + wait) so the timed ones all hit.
    service::ServiceConfig config;
    config.workers = 1;
    service::SweepService svc(config);
    const service::SweepRequest req = sweep(seed);
    const auto first = svc.submit(req);
    const auto done = svc.wait(first.id);
    if (first.outcome != service::SweepService::Submit::Outcome::kAccepted ||
        !done || done->result_json != result_json) {
      std::cerr << "perfbench_layers: SweepService result differs from "
                   "run_sweep\n";
      return 1;
    }
    out.set("service.service.admission_us", 1e6 * time_per_op([&] {
              keep(svc.submit(req).result_json.size());
            }));
  }

  std::cout << out.dump() << "\n";
  return 0;
}
