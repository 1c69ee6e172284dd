// The cohort lanes (run_batch_cohort_trials, McConfig::batch on a
// strong-CD run_cohort_mc) must return bit-identical per-trial
// TrialOutcomes to the sequential CohortEngine path for the same seed —
// for every paper kernel, both stop rules, every policy, n up to 2^20,
// any lane count, and any pool width. Every other sweep shape (weak CD,
// non-adapter prototypes) must fall back to the sequential engine. The
// memoized binomial plans must reproduce binomial_sample draw for draw
// in every regime.
#include "sim/batch.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "protocols/lesk.hpp"
#include "protocols/lesu.hpp"
#include "protocols/lewk.hpp"
#include "protocols/plain_uniform.hpp"
#include "protocols/uniform_station.hpp"
#include "sim/montecarlo.hpp"
#include "support/binomial.hpp"
#include "support/binomial_cache.hpp"
#include "support/math.hpp"
#include "support/thread_pool.hpp"
#include "support/wide_rng.hpp"

namespace jamelect {
namespace {

void expect_outcome_eq(const TrialOutcome& a, const TrialOutcome& b,
                       std::size_t trial) {
  ASSERT_EQ(a.elected, b.elected) << "trial " << trial;
  ASSERT_EQ(a.slots, b.slots) << "trial " << trial;
  ASSERT_EQ(a.jams, b.jams) << "trial " << trial;
  ASSERT_EQ(a.nulls, b.nulls) << "trial " << trial;
  ASSERT_EQ(a.singles, b.singles) << "trial " << trial;
  ASSERT_EQ(a.collisions, b.collisions) << "trial " << trial;
  // Bit-identity, not approximate: the lane engine replays the exact
  // double arithmetic and draw order of the sequential path.
  ASSERT_EQ(a.transmissions, b.transmissions) << "trial " << trial;
  ASSERT_EQ(a.all_done, b.all_done) << "trial " << trial;
  ASSERT_EQ(a.unique_leader, b.unique_leader) << "trial " << trial;
  ASSERT_EQ(a.leader, b.leader) << "trial " << trial;
}

void expect_all_outcomes_eq(const McResult& a, const McResult& b) {
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t t = 0; t < a.outcomes.size(); ++t) {
    expect_outcome_eq(a.outcomes[t], b.outcomes[t], t);
  }
}

[[nodiscard]] McConfig base_config(std::size_t trials, std::uint64_t seed,
                                   std::int64_t max_slots) {
  McConfig config;
  config.trials = trials;
  config.seed = seed;
  config.max_slots = max_slots;
  config.parallel = false;
  config.keep_outcomes = true;
  return config;
}

struct Scenario {
  std::string name;
  std::function<StationProtocolPtr()> factory;
  AdversarySpec adversary;
  std::uint64_t n;
  EngineConfig engine;
};

/// A spec for `policy` whose tuning makes it act at the test sizes.
[[nodiscard]] AdversarySpec policy_spec(const std::string& policy) {
  AdversarySpec spec;
  spec.policy = policy;
  spec.T = 48;
  spec.eps = 0.375;
  spec.on = 3;
  spec.off = 2;
  spec.threshold = 0.2;
  spec.collision_threshold = 0.9;
  spec.protocol_eps = 0.5;  // the mirror policies track LESK(0.5) exactly
  return spec;
}

[[nodiscard]] std::function<StationProtocolPtr()> lesk_station(double eps) {
  return [eps] {
    return std::make_unique<UniformStationAdapter>(
        std::make_unique<Lesk>(LeskParams{eps, 0.0}));
  };
}

/// LESK(0.5) at n = 128 under every policy make_adversary accepts, in
/// `cd` mode. The lanes take every policy's jams from their
/// LaneAdversaryBank: the lane-invariant ones through its one shared
/// adversary, the adaptive ones through per-lane state fed by one
/// observe() per slot.
[[nodiscard]] std::vector<Scenario> policy_scenarios(CdMode cd) {
  std::vector<Scenario> list;
  for (const std::string& policy : adversary_policy_names()) {
    list.push_back({policy, lesk_station(0.5), policy_spec(policy),
                    128,
                    EngineConfig{cd, StopRule::kAllDone,
                                 cd == CdMode::kStrong ? 20000 : 2000}});
  }
  return list;
}

/// The shapes jamelectd sends the cohort lanes (service/sweep_runner.cpp):
/// lesk (eps 0.5), lesu (c = 6) and plain uniform at u = log2(n), under
/// the service's default-tuned policies, with n up to 2^20 so the large-n
/// inversion and BTPE fast paths meet the sequential engine, under both
/// stop rules. The censored rows stop LESK and LESU mid-climb.
[[nodiscard]] std::vector<Scenario> service_scenarios() {
  struct Protocol {
    const char* name;
    std::function<StationProtocolPtr()> (*factory)(std::uint64_t n);
  };
  const Protocol protocols[] = {
      {"lesk", [](std::uint64_t) { return lesk_station(0.5); }},
      {"lesu",
       [](std::uint64_t) -> std::function<StationProtocolPtr()> {
         return [] {
           return std::make_unique<UniformStationAdapter>(
               std::make_unique<Lesu>(LesuParams{}));
         };
       }},
      {"uniform",
       [](std::uint64_t n) -> std::function<StationProtocolPtr()> {
         const double u = std::log2(static_cast<double>(n));
         return [u] {
           return std::make_unique<UniformStationAdapter>(
               std::make_unique<PlainUniform>(PlainUniformParams{u}));
         };
       }},
  };
  std::vector<Scenario> list;
  for (const StopRule stop : {StopRule::kAllDone, StopRule::kFirstSingle}) {
    for (const Protocol& protocol : protocols) {
      for (const std::uint64_t n : {std::uint64_t{1}, std::uint64_t{2},
                                    std::uint64_t{1} << 6,
                                    std::uint64_t{1} << 14,
                                    std::uint64_t{1} << 20}) {
        for (const char* policy :
             {"none", "periodic", "bernoulli", "collision_forcer"}) {
          AdversarySpec spec;
          spec.policy = policy;
          list.push_back({std::string("service/") + protocol.name,
                          protocol.factory(n), spec, n,
                          EngineConfig{CdMode::kStrong, stop, 100'000}});
        }
      }
      list.push_back({std::string("service_censored/") + protocol.name,
                      protocol.factory(1 << 20),
                      AdversarySpec{}, 1 << 20,
                      EngineConfig{CdMode::kStrong, stop, 300}});
    }
  }
  return list;
}

[[nodiscard]] std::vector<Scenario> scenarios() {
  std::vector<Scenario> list;
  AdversarySpec none;
  AdversarySpec sat;
  sat.policy = "saturating";
  sat.T = 32;
  sat.eps = 0.5;
  AdversarySpec bern;
  bern.policy = "bernoulli";
  bern.T = 64;
  bern.eps = 0.25;
  list.push_back({"lesk_strong_alldone", lesk_station(0.5), none, 64,
                  EngineConfig{CdMode::kStrong, StopRule::kAllDone, 20000}});
  list.push_back(
      {"lesk_strong_first_single_saturating", lesk_station(0.25), sat, 1024,
       EngineConfig{CdMode::kStrong, StopRule::kFirstSingle, 20000}});
  list.push_back({"plain_uniform_first_single",
                  [] {
                    return std::make_unique<UniformStationAdapter>(
                        std::make_unique<PlainUniform>(PlainUniformParams{6.0}));
                  },
                  none, 64,
                  EngineConfig{CdMode::kStrong, StopRule::kFirstSingle, 20000}});
  list.push_back({"lesu_strong_alldone",
                  [] {
                    return std::make_unique<UniformStationAdapter>(
                        std::make_unique<Lesu>(LesuParams{}));
                  },
                  sat, 128,
                  EngineConfig{CdMode::kStrong, StopRule::kAllDone, 60000}});
  // Adaptive adversary: the bank's per-lane adversaries must reproduce
  // the sequential per-trial feedback loop exactly.
  list.push_back({"lesk_strong_bernoulli", lesk_station(0.5), bern, 128,
                  EngineConfig{CdMode::kStrong, StopRule::kAllDone, 20000}});
  for (Scenario& sc : policy_scenarios(CdMode::kStrong)) {
    list.push_back(std::move(sc));
  }
  for (Scenario& sc : service_scenarios()) list.push_back(std::move(sc));
  return list;
}

/// The scenarios() row called `name`.
[[nodiscard]] Scenario scenario(const std::string& name) {
  for (Scenario& sc : scenarios()) {
    if (sc.name == name) return sc;
  }
  ADD_FAILURE() << "no scenario " << name;
  return scenarios().front();
}

constexpr std::size_t kLaneCounts[] = {1, 3, 4, 5, 7, 29};

TEST(CohortBatchEquivalence, XoshiroBitIdenticalAcrossLaneCounts) {
  std::size_t censored = 0;
  for (const Scenario& sc : scenarios()) {
    SCOPED_TRACE(sc.name + " " + sc.adversary.policy + " n=" +
                 std::to_string(sc.n) + " stop=" +
                 std::to_string(static_cast<int>(sc.engine.stop)));
    const auto seq = run_cohort_mc(sc.factory, sc.adversary, sc.n, sc.engine,
                                   base_config(24, 991, sc.engine.max_slots));
    ASSERT_EQ(seq.outcomes.size(), 24u) << sc.name;
    if (sc.name.starts_with("service_censored/")) {
      censored += seq.trials - seq.successes;
    }
    for (const std::size_t lanes : kLaneCounts) {
      McConfig config = base_config(24, 991, sc.engine.max_slots);
      config.batch = lanes;
      const auto batched =
          run_cohort_mc(sc.factory, sc.adversary, sc.n, sc.engine, config);
      SCOPED_TRACE(lanes);
      expect_all_outcomes_eq(seq, batched);
    }
  }
  // Non-vacuous: the censored budget does censor trials.
  EXPECT_GT(censored, 0u);
}

TEST(CohortBatchEquivalence, XoshiroBitIdenticalAcrossPoolWidths) {
  // Saturating jammer, n = 1024.
  const Scenario sc = scenario("lesk_strong_first_single_saturating");
  const auto seq = run_cohort_mc(sc.factory, sc.adversary, sc.n, sc.engine,
                                 base_config(30, 17, sc.engine.max_slots));
  for (const std::size_t workers : {1u, 3u, 8u}) {
    ThreadPool pool(workers);
    McConfig config = base_config(30, 17, sc.engine.max_slots);
    config.batch = 7;
    config.parallel = true;
    config.pool = &pool;
    const auto batched =
        run_cohort_mc(sc.factory, sc.adversary, sc.n, sc.engine, config);
    SCOPED_TRACE(workers);
    expect_all_outcomes_eq(seq, batched);
  }
}

TEST(CohortBatchEquivalence, AdaptivePolicyBitIdenticalAcrossPoolWidths) {
  // Bernoulli per-lane adversaries.
  const Scenario sc = scenario("lesk_strong_bernoulli");
  ASSERT_EQ(sc.adversary.policy, "bernoulli");
  const auto seq = run_cohort_mc(sc.factory, sc.adversary, sc.n, sc.engine,
                                 base_config(30, 23, sc.engine.max_slots));
  for (const std::size_t workers : {1u, 3u, 8u}) {
    ThreadPool pool(workers);
    McConfig config = base_config(30, 23, sc.engine.max_slots);
    config.batch = 7;
    config.parallel = true;
    config.pool = &pool;
    const auto batched =
        run_cohort_mc(sc.factory, sc.adversary, sc.n, sc.engine, config);
    SCOPED_TRACE(workers);
    expect_all_outcomes_eq(seq, batched);
  }
}

TEST(CohortBatchEquivalence, EveryPolicyBitIdenticalAcrossPoolWidths) {
  for (const Scenario& sc : policy_scenarios(CdMode::kStrong)) {
    SCOPED_TRACE(sc.name);
    const auto seq = run_cohort_mc(sc.factory, sc.adversary, sc.n, sc.engine,
                                   base_config(24, 313, sc.engine.max_slots));
    if (sc.adversary.policy != "none") {
      // Non-vacuous: every jamming policy does jam in this scenario.
      std::int64_t jams = 0;
      for (const TrialOutcome& o : seq.outcomes) jams += o.jams;
      EXPECT_GT(jams, 0);
    }
    for (const std::size_t workers : {1u, 3u, 8u}) {
      ThreadPool pool(workers);
      McConfig config = base_config(24, 313, sc.engine.max_slots);
      config.batch = 7;
      config.parallel = true;
      config.pool = &pool;
      const auto batched =
          run_cohort_mc(sc.factory, sc.adversary, sc.n, sc.engine, config);
      SCOPED_TRACE(workers);
      expect_all_outcomes_eq(seq, batched);
    }
  }
}

/// Pins the process-wide WideXoshiro backend for one scope.
class IsaGuard {
 public:
  explicit IsaGuard(WideIsa isa) { set_wide_isa_for_testing(isa); }
  ~IsaGuard() { reset_wide_isa_for_testing(); }
  IsaGuard(const IsaGuard&) = delete;
  IsaGuard& operator=(const IsaGuard&) = delete;
};

TEST(CohortBatchEquivalence, XoshiroBitIdenticalOnEveryWideBackend) {
  // The cohort lanes draw from WideXoshiro directly: the portable
  // scalar4 backend and AVX2 (where the CPU has it) must both replay
  // the sequential streams, lanes straddling the group width.
  std::vector<WideIsa> isas{WideIsa::kScalar4};
  if (wide_avx2_supported()) isas.push_back(WideIsa::kAvx2);
  for (const WideIsa isa : isas) {
    IsaGuard guard(isa);
    SCOPED_TRACE(wide_isa_name(isa));
    for (const Scenario& sc : scenarios()) {
      SCOPED_TRACE(sc.name);
      const auto seq =
          run_cohort_mc(sc.factory, sc.adversary, sc.n, sc.engine,
                        base_config(12, 4049, sc.engine.max_slots));
      for (const std::size_t lanes : {5u, 12u}) {
        McConfig config = base_config(12, 4049, sc.engine.max_slots);
        config.batch = lanes;
        const auto batched =
            run_cohort_mc(sc.factory, sc.adversary, sc.n, sc.engine, config);
        SCOPED_TRACE(lanes);
        expect_all_outcomes_eq(seq, batched);
      }
    }
  }
}

/// Runs `sc` with `batch` lanes and returns the outcomes together with
/// how many times the sweep fell back to the sequential cohort engine
/// (-1 where the counters are compiled out).
[[nodiscard]] std::pair<McResult, std::int64_t> run_counting_fallbacks(
    const Scenario& sc, McConfig config) {
  auto& reg = obs::MetricsRegistry::global();
  const bool was_enabled = reg.enabled();
  reg.reset();
  reg.set_enabled(true);
  McResult result =
      run_cohort_mc(sc.factory, sc.adversary, sc.n, sc.engine, config);
  const auto snap = reg.aggregate();
  reg.set_enabled(was_enabled);
  std::int64_t fallbacks = -1;
  if constexpr (obs::kObsCompiledIn) {
    fallbacks = snap.counters.at("mc.batch_fallback.cohort");
  }
  return {std::move(result), fallbacks};
}

TEST(CohortBatchEquivalence, NonKernelizablePrototypeFallsBackIdentically) {
  // The lanes run strong CD over UniformStationAdapters only. LEWK's
  // NotificationStation is not an adapter, and weak CD splits cohorts
  // on a Single, so both must fall back to the sequential engine —
  // same outcomes as batch == 0, counted as mc.batch_fallback.cohort.
  std::vector<Scenario> fall_back{
      {"lewk", [] { return make_lewk_station(0.5); }, AdversarySpec{}, 64,
       EngineConfig{CdMode::kWeak, StopRule::kFirstSingle, 20000}},
      {"lesk_weak_alldone", lesk_station(0.5), AdversarySpec{}, 64,
       EngineConfig{CdMode::kWeak, StopRule::kAllDone, 2000}}};
  for (Scenario& sc : policy_scenarios(CdMode::kWeak)) {
    fall_back.push_back(std::move(sc));
  }
  for (const Scenario& sc : fall_back) {
    SCOPED_TRACE(sc.name);
    const auto seq = run_cohort_mc(sc.factory, sc.adversary, sc.n, sc.engine,
                                   base_config(12, 41, sc.engine.max_slots));
    McConfig config = base_config(12, 41, sc.engine.max_slots);
    config.batch = 7;
    const auto [batched, fallbacks] = run_counting_fallbacks(sc, config);
    expect_all_outcomes_eq(seq, batched);
    if constexpr (obs::kObsCompiledIn) {
      EXPECT_EQ(fallbacks, 1);
    }
  }
  // The strong-CD twin of every weak row runs on the lanes.
  for (const Scenario& sc : policy_scenarios(CdMode::kStrong)) {
    SCOPED_TRACE(sc.name);
    McConfig config = base_config(12, 41, sc.engine.max_slots);
    config.batch = 7;
    const auto [batched, fallbacks] = run_counting_fallbacks(sc, config);
    EXPECT_EQ(batched.trials, 12u);
    if constexpr (obs::kObsCompiledIn) {
      EXPECT_EQ(fallbacks, 0);
    }
  }
}

/// LESU rows at each n under no jamming and the collision forcer.
[[nodiscard]] std::vector<Scenario> lesu_rows(
    const std::vector<std::uint64_t>& ns) {
  std::vector<Scenario> list;
  for (const std::uint64_t n : ns) {
    for (const char* policy : {"none", "collision_forcer"}) {
      AdversarySpec spec;
      spec.policy = policy;
      list.push_back({std::string("lesu/") + policy,
                      [] {
                        return std::make_unique<UniformStationAdapter>(
                            std::make_unique<Lesu>(LesuParams{}));
                      },
                      spec, n,
                      EngineConfig{CdMode::kStrong, StopRule::kAllDone,
                                   100'000}});
    }
  }
  return list;
}

/// Every row's outcomes at seed 7001: sequential (batch 0) or in cohort
/// lanes, 8 a chunk, on the calling thread — whose memos they share.
[[nodiscard]] std::vector<McResult> run_rows(const std::vector<Scenario>& rows,
                                             std::size_t batch) {
  std::vector<McResult> results;
  for (const Scenario& sc : rows) {
    McConfig config = base_config(32, 7001, sc.engine.max_slots);
    config.batch = batch;
    results.push_back(
        run_cohort_mc(sc.factory, sc.adversary, sc.n, sc.engine, config));
  }
  return results;
}

TEST(CohortBatchEquivalence, MemoEvictionMovesNoResult) {
  // A thread's memos are dropped at a chunk start once they outgrow
  // kMemoBudgetBytes. The reference rows run in lanes on a fresh
  // thread, whose memos stay under the budget. A second thread runs
  // LESU at a new n round after round (each n adds its own plans)
  // until the budget has evicted, then reruns the reference rows.
  // Every lane run must equal the sequential engine, and the rerun the
  // unevicted run too.
  const std::vector<Scenario> rows = lesu_rows(
      {std::uint64_t{1} << 10, std::uint64_t{1} << 14,
       std::uint64_t{1} << 17, std::uint64_t{1} << 20});
  const std::vector<McResult> oracle = run_rows(rows, 0);

  std::vector<McResult> unevicted;
  const std::uint64_t evictions = memo_stats().evictions;
  std::thread([&] { unevicted = run_rows(rows, 8); }).join();
  ASSERT_EQ(memo_stats().evictions, evictions);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    SCOPED_TRACE(rows[i].name + " n=" + std::to_string(rows[i].n));
    expect_all_outcomes_eq(oracle[i], unevicted[i]);
  }

  std::thread([&] {
    for (std::uint64_t n = (1 << 20) - 1;
         n > (1 << 19) && memo_stats().evictions == evictions; n -= 4099) {
      const std::vector<Scenario> fill = lesu_rows({n});
      const std::vector<McResult> seq = run_rows(fill, 0);
      const std::vector<McResult> lanes = run_rows(fill, 8);
      for (std::size_t i = 0; i < fill.size(); ++i) {
        SCOPED_TRACE(fill[i].name + " n=" + std::to_string(n));
        expect_all_outcomes_eq(seq[i], lanes[i]);
      }
    }
    const std::vector<McResult> rerun = run_rows(rows, 8);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      SCOPED_TRACE(rows[i].name + " n=" + std::to_string(rows[i].n));
      expect_all_outcomes_eq(oracle[i], rerun[i]);
      expect_all_outcomes_eq(unevicted[i], rerun[i]);
    }
  }).join();
  // Non-vacuous: the budget did evict.
  EXPECT_GT(memo_stats().evictions, evictions);
}

// ---------------------------------------------------------------------------
// Plan-level equivalence: the memoized sampler vs binomial_sample.
// ---------------------------------------------------------------------------


TEST(BinomialPlanEquivalence, PlanDrawsMatchSamplerBitForBitInEveryRegime) {
  struct Case {
    std::uint64_t n;
    double p;
  };
  const Case cases[] = {
      {0, 0.5},       // kZero: n == 0
      {200, 0.0},     // kZero: p == 0
      {200, 1.0},     // kAll
      {50, 0.3},      // loop
      {50, 0.7},      // loop, reflected
      {129, 0.2},     // inversion (mean 25.8)
      {1000, 0.01},   // inversion, long tail table
      {1000, 0.98},   // inversion, reflected (p_eff = 0.02)
      {1000, 0.2},    // BTPE
      {1000, 0.6},    // BTPE, reflected
      {100000, 0.4},  // BTPE, large n
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.n);
    SCOPED_TRACE(c.p);
    const BinomialPlan plan = build_binomial_plan(c.n, c.p);
    Rng seq(577);
    Rng planned(577);
    for (int i = 0; i < 3000; ++i) {
      ASSERT_EQ(binomial_sample(c.n, c.p, seq),
                binomial_plan_draw(plan, planned))
          << "draw " << i;
    }
    // Stream sync: both paths must have consumed the same uniforms.
    ASSERT_EQ(seq.uniform(), planned.uniform());
  }
}

TEST(BinomialPlanEquivalence, TrimmedInversionTableMatchesTheWalkEverywhere) {
  // The inversion table stops where the cdf saturates; a uniform above
  // it must still get the walk's answer, which lies past the table.
  // Scripted uniforms hit every entry exactly and on both sides, 0, the
  // saturated value and above, and the largest uniform below 1.
  struct Case {
    std::uint64_t n;
    double p;
  };
  const Case cases[] = {
      {129, 0.2},    // walk ends at k = n
      {1000, 0.01},  // pmf underflows first
      {1000, 0.98},  // reflected
      {std::uint64_t{1} << 20, 30.0 / (1 << 20)},  // mean 30
      {std::uint64_t{1} << 20, 0.5 / (1 << 20)},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::to_string(c.n) + " " + std::to_string(c.p));
    const BinomialPlan plan = build_binomial_plan(c.n, c.p);
    ASSERT_EQ(plan.regime, BinomialPlan::Regime::kInversion);
    const double saturated = plan.cdf.back();
    std::vector<double> us{0.0, saturated, std::nextafter(saturated, 2.0),
                           std::nextafter(1.0, 0.0)};
    for (const double v : plan.cdf) {
      us.push_back(v);
      us.push_back(std::nextafter(v, 0.0));
      us.push_back(std::nextafter(v, 2.0));
    }
    for (const double u : us) {
      // An inversion draw takes exactly one uniform.
      binomial_plan_detail::FixedUniform scripted{u};
      const std::uint64_t k = binomial_sample(c.n, c.p, scripted);
      ASSERT_EQ(k, binomial_plan_draw(plan, scripted)) << "u=" << u;
      if (u > saturated && c.p <= 0.5) {
        // Past the table: the walk went on beyond its last entry.
        EXPECT_GE(k, plan.cdf.size()) << "u=" << u;
      }
    }
  }
  // Above the saturated cdf the walk at n = 129 never underflows: it
  // stops at k = n.
  const BinomialPlan small = build_binomial_plan(129, 0.2);
  binomial_plan_detail::FixedUniform above{
      std::nextafter(small.cdf.back(), 2.0)};
  EXPECT_EQ(binomial_plan_draw(small, above), 129u);
  // Mean 30 at n = 2^20: the pmf underflows some 450 entries out, but
  // the cdf saturates within 128.
  EXPECT_LE(build_binomial_plan(std::uint64_t{1} << 20, 30.0 / (1 << 20))
                .cdf.size(),
            128u);
}

TEST(BinomialPlanEquivalence, CacheDrawsMatchSamplerOnExponentLattice) {
  BinomialSamplerCache cache;
  cache.set_lattice_step(1.0);
  Rng seq(88);
  Rng cached(88);
  for (int round = 0; round < 200; ++round) {
    for (const double u : {0.0, 1.0, 4.0, 6.0, 9.5, 1100.0}) {
      const std::uint64_t n = 500;
      ASSERT_EQ(binomial_sample(n, transmit_probability(u), seq),
                binomial_plan_draw(cache.plan(n, u), cached))
          << "u=" << u;
    }
  }
  ASSERT_EQ(seq.uniform(), cached.uniform());
  // Six distinct (n, u) keys: one miss each, everything else cached,
  // and on-lattice keys answered by the dense index.
  EXPECT_EQ(cache.misses(), 6u);
  EXPECT_EQ(cache.lookups(), 1200u);
  EXPECT_GT(cache.dense_hits(), 900u);
}

TEST(BinomialPlanEquivalence, CachedDrawsFollowTheBinomialLaw) {
  // Chi-square pin of the memoized sampler against the exact pmf,
  // computed independently via lgamma (not the plan's own table).
  const std::uint64_t n = 500;
  const double u = 6.0;  // p = 2^-6, mean ~7.8: inversion regime
  const double p = transmit_probability(u);
  BinomialSamplerCache cache;
  cache.set_lattice_step(1.0);
  constexpr int kDraws = 10000;
  constexpr std::uint64_t kTail = 21;
  std::vector<double> counts(kTail + 1, 0.0);
  Rng rng(4242);
  for (int i = 0; i < kDraws; ++i) {
    const std::uint64_t k = binomial_plan_draw(cache.plan(n, u), rng);
    counts[std::min(k, kTail)] += 1.0;
  }
  const double nd = static_cast<double>(n);
  std::vector<double> expected(kTail + 1, 0.0);
  double tail_mass = 1.0;
  for (std::uint64_t k = 0; k < kTail; ++k) {
    const double kd = static_cast<double>(k);
    const double log_pmf = std::lgamma(nd + 1.0) - std::lgamma(kd + 1.0) -
                           std::lgamma(nd - kd + 1.0) + kd * std::log(p) +
                           (nd - kd) * std::log1p(-p);
    expected[k] = std::exp(log_pmf) * kDraws;
    tail_mass -= std::exp(log_pmf);
  }
  expected[kTail] = tail_mass * kDraws;
  // Merge low-expectation bins (head and tail) so every cell has
  // expected count >= 5, then one-sample chi-square.
  double chi2 = 0.0;
  double merged_obs = 0.0;
  double merged_exp = 0.0;
  int cells = 0;
  for (std::size_t k = 0; k <= kTail; ++k) {
    merged_obs += counts[k];
    merged_exp += expected[k];
    if (merged_exp >= 5.0) {
      const double d = merged_obs - merged_exp;
      chi2 += d * d / merged_exp;
      ++cells;
      merged_obs = 0.0;
      merged_exp = 0.0;
    }
  }
  if (merged_exp > 0.0) {
    const double d = merged_obs - merged_exp;
    chi2 += d * d / merged_exp;
    ++cells;
  }
  ASSERT_GE(cells, 10);
  // 99.9th percentile of chi-square with ~17 df is ~40; the seed is
  // fixed, so this is a deterministic regression pin, not a flake.
  EXPECT_LT(chi2, 45.0);
}

}  // namespace
}  // namespace jamelect
