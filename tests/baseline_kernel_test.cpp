// Baseline kernels vs their virtual twins.
//
// baselines/baseline_kernels.hpp (Willard, Nakano–Olariu, no-CD sweep)
// and baselines/arss_kernel.hpp (ARSS) promise bit-for-bit twins of the
// virtual baseline classes so the batch engines can run the evaluation
// baselines devirtualized. This suite locks each pair together at two
// levels: direct lockstep stepping (identical observation sequences,
// state compared after every step) and end-to-end Monte-Carlo
// bit-identity (batched runs reproduce the sequential reference outcome
// for outcome), plus the reason-labeled fallback counters the station
// batch router emits.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/arss.hpp"
#include "baselines/arss_kernel.hpp"
#include "baselines/baseline_kernels.hpp"
#include "baselines/nakano_olariu.hpp"
#include "baselines/nocd_election.hpp"
#include "baselines/willard.hpp"
#include "channel/channel.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "protocols/lesk.hpp"
#include "protocols/uniform_station.hpp"
#include "sim/montecarlo.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "support/wide_rng.hpp"

namespace jamelect {
namespace {

// ---------- lockstep stepping twins ----------

/// Drives kernel and virtual protocol through the same channel-state
/// sequence and compares estimate/elected after every step. The first
/// `quiet_steps` draw only Null/Collision so the pre-election state
/// machine (Willard's three phases, the no-CD epoch roll-over) gets
/// exercised before a Single absorbs both twins; stepping continues
/// past the election to confirm the absorbing state.
template <typename Kernel, typename Protocol>
void expect_stepping_twin(const typename Kernel::Params& params,
                          std::uint64_t seed, int quiet_steps, int steps) {
  Kernel kernel(params);
  Protocol proto(params);
  Rng rng(seed);
  for (int step = 0; step < steps; ++step) {
    ASSERT_EQ(kernel.estimate(), proto.estimate()) << "step " << step;
    ASSERT_EQ(kernel.done(), proto.elected()) << "step " << step;
    ASSERT_EQ(kernel.broadcast_u(), proto.estimate()) << "step " << step;
    const double d = rng.uniform();
    ChannelState state;
    if (step < quiet_steps) {
      state = d < 0.5 ? ChannelState::kNull : ChannelState::kCollision;
    } else {
      state = d < 0.45 ? ChannelState::kNull
                       : (d < 0.9 ? ChannelState::kCollision
                                  : ChannelState::kSingle);
    }
    kernel.step(state);
    proto.observe(state);
  }
  ASSERT_EQ(kernel.estimate(), proto.estimate());
  ASSERT_EQ(kernel.done(), proto.elected());
}

TEST(BaselineKernels, WillardKernelStepsWithVirtualTwin) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    expect_stepping_twin<kernels::WillardKernel, Willard>(WillardParams{}, seed,
                                                          200, 400);
  }
}

TEST(BaselineKernels, NakanoOlariuKernelStepsWithVirtualTwin) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    expect_stepping_twin<kernels::NakanoOlariuKernel, NakanoOlariu>(
        NakanoOlariuParams{}, seed, 200, 400);
  }
}

TEST(BaselineKernels, NoCdKernelStepsWithVirtualTwin) {
  for (std::int64_t reps : {1, 3, 4}) {
    // Long quiet prefix: enough not-Single steps to roll several epochs
    // (epoch e spans reps * 2^e slots) and hit the u reset.
    expect_stepping_twin<kernels::NoCdKernel, NoCdElection>(
        NoCdElectionParams{reps}, 0x90d + static_cast<std::uint64_t>(reps),
        600, 800);
  }
}

TEST(BaselineKernels, ArssKernelStepsWithVirtualStation) {
  // Election mode (done on the first Single) and plain-MAC mode (runs
  // forever, exercising the threshold escape hatch over many rounds).
  for (const bool elect : {true, false}) {
    ArssParams params;
    params.gamma = arss_gamma(64, 16);
    params.elect_on_single = elect;
    ArssStation station(params);
    kernels::ArssKernel kernel(params);
    Rng rng(elect ? 0xa12f5ULL : 0xa12f6ULL);
    const int steps = elect ? 400 : 2000;
    for (int slot = 0; slot < steps; ++slot) {
      ASSERT_EQ(kernel.transmit_probability(),
                station.transmit_probability(slot))
          << "slot " << slot;
      const double d = rng.uniform();
      const ChannelState state =
          d < 0.4 ? ChannelState::kNull
                  : (d < 0.8 ? ChannelState::kCollision : ChannelState::kSingle);
      const bool tx = rng.bernoulli(0.3);
      const Observation obs = observe_slot(state, tx, CdMode::kStrong);
      station.feedback(slot, tx, obs);
      kernel.feedback(tx, obs);
      ASSERT_EQ(kernel.p, station.p()) << "slot " << slot;
      ASSERT_EQ(kernel.threshold, station.threshold()) << "slot " << slot;
      ASSERT_EQ(kernel.done, station.done()) << "slot " << slot;
      ASSERT_EQ(kernel.leader, station.is_leader()) << "slot " << slot;
    }
  }
}

// ---------- end-to-end Monte-Carlo bit-identity ----------

void expect_outcome_eq(const TrialOutcome& a, const TrialOutcome& b,
                       const std::string& what, std::size_t trial) {
  ASSERT_EQ(a.elected, b.elected) << what << " trial " << trial;
  ASSERT_EQ(a.slots, b.slots) << what << " trial " << trial;
  ASSERT_EQ(a.jams, b.jams) << what << " trial " << trial;
  ASSERT_EQ(a.nulls, b.nulls) << what << " trial " << trial;
  ASSERT_EQ(a.singles, b.singles) << what << " trial " << trial;
  ASSERT_EQ(a.collisions, b.collisions) << what << " trial " << trial;
  ASSERT_EQ(a.transmissions, b.transmissions) << what << " trial " << trial;
  ASSERT_EQ(a.all_done, b.all_done) << what << " trial " << trial;
  ASSERT_EQ(a.unique_leader, b.unique_leader) << what << " trial " << trial;
  ASSERT_EQ(a.leader, b.leader) << what << " trial " << trial;
}

struct BaselineCase {
  const char* name;
  UniformProtocolFactory factory;
};

[[nodiscard]] std::vector<BaselineCase> baseline_factories() {
  return {
      {"willard", [] { return std::make_unique<Willard>(); }},
      {"nakano_olariu", [] { return std::make_unique<NakanoOlariu>(); }},
      {"nocd",
       [] { return std::make_unique<NoCdElection>(NoCdElectionParams{3}); }},
  };
}

/// A lane-invariant policy (shared-wide engine) and an adaptive one
/// (per-lane SoA engine).
[[nodiscard]] std::vector<AdversarySpec> baseline_policies() {
  std::vector<AdversarySpec> policies;
  {
    AdversarySpec periodic;
    periodic.policy = "periodic";
    periodic.T = 32;
    periodic.eps = 0.5;
    policies.push_back(periodic);
  }
  {
    AdversarySpec forcer;
    forcer.policy = "collision_forcer";
    forcer.T = 48;
    forcer.eps = 0.375;
    forcer.collision_threshold = 0.6;
    policies.push_back(forcer);
  }
  return policies;
}

/// Each baseline factory, batched through its kernel (wide lanes) vs
/// the sequential per-trial reference, under every baseline_policies()
/// entry; trials not a multiple of batch, so the tail chunk runs.
template <class Run>
void expect_batch_matches_sequential_per_baseline(Run run,
                                                  std::int64_t max_slots) {
  for (const BaselineCase& c : baseline_factories()) {
    for (const AdversarySpec& adv : baseline_policies()) {
      McConfig seq;
      seq.trials = 11;
      seq.seed = 0xba5eULL;
      seq.max_slots = max_slots;
      seq.parallel = false;
      seq.keep_outcomes = true;
      McConfig batched = seq;
      batched.batch = 4;
      const McResult ref = run(c.factory, adv, 64, seq);
      const McResult bat = run(c.factory, adv, 64, batched);
      ASSERT_EQ(ref.outcomes.size(), bat.outcomes.size());
      for (std::size_t t = 0; t < ref.outcomes.size(); ++t) {
        expect_outcome_eq(ref.outcomes[t], bat.outcomes[t],
                          std::string(c.name) + "/" + adv.policy, t);
      }
    }
  }
}

TEST(BaselineKernels, AggregateBatchMatchesSequentialPerBaseline) {
  expect_batch_matches_sequential_per_baseline(
      [](auto&&... args) { return run_aggregate_mc(args...); }, 20000);
}

TEST(BaselineKernels, HybridBatchMatchesSequentialPerBaseline) {
  // The weak-CD two-phase engine hosts the baseline kernels too.
  expect_batch_matches_sequential_per_baseline(
      [](auto&&... args) { return run_hybrid_mc(args...); }, 40000);
}

TEST(BaselineKernels, BaselinesTakeTheBatchPathWithoutFallback) {
  if constexpr (!obs::kObsCompiledIn) {
    GTEST_SKIP() << "JAMELECT_OBS compiled out";
  }
  auto& reg = obs::MetricsRegistry::global();
  const bool was_enabled = reg.enabled();
  reg.reset();
  reg.set_enabled(true);
  AdversarySpec forcer;
  forcer.policy = "collision_forcer";
  forcer.T = 48;
  forcer.eps = 0.375;
  McConfig cfg;
  cfg.trials = 8;
  cfg.seed = 7;
  cfg.max_slots = 20000;
  cfg.parallel = false;
  cfg.batch = 4;
  for (const BaselineCase& c : baseline_factories()) {
    (void)run_aggregate_mc(c.factory, forcer, 64, cfg);
  }
  const auto snap = reg.aggregate();
  reg.set_enabled(was_enabled);
  ASSERT_TRUE(snap.counters.count("mc.batch_fallbacks"));
  EXPECT_EQ(snap.counters.at("mc.batch_fallbacks"), 0);
  EXPECT_GT(snap.counters.at("mc.batch_wide_slots"), 0);
}

// ---------- station lanes vs the sequential SlotEngine ----------

/// Backends available on this machine: scalar4 always, avx2 if usable.
[[nodiscard]] std::vector<WideIsa> available_isas() {
  std::vector<WideIsa> isas{WideIsa::kScalar4};
  if (wide_avx2_supported()) isas.push_back(WideIsa::kAvx2);
  return isas;
}

/// Pins the wide backend for the duration of a scope.
class IsaGuard {
 public:
  explicit IsaGuard(WideIsa isa) { set_wide_isa_for_testing(isa); }
  ~IsaGuard() { reset_wide_isa_for_testing(); }
  IsaGuard(const IsaGuard&) = delete;
  IsaGuard& operator=(const IsaGuard&) = delete;
};

using StationFactory = std::function<StationProtocolPtr(StationId)>;

[[nodiscard]] StationFactory arss_stations(ArssParams params) {
  return [params](StationId) -> StationProtocolPtr {
    return std::make_unique<ArssStation>(params);
  };
}

/// 9 trials through the station lanes at batch 1, 3, 4, 5 and 7 (full
/// and partial lane groups), on every wide backend and at pool widths 1
/// and 3, each outcome bit-identical to the sequential SlotEngine
/// (batch = 0).
void expect_station_lanes_match_sequential(const StationFactory& factory,
                                           const AdversarySpec& adv,
                                           std::uint64_t n,
                                           const EngineConfig& engine,
                                           const std::string& what) {
  McConfig seq;
  seq.trials = 9;
  seq.seed = 0xa155ULL + n;
  seq.max_slots = engine.max_slots;
  seq.parallel = false;
  seq.keep_outcomes = true;
  const McResult ref = run_station_mc(factory, adv, n, engine, seq);
  ASSERT_EQ(ref.outcomes.size(), seq.trials);
  ThreadPool pool1(1);
  ThreadPool pool3(3);
  for (const WideIsa isa : available_isas()) {
    const IsaGuard guard(isa);
    for (const std::size_t batch : {1u, 3u, 4u, 5u, 7u}) {
      for (ThreadPool* pool : {&pool1, &pool3}) {
        McConfig batched = seq;
        batched.batch = batch;
        batched.parallel = true;
        batched.pool = pool;
        const McResult bat = run_station_mc(factory, adv, n, engine, batched);
        const std::string where =
            what + " n=" + std::to_string(n) + " " + wide_isa_name(isa) +
            " batch=" + std::to_string(batch) +
            " pool=" + std::to_string(pool->size());
        ASSERT_EQ(ref.outcomes.size(), bat.outcomes.size()) << where;
        for (std::size_t t = 0; t < ref.outcomes.size(); ++t) {
          expect_outcome_eq(ref.outcomes[t], bat.outcomes[t], where, t);
        }
      }
    }
  }
}

/// No jamming, a lane-invariant jammer and an adaptive one.
[[nodiscard]] std::vector<AdversarySpec> station_policies() {
  std::vector<AdversarySpec> policies;
  policies.emplace_back();  // "none"
  {
    AdversarySpec sat;
    sat.policy = "saturating";
    sat.T = 32;
    sat.eps = 0.5;
    policies.push_back(sat);
  }
  {
    AdversarySpec bern;
    bern.policy = "bernoulli";
    bern.T = 32;
    bern.eps = 0.5;
    bern.q = 0.3;
    policies.push_back(bern);
  }
  return policies;
}

[[nodiscard]] const char* stop_name(StopRule stop) {
  return stop == StopRule::kAllDone ? "all_done" : "first_single";
}

TEST(BaselineKernels, StationBatchMatchesSequentialAcrossStopRules) {
  // ARSS through the station lanes vs the sequential SlotEngine: both
  // stop rules, jamming off/invariant/adaptive. Elections under strong
  // CD stay in lockstep until the deciding Single. (ARSS runs under
  // strong and weak CD; only no-CD's kNoSingle observation is outside
  // its feedback contract.)
  for (const std::uint64_t n : {1u, 2u, 5u, 24u, 257u}) {
    ArssParams params;
    params.gamma = arss_gamma(std::max<std::uint64_t>(n, 2), 16);
    for (const StopRule stop : {StopRule::kAllDone, StopRule::kFirstSingle}) {
      for (const AdversarySpec& adv : station_policies()) {
        expect_station_lanes_match_sequential(
            arss_stations(params), adv, n, {CdMode::kStrong, stop, 30000},
            adv.policy + "/" + stop_name(stop));
      }
    }
  }
}

TEST(BaselineKernels, StationLanesLeaveLockstepBitIdentical) {
  // Trials whose population splits mid-run: the lanes replay the split
  // slot's coins and finish on the per-station loop.
  for (const std::uint64_t n : {2u, 5u, 24u}) {
    ArssParams params;
    params.gamma = arss_gamma(n, 16);
    for (const AdversarySpec& adv : station_policies()) {
      // Plain MAC: a Single moves the listeners' p but not the
      // transmitter's, and nobody ever finishes.
      ArssParams mac = params;
      mac.elect_on_single = false;
      for (const StopRule stop :
           {StopRule::kAllDone, StopRule::kFirstSingle}) {
        expect_station_lanes_match_sequential(
            arss_stations(mac), adv, n, {CdMode::kStrong, stop, 600},
            "mac/" + adv.policy + "/" + stop_name(stop));
      }
      // Weak CD: the Single's transmitter observes Collision, so only
      // the listeners finish; kAllDone then runs to the slot cap.
      expect_station_lanes_match_sequential(
          arss_stations(params), adv, n,
          {CdMode::kWeak, StopRule::kFirstSingle, 30000},
          "weak/" + adv.policy + "/first_single");
      expect_station_lanes_match_sequential(
          arss_stations(params), adv, n,
          {CdMode::kWeak, StopRule::kAllDone, 300},
          "weak/" + adv.policy + "/all_done");
    }
  }
}

TEST(BaselineKernels, StationLanesWithoutLockstepBitIdentical) {
  // Odd stations get a different gamma: the population is never
  // uniform, so every trial runs on the per-station loop from slot 0.
  const std::uint64_t n = 24;
  const StationFactory mixed = [n](StationId i) -> StationProtocolPtr {
    ArssParams params;
    params.gamma = arss_gamma(n, i % 2 == 0 ? 16 : 64);
    return std::make_unique<ArssStation>(params);
  };
  for (const AdversarySpec& adv : station_policies()) {
    for (const StopRule stop : {StopRule::kAllDone, StopRule::kFirstSingle}) {
      expect_station_lanes_match_sequential(
          mixed, adv, n, {CdMode::kStrong, stop, 30000},
          "mixed/" + adv.policy + "/" + stop_name(stop));
    }
  }
}

TEST(BaselineKernels, StationLanesAtCertainTransmissionBitIdentical) {
  // initial_p = p_max = 1: every station transmits and nothing is drawn
  // until the threshold escape hatch first lowers p.
  for (const std::uint64_t n : {1u, 2u, 5u}) {
    ArssParams params;
    params.gamma = arss_gamma(std::max<std::uint64_t>(n, 2), 16);
    params.p_max = 1.0;
    params.initial_p = 1.0;
    for (const StopRule stop : {StopRule::kAllDone, StopRule::kFirstSingle}) {
      expect_station_lanes_match_sequential(
          arss_stations(params), AdversarySpec{}, n,
          {CdMode::kStrong, stop, 30000},
          std::string("certain/") + stop_name(stop));
    }
  }
}

// ---------- reason-labeled fallback counters ----------

TEST(BaselineKernels, StationFallbackReasonsAreLabeled) {
  if constexpr (!obs::kObsCompiledIn) {
    GTEST_SKIP() << "JAMELECT_OBS compiled out";
  }
  auto& reg = obs::MetricsRegistry::global();
  const bool was_enabled = reg.enabled();
  reg.reset();
  reg.set_enabled(true);

  const std::uint64_t n = 8;
  const auto arss_factory = [&](StationId) -> StationProtocolPtr {
    ArssParams params;
    params.gamma = arss_gamma(n, 16);
    return std::make_unique<ArssStation>(params);
  };
  AdversarySpec none;
  McConfig cfg;
  cfg.trials = 3;
  cfg.seed = 5;
  cfg.max_slots = 20000;
  cfg.parallel = false;
  cfg.batch = 2;

  // Observer attached: the batch path cannot replay per-slot telemetry,
  // so the whole run falls back once, labeled .observer.
  obs::VectorSink sink;
  obs::RunObserver observer(sink);
  (void)run_station_mc(arss_factory, none, n,
                       {CdMode::kStrong, StopRule::kAllDone, 20000, &observer},
                       cfg);

  // Non-kernelizable station protocol: probe fails, labeled .protocol.
  (void)run_station_mc(
      [](StationId) -> StationProtocolPtr {
        return std::make_unique<UniformStationAdapter>(
            std::make_unique<Lesk>(LeskParams{0.5, 0.0}));
      },
      none, n, {CdMode::kStrong, StopRule::kAllDone, 20000}, cfg);

  // Kernelizable run: no new fallback, station chunks counted.
  (void)run_station_mc(arss_factory, none, n,
                       {CdMode::kStrong, StopRule::kAllDone, 20000}, cfg);
  const auto elect_snap = reg.aggregate();

  // Plain-MAC run: the first Single splits the population, so trials
  // leave lockstep and finish on the per-station loop.
  (void)run_station_mc(
      [&](StationId) -> StationProtocolPtr {
        ArssParams params;
        params.gamma = arss_gamma(n, 16);
        params.elect_on_single = false;
        return std::make_unique<ArssStation>(params);
      },
      none, n, {CdMode::kStrong, StopRule::kAllDone, 2000}, cfg);

  const auto snap = reg.aggregate();
  reg.set_enabled(was_enabled);
  ASSERT_TRUE(snap.counters.count("mc.batch_fallback.observer"));
  ASSERT_TRUE(snap.counters.count("mc.batch_fallback.protocol"));
  EXPECT_EQ(snap.counters.at("mc.batch_fallback.observer"), 1);
  EXPECT_EQ(snap.counters.at("mc.batch_fallback.protocol"), 1);
  EXPECT_EQ(snap.counters.at("mc.batch_fallbacks"), 2);
  EXPECT_GT(snap.counters.at("engine.batch.station_chunks"), 0);
  // Elections stay in lockstep to the end: wide lane-slots only.
  EXPECT_GT(elect_snap.counters.at("mc.batch_wide_slots"), 0);
  EXPECT_EQ(elect_snap.counters.at("mc.batch_scalar_slots"), 0);
  EXPECT_EQ(elect_snap.counters.at("engine.station.lockstep_exits"), 0);
  EXPECT_GT(snap.counters.at("engine.station.lockstep_exits"), 0);
  EXPECT_GT(snap.counters.at("mc.batch_scalar_slots"), 0);
}

}  // namespace
}  // namespace jamelect
