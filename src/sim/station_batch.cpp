#include "sim/station_batch.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <span>
#include <utility>

#include "baselines/arss_kernel.hpp"
#include "channel/channel.hpp"
#include "obs/metrics.hpp"
#include "support/expects.hpp"
#include "support/wide_rng.hpp"

namespace jamelect {

namespace {

using kernels::ArssKernel;

/// One trial's coin stream (a xoshiro256** state) taken out of its
/// WideXoshiro lane. next() and bernoulli() are bit-identical to
/// Rng::next_u64 and Rng::bernoulli on the same state.
struct CoinStream {
  std::uint64_t s[4];

  [[nodiscard]] static CoinStream of_lane(const WideXoshiro& wide,
                                          std::size_t lane) noexcept {
    return {{wide.plane(0)[lane], wide.plane(1)[lane], wide.plane(2)[lane],
             wide.plane(3)[lane]}};
  }

  [[nodiscard]] std::uint64_t next() noexcept {
    return wide_detail::step1(s[0], s[1], s[2], s[3]);
  }

  [[nodiscard]] bool bernoulli(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return wide_detail::to_uniform(next()) < p;
  }
};

/// Lane-slots per path and lockstep exits, summed over one chunk.
struct ChunkTally {
  std::int64_t wide_slots = 0;
  std::int64_t scalar_slots = 0;
  std::int64_t lockstep_exits = 0;
};

void tally_slot(TrialOutcome& out, bool jammed, ChannelState state) {
  ++out.slots;
  if (jammed) ++out.jams;
  switch (state) {
    case ChannelState::kNull: ++out.nulls; break;
    case ChannelState::kSingle: ++out.singles; break;
    case ChannelState::kCollision: ++out.collisions; break;
  }
}

/// SlotEngine::run's stop rule, checked after a slot's feedback.
bool stops(const std::vector<ArssKernel>& stations, ChannelState state,
           StationId last_tx, StopRule stop, TrialOutcome& out) {
  if (stop == StopRule::kFirstSingle) {
    if (state != ChannelState::kSingle) return false;
    out.elected = true;
    out.leader = last_tx;
    return true;
  }
  for (const ArssKernel& s : stations) {
    if (!s.done) return false;
  }
  out.elected = true;
  return true;
}

/// Election-quality bookkeeping, exactly as SlotEngine::run.
void settle(const std::vector<ArssKernel>& stations, StopRule stop,
            TrialOutcome& out) {
  std::size_t done_count = 0;
  std::size_t leaders = 0;
  for (std::size_t i = 0; i < stations.size(); ++i) {
    if (stations[i].done) ++done_count;
    if (stations[i].done && stations[i].leader) {
      ++leaders;
      out.leader = i;
    }
  }
  out.all_done = done_count == stations.size();
  out.unique_leader = leaders == 1;
  if (stop == StopRule::kFirstSingle) {
    out.unique_leader = out.elected;
  } else {
    out.elected = out.elected && out.unique_leader;
  }
}

/// The per-station loop: SlotEngine::run from slot `first` on, with the
/// annotation branches removed (no trace, no observer — both probed
/// away upstream) and kernels in place of the virtual stations. Draw
/// order, update order, and every double expression match engine.cpp.
TrialOutcome run_per_station(std::vector<ArssKernel> stations,
                             BoundedAdversary& adversary, CoinStream coins,
                             const EngineConfig& config, TrialOutcome out,
                             Slot first) {
  const std::size_t n = stations.size();
  std::vector<std::uint8_t> transmitted(n, 0);
  for (Slot slot = first; slot < config.max_slots; ++slot) {
    // Jam bit first: the adversary moves before seeing this slot's coins.
    const bool jammed = adversary.step();

    std::uint64_t count = 0;
    StationId last_tx = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const bool tx = coins.bernoulli(stations[i].transmit_probability());
      transmitted[i] = tx ? 1 : 0;
      if (tx) {
        ++count;
        last_tx = i;
        out.transmissions += 1.0;
      }
    }

    const ChannelState state = resolve_slot(count, jammed);
    tally_slot(out, jammed, state);
    for (std::size_t i = 0; i < n; ++i) {
      const Observation obs =
          observe_slot(state, transmitted[i] != 0, config.cd);
      stations[i].feedback(transmitted[i] != 0, obs);
    }
    adversary.observe({slot, count, jammed, state});
    if (stops(stations, state, last_tx, config.stop, out)) break;
  }
  settle(stations, config.stop, out);
  return out;
}

/// One trial of a chunk: its coins are lane `lane` of the chunk's
/// WideXoshiro and, while in lockstep, all n stations hold `kernel`.
struct LaneTrial {
  std::unique_ptr<BoundedAdversary> adversary;
  ArssKernel kernel;
  TrialOutcome* out;
  std::size_t lane;
  bool live = true;
};

/// Completes slot `slot` of a lockstep trial whose n coins (drawn from
/// `before` at probability p) gave `count` transmitters. Returns true
/// while the trial stays in lockstep, false once it is over.
///
/// Every listener ends the slot as `listener` and every transmitter as
/// `talker`, so the population stays uniform when count is 0 or n or
/// the two compare equal. Otherwise (and for a kFirstSingle Single,
/// whose leader is the transmitter's index) the slot's draws are
/// replayed from `before` to place the two states, and the trial ends
/// or finishes on the per-station loop.
bool finish_lockstep_slot(LaneTrial& trial, Slot slot, bool jammed,
                          double p, std::uint64_t count,
                          const CoinStream& before, std::size_t n,
                          const EngineConfig& config, ChunkTally& tally) {
  TrialOutcome& out = *trial.out;
  const ChannelState state = resolve_slot(count, jammed);
  tally_slot(out, jammed, state);
  // Exact: integer-valued doubles below 2^53, as the per-station +1.0s.
  out.transmissions += static_cast<double>(count);
  ArssKernel listener = trial.kernel;
  ArssKernel talker = trial.kernel;
  listener.feedback(false, observe_slot(state, false, config.cd));
  talker.feedback(true, observe_slot(state, true, config.cd));
  trial.adversary->observe({slot, count, jammed, state});
  ++tally.wide_slots;

  const bool uniform = count == 0 || count == n || listener == talker;
  const bool single_index = config.stop == StopRule::kFirstSingle &&
                            state == ChannelState::kSingle && count < n;
  std::vector<ArssKernel> stations;
  StationId last_tx = n - 1;  // every station transmitted, if any did
  CoinStream coins = before;
  if (uniform && !single_index) {
    trial.kernel = count == n ? talker : listener;
    // stops() on a uniform population; it ends the trial below.
    const bool over = config.stop == StopRule::kFirstSingle
                          ? state == ChannelState::kSingle
                          : trial.kernel.done;
    if (!over && slot + 1 < config.max_slots) return true;
    stations.assign(n, trial.kernel);
  } else {
    // 0 < count < n, so p is in (0, 1) and the slot drew n coins.
    const std::uint64_t threshold = bernoulli_threshold(p);
    stations.assign(n, listener);
    for (std::size_t i = 0; i < n; ++i) {
      if (coins.next() < threshold) {
        stations[i] = talker;
        last_tx = i;
      }
    }
  }
  if (stops(stations, state, last_tx, config.stop, out) ||
      slot + 1 == config.max_slots) {
    settle(stations, config.stop, out);
    return false;
  }
  // The population split and the trial goes on: leave lockstep.
  ++tally.lockstep_exits;
  const std::int64_t lockstep_slots = out.slots;
  out = run_per_station(std::move(stations), *trial.adversary, coins, config,
                        out, slot + 1);
  tally.scalar_slots += out.slots - lockstep_slots;
  return false;
}

/// Runs up to kWideLanes lockstep trials, all lanes of WideXoshiro
/// group `group`, one slot at a time: each slot draws every drawing
/// lane's n coins in one fused count_below pass.
void run_lockstep_group(WideXoshiro& wide, std::size_t group,
                        std::span<LaneTrial> trials, std::size_t n,
                        const EngineConfig& config, ChunkTally& tally) {
  std::array<std::uint8_t, kWideLanes> mask{};
  std::array<std::uint64_t, kWideLanes> thresholds{};
  std::array<std::uint64_t, kWideLanes> counts{};
  std::array<bool, kWideLanes> jammed{};
  std::array<double, kWideLanes> p{};
  std::array<CoinStream, kWideLanes> before{};
  std::size_t live = trials.size();
  for (Slot slot = 0; live > 0; ++slot) {
    for (std::size_t k = 0; k < trials.size(); ++k) {
      mask[k] = 0;
      LaneTrial& trial = trials[k];
      if (!trial.live) continue;
      // Jam bit first: the adversary moves before seeing this slot's coins.
      jammed[k] = trial.adversary->step();
      p[k] = trial.kernel.transmit_probability();
      before[k] = CoinStream::of_lane(wide, trial.lane);
      // Rng::bernoulli draws nothing at p <= 0 or p >= 1: such a lane
      // sits this slot out of the group step.
      if (p[k] > 0.0 && p[k] < 1.0) {
        mask[k] = 1;
        thresholds[k] = bernoulli_threshold(p[k]);
      }
    }
    wide.count_below(group, n, mask.data(), thresholds.data(), counts.data());
    for (std::size_t k = 0; k < trials.size(); ++k) {
      LaneTrial& trial = trials[k];
      if (!trial.live) continue;
      const std::uint64_t count =
          mask[k] != 0 ? counts[k] : (p[k] >= 1.0 ? n : 0);
      trial.live = finish_lockstep_slot(trial, slot, jammed[k], p[k], count,
                                        before[k], n, config, tally);
      if (!trial.live) --live;
    }
  }
}

}  // namespace

std::optional<StationBatchSpec> station_batch_spec(
    const std::function<StationProtocolPtr(StationId)>& station_factory,
    std::uint64_t n) {
  JAMELECT_EXPECTS(n >= 1);
  StationBatchSpec spec;
  spec.stations.reserve(n);
  for (StationId i = 0; i < n; ++i) {
    const StationProtocolPtr probe = station_factory(i);
    if (probe == nullptr) return std::nullopt;
    const auto* arss = dynamic_cast<const ArssStation*>(probe.get());
    if (arss == nullptr) return std::nullopt;
    // Kernels always start fresh from the params, so a warm-started
    // station (p already moved, threshold grown) disqualifies.
    if (!ArssStation(arss->params()).state_equals(*arss)) return std::nullopt;
    spec.stations.push_back(arss->params());
  }
  // Determinism probe (cf. probe_batch_factory): a factory that returns
  // different state on the second call would diverge from the per-trial
  // construction the batch path performs.
  const StationProtocolPtr second = station_factory(0);
  if (second == nullptr) return std::nullopt;
  const auto* arss0 = dynamic_cast<const ArssStation*>(second.get());
  if (arss0 == nullptr ||
      !ArssStation(spec.stations.front()).state_equals(*arss0)) {
    return std::nullopt;
  }
  return spec;
}

void run_batch_station_trials(const StationBatchSpec& spec,
                              const AdversarySpec& adversary,
                              const EngineConfig& engine, const Rng& base,
                              std::size_t first, std::size_t count,
                              TrialOutcome* out) {
  JAMELECT_EXPECTS(out != nullptr || count == 0);
  JAMELECT_EXPECTS(!spec.stations.empty());
  JAMELECT_EXPECTS(engine.max_slots >= 1);
  JAMELECT_EXPECTS(engine.observer == nullptr);
  if (count == 0) return;
  const std::size_t n = spec.stations.size();
  const ArssKernel pristine(spec.stations.front());
  const bool lockstep =
      std::all_of(spec.stations.begin(), spec.stations.end(),
                  [&](const ArssParams& params) {
                    return ArssKernel(params) == pristine;
                  });

  WideXoshiro wide(count);
  std::vector<LaneTrial> trials;
  trials.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    const Rng trial = base.child(first + k);
    wide.seed_lane(k, trial.child(0x51e0).seed());
    out[k] = TrialOutcome{};
    trials.push_back({make_adversary(adversary, trial.child(0xad50)),
                      pristine, &out[k], k});
  }

  ChunkTally tally;
  if (lockstep) {
    for (std::size_t g = 0; g * kWideLanes < count; ++g) {
      const std::size_t lanes = std::min(kWideLanes, count - g * kWideLanes);
      run_lockstep_group(wide, g,
                         std::span(trials).subspan(g * kWideLanes, lanes), n,
                         engine, tally);
    }
  } else {
    for (LaneTrial& trial : trials) {
      *trial.out = run_per_station(
          std::vector<ArssKernel>(spec.stations.begin(), spec.stations.end()),
          *trial.adversary, CoinStream::of_lane(wide, trial.lane), engine,
          TrialOutcome{}, 0);
      tally.scalar_slots += trial.out->slots;
    }
  }
  JAMELECT_OBS_COUNT("engine.batch.station_chunks", 1);
  JAMELECT_OBS_COUNT("engine.batch.slots",
                     tally.wide_slots + tally.scalar_slots);
  JAMELECT_OBS_COUNT("mc.batch_wide_slots", tally.wide_slots);
  JAMELECT_OBS_COUNT("mc.batch_scalar_slots", tally.scalar_slots);
  JAMELECT_OBS_COUNT("engine.station.lockstep_exits", tally.lockstep_exits);
}

}  // namespace jamelect
