// Station lanes: batched SlotEngine trials for kernelizable station
// protocols (currently ARSS).
//
// The per-station SlotEngine draws one bernoulli per station per slot
// from a single trial rng, in station order. While every station of a
// trial holds the same state ("lockstep"), that chain only matters
// through its transmitter count, so a lockstep trial keeps one shared
// POD ArssKernel (baselines/arss_kernel.hpp) and counts its n coins;
// four trials at a time run as the lanes of one WideXoshiro group, one
// fused count_below pass per slot. A slot that splits the stations
// into two states replays its coins from the saved pre-slot state to
// place them, and the trial finishes on the per-station loop — the
// exact loop of SlotEngine::run over a flat vector of kernels. Either
// way each TrialOutcome is bit-identical to the SlotEngine's for the
// same (seed, trial index) — the contract run_station_mc relies on to
// route batched sweeps here (tests/baseline_kernel_test.cpp locks it).
// docs/ENGINES.md gives the lockstep rule and the exit in full.
//
// Randomness derivation matches run_station_mc's sequential runner:
// trial k uses base.child(first + k), its adversary derives from
// .child(0xad50), its coins from .child(0x51e0).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "baselines/arss.hpp"
#include "protocols/station.hpp"
#include "sim/adversary_spec.hpp"
#include "sim/engine.hpp"
#include "sim/outcome.hpp"
#include "support/rng.hpp"

namespace jamelect {

/// Parameter pack identifying the station kernels of one trial:
/// station i runs an ArssKernel built from stations[i].
struct StationBatchSpec {
  std::vector<ArssParams> stations;
};

/// Probes a station factory for a kernel twin: every station it builds
/// must be a pristine ArssStation (state_equals against a fresh twin of
/// its own params) and the factory must be deterministic (probed
/// twice). Returns nullopt — "use the sequential SlotEngine path" —
/// otherwise. The engine config is the caller's to vet (an attached
/// observer needs the virtual path's hooks).
[[nodiscard]] std::optional<StationBatchSpec> station_batch_spec(
    const std::function<StationProtocolPtr(StationId)>& station_factory,
    std::uint64_t n);

/// Runs trials [first, first + count) of the run_station_mc sweep whose
/// per-trial rng base is `base` (= Rng(McConfig::seed)), writing
/// outcome i to out[i]. Bit-identical to SlotEngine::run per trial;
/// honors EngineConfig::cd and ::stop (observer must be null — probe
/// upstream).
void run_batch_station_trials(const StationBatchSpec& spec,
                              const AdversarySpec& adversary,
                              const EngineConfig& engine, const Rng& base,
                              std::size_t first, std::size_t count,
                              TrialOutcome* out);

}  // namespace jamelect
