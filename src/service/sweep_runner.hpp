// Executes a validated SweepRequest on the matching Monte-Carlo engine
// and serializes the McResult deterministically.
//
// The mapping is the same one the benches use: `aggregate` runs the
// strong-CD O(1)-per-slot engine (riding the batched/wide kernels when
// request.batch > 0), `hybrid` wraps the protocol in weak-CD
// Notification, `cohort` runs the compressed per-station engine via
// UniformStationAdapter. Same request, same result bits — the service's
// cache-hit bit-identity guarantee reduces to the engines' existing
// reproducibility contract.
#pragma once

#include <string>

#include "obs/span.hpp"
#include "service/json.hpp"
#include "service/sweep_request.hpp"
#include "sim/montecarlo.hpp"

namespace jamelect::service {

/// Knobs the service (not the request) owns.
struct RunnerConfig {
  /// Fan trials out on the global ThreadPool. Multiple service workers
  /// may issue parallel runs concurrently; the pool interleaves them.
  bool mc_parallel = true;
  /// Optional span store handed down to the MC drivers (one span per
  /// chunk or sequential trial). Must outlive every run.
  obs::SpanStore* spans = nullptr;
};

/// Runs the sweep to completion (or cooperative-shutdown drain; check
/// McResult::interrupted). Throws only on engine contract violations —
/// requests must already be validated. `trace` is the request lineage:
/// it rides McConfig into the engines so every chunk span this sweep
/// produces carries the id.
[[nodiscard]] McResult run_sweep(const SweepRequest& request,
                                 const RunnerConfig& runner,
                                 obs::TraceId trace = {});

/// Deterministic JSON view of an McResult: canonical key order, exact
/// integer / %.17g double formatting. Equal results <=> equal bytes.
[[nodiscard]] Json mc_result_to_json(const McResult& result);

}  // namespace jamelect::service
