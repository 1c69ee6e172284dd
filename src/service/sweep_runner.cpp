#include "service/sweep_runner.hpp"

#include <cmath>
#include <memory>

#include "protocols/lesk.hpp"
#include "protocols/lesu.hpp"
#include "protocols/plain_uniform.hpp"
#include "protocols/uniform_station.hpp"
#include "sim/adversary_spec.hpp"
#include "support/expects.hpp"

namespace jamelect::service {

namespace {

UniformProtocolFactory protocol_factory(const SweepRequest& req) {
  if (req.protocol == "lesk") {
    const double eps = req.eps;
    return [eps] { return std::make_unique<Lesk>(eps); };
  }
  if (req.protocol == "lesu") {
    LesuParams params;
    params.c = req.c;
    return [params] { return std::make_unique<Lesu>(params); };
  }
  JAMELECT_EXPECTS(req.protocol == "uniform");
  const double u = req.u >= 0.0
                       ? req.u
                       : std::log2(static_cast<double>(req.n));
  return [u] { return std::make_unique<PlainUniform>(u); };
}

AdversarySpec adversary_spec(const SweepRequest& req) {
  AdversarySpec spec;
  spec.policy = req.adversary;
  spec.T = req.T;
  spec.eps = req.eps;
  spec.q = req.q;
  spec.period = req.period;
  spec.burst = req.burst;
  spec.on = req.on;
  spec.off = req.off;
  spec.n = req.n;
  return spec;
}

Json summary_to_json(const Summary& s) {
  Json out;
  out.set_object();
  out.set("count", static_cast<std::uint64_t>(s.count));
  out.set("mean", s.mean);
  out.set("stddev", s.stddev);
  out.set("min", s.min);
  out.set("p25", s.p25);
  out.set("median", s.median);
  out.set("p75", s.p75);
  out.set("p95", s.p95);
  out.set("p99", s.p99);
  out.set("max", s.max);
  out.set("ci95_halfwidth", s.ci95_halfwidth);
  return out;
}

}  // namespace

McResult run_sweep(const SweepRequest& request, const RunnerConfig& runner,
                   obs::TraceId trace) {
  const UniformProtocolFactory factory = protocol_factory(request);
  const AdversarySpec adversary = adversary_spec(request);

  McConfig mc;
  mc.trials = request.trials;
  mc.seed = request.seed;
  mc.max_slots = request.max_slots;
  mc.parallel = runner.mc_parallel;
  mc.batch = request.batch;
  mc.keep_outcomes = false;
  mc.spans = runner.spans;
  mc.trace = trace;

  if (request.engine == "aggregate") {
    return run_aggregate_mc(factory, adversary, request.n, mc);
  }
  if (request.engine == "hybrid") {
    return run_hybrid_mc(factory, adversary, request.n, mc);
  }
  JAMELECT_EXPECTS(request.engine == "cohort");
  EngineConfig engine;
  engine.cd = CdMode::kStrong;
  engine.stop = StopRule::kAllDone;
  engine.max_slots = request.max_slots;
  return run_cohort_mc(
      [&factory] {
        return std::make_unique<UniformStationAdapter>(factory());
      },
      adversary, request.n, engine, mc);
}

Json mc_result_to_json(const McResult& result) {
  Json out;
  out.set_object();
  out.set("trials", static_cast<std::uint64_t>(result.trials));
  out.set("successes", static_cast<std::uint64_t>(result.successes));
  out.set("interrupted", result.interrupted);
  Json success;
  success.set_object();
  success.set("rate", result.success.rate);
  success.set("lower", result.success.lower);
  success.set("upper", result.success.upper);
  out.set("success", std::move(success));
  out.set("slots", summary_to_json(result.slots));
  out.set("slots_on_success", summary_to_json(result.slots_on_success));
  out.set("jams", summary_to_json(result.jams));
  out.set("energy_per_station", summary_to_json(result.energy_per_station));
  return out;
}

}  // namespace jamelect::service
