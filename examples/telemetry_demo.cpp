// Telemetry demo: replay one LESK trial with every sink attached.
//
//   example_telemetry_demo [--n=256] [--eps=0.5] [--T=64] [--seed=7]
//                          [--trial=0] [--sample=1]
//                          [--events=events.ndjson]
//                          [--trace=trace.json]
//                          [--manifest=telemetry_demo]
//
// Produces three artifacts:
//   * events.ndjson — structured slot/phase/trial events, followed by
//     the span store's NDJSON dump (span records of the replay and one
//     flight summary line) and one per-request timing envelope — all
//     kinds validate with scripts/validate_events.py against
//     docs/event_schema.json;
//   * trace.json    — the same span store as Chrome trace-event JSON,
//     open in https://ui.perfetto.dev;
//   * <manifest>.manifest.json — config + seed + build + metric rollup.
//
// CI runs this binary and validates the NDJSON stream against the
// schema, so the demo doubles as the telemetry integration smoke test.
#include <fstream>
#include <iostream>
#include <memory>

#include "obs/events.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "obs/span.hpp"
#include "protocols/lesk.hpp"
#include "sim/montecarlo.hpp"
#include "support/cli.hpp"

int main(int argc, char** argv) {
  using namespace jamelect;
  const Cli cli(argc, argv);
  const std::uint64_t n = cli.get_uint("n", 256);
  const double eps = cli.get_double("eps", 0.5);
  const std::int64_t T = cli.get_int("T", 64);
  const std::uint64_t seed = cli.get_uint("seed", 7);
  const std::uint64_t trial = cli.get_uint("trial", 0);
  const std::int64_t sample = cli.get_int("sample", 1);
  const std::string events_path = cli.get_string("events", "events.ndjson");
  const std::string trace_path = cli.get_string("trace", "trace.json");
  const std::string manifest_name =
      cli.get_string("manifest", "telemetry_demo");

  obs::MetricsRegistry::global().set_enabled(true);

  AdversarySpec spec;
  spec.policy = "saturating";
  spec.T = T;
  spec.eps = eps;

  McConfig config;
  config.trials = trial + 1;
  config.seed = seed;
  config.max_slots = 1 << 22;

  std::ofstream events_out(events_path);
  if (!events_out) {
    std::cerr << "cannot open " << events_path << "\n";
    return 1;
  }
  obs::NdjsonSink sink(events_out);
  obs::RunObserver observer(sink, {sample});

  // Derive the demo's trace id the same way a traced client would: from
  // the run seed and the trial index. Everything recorded under the
  // ScopedTrace below carries it, so the span records in the events
  // stream reassemble into one lineage.
  const obs::TraceId demo_trace = obs::TraceId::derive(seed, trial);
  obs::SpanStore spans(64);

  TrialOutcome out;
  std::int64_t replay_us = 0;
  {
    const obs::ScopedTrace scoped(demo_trace);
    const std::int64_t t0 = spans.now_us();
    out = replay_aggregate_trial([eps] { return std::make_unique<Lesk>(eps); },
                                 spec, n, config, trial, &observer);
    replay_us = spans.now_us() - t0;
    spans.record("replay_trial", "compute", t0, replay_us);
  }
  sink.flush();

  // Append the observability record kinds to the same stream: span +
  // flight-summary lines from the store, then one per-request timing
  // envelope shaped exactly like the service's response field. CI
  // validates this file, so the demo exercises every schema branch.
  spans.write_ndjson(events_out);
  events_out << "{\"ev\":\"timing\",\"trace\":\"" << demo_trace.hex()
             << "\",\"admission_us\":0,\"cache_probe_us\":0,\"queue_us\":0,"
             << "\"compute_us\":" << replay_us << ",\"serialize_us\":0}\n";
  events_out.flush();

  std::cout << "trial " << trial << ": elected=" << out.elected
            << " slots=" << out.slots << " jams=" << out.jams
            << " transmissions=" << out.transmissions << "\n"
            << "events  -> " << events_path << "\n";

  if (!spans.write_chrome_file(trace_path)) {
    std::cerr << "cannot write " << trace_path << "\n";
    return 1;
  }
  std::cout << "spans   -> " << trace_path << " (open in ui.perfetto.dev)\n";

  if (const std::string path = obs::manifest_path_for(manifest_name);
      !path.empty()) {
    obs::RunManifest manifest;
    manifest.name = manifest_name;
    manifest.seed = seed;
    manifest.config["n"] = std::to_string(n);
    manifest.config["eps"] = std::to_string(eps);
    manifest.config["T"] = std::to_string(T);
    manifest.config["trial"] = std::to_string(trial);
    manifest.config["sample"] = std::to_string(sample);
    manifest.config["trace"] = demo_trace.hex();
    if (!manifest.write_file(path)) {
      std::cerr << "cannot write " << path << "\n";
      return 1;
    }
    std::cout << "manifest-> " << path << "\n";
  }
  return 0;
}
