// jamelectd — the jamelect sweep daemon.
//
//   jamelectd [--host=127.0.0.1] [--port=7979] [--workers=2]
//             [--queue=64] [--cache-dir=DIR] [--heartbeat-ms=500]
//             [--cache-max-entries=0] [--cache-max-bytes=0]
//             [--max-trials=1000000] [--max-slots=10000000]
//             [--manifest=jamelectd] [--trace=PATH]
//             [--flight=PREFIX] [--flight-capacity=4096]
//
// Serves parameter sweeps over the newline-delimited JSON protocol and
// the HTTP/1.1 shim (docs/SERVICE.md). Results are memoized by manifest
// fingerprint (config + seed + git SHA) in memory and, when
// --cache-dir (or env JAMELECT_CACHE_DIR) is set, on disk — so a
// restarted daemon still answers repeated sweeps from cache.
//
// --port=0 binds an ephemeral port; the chosen port is printed on the
// "jamelectd listening on" line, which scripts/service_smoke.sh parses.
//
// Observability: one bounded span store (--flight-capacity records,
// oldest overwritten first) is always on.
//  * Every request's phase spans (admission, cache_probe, queue_wait,
//    compute, serialize, respond) land in it, tagged with the request's
//    trace id. SIGUSR1 dumps it as NDJSON to `<--flight prefix>-<utc>-
//    <seq>.ndjson` without stopping the daemon, and an abnormal drain
//    (any failed jobs at shutdown) dumps it automatically.
//  * --trace=PATH also records the per-worker MC chunk spans and the
//    thread-pool task spans, and writes the store as one Chrome-trace
//    JSON at exit. Its `otherData` carries the overwritten count, so a
//    trace longer than the store says it was truncated.
//
// Flags are checked before anything starts: a malformed value, or one
// outside its range (--workers in [1, 64], --port at most 65535,
// --flight-capacity in [1, 2^20], --heartbeat-ms in [1, 3600000]),
// exits 2 with a message.
//
// SIGINT/SIGTERM drain gracefully: stop admitting, fail queued jobs,
// let running sweeps finish their current trial chunk (the Monte-Carlo
// drivers poll the same shutdown flag), flush the run manifest, exit 0.
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <thread>

#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "obs/span.hpp"
#include "service/server.hpp"
#include "service/service.hpp"
#include "sim/batch.hpp"
#include "support/cli.hpp"
#include "support/shutdown.hpp"
#include "support/thread_pool.hpp"

namespace {

// Caps on the flags that size threads and buffers, so a typo cannot
// start thousands of workers or reserve gigabytes of span store.
constexpr std::uint64_t kMaxWorkers = 64;
constexpr std::uint64_t kMaxFlightCapacity = 1 << 20;
constexpr std::uint64_t kMaxHeartbeatMs = 3'600'000;

// SIGUSR1 => dump the span store. The handler only sets a flag
// (async-signal-safe); the main loop does the I/O.
volatile std::sig_atomic_t g_dump_requested = 0;

void handle_sigusr1(int) { g_dump_requested = 1; }

bool install_sigusr1() {
  struct sigaction sa = {};
  sa.sa_handler = handle_sigusr1;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  return sigaction(SIGUSR1, &sa, nullptr) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace jamelect;
  const Cli cli(argc, argv);

  // Numeric flags are checked before any thread starts; a bad one exits 2
  // rather than wrapping (a port above 65535) or throwing later.
  service::ServiceConfig svc_cfg;
  service::ServerConfig srv_cfg;
  std::size_t flight_capacity = 0;
  try {
    svc_cfg.workers = cli.get_uint("workers", 2, 1, kMaxWorkers);
    svc_cfg.max_queue = cli.get_uint("queue", 64);
    // 0 = unbounded; with --cache-dir set, keys evicted by these bounds
    // are still served from the disk tier.
    svc_cfg.cache_max_entries = cli.get_uint("cache-max-entries", 0);
    svc_cfg.cache_max_bytes = cli.get_uint("cache-max-bytes", 0);
    svc_cfg.limits.max_trials = cli.get_uint("max-trials", 1'000'000);
    svc_cfg.limits.max_slots =
        cli.get_int("max-slots", svc_cfg.limits.max_slots);
    srv_cfg.port =
        static_cast<std::uint16_t>(cli.get_uint("port", 7979, 0, 65535));
    srv_cfg.heartbeat_ms = static_cast<int>(cli.get_uint(
        "heartbeat-ms", static_cast<std::uint64_t>(srv_cfg.heartbeat_ms), 1,
        kMaxHeartbeatMs));
    flight_capacity =
        cli.get_uint("flight-capacity", 4096, 1, kMaxFlightCapacity);
  } catch (const std::invalid_argument& e) {
    std::cerr << "jamelectd: " << e.what() << "\n";
    return 2;
  }
  const char* env_cache = std::getenv("JAMELECT_CACHE_DIR");
  svc_cfg.cache_dir =
      cli.get_string("cache-dir", env_cache != nullptr ? env_cache : "");
  srv_cfg.host = cli.get_string("host", "127.0.0.1");

  obs::MetricsRegistry::global().set_enabled(true);
  install_shutdown_handlers();
  if (!install_sigusr1()) {
    std::cerr << "jamelectd: warning: cannot install SIGUSR1 handler\n";
  }

  // Span store: always on — it is the post-hoc "what was the daemon
  // doing" story and costs one short lock per request phase. --trace
  // adds the MC chunk and pool task spans to it.
  const std::string flight_prefix =
      cli.get_string("flight", "jamelectd-flight");
  obs::SpanStore spans(flight_capacity);
  svc_cfg.spans = &spans;
  const std::string trace_path = cli.get_string("trace", "");
  obs::PoolProfObserver pool_obs(&spans);
  if (!trace_path.empty()) {
    svc_cfg.runner.spans = &spans;
    // One attachment gives pool_task spans in the store AND idle /
    // caller-wait scheduling phases in the profiler.
    global_pool().set_task_observer(&pool_obs);
  }

  service::SweepService service(svc_cfg);
  service::SocketServer server(service, srv_cfg);
  std::string error;
  if (!server.start(&error)) {
    std::cerr << "jamelectd: " << error << "\n";
    return 1;
  }
  std::cout << "jamelectd listening on " << srv_cfg.host << ":"
            << server.port() << " (workers=" << svc_cfg.workers
            << " queue=" << svc_cfg.max_queue << " cache="
            << (svc_cfg.cache_dir.empty() ? "memory" : svc_cfg.cache_dir)
            << ")" << std::endl;

  while (!shutdown_requested()) {
    if (g_dump_requested != 0) {
      g_dump_requested = 0;
      const std::string path = spans.dump(flight_prefix);
      std::cout << "jamelectd: SIGUSR1 flight dump "
                << (path.empty() ? "FAILED" : path) << std::endl;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::cout << "jamelectd: signal " << shutdown_signal()
            << ", draining" << std::endl;

  // Order matters: stopping the service resolves every job (queued ->
  // failed, running -> drained), which releases connections blocked in
  // wait(); only then can the server's connection count reach zero.
  const std::size_t queued_at_drain = service.queue_depth();
  service.stop();
  server.stop();
  if (!trace_path.empty()) global_pool().set_task_observer(nullptr);

  // Abnormal drain — jobs failed (or died queued): dump the span store
  // so the last moments are on disk next to the manifest.
  const obs::MetricsSnapshot snap =
      obs::MetricsRegistry::global().aggregate();
  std::uint64_t failed = 0;
  if (const auto it = snap.counters.find("svc.failed");
      it != snap.counters.end()) {
    failed = it->second;
  }
  if (failed > 0 || queued_at_drain > 0) {
    const std::string path = spans.dump(flight_prefix);
    std::cout << "jamelectd: abnormal drain (" << failed << " failed, "
              << queued_at_drain << " queued), flight dump "
              << (path.empty() ? "FAILED" : path) << std::endl;
  }

  if (!trace_path.empty() && !spans.write_chrome_file(trace_path)) {
    std::cerr << "jamelectd: cannot write trace " << trace_path << "\n";
  }

  obs::RunManifest manifest;
  manifest.name = cli.get_string("manifest", "jamelectd");
  manifest.config["host"] = srv_cfg.host;
  manifest.config["port"] = std::to_string(server.port());
  manifest.config["workers"] = std::to_string(svc_cfg.workers);
  manifest.config["queue"] = std::to_string(svc_cfg.max_queue);
  manifest.config["cache_dir"] = svc_cfg.cache_dir;
  manifest.config["cache_max_entries"] =
      std::to_string(svc_cfg.cache_max_entries);
  manifest.config["cache_max_bytes"] = std::to_string(svc_cfg.cache_max_bytes);
  manifest.config["cache_evictions"] =
      std::to_string(service.cache().evictions());
  manifest.config["cache_disk_hits"] =
      std::to_string(service.cache().disk_hits());
  manifest.config["cache_disk_rejects"] =
      std::to_string(service.cache().disk_rejects());
  manifest.config["cache_disk_write_failures"] =
      std::to_string(service.cache().disk_write_failures());
  manifest.config["requests"] = std::to_string(service.requests());
  manifest.config["cache_hits"] = std::to_string(service.cache_hits());
  manifest.config["computed"] = std::to_string(service.computed());
  manifest.config["coalesced"] = std::to_string(service.coalesced());
  manifest.config["rejected"] = std::to_string(service.rejected());
  // Request-lineage + timing rollup: the last trace id seen and the
  // cross-request sums of each request phase.
  const obs::TraceId last = service.last_trace();
  manifest.config["last_trace"] = last.valid() ? last.hex() : "";
  const service::SweepService::TimingTotals totals = service.timing_totals();
  manifest.config["timing_admission_us"] = std::to_string(totals.admission_us);
  manifest.config["timing_cache_probe_us"] =
      std::to_string(totals.cache_probe_us);
  manifest.config["timing_queue_us"] = std::to_string(totals.queue_us);
  manifest.config["timing_compute_us"] = std::to_string(totals.compute_us);
  manifest.config["timing_serialize_us"] =
      std::to_string(totals.serialize_us);
  manifest.config["timing_respond_us"] = std::to_string(totals.respond_us);
  // Batch-engine memos: the largest per-thread size and the budget's
  // evictions (engine.memo.bytes / engine.memo.evictions).
  const MemoStats memo = memo_stats();
  manifest.config["memo_bytes"] = std::to_string(memo.peak_bytes);
  manifest.config["memo_evictions"] = std::to_string(memo.evictions);
  manifest.config["flight_pushed"] = std::to_string(spans.pushed());
  manifest.config["flight_overwritten"] = std::to_string(spans.overwritten());
  const std::string path = obs::manifest_path_for(manifest.name);
  if (!path.empty() && !manifest.write_file(path)) {
    std::cerr << "jamelectd: cannot write manifest " << path << "\n";
  }
  std::cout << "jamelectd: served " << service.requests() << " requests ("
            << service.cache_hits() << " cache hits, " << service.computed()
            << " computed, " << service.coalesced() << " coalesced, "
            << service.rejected() << " rejected)" << std::endl;
  return 0;
}
