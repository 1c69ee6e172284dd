// jamelect_loadgen — replay a mixed sweep trace against jamelectd.
//
//   jamelect_loadgen --port=PORT [--host=127.0.0.1]
//                    [--requests=10000] [--concurrency=8]
//                    [--configs=16] [--hot-frac=0.9]
//                    [--trials=32] [--max-slots=20000] [--min-hit-rate=-1]
//
// Each request is a LESK sweep at n = 256, ε = ½, T = 32 and no
// jamming, drawing one of --configs distinct configs (distinguished by
// their RNG seed field), with probability --hot-frac of drawing config
// 0 — a skewed mix where the hot config becomes a cache hit after its
// first computation, so the hit rate approaches the skew. Each of
// --concurrency threads replays its slice over one persistent
// line-protocol connection, closed loop. 429 rejections are counted and
// retried after a backoff so the delivered request count stays fixed.
// Every result must echo the request's trace id.
//
// Output: one `loadgen_summary` JSON line with the request counts and
// the cache hit rate. Latency is not measured here; perfbench/run.py
// times the service.
//
// Exit codes: 0 ok; 1 bad flag, transport/protocol failure or trace
//             echo mismatch; 2 hit rate below --min-hit-rate.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/span.hpp"
#include "service/json.hpp"
#include "service/net.hpp"
#include "support/cli.hpp"

namespace {

// The trace's sweep: the per-config seed below is the only field that
// varies, so every config is equally expensive to compute.
constexpr std::uint64_t kN = 256;
constexpr double kEps = 0.5;
constexpr std::int64_t kT = 32;
constexpr std::uint64_t kBatch = 64;
constexpr std::uint64_t kSeed = 1;
// Each connection is one thread.
constexpr std::uint64_t kMaxConcurrency = 64;

struct TraceConfig {
  std::string host;
  std::uint16_t port = 0;
  std::uint64_t requests = 10'000;
  std::size_t concurrency = 8;
  std::uint64_t configs = 16;
  double hot_frac = 0.9;
  std::uint64_t trials = 32;
  std::int64_t max_slots = 20'000;
};

struct WorkerStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t rejected = 0;
  std::uint64_t errors = 0;
  /// Responses whose echoed trace id differs from the one sent (the
  /// daemon must echo request lineage verbatim; any mismatch is a bug).
  std::uint64_t trace_mismatches = 0;
  std::string first_error;
};

std::string sweep_line(const TraceConfig& trace, std::uint64_t config_index,
                       const jamelect::obs::TraceId& trace_id) {
  using jamelect::service::Json;
  Json params;
  params.set_object();
  params.set("protocol", "lesk");
  params.set("engine", "aggregate");
  params.set("n", kN);
  params.set("eps", kEps);
  params.set("adversary", "none");
  params.set("T", kT);
  params.set("trials", trace.trials);
  params.set("seed", kSeed * 1'000'003 + config_index);
  params.set("max_slots", trace.max_slots);
  params.set("batch", kBatch);
  Json req;
  req.set_object();
  req.set("op", "sweep");
  req.set("params", std::move(params));
  // Envelope-level (NOT inside params): the trace id is request
  // lineage, never part of the cache key.
  req.set("trace", trace_id.hex());
  req.set("wait", true);
  return req.dump() + "\n";
}

/// Replays `count` requests over one persistent connection.
void run_worker(const TraceConfig& trace, std::uint64_t count,
                std::uint64_t worker_index, WorkerStats& stats) {
  using jamelect::service::Json;
  std::string error;
  auto sock = jamelect::service::tcp_connect(trace.host, trace.port, &error);
  if (!sock.valid()) {
    stats.errors += count;
    stats.first_error = error;
    return;
  }
  jamelect::service::LineReader reader;
  std::mt19937_64 rng(kSeed ^ (0x9e3779b97f4a7c15ULL * (worker_index + 1)));
  std::uniform_real_distribution<double> unit(0.0, 1.0);

  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t config_index =
        (trace.configs <= 1 || unit(rng) < trace.hot_frac)
            ? 0
            : 1 + rng() % (trace.configs - 1);
    // Deterministic per-request lineage: (worker, request index) always
    // mint the same id, so a replayed trace correlates across
    // daemon-side dumps too.
    const jamelect::obs::TraceId trace_id = jamelect::obs::TraceId::derive(
        kSeed ^ (0xace1ull * (worker_index + 1)), i);
    const std::string line = sweep_line(trace, config_index, trace_id);

    for (int attempt = 0;; ++attempt) {
      if (!jamelect::service::send_all(sock.fd(), line)) {
        stats.errors += 1;
        if (stats.first_error.empty()) stats.first_error = "send failed";
        return;
      }
      // Read lines until this request resolves (heartbeats in between).
      std::string cache;
      bool resolved = false;
      bool rejected = false;
      while (!resolved) {
        auto resp = reader.read_line(sock.fd(), 60'000);
        if (!resp.has_value()) {
          stats.errors += 1;
          if (stats.first_error.empty()) {
            stats.first_error = reader.timed_out() ? "response timeout"
                                                   : "connection closed";
          }
          return;
        }
        const auto doc = Json::parse(*resp);
        if (!doc.has_value()) continue;
        const Json* type = doc->find("type");
        const std::string kind = type != nullptr ? type->as_string() : "";
        if (kind == "ack") {
          const Json* c = doc->find("cache");
          if (c != nullptr) cache = c->as_string();
        } else if (kind == "result") {
          if (cache.empty()) {
            const Json* c = doc->find("cache");
            if (c != nullptr) cache = c->as_string();
          }
          // The daemon must echo the request's trace id verbatim.
          const Json* echoed = doc->find("trace");
          if (echoed == nullptr || echoed->as_string() != trace_id.hex()) {
            stats.trace_mismatches += 1;
            if (stats.first_error.empty()) {
              stats.first_error =
                  "trace echo mismatch (sent " + trace_id.hex() + ", got " +
                  (echoed != nullptr ? echoed->as_string() : "<none>") + ")";
            }
          }
          resolved = true;
        } else if (kind == "error") {
          const Json* code = doc->find("code");
          if (code != nullptr && code->as_int() == 429) {
            rejected = true;
            resolved = true;
          } else {
            stats.errors += 1;
            if (stats.first_error.empty()) {
              const Json* msg = doc->find("error");
              stats.first_error = msg != nullptr ? msg->as_string() : *resp;
            }
            resolved = true;
            cache.clear();
          }
        }
        // heartbeats fall through and keep the loop waiting
      }
      if (rejected) {
        stats.rejected += 1;
        if (attempt < 50) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2 << std::min(attempt, 5)));
          continue;  // retry so the delivered count stays fixed
        }
        break;  // give up on this request; already counted as rejected
      }
      if (cache == "hit") {
        stats.hits += 1;
      } else if (cache == "coalesced") {
        stats.coalesced += 1;
      } else if (!cache.empty()) {
        stats.misses += 1;
      }
      break;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace jamelect;
  const Cli cli(argc, argv);

  TraceConfig trace;
  double min_hit_rate = -1.0;
  try {
    trace.port = static_cast<std::uint16_t>(cli.get_uint("port", 7979, 1, 65535));
    trace.requests = cli.get_uint("requests", trace.requests);
    trace.concurrency =
        cli.get_uint("concurrency", trace.concurrency, 1, kMaxConcurrency);
    trace.configs = cli.get_uint("configs", trace.configs, 1);
    trace.hot_frac = cli.get_double("hot-frac", trace.hot_frac);
    trace.trials = cli.get_uint("trials", trace.trials);
    trace.max_slots = cli.get_int("max-slots", trace.max_slots);
    min_hit_rate = cli.get_double("min-hit-rate", min_hit_rate);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "loadgen: %s\n", e.what());
    return 1;
  }
  trace.host = cli.get_string("host", "127.0.0.1");

  std::vector<WorkerStats> stats(trace.concurrency);
  std::vector<std::thread> workers;
  workers.reserve(trace.concurrency);
  for (std::size_t w = 0; w < trace.concurrency; ++w) {
    const std::uint64_t share = trace.requests / trace.concurrency +
                                (w < trace.requests % trace.concurrency ? 1 : 0);
    workers.emplace_back(run_worker, std::cref(trace), share, w,
                         std::ref(stats[w]));
  }
  for (auto& t : workers) t.join();

  WorkerStats total;
  for (const auto& s : stats) {
    total.hits += s.hits;
    total.misses += s.misses;
    total.coalesced += s.coalesced;
    total.rejected += s.rejected;
    total.errors += s.errors;
    total.trace_mismatches += s.trace_mismatches;
    if (total.first_error.empty()) total.first_error = s.first_error;
  }
  const std::uint64_t resolved = total.hits + total.misses + total.coalesced;
  const double hit_rate =
      resolved > 0 ? static_cast<double>(total.hits + total.coalesced) /
                         static_cast<double>(resolved)
                   : 0.0;

  {
    using service::Json;
    Json out;
    out.set_object();
    out.set("requests", resolved);
    out.set("hits", total.hits);
    out.set("misses", total.misses);
    out.set("coalesced", total.coalesced);
    out.set("rejected", total.rejected);
    out.set("errors", total.errors);
    out.set("trace_mismatches", total.trace_mismatches);
    out.set("hit_rate", hit_rate);
    std::printf("loadgen_summary %s\n", out.dump().c_str());
  }
  if (!total.first_error.empty()) {
    std::printf("loadgen: first error: %s\n", total.first_error.c_str());
  }

  if (total.errors > 0 || total.trace_mismatches > 0) return 1;
  if (min_hit_rate >= 0.0 && hit_rate < min_hit_rate) {
    std::fprintf(stderr, "loadgen: hit rate %.3f below threshold %.3f\n",
                 hit_rate, min_hit_rate);
    return 2;
  }
  return 0;
}
