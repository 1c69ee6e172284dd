// perfbench_client — closed-loop load client for the service workloads.
//
//   perfbench_client --mode=cold|warm|fill --port=PORT --seed=S
//                    [--requests=N] [--round=240] [--fill-file=PATH]
//                    [--reference=PATH] [--out=PATH]
//   perfbench_client --mode=reference-cold|reference-warm --reference=PATH
//
// The request stream is a pure function of --seed (own splitmix64, so
// it does not move when the library's RNG code changes):
//   cold  request i is a distinct config of a fixed pool of 17280 — every
//         request is a cache miss that computes and stores;
//   fill  sends the kWarmConfigs warm configs once each, checks their
//         bytes against --reference and writes their digests to
//         --fill-file (the set-up of both workloads);
//   warm  request i draws one of the warm configs from a Zipf(kZipf)
//         law — every request is a cache hit (memory or disk tier);
//   reference-cold, reference-warm  compute the cold pool or the warm
//         configs in-process, no daemon, and write their digests to
//         --reference.
// The configs themselves do not depend on --seed (it decides their
// order, and which warm configs are hot), so their digests are kept
// with the benchmark as a reference.
// The window is the first --requests requests of the stream (cold: at
// most the pool), so every run serves the same work whatever its speed;
// kDeadlineSeconds only caps a pathologically slow run, and requests it
// cuts off are reported as `cut_off`, not as failures. Each of
// kConnections threads owns one persistent connection and sends its
// next request only after the previous answer (closed loop); the client
// refuses to run when its threads plus connections exceed nproc.
// Responses are timed send -> final line. After the window every answer
// is checked: the `result` bytes must hash to the stored --reference
// digest of its config (computed in-process through run_sweep +
// mc_result_to_json), and for warm every hit must also equal the fill's
// bytes.
// The summary is one JSON object written to --out.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <arpa/inet.h>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "service/json.hpp"
#include "service/sweep_request.hpp"
#include "service/sweep_runner.hpp"
#include "support/cli.hpp"

namespace {

using Clock = std::chrono::steady_clock;

// The load shape: closed-loop connections (one thread each), the warm
// working set and its skew, and the cap on a window's duration.
constexpr std::size_t kConnections = 2;
constexpr std::uint64_t kWarmConfigs = 256;
constexpr double kZipf = 1.0;
constexpr double kDeadlineSeconds = 120.0;

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// One sweep config of the service workloads' request space.
struct SweepPoint {
  const char* engine;
  const char* protocol;
  const char* adversary;
  std::uint64_t n;
  std::uint64_t trials;
  std::uint64_t seed;

  [[nodiscard]] std::string params() const {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"adversary\":\"%s\",\"engine\":\"%s\",\"n\":%llu,"
                  "\"protocol\":\"%s\",\"seed\":%llu,\"trials\":%llu}",
                  adversary, engine, static_cast<unsigned long long>(n),
                  protocol, static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(trials));
    return buf;
  }
};

// Grid point `cell` (mixed radix) of engine x protocol x adversary x
// n in 2^6..2^20 x trials {64, 1024}, with MC seed `mc_seed`.
constexpr std::uint64_t kGridCells = 3 * 2 * 4 * 15 * 2;

SweepPoint make_point(std::uint64_t cell, std::uint64_t mc_seed) {
  static constexpr const char* kEngines[] = {"aggregate", "hybrid", "cohort"};
  static constexpr const char* kProtocols[] = {"lesk", "lesu"};
  static constexpr const char* kAdversaries[] = {"none", "periodic",
                                                 "bernoulli",
                                                 "collision_forcer"};
  std::uint64_t r = cell % kGridCells;
  auto pick = [&r](std::uint64_t k) {
    const std::uint64_t v = r % k;
    r /= k;
    return v;
  };
  SweepPoint p{};
  p.engine = kEngines[pick(3)];
  p.protocol = kProtocols[pick(2)];
  p.adversary = kAdversaries[pick(4)];
  p.n = std::uint64_t{1} << (6 + pick(15));
  p.trials = pick(2) == 0 ? 64 : 1024;
  p.seed = mc_seed;
  return p;
}

// The cold pool: kColdSlots copies of the grid, each with its own MC
// seeds, so kColdPool distinct configs whose digests are kept with the
// benchmark. Config id = slot * kGridCells + cell.
constexpr std::uint64_t kColdSlots = 24;
constexpr std::uint64_t kColdPool = kColdSlots * kGridCells;

SweepPoint cold_config(std::uint64_t id) {
  return make_point(id % kGridCells, (0x434f4c44ULL << 32) + id + 1);
}

// Cold request i (< kColdPool): block i / kGridCells of the stream is
// pool slot (block + seed) mod kColdSlots, and visits every grid cell of
// it once, in a seeded order (an affine bijection of the position). No
// config repeats within a run, and any run serves the same mix of costs
// whatever the seed.
std::uint64_t cold_id(std::uint64_t seed, std::uint64_t i) {
  static const std::vector<std::uint64_t> units = [] {
    std::vector<std::uint64_t> out;
    for (std::uint64_t a = 1; a < kGridCells; ++a) {
      if (std::gcd(a, kGridCells) == 1) out.push_back(a);
    }
    return out;
  }();
  const std::uint64_t block = i / kGridCells;
  const std::uint64_t h = splitmix(splitmix(seed) ^ block);
  const std::uint64_t a = units[h % units.size()];
  const std::uint64_t c = (h >> 32) % kGridCells;
  return (block + seed) % kColdSlots * kGridCells +
         (a * (i % kGridCells) + c) % kGridCells;
}

// Warm config c: grid cell 7c (7 is coprime to the grid size), with an
// MC seed keyed apart from any cold stream, so the two workloads never
// share a cache key. Fixed for every seed.
SweepPoint warm_point(std::uint64_t c) {
  return make_point(c * 7, (0x5741524dULL << 32) + c + 1);
}

std::map<std::uint64_t, std::uint64_t> read_digests(const std::string& path) {
  std::map<std::uint64_t, std::uint64_t> out;
  std::ifstream in(path);
  std::uint64_t idx = 0, dig = 0;
  while (in >> idx >> dig) out[idx] = dig;
  return out;
}

class Conn {
 public:
  explicit Conn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      fd_ = -1;
      return;
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  [[nodiscard]] bool ok() const { return fd_ >= 0; }

  bool send_line(const std::string& line) {
    std::size_t off = 0;
    while (off < line.size()) {
      const ssize_t k =
          ::send(fd_, line.data() + off, line.size() - off, MSG_NOSIGNAL);
      if (k <= 0) return false;
      off += static_cast<std::size_t>(k);
    }
    return true;
  }

  std::optional<std::string> read_line() {
    for (;;) {
      const auto nl = buf_.find('\n', pos_);
      if (nl != std::string::npos) {
        std::string line = buf_.substr(pos_, nl - pos_);
        pos_ = nl + 1;
        if (pos_ > 65536) {
          buf_.erase(0, pos_);
          pos_ = 0;
        }
        return line;
      }
      char tmp[16384];
      const ssize_t k = ::recv(fd_, tmp, sizeof tmp, 0);
      if (k <= 0) return std::nullopt;
      buf_.append(tmp, static_cast<std::size_t>(k));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
  std::size_t pos_ = 0;
};

std::string_view type_of(std::string_view line) {
  static constexpr std::string_view kTag = "\"type\":\"";
  const auto at = line.find(kTag);
  if (at == std::string_view::npos) return {};
  const auto begin = at + kTag.size();
  const auto end = line.find('"', begin);
  return end == std::string_view::npos ? std::string_view{}
                                       : line.substr(begin, end - begin);
}

std::int64_t field_int(std::string_view line, std::string_view key) {
  const std::string tag = "\"" + std::string(key) + "\":";
  const auto at = line.find(tag);
  if (at == std::string_view::npos) return -1;
  return std::strtoll(line.data() + at + tag.size(), nullptr, 10);
}

enum class Status : std::uint8_t { kOk, kRejected, kError, kTransport };

struct Record {
  std::uint64_t index = 0;   ///< stream position (cold) / config (warm, fill)
  std::int64_t latency_ns = 0;
  std::int64_t done_ns = 0;  ///< completion time since window start
  Status status = Status::kTransport;
  char cache = '?';          ///< h(it) / m(iss) / c(oalesced)
  std::uint64_t digest = 0;
  std::int64_t phase_us[5] = {-1, -1, -1, -1, -1};
};

constexpr const char* kPhases[5] = {"admission_us", "cache_probe_us",
                                    "queue_us", "compute_us", "serialize_us"};

Record exchange(Conn& conn, std::uint64_t index, const std::string& params,
                Clock::time_point t0) {
  Record rec;
  rec.index = index;
  const std::string line =
      "{\"op\":\"sweep\",\"wait\":true,\"params\":" + params + "}\n";
  const auto start = Clock::now();
  if (!conn.send_line(line)) return rec;
  for (;;) {
    const auto reply = conn.read_line();
    if (!reply) return rec;
    const std::string_view type = type_of(*reply);
    if (type == "ack" || type == "heartbeat") continue;
    const auto end = Clock::now();
    rec.latency_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
            .count();
    rec.done_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - t0).count();
    if (type != "result") {
      rec.status = field_int(*reply, "code") == 429 ? Status::kRejected
                                                    : Status::kError;
      return rec;
    }
    // The daemon puts the canonical result object last on the line.
    static constexpr std::string_view kResult = "\"result\":";
    const auto at = reply->find(kResult);
    if (at == std::string::npos || reply->back() != '}') {
      rec.status = Status::kError;
      return rec;
    }
    const std::string_view sv(*reply);
    rec.digest = fnv1a(sv.substr(at + kResult.size(),
                                 sv.size() - 1 - at - kResult.size()));
    const auto cache_at = reply->find("\"cache\":\"");
    rec.cache = cache_at == std::string::npos ? '?' : (*reply)[cache_at + 9];
    for (int p = 0; p < 5; ++p) rec.phase_us[p] = field_int(*reply, kPhases[p]);
    rec.status = Status::kOk;
    return rec;
  }
}

std::uint64_t reference_digest(const std::string& params) {
  using namespace jamelect::service;
  const auto json = Json::parse(params);
  if (!json) return 0;
  std::string error;
  const auto req = SweepRequest::from_json(*json, SweepLimits{}, &error);
  if (!req) return 0;
  return fnv1a(mc_result_to_json(run_sweep(*req, RunnerConfig{})).dump());
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// Median pure round trip of `op:ping` per connection on the idle daemon:
// the transport floor that no echoed service phase covers.
double ping_rtt_us(std::uint16_t port) {
  Conn conn(port);
  if (!conn.ok()) return -1.0;
  std::vector<double> rtts;
  for (int i = 0; i < 200; ++i) {
    const auto t = Clock::now();
    if (!conn.send_line("{\"op\":\"ping\"}\n") || !conn.read_line()) break;
    rtts.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - t).count());
  }
  return quantile(rtts, 0.5);
}

}  // namespace

int main(int argc, char** argv) {
  const jamelect::Cli cli(argc, argv);
  const std::string mode = cli.get_string("mode", "");
  const auto port = static_cast<std::uint16_t>(cli.get_uint("port", 0));
  const std::uint64_t seed = cli.get_uint("seed", 1);
  // A fill sends every warm config; a cold window longer than the pool
  // is cut to the pool, so no config repeats.
  const std::uint64_t requests =
      mode == "fill" ? kWarmConfigs
                     : std::min(cli.get_uint("requests", 1000),
                                mode == "cold"
                                    ? kColdPool
                                    : std::numeric_limits<std::uint64_t>::max());
  const std::size_t round = cli.get_uint("round", 240);
  const std::string fill_file = cli.get_string("fill-file", "");
  const std::string reference = cli.get_string("reference", "");
  const std::string out_path = cli.get_string("out", "");
  if ((mode == "reference-cold" || mode == "reference-warm") &&
      !reference.empty()) {
    const bool cold = mode == "reference-cold";
    std::ofstream out(reference);
    for (std::uint64_t c = 0; c < (cold ? kColdPool : kWarmConfigs); ++c) {
      const SweepPoint p = cold ? cold_config(c) : warm_point(c);
      out << c << ' ' << reference_digest(p.params()) << '\n';
    }
    return out ? 0 : 1;
  }
  if ((mode != "cold" && mode != "warm" && mode != "fill") || port == 0 ||
      round == 0 || (mode != "cold" && fill_file.empty()) ||
      reference.empty()) {
    std::cerr << "usage: perfbench_client --mode=cold|warm|fill --port=P "
                 "--seed=S --reference=PATH [--fill-file=PATH] "
                 "[--requests=N] [--round=N] [--out=PATH]\n";
    return 2;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw != 0 && 2 * kConnections > hw) {
    std::cerr << "perfbench_client: " << kConnections
              << " connections + threads exceed nproc=" << hw << "\n";
    return 3;
  }

  // Warm: Zipf rank k maps to config rank_to_config[k], a seeded
  // permutation, so the seed decides which configs are hot.
  std::vector<double> zipf_cdf;
  std::vector<std::uint64_t> rank_to_config;
  if (mode == "warm") {
    double acc = 0.0;
    for (std::uint64_t i = 0; i < kWarmConfigs; ++i) {
      acc += 1.0 / std::pow(static_cast<double>(i + 1), kZipf);
      zipf_cdf.push_back(acc);
      rank_to_config.push_back(i);
    }
    for (double& c : zipf_cdf) c /= acc;
    for (std::uint64_t i = kWarmConfigs; i > 1; --i) {
      std::swap(rank_to_config[i - 1],
                rank_to_config[splitmix(splitmix(seed) + i) % i]);
    }
  }
  auto request_for = [&](std::uint64_t i) -> std::pair<std::uint64_t,
                                                       std::string> {
    if (mode == "cold") {
      const std::uint64_t id = cold_id(seed, i);
      return {id, cold_config(id).params()};
    }
    if (mode == "fill") return {i, warm_point(i).params()};
    const double u =
        static_cast<double>(splitmix(splitmix(~seed) ^ i) >> 11) * 0x1.0p-53;
    const auto k = static_cast<std::uint64_t>(
        std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), u) -
        zipf_cdf.begin());
    const std::uint64_t c = rank_to_config[std::min(k, kWarmConfigs - 1)];
    return {c, warm_point(c).params()};
  };

  std::atomic<std::uint64_t> next{0};
  std::vector<std::vector<Record>> per_thread(kConnections);
  std::vector<std::unique_ptr<Conn>> conns;
  for (std::size_t t = 0; t < kConnections; ++t) {
    conns.push_back(std::make_unique<Conn>(port));
    if (!conns.back()->ok()) {
      std::cerr << "perfbench_client: cannot connect to port " << port << "\n";
      return 1;
    }
  }
  const auto t0 = Clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(kDeadlineSeconds));
  {
    std::vector<std::jthread> threads;
    for (std::size_t t = 0; t < kConnections; ++t) {
      threads.emplace_back([&, t] {
        for (;;) {
          if (Clock::now() >= deadline) return;
          const std::uint64_t i = next.fetch_add(1);
          if (i >= requests) return;
          const auto [index, params] = request_for(i);
          per_thread[t].push_back(exchange(*conns[t], index, params, t0));
          if (per_thread[t].back().status == Status::kTransport) return;
        }
      });
    }
  }
  const double window_s =
      std::chrono::duration<double>(Clock::now() - t0).count();
  conns.clear();

  std::vector<Record> recs;
  for (auto& v : per_thread) recs.insert(recs.end(), v.begin(), v.end());
  std::sort(recs.begin(), recs.end(),
            [](const Record& a, const Record& b) { return a.done_ns < b.done_ns; });

  std::uint64_t rejected = 0, errors = 0, wrong = 0, hits = 0, misses = 0,
                coalesced = 0;
  for (const Record& r : recs) {
    if (r.status == Status::kRejected) ++rejected;
    if (r.status == Status::kError || r.status == Status::kTransport) ++errors;
    if (r.status != Status::kOk) continue;
    hits += r.cache == 'h';
    misses += r.cache == 'm';
    coalesced += r.cache == 'c';
  }

  // Correctness, once the load is over.
  const auto v0 = Clock::now();
  const auto ref = read_digests(reference);
  if (mode == "fill") {
    std::ofstream out(fill_file);
    for (const Record& r : recs) {
      if (r.status != Status::kOk) continue;
      out << r.index << ' ' << r.digest << '\n';
      const auto want = ref.find(r.index);
      wrong += r.cache != 'm' || want == ref.end() || r.digest != want->second;
    }
    if (errors + rejected + wrong != 0 || recs.size() != requests || !out) {
      std::cerr << "perfbench_client: fill failed (" << errors << " errors, "
                << rejected << " rejected, " << wrong << " wrong)\n";
      return 1;
    }
    return 0;
  }
  if (mode == "cold") {
    for (const Record& r : recs) {
      if (r.status != Status::kOk) continue;
      const auto want = ref.find(r.index);
      if (r.cache != 'm' || want == ref.end() || r.digest != want->second) {
        ++wrong;
      }
    }
  } else {
    const auto fill = read_digests(fill_file);
    for (const Record& r : recs) {
      if (r.status != Status::kOk) continue;
      const auto it = fill.find(r.index);
      const auto want = ref.find(r.index);
      if (r.cache != 'h' || it == fill.end() || want == ref.end() ||
          it->second != want->second || r.digest != it->second) {
        ++wrong;
      }
    }
  }
  const double verify_s =
      std::chrono::duration<double>(Clock::now() - v0).count();

  std::vector<double> lat_ms, transport_us, rounds_s;
  std::vector<double> phases[5];
  for (const Record& r : recs) {
    if (r.status != Status::kOk) continue;
    lat_ms.push_back(static_cast<double>(r.latency_ns) * 1e-6);
    double covered = 0.0;
    for (int p = 0; p < 5; ++p) {
      if (r.phase_us[p] < 0) continue;
      phases[p].push_back(static_cast<double>(r.phase_us[p]));
      covered += static_cast<double>(r.phase_us[p]);
    }
    transport_us.push_back(static_cast<double>(r.latency_ns) * 1e-3 - covered);
  }
  // A round is `round` consecutive completions: the time to finish a
  // `round`-point sweep at the closed-loop concurrency. The first round
  // (connection ramp-up) is skipped; each metric is the median over
  // rounds, so a short stall elsewhere on the machine moves one round,
  // not the run.
  std::vector<double> round_p50, round_p90;
  for (std::size_t end = 2 * round; end <= recs.size(); end += round) {
    rounds_s.push_back(static_cast<double>(recs[end - 1].done_ns -
                                           recs[end - round - 1].done_ns) *
                       1e-9);
    std::vector<double> lat;
    for (std::size_t i = end - round; i < end; ++i) {
      if (recs[i].status == Status::kOk) {
        lat.push_back(static_cast<double>(recs[i].latency_ns) * 1e-6);
      }
    }
    round_p50.push_back(quantile(lat, 0.5));
    round_p90.push_back(quantile(lat, 0.9));
  }
  const double round_s = quantile(rounds_s, 0.5);

  jamelect::service::Json out;
  out.set_object();
  auto num = [&out](const char* k, double v) { out.set(k, v); };
  auto cnt = [&out](const char* k, std::uint64_t v) { out.set(k, v); };
  cnt("connections", kConnections);
  cnt("requested", requests);
  cnt("attempted", recs.size());
  cnt("cut_off", requests - recs.size());
  cnt("rejected", rejected);
  cnt("errors", errors);
  cnt("wrong", wrong);
  cnt("hits", hits);
  cnt("misses", misses);
  cnt("coalesced", coalesced);
  cnt("rounds", rounds_s.size());
  num("window_s", window_s);
  num("req_per_s", round_s > 0.0 ? static_cast<double>(round) / round_s : 0.0);
  num("round_s", round_s);
  num("latency_p50_ms", quantile(round_p50, 0.5));
  num("latency_p90_ms", quantile(round_p90, 0.5));
  num("latency_p99_ms", quantile(lat_ms, 0.99));
  for (int p = 0; p < 5; ++p) num(kPhases[p], quantile(phases[p], 0.5));
  num("transport_us", quantile(transport_us, 0.5));
  num("ping_rtt_us", ping_rtt_us(port));
  num("verify_s", verify_s);
  const std::string text = out.dump();
  if (out_path.empty()) {
    std::cout << text << "\n";
  } else {
    std::ofstream(out_path) << text << "\n";
  }
  return 0;
}
