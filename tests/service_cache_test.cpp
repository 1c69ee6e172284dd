// SweepService + ResultCache behaviour: cache hits are bit-identical
// to fresh computation, the disk tier survives "restarts" (a new cache
// over the same directory) and turns every damaged envelope into a
// miss, write-behind stores are served before they land and drained on
// destruction, the bounded queue rejects when full, and identical
// in-flight requests coalesce onto one job.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "service/json.hpp"
#include "service/result_cache.hpp"
#include "service/service.hpp"
#include "service/sweep_request.hpp"
#include "service/sweep_runner.hpp"

namespace jamelect::service {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test scratch directory under the build tree's /tmp.
class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(fs::temp_directory_path() /
              ("jamelect_" + tag + "_" +
               std::to_string(
                   std::chrono::steady_clock::now().time_since_epoch()
                       .count()))) {}
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

SweepRequest small_request(std::uint64_t seed) {
  SweepRequest request;
  request.n = 128;
  request.trials = 16;
  request.seed = seed;
  request.max_slots = 10'000;
  return request;
}

TEST(ResultCache, MemoryTier) {
  ResultCache cache("");
  EXPECT_FALSE(cache.lookup("aa11").has_value());
  cache.store("aa11", "{\"n\":1}", "{\"r\":1}");
  const auto hit = cache.lookup("aa11");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "{\"r\":1}");
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ResultCache, DiskTierSurvivesRestart) {
  const TempDir dir("cache");
  const std::string result = "{\"success\":{\"rate\":0.5},\"trials\":16}";
  {
    ResultCache cache(dir.str());
    cache.store("bb22", "{\"n\":2}", result);
  }
  // A fresh cache over the same directory simulates a daemon restart:
  // memory is empty, the disk envelope must serve the identical bytes.
  ResultCache reborn(dir.str());
  EXPECT_EQ(reborn.size(), 0u);
  const auto hit = reborn.lookup("bb22");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, result);
  EXPECT_EQ(reborn.size(), 1u);  // promoted into memory
}

TEST(ResultCache, EntryCapEvictsLeastRecentlyUsed) {
  ResultCache cache("", /*max_entries=*/2);
  EXPECT_EQ(cache.max_entries(), 2u);
  cache.store("aa01", "", "{\"r\":1}");
  cache.store("aa02", "", "{\"r\":2}");
  // Touch aa01 so aa02 becomes the LRU victim of the next insert.
  EXPECT_TRUE(cache.lookup("aa01").has_value());
  cache.store("aa03", "", "{\"r\":3}");
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_FALSE(cache.lookup("aa02").has_value());  // no disk tier: gone
  EXPECT_TRUE(cache.lookup("aa01").has_value());
  EXPECT_TRUE(cache.lookup("aa03").has_value());
}

TEST(ResultCache, ByteCapBoundsMemoryButKeepsTheMruEntry) {
  const std::string big(1024, 'x');
  ResultCache cache("", /*max_entries=*/0, /*max_bytes=*/1500);
  cache.store("bb01", "", big);
  cache.store("bb02", "", big);  // over budget: bb01 must go
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_LE(cache.memory_bytes(), 1500u);
  EXPECT_FALSE(cache.lookup("bb01").has_value());
  EXPECT_TRUE(cache.lookup("bb02").has_value());
  // A single result larger than the whole budget is still servable:
  // the bound never evicts the just-stored MRU entry.
  const std::string huge(4096, 'y');
  ResultCache tiny("", 0, 16);
  tiny.store("bb03", "", huge);
  EXPECT_EQ(tiny.size(), 1u);
  const auto hit = tiny.lookup("bb03");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, huge);
}

TEST(ResultCache, DiskTierServesEvictedKeysAndRepromotes) {
  const TempDir dir("evict");
  ResultCache cache(dir.str(), /*max_entries=*/2);
  cache.store("cc01", "{\"n\":1}", "{\"r\":1}");
  cache.store("cc02", "{\"n\":2}", "{\"r\":2}");
  cache.store("cc03", "{\"n\":3}", "{\"r\":3}");  // evicts cc01 from memory
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  // The evicted key is still a hit — served from disk, bit-identical,
  // and promoted back into memory (evicting the new LRU, cc02).
  const auto hit = cache.lookup("cc01");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "{\"r\":1}");
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 2u);
  // cc02 in turn reloads from disk.
  const auto hit2 = cache.lookup("cc02");
  ASSERT_TRUE(hit2.has_value());
  EXPECT_EQ(*hit2, "{\"r\":2}");
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/// Where the cache keeps `key`'s envelope: a shard directory named by
/// the key's first two hex digits.
std::string envelope_path(const std::string& dir, const std::string& key) {
  return dir + "/" + key.substr(0, 2) + "/" + key + ".result.json";
}

std::size_t tmp_files(const std::string& dir) {
  std::size_t count = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.path().extension() == ".tmp") ++count;
  }
  return count;
}

TEST(ResultCacheDisk, EnvelopeIsOneJsonLineWithTheResultLast) {
  const TempDir dir("envelope");
  const std::string result = R"({"success":{"rate":0.25},"trials":8})";
  { ResultCache(dir.str()).store("ee01", R"({"n":8})", result); }
  const std::string bytes = read_file(envelope_path(dir.str(), "ee01"));
  ASSERT_EQ(bytes.find('\n'), bytes.size() - 1);
  EXPECT_EQ(bytes.substr(bytes.size() - result.size() - 2), result + "}\n");
  const auto envelope = Json::parse(bytes);
  ASSERT_TRUE(envelope.has_value());
  EXPECT_EQ(envelope->find("key")->as_string(), "ee01");
  EXPECT_EQ(envelope->find("result_bytes")->as_int(),
            static_cast<std::int64_t>(result.size()));
  EXPECT_EQ(envelope->find("result_fnv")->as_string().size(), 32u);
  EXPECT_EQ(envelope->find("request")->dump(), R"({"n":8})");
  EXPECT_EQ(envelope->find("result")->dump(), result);
}

/// Every damaged form of a written envelope is a miss (counted as a
/// reject when a file was there to read), after which a store and a
/// lookup serve the exact bytes again.
TEST(ResultCacheDisk, DamagedEnvelopesAreMissesAndStoresHeal) {
  const TempDir dir("damaged");
  const std::string key = "ff01";
  const std::string request = R"({"n":128,"seed":5})";
  const std::string result =
      R"({"slots":{"mean":12.5,"p90":31},"success":{"rate":0.75},"trials":16})";
  const std::string path = envelope_path(dir.str(), key);
  { ResultCache(dir.str()).store(key, request, result); }
  const std::string good = read_file(path);
  const std::size_t fnv_at = good.find("\"result_fnv\":\"");
  const std::size_t result_at = good.size() - 2 - result.size();
  ASSERT_NE(fnv_at, std::string::npos);

  struct Damage {
    std::string name;
    std::string bytes;  ///< written as the final file
    bool rejected;      ///< a file was read and failed a check
  };
  std::vector<Damage> cases;
  for (const std::size_t at :
       {std::size_t{0}, std::size_t{1}, fnv_at + 20, result_at - 3,
        result_at + 1, result_at + result.size() / 2, good.size() - 2,
        good.size() - 1}) {
    cases.push_back({"truncated at " + std::to_string(at), good.substr(0, at),
                     true});
  }
  std::string flipped = good;
  flipped[result_at + result.find("0.75") + 2] ^= 0x01;  // 0.75 -> 0.65
  cases.push_back({"one result byte flipped", flipped, true});
  std::string unclosed = good;
  unclosed[good.size() - 2] = ' ';  // the result is intact, the line is not
  cases.push_back({"envelope brace dropped", unclosed, true});
  std::string foreign = good;
  foreign.replace(good.find(key), key.size(), "ff02");
  cases.push_back({"another key", foreign, true});
  cases.push_back({"pre-checksum envelope",
                   "{\"key\":\"" + key + "\",\"request\":" + request +
                       ",\"result\":" + result + "}\n",
                   true});
  cases.push_back({"empty", "", true});

  const auto check_heals = [&](const std::string& name, bool rejected) {
    SCOPED_TRACE(name);
    ResultCache cache(dir.str());
    EXPECT_FALSE(cache.lookup(key).has_value());
    EXPECT_EQ(cache.disk_rejects(), rejected ? 1u : 0u);
    EXPECT_EQ(cache.disk_hits(), 0u);
    // A known-bad envelope is not read again, even once it is mended
    // behind the cache's back; a store of the key lifts that.
    EXPECT_FALSE(cache.lookup(key).has_value());
    EXPECT_EQ(cache.disk_rejects(), rejected ? 1u : 0u);
    if (rejected) {
      write_file(path, good);
      EXPECT_FALSE(cache.lookup(key).has_value());
    }
    cache.store(key, request, result);
    EXPECT_EQ(cache.lookup(key), result);
    cache.drain();
    EXPECT_EQ(read_file(path), good);
    EXPECT_EQ(ResultCache(dir.str()).lookup(key), result);
  };
  for (const Damage& damage : cases) {
    write_file(path, damage.bytes);
    check_heals(damage.name, damage.rejected);
  }
  // A torn write: only the temp file made it, the rename never ran.
  fs::remove(path);
  write_file(path + ".tmp", good);
  check_heals("temp file beside a missing envelope", false);
  EXPECT_EQ(tmp_files(dir.str()), 0u);
}

TEST(ResultCacheDisk, EvictedKeyWithItsWriteStillQueuedHits) {
  const TempDir dir("pending");
  // A FIFO at the first key's temp path holds the writer in open()
  // until this test opens the read end, so that write cannot land.
  const std::string fifo = envelope_path(dir.str(), "ab01") + ".tmp";
  fs::create_directories(fs::path(fifo).parent_path());
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  ResultCache cache(dir.str(), /*max_entries=*/1);
  cache.store("ab01", "null", R"({"r":1})");
  cache.store("ab02", "null", R"({"r":2})");  // evicts ab01 from memory
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.lookup("ab01"), R"({"r":1})");  // from the pending write
  EXPECT_EQ(cache.lookup("ab02"), R"({"r":2})");
  EXPECT_EQ(cache.evictions(), 3u);
  EXPECT_EQ(cache.disk_hits(), 0u);
  EXPECT_EQ(cache.disk_rejects(), 0u);

  const int fd = ::open(fifo.c_str(), O_RDONLY | O_NONBLOCK);
  ASSERT_GE(fd, 0);
  cache.drain();
  std::string written(256, '\0');
  const ssize_t got = ::read(fd, written.data(), written.size());
  ::close(fd);
  ASSERT_GT(got, 0);
  written.resize(static_cast<std::size_t>(got));
  EXPECT_EQ(written.rfind("{\"key\":\"ab01\",", 0), 0u) << written;
  // The FIFO was renamed over the envelope's name: a reader must
  // neither block on it nor serve it.
  ResultCache reborn(dir.str());
  EXPECT_FALSE(reborn.lookup("ab01").has_value());
  EXPECT_EQ(reborn.disk_rejects(), 1u);
  EXPECT_EQ(reborn.lookup("ab02"), R"({"r":2})");
  EXPECT_EQ(reborn.disk_hits(), 1u);
}

TEST(ResultCacheDisk, DestructionDrainsEveryQueuedWrite) {
  const TempDir dir("drain");
  constexpr int kKeys = 200;
  const auto key = [](int i) {
    char buf[8];
    std::snprintf(buf, sizeof buf, "c%03x", i);
    return std::string(buf);
  };
  const auto value = [](int i) {
    return "{\"r\":" + std::to_string(i) + ",\"pad\":\"" +
           std::string(static_cast<std::size_t>(i), 'x') + "\"}";
  };
  {
    ResultCache cache(dir.str(), /*max_entries=*/8);
    for (int i = 0; i < kKeys; ++i) cache.store(key(i), "null", value(i));
  }
  EXPECT_EQ(tmp_files(dir.str()), 0u);
  ResultCache reborn(dir.str());
  for (int i = 0; i < kKeys; ++i) EXPECT_EQ(reborn.lookup(key(i)), value(i));
  EXPECT_EQ(reborn.disk_hits(), static_cast<std::uint64_t>(kKeys));
  EXPECT_EQ(reborn.disk_rejects(), 0u);
}

TEST(ResultCacheDisk, RacingLookupsStoresAndEvictionsServeExactBytes) {
  const TempDir dir("race");
  constexpr int kKeys = 32;
  std::vector<std::string> keys, values;
  for (int i = 0; i < kKeys; ++i) {
    char buf[8];
    std::snprintf(buf, sizeof buf, "d%03x", i);
    keys.emplace_back(buf);
    values.push_back("{\"r\":" + std::to_string(i * 7919) + "}");
  }
  // The first half is on disk before the race; the second half is
  // stored during it. A 4-entry memory tier evicts all the time.
  {
    ResultCache seed(dir.str());
    for (int i = 0; i < kKeys / 2; ++i) seed.store(keys[i], "null", values[i]);
  }
  ResultCache cache(dir.str(), /*max_entries=*/4);
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 50; ++round) {
        for (int j = 0; j < kKeys; ++j) {
          const int i = (j * 5 + t * 3 + round) % kKeys;
          if (t < 2 && i >= kKeys / 2) {
            cache.store(keys[i], "null", values[i]);
            // A stored key never misses, written to disk yet or not.
            if (cache.lookup(keys[i]) != values[i]) ++wrong;
            continue;
          }
          const auto hit = cache.lookup(keys[i]);
          if (i < kKeys / 2 ? hit != values[i]
                            : hit.has_value() && *hit != values[i]) {
            ++wrong;
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
  cache.drain();
  EXPECT_EQ(cache.disk_rejects(), 0u);
  EXPECT_EQ(cache.disk_write_failures(), 0u);
  ResultCache reborn(dir.str());
  for (int i = 0; i < kKeys; ++i) EXPECT_EQ(reborn.lookup(keys[i]), values[i]);
}

std::int64_t counter_value(const std::string& name) {
  const auto snap = obs::MetricsRegistry::global().aggregate();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

TEST(ResultCacheDisk, UnwritableDirectoryCountsFailuresAndServesMemory) {
  // The cache path is a regular file, so neither the directory nor any
  // envelope can be created (permissions would not stop a root user).
  const TempDir dir("unwritable");
  fs::create_directories(dir.str());
  const std::string file = dir.str() + "/not_a_dir";
  write_file(file, "x");
  const std::int64_t before = counter_value("svc.cache_disk_write_failures");
  ResultCache cache(file, /*max_entries=*/1);
  cache.store("aa01", "null", R"({"r":1})");
  cache.store("aa02", "null", R"({"r":2})");
  cache.drain();
  EXPECT_EQ(cache.disk_write_failures(), 2u);
  EXPECT_EQ(counter_value("svc.cache_disk_write_failures"), before + 2);
  EXPECT_EQ(cache.lookup("aa02"), R"({"r":2})");  // memory still serves
  EXPECT_FALSE(cache.lookup("aa01").has_value());  // evicted, not on disk
  EXPECT_EQ(cache.disk_rejects(), 0u);
  EXPECT_EQ(read_file(file), "x");
}

TEST(SweepServiceCache, MetricsCarryTheDiskCountersFromTheStart) {
  ServiceConfig config;
  config.workers = 1;
  const SweepService service(config);
  const Json metrics = service.metrics_json();
  const Json* counters = metrics.find("counters");
  ASSERT_NE(counters, nullptr);
  for (const char* name :
       {"svc.cache_disk_hits", "svc.cache_disk_rejects",
        "svc.cache_disk_write_failures", "svc.cache_evictions"}) {
    EXPECT_NE(counters->find(name), nullptr) << name;
  }
}

TEST(SweepRequestKeying, BatchIsNotPartOfTheCacheKey) {
  // `batch` is a pure throughput knob with bit-identical outcomes, so it
  // deliberately is NOT keyed.
  SweepRequest seq = small_request(1234);
  SweepRequest batched = small_request(1234);
  batched.batch = 64;
  EXPECT_EQ(seq.cache_key(), batched.cache_key());
}

TEST(SweepRequestKeying, RngFieldIsRejectedAsUnknown) {
  // Every batched chunk runs the xoshiro streams of the sequential
  // engines; a request still naming a random-stream backend is refused
  // rather than silently served.
  for (const char* rng : {"xoshiro", "aes_ctr"}) {
    const auto json = Json::parse(
        std::string(R"({"protocol":"lesk","engine":"aggregate","n":1024,)") +
        R"("eps":0.5,"trials":64,"seed":7,"batch":64,"rng":")" + rng +
        R"("})");
    ASSERT_TRUE(json.has_value());
    std::string error;
    EXPECT_FALSE(SweepRequest::from_json(*json, SweepLimits{}, &error));
    EXPECT_EQ(error, "unknown field 'rng'") << rng;
  }
}

TEST(SweepRequestKeying, ToJsonRoundTripsThroughFromJson) {
  // to_json is the request's canonical echo in envelopes and logs; it
  // must name only fields from_json accepts, and parse back to the same
  // cache key.
  SweepRequest request = small_request(77);
  request.engine = "hybrid";
  request.adversary = "periodic";
  request.T = 48;
  request.batch = 16;
  std::string error;
  const auto back =
      SweepRequest::from_json(request.to_json(), SweepLimits{}, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->cache_key(), request.cache_key());
  EXPECT_EQ(back->to_json().dump(), request.to_json().dump());
  EXPECT_EQ(request.to_json().find("rng"), nullptr);
  EXPECT_EQ(request.config_map().count("rng"), 0u);
}

/// The batched engines are a pure throughput knob — per-trial outcomes
/// are bit-identical to the sequential engines — so `batch` stays out
/// of the fingerprint, and whichever of a batched and a sequential
/// request for `engine` arrives second must be served the first one's
/// bytes.
void expect_batch_twins_share_one_entry(const std::string& engine) {
  for (const bool batched_first : {false, true}) {
    SCOPED_TRACE(batched_first ? "batched first" : "sequential first");
    SweepRequest seq = small_request(9042);
    seq.engine = engine;
    seq.batch = 0;
    SweepRequest batched = seq;
    batched.batch = 64;
    ASSERT_EQ(seq.cache_key(), batched.cache_key());
    const SweepRequest& a = batched_first ? batched : seq;
    const SweepRequest& b = batched_first ? seq : batched;

    ServiceConfig config;
    config.workers = 1;
    SweepService service(config);
    const auto first = service.submit(a);
    ASSERT_EQ(first.outcome, SweepService::Submit::Outcome::kAccepted);
    const auto done = service.wait(first.id);
    ASSERT_TRUE(done.has_value());
    ASSERT_EQ(done->state, JobState::kDone);

    // The twin is a cache hit on the first entry...
    const auto second = service.submit(b);
    ASSERT_EQ(second.outcome, SweepService::Submit::Outcome::kCached);
    EXPECT_EQ(second.result_json, done->result_json);
    EXPECT_EQ(service.computed(), 1u);

    // ...and serving it those bytes is sound: computing the twin from
    // scratch serializes to the identical JSON.
    const McResult fresh = run_sweep(b, config.runner);
    EXPECT_EQ(mc_result_to_json(fresh).dump(), second.result_json);
  }
}

TEST(SweepServiceCache, AggregateBatchIsNotKeyedAndHitsSequentialEntry) {
  expect_batch_twins_share_one_entry("aggregate");
}

TEST(SweepServiceCache, HybridBatchIsNotKeyedAndHitsSequentialEntry) {
  expect_batch_twins_share_one_entry("hybrid");
}

TEST(SweepServiceCache, CohortBatchIsNotKeyedAndHitsSequentialEntry) {
  expect_batch_twins_share_one_entry("cohort");
}

TEST(ResultCache, RejectsHostileKeys) {
  const TempDir dir("hostile");
  ResultCache cache(dir.str());
  // Keys are fingerprint hex; anything else must not touch the disk
  // tier (path-traversal defense), and must simply miss.
  EXPECT_FALSE(cache.lookup("../../etc/passwd").has_value());
  EXPECT_FALSE(cache.lookup("").has_value());
}

TEST(SweepServiceCache, HitIsBitIdenticalToFreshComputation) {
  ServiceConfig config;
  config.workers = 1;
  SweepService service(config);
  const SweepRequest request = small_request(4242);

  // First submission computes.
  const auto first = service.submit(request);
  ASSERT_EQ(first.outcome, SweepService::Submit::Outcome::kAccepted);
  const auto done = service.wait(first.id);
  ASSERT_TRUE(done.has_value());
  ASSERT_EQ(done->state, JobState::kDone);

  // Second submission must be served from cache...
  const auto second = service.submit(request);
  ASSERT_EQ(second.outcome, SweepService::Submit::Outcome::kCached);
  // ...with the exact bytes of the computed result.
  EXPECT_EQ(second.result_json, done->result_json);

  // And both must equal a from-scratch recomputation (the MC
  // reproducibility contract carried through serialization).
  const McResult fresh = run_sweep(request, config.runner);
  EXPECT_EQ(mc_result_to_json(fresh).dump(), second.result_json);

  EXPECT_EQ(service.cache_hits(), 1u);
  EXPECT_EQ(service.computed(), 1u);
}

TEST(SweepServiceCache, DiskHitIsBitIdenticalAcrossServices) {
  const TempDir dir("svc_disk");
  const SweepRequest request = small_request(777);
  std::string computed;
  {
    ServiceConfig config;
    config.workers = 1;
    config.cache_dir = dir.str();
    SweepService service(config);
    const auto sub = service.submit(request);
    ASSERT_EQ(sub.outcome, SweepService::Submit::Outcome::kAccepted);
    const auto done = service.wait(sub.id);
    ASSERT_TRUE(done.has_value());
    ASSERT_EQ(done->state, JobState::kDone);
    computed = done->result_json;
    service.stop();
  }
  ServiceConfig config;
  config.workers = 1;
  config.cache_dir = dir.str();
  SweepService reborn(config);
  const auto sub = reborn.submit(request);
  ASSERT_EQ(sub.outcome, SweepService::Submit::Outcome::kCached);
  EXPECT_EQ(sub.result_json, computed);
}

TEST(SweepServiceCache, HitLatencyBeatsComputeByTwoOrdersOfMagnitude) {
  using Clock = std::chrono::steady_clock;
  ServiceConfig config;
  config.workers = 1;
  SweepService service(config);
  // A deliberately heavy sweep so compute time dominates all overheads.
  SweepRequest request;
  request.n = 1024;
  request.trials = 4000;
  request.seed = 31337;
  request.adversary = "saturating";
  request.T = 64;
  request.max_slots = 50'000;

  const auto t0 = Clock::now();
  const auto first = service.submit(request);
  ASSERT_EQ(first.outcome, SweepService::Submit::Outcome::kAccepted);
  const auto done = service.wait(first.id);
  ASSERT_TRUE(done.has_value());
  ASSERT_EQ(done->state, JobState::kDone);
  const auto compute = Clock::now() - t0;

  // A hit costs microseconds, so a single preemption of this thread
  // (ctest runs suites side by side) can swamp one sample: the hit
  // latency is the fastest of several identical cached submissions.
  auto hit = Clock::duration::max();
  for (int i = 0; i < 5; ++i) {
    const auto t1 = Clock::now();
    const auto second = service.submit(request);
    hit = std::min(hit, Clock::now() - t1);
    ASSERT_EQ(second.outcome, SweepService::Submit::Outcome::kCached);
    EXPECT_EQ(second.result_json, done->result_json);
  }
  // Acceptance criterion: cached >= 100x faster than computing.
  EXPECT_GE(compute.count(), 100 * hit.count())
      << "compute=" << compute.count() << "ns hit=" << hit.count() << "ns";
}

TEST(SweepServiceBackpressure, QueueFullRejects) {
  ServiceConfig config;
  config.workers = 1;
  config.max_queue = 2;
  SweepService service(config);
  // Distinct seeds -> distinct keys -> no coalescing; a slow-ish sweep
  // keeps the single worker busy while the queue fills.
  std::vector<SweepService::Submit> subs;
  int rejected = 0;
  for (std::uint64_t i = 0; i < 16; ++i) {
    SweepRequest request = small_request(10'000 + i);
    request.trials = 512;
    request.n = 512;
    const auto sub = service.submit(request);
    if (sub.outcome == SweepService::Submit::Outcome::kRejected) {
      ++rejected;
      EXPECT_NE(sub.error.find("queue full"), std::string::npos);
    } else {
      ASSERT_EQ(sub.outcome, SweepService::Submit::Outcome::kAccepted);
      subs.push_back(sub);
    }
  }
  EXPECT_GT(rejected, 0) << "16 submissions never overflowed max_queue=2";
  EXPECT_EQ(service.rejected(), static_cast<std::uint64_t>(rejected));
  for (const auto& sub : subs) {
    const auto done = service.wait(sub.id);
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->state, JobState::kDone);
  }
}

TEST(SweepServiceCoalescing, IdenticalInFlightRequestsShareOneJob) {
  ServiceConfig config;
  config.workers = 2;
  SweepService service(config);
  SweepRequest request = small_request(555);
  request.trials = 2000;
  request.n = 1024;
  request.adversary = "saturating";
  request.max_slots = 50'000;

  const auto first = service.submit(request);
  ASSERT_EQ(first.outcome, SweepService::Submit::Outcome::kAccepted);
  // Re-submitting the identical request while it runs must coalesce,
  // not enqueue a duplicate computation.
  int coalesced = 0;
  for (int i = 0; i < 4; ++i) {
    const auto again = service.submit(request);
    if (again.outcome == SweepService::Submit::Outcome::kCoalesced) {
      EXPECT_EQ(again.id, first.id);
      ++coalesced;
    } else {
      // The job may have already finished -> legitimate cache hit.
      ASSERT_EQ(again.outcome, SweepService::Submit::Outcome::kCached);
    }
  }
  const auto done = service.wait(first.id);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->state, JobState::kDone);
  EXPECT_EQ(service.computed(), 1u) << "coalesced requests recomputed";
  EXPECT_EQ(service.coalesced(), static_cast<std::uint64_t>(coalesced));
  if (coalesced > 0) {
    EXPECT_EQ(done->waiters, static_cast<std::size_t>(coalesced));
  }
}

TEST(SweepServiceStop, FailsQueuedJobsAndWakesWaiters) {
  ServiceConfig config;
  config.workers = 1;
  config.max_queue = 8;
  SweepService service(config);
  std::vector<std::string> ids;
  for (std::uint64_t i = 0; i < 4; ++i) {
    SweepRequest request = small_request(20'000 + i);
    request.trials = 256;
    const auto sub = service.submit(request);
    ASSERT_EQ(sub.outcome, SweepService::Submit::Outcome::kAccepted);
    ids.push_back(sub.id);
  }
  service.stop();
  for (const auto& id : ids) {
    const auto status = service.status(id);
    ASSERT_TRUE(status.has_value());
    EXPECT_TRUE(status->state == JobState::kDone ||
                status->state == JobState::kFailed);
  }
  // Submissions after stop are rejected, not queued forever.
  const auto late = service.submit(small_request(99));
  EXPECT_EQ(late.outcome, SweepService::Submit::Outcome::kRejected);
}

}  // namespace
}  // namespace jamelect::service
