#include "obs/prof.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/span.hpp"
#include "protocols/lesk.hpp"
#include "sim/montecarlo.hpp"
#include "support/thread_pool.hpp"

namespace jamelect::obs {
namespace {

// ---------------------------------------------------------------------------
// TraceId

TEST(TraceId, DefaultIsInvalid) {
  TraceId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id.hex(), std::string(32, '0'));
}

TEST(TraceId, HexParseRoundtrip) {
  const TraceId id{0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  const std::string hex = id.hex();
  EXPECT_EQ(hex.size(), 32u);
  EXPECT_EQ(hex, "0123456789abcdeffedcba9876543210");
  const TraceId back = TraceId::parse(hex);
  EXPECT_TRUE(back.valid());
  EXPECT_EQ(back, id);
}

TEST(TraceId, ParseRejectsMalformedInput) {
  EXPECT_FALSE(TraceId::parse("").valid());
  EXPECT_FALSE(TraceId::parse("abc").valid());
  EXPECT_FALSE(TraceId::parse(std::string(31, 'a')).valid());
  EXPECT_FALSE(TraceId::parse(std::string(33, 'a')).valid());
  // Right length, wrong alphabet.
  std::string bad(32, 'a');
  bad[7] = 'g';
  EXPECT_FALSE(TraceId::parse(bad).valid());
  // All-zero parses to the invalid id (zero means "untraced").
  EXPECT_FALSE(TraceId::parse(std::string(32, '0')).valid());
}

TEST(TraceId, DeriveIsDeterministicOrderSensitiveAndNeverInvalid) {
  const TraceId a = TraceId::derive(7, 11);
  EXPECT_TRUE(a.valid());
  EXPECT_EQ(a, TraceId::derive(7, 11));
  EXPECT_NE(a, TraceId::derive(11, 7));
  EXPECT_TRUE(TraceId::derive(0, 0).valid());
}

TEST(TraceId, ScopedTraceSetsAndRestores) {
  EXPECT_FALSE(current_trace().valid());
  const TraceId outer = TraceId::derive(1, 2);
  {
    const ScopedTrace s1(outer);
    EXPECT_EQ(current_trace(), outer);
    const TraceId inner = TraceId::derive(3, 4);
    {
      const ScopedTrace s2(inner);
      EXPECT_EQ(current_trace(), inner);
    }
    EXPECT_EQ(current_trace(), outer);
  }
  EXPECT_FALSE(current_trace().valid());
}

TEST(TraceId, ScopedTraceIsPerThread) {
  const ScopedTrace scoped(TraceId::derive(5, 6));
  TraceId seen = TraceId::derive(9, 9);  // sentinel: must be overwritten
  std::thread other([&] { seen = current_trace(); });
  other.join();
  EXPECT_FALSE(seen.valid());  // fresh thread starts untraced
}

// ---------------------------------------------------------------------------
// SpanStore: the bounded ring

/// Records one span named `name` starting at `ts` (duration 1).
void push(SpanStore& store, const char* name, std::int64_t ts) {
  store.record(name, "", ts, 1);
}

TEST(SpanStore, HoldsRecordsBelowCapacity) {
  SpanStore store(8);
  push(store, "a", 0);
  push(store, "b", 1);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.pushed(), 2u);
  EXPECT_EQ(store.overwritten(), 0u);
  const auto snap = store.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_STREQ(snap[0].name, "a");
  EXPECT_STREQ(snap[1].name, "b");
}

TEST(SpanStore, OverflowOverwritesOldestFirst) {
  SpanStore store(4);
  for (std::int64_t i = 0; i < 10; ++i) push(store, "s", i);
  EXPECT_EQ(store.size(), 4u);
  EXPECT_EQ(store.pushed(), 10u);
  EXPECT_EQ(store.overwritten(), 6u);
  const auto snap = store.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  // Oldest-first snapshot of the last four records: ts 6, 7, 8, 9.
  for (std::size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].ts_us, static_cast<std::int64_t>(6 + i));
  }
}

TEST(SpanStore, WraparoundIsStableOverManyGenerations) {
  SpanStore store(3);
  for (std::int64_t i = 0; i < 1000; ++i) push(store, "s", i);
  EXPECT_EQ(store.pushed(), 1000u);
  EXPECT_EQ(store.overwritten(), 997u);
  const auto snap = store.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].ts_us, 997);
  EXPECT_EQ(snap[2].ts_us, 999);
}

TEST(SpanStore, ClearResetsCountsAndContents) {
  SpanStore store(2);
  push(store, "a", 0);
  push(store, "b", 1);
  push(store, "c", 2);
  store.clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.pushed(), 0u);
  EXPECT_EQ(store.overwritten(), 0u);
  EXPECT_TRUE(store.snapshot().empty());
}

// ---------------------------------------------------------------------------
// SpanStore: the NDJSON writer

TEST(SpanJson, EmitsAllFieldsAndOmitsEmptyOnes) {
  SpanRecord rec;
  rec.name = "svc.compute";
  rec.phase = "compute";
  rec.tid = 3;
  rec.ts_us = 12;
  rec.dur_us = 34;
  rec.trace = TraceId::derive(1, 2);
  std::string line;
  append_span_json(line, rec);
  EXPECT_NE(line.find("\"ev\":\"span\""), std::string::npos);
  EXPECT_NE(line.find("\"name\":\"svc.compute\""), std::string::npos);
  EXPECT_NE(line.find("\"phase\":\"compute\""), std::string::npos);
  EXPECT_NE(line.find("\"tid\":3"), std::string::npos);
  EXPECT_NE(line.find("\"ts_us\":12"), std::string::npos);
  EXPECT_NE(line.find("\"dur_us\":34"), std::string::npos);
  EXPECT_NE(line.find("\"trace\":\"" + rec.trace.hex() + "\""),
            std::string::npos);

  SpanRecord bare;
  bare.name = "x";
  std::string bare_line;
  append_span_json(bare_line, bare);
  EXPECT_EQ(bare_line.find("\"phase\""), std::string::npos);
  EXPECT_EQ(bare_line.find("\"trace\""), std::string::npos);
}

TEST(SpanStore, WriteNdjsonEmitsSpansThenSummary) {
  SpanStore store(8);
  const ScopedTrace scoped(TraceId::derive(21, 42));
  store.record("svc.admission", "admission", 0, 5);
  store.record("svc.compute", "compute", 5, 100);
  std::ostringstream out;
  store.write_ndjson(out);
  const std::string text = out.str();
  // Two span lines then the flight summary, newline-terminated.
  EXPECT_NE(text.find("\"ev\":\"span\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"svc.admission\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"svc.compute\""), std::string::npos);
  // record() defaults the trace to the thread's current one.
  EXPECT_NE(text.find(TraceId::derive(21, 42).hex()), std::string::npos);
  const auto summary_at =
      text.find("{\"ev\":\"flight\",\"pushed\":2,\"overwritten\":0,\"capacity\":8}");
  ASSERT_NE(summary_at, std::string::npos);
  EXPECT_GT(summary_at, text.rfind("\"ev\":\"span\""));
  EXPECT_EQ(text.back(), '\n');
}

TEST(SpanStore, DumpWritesTimestampedFile) {
  SpanStore store(4);
  store.record("dump_me", "", 0, 1);
  const std::string path = store.dump("/tmp/jamelect-flight-test");
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.rfind("/tmp/jamelect-flight-test-", 0), 0u);
  EXPECT_NE(path.find(".ndjson"), std::string::npos);
  std::FILE* fh = std::fopen(path.c_str(), "rb");
  ASSERT_NE(fh, nullptr);
  std::fclose(fh);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// SpanStore: the Chrome trace writer

TEST(SpanStore, SpansProduceChromeTraceJson) {
  SpanStore store;
  const std::int64_t outer0 = store.now_us();
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  store.record("inner", "", store.now_us(), 0);
  store.record("outer", "compute", outer0, store.now_us() - outer0,
               TraceId::derive(3, 4));
  EXPECT_EQ(store.size(), 2u);
  std::ostringstream out;
  store.write_chrome_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"trace\":\"" + TraceId::derive(3, 4).hex() +
                      "\",\"phase\":\"compute\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"otherData\":{\"pushed\":2,\"overwritten\":0,"
                      "\"capacity\":4096}"),
            std::string::npos);
}

TEST(SpanStore, PoolObserverTimesDispatchedTasks) {
  SpanStore store;
  PoolProfObserver observer(&store);
  ThreadPool pool(2);
  pool.set_task_observer(&observer);
  std::atomic<int> sum{0};
  pool.parallel_for(64, [&](std::size_t i) {
    sum.fetch_add(static_cast<int>(i), std::memory_order_relaxed);
  });
  pool.set_task_observer(nullptr);
  EXPECT_EQ(sum.load(), 64 * 63 / 2);
  // Every participating worker slot records exactly one task span.
  const auto snap = store.snapshot();
  ASSERT_GE(snap.size(), 1u);
  ASSERT_LE(snap.size(), 3u);
  for (const SpanRecord& rec : snap) EXPECT_STREQ(rec.name, "pool_task");
}

TEST(SpanStore, WriteChromeFileRoundTrips) {
  SpanStore store;
  store.record("s", "", 0, 1);
  const std::string path = ::testing::TempDir() + "jamelect_trace_test.json";
  ASSERT_TRUE(store.write_chrome_file(path));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("\"displayTimeUnit\""), std::string::npos);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// SpanStore: both writers over one store

/// Field `key`'s integer value in `text` after position `from`.
std::uint64_t field_after(const std::string& text, const std::string& key,
                          std::size_t from = 0) {
  const std::size_t at = text.find("\"" + key + "\":", from);
  EXPECT_NE(at, std::string::npos) << key;
  if (at == std::string::npos) return 0;
  return std::stoull(text.substr(at + key.size() + 3));
}

/// Values of every `"key":<int>` field in `text`, in order.
std::vector<std::int64_t> all_fields(const std::string& text,
                                     const std::string& key) {
  std::vector<std::int64_t> out;
  const std::string needle = "\"" + key + "\":";
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    out.push_back(std::stoll(text.substr(at + needle.size())));
  }
  return out;
}

TEST(SpanStore, WrappedStoreWritersAgree) {
  SpanStore store(5);
  for (std::int64_t i = 0; i < 23; ++i) {
    store.record(i % 2 == 0 ? "even" : "odd", "", 100 + i, i);
  }
  std::ostringstream nd;
  store.write_ndjson(nd);
  std::ostringstream chrome;
  store.write_chrome_json(chrome);
  const std::string ndjson = nd.str();
  const std::string trace = chrome.str();

  // The same five held records, oldest first, in both writers.
  const std::vector<std::int64_t> held_ts = {118, 119, 120, 121, 122};
  EXPECT_EQ(all_fields(ndjson, "ts_us"), held_ts);
  EXPECT_EQ(all_fields(trace, "ts"), held_ts);
  EXPECT_EQ(all_fields(ndjson, "dur_us"), all_fields(trace, "dur"));
  EXPECT_EQ(all_fields(ndjson, "tid"), all_fields(trace, "tid"));

  // And the same loss accounting: 23 pushed, 18 overwritten.
  const std::size_t summary = ndjson.find("\"ev\":\"flight\"");
  ASSERT_NE(summary, std::string::npos);
  EXPECT_EQ(field_after(ndjson, "pushed", summary), 23u);
  EXPECT_EQ(field_after(ndjson, "overwritten", summary), 18u);
  EXPECT_EQ(field_after(trace, "pushed"), 23u);
  EXPECT_EQ(field_after(trace, "overwritten"), 18u);
  EXPECT_EQ(field_after(trace, "capacity"), 5u);
}

TEST(SpanStore, ConcurrentWritersRaceSnapshotAndDump) {
  constexpr std::size_t kCapacity = 64;
  constexpr int kWriters = 4;
  constexpr std::int64_t kPerWriter = 2000;
  SpanStore store(kCapacity);
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&store, &go, w] {
      while (!go.load(std::memory_order_acquire)) {
      }
      const ScopedTrace scoped(TraceId::derive(w, 0));
      for (std::int64_t i = 0; i < kPerWriter; ++i) {
        store.record("race", "compute", i, w);
      }
    });
  }
  go.store(true, std::memory_order_release);
  // The reader races the writers: every view it takes must be a
  // consistent one (held + overwritten == pushed, the ring never above
  // capacity, every held record whole).
  for (int round = 0; round < 50; ++round) {
    std::ostringstream nd;
    store.write_ndjson(nd);
    const std::string text = nd.str();
    const std::size_t summary = text.find("\"ev\":\"flight\"");
    ASSERT_NE(summary, std::string::npos);
    const std::uint64_t pushed = field_after(text, "pushed", summary);
    const std::uint64_t lost = field_after(text, "overwritten", summary);
    const auto held = static_cast<std::uint64_t>(
        std::count(text.begin(), text.end(), '\n') - 1);
    EXPECT_LE(held, kCapacity);
    EXPECT_EQ(held + lost, pushed);
    std::ostringstream chrome;
    store.write_chrome_json(chrome);
    EXPECT_LE(all_fields(chrome.str(), "ts").size(), kCapacity);
    for (const SpanRecord& rec : store.snapshot()) {
      EXPECT_STREQ(rec.name, "race");
      EXPECT_STREQ(rec.phase, "compute");
      EXPECT_EQ(rec.trace, TraceId::derive(static_cast<std::uint64_t>(
                                               rec.dur_us),
                                           0));
    }
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(store.pushed(), kWriters * kPerWriter);
  EXPECT_EQ(store.size(), kCapacity);
  EXPECT_EQ(store.overwritten(), kWriters * kPerWriter - kCapacity);
}

// ---------------------------------------------------------------------------
// PhaseProfiler / PhaseAccumulator

TEST(PhaseProfiler, PhaseAndCounterNamesAreStable) {
  EXPECT_STREQ(phase_name(Phase::kRng), "rng");
  EXPECT_STREQ(phase_name(Phase::kClassify), "classify");
  EXPECT_STREQ(phase_name(Phase::kCacheLookup), "cache_lookup");
  EXPECT_STREQ(phase_name(Phase::kLatticeUpdate), "lattice_update");
  EXPECT_STREQ(phase_name(Phase::kMerge), "merge");
  EXPECT_STREQ(phase_name(Phase::kStealWait), "steal_wait");
  EXPECT_STREQ(phase_name(Phase::kIdle), "idle");
  EXPECT_STREQ(phase_name(Phase::kAdmission), "admission");
  EXPECT_STREQ(phase_name(Phase::kQueueWait), "queue_wait");
  EXPECT_STREQ(phase_name(Phase::kCacheProbe), "cache_probe");
  EXPECT_STREQ(phase_name(Phase::kCompute), "compute");
  EXPECT_STREQ(phase_name(Phase::kSerialize), "serialize");
  EXPECT_STREQ(phase_name(Phase::kRespond), "respond");
  EXPECT_STREQ(prof_counter_name(ProfCounter::kCacheLookups), "cache_lookups");
  EXPECT_STREQ(prof_counter_name(ProfCounter::kCacheHits), "cache_hits");
}

TEST(PhaseProfiler, RecordAggregatesAndResetZeroes) {
  PhaseProfiler prof;
  prof.set_enabled(true);
  prof.record(Phase::kClassify, 100, 2);
  prof.record(Phase::kClassify, 50, 1);
  prof.record(Phase::kMerge, 7);
  prof.count(ProfCounter::kCacheLookups, 10);
  prof.count(ProfCounter::kCacheHits, 9);
  const auto snap = prof.snapshot();
  const auto classify = static_cast<std::size_t>(Phase::kClassify);
  const auto merge = static_cast<std::size_t>(Phase::kMerge);
  EXPECT_EQ(snap.ns[classify], 150);
  EXPECT_EQ(snap.calls[classify], 3);
  EXPECT_EQ(snap.ns[merge], 7);
  EXPECT_EQ(
      snap.counters[static_cast<std::size_t>(ProfCounter::kCacheLookups)],
      10);
  prof.reset();
  const auto zeroed = prof.snapshot();
  EXPECT_EQ(zeroed.ns[classify], 0);
  EXPECT_EQ(zeroed.calls[classify], 0);
}

TEST(PhaseProfiler, SnapshotSeparatesThreads) {
  PhaseProfiler prof;
  prof.set_enabled(true);
  const auto rng = static_cast<std::size_t>(Phase::kRng);
  prof.record(Phase::kRng, 11);
  std::thread other([&] { prof.record(Phase::kRng, 31); });
  other.join();
  const auto snap = prof.snapshot();
  EXPECT_EQ(snap.ns[rng], 42);
}

TEST(PhaseAccumulator, StitchedSectionsFlushToProfiler) {
  PhaseProfiler prof;
  prof.set_enabled(true);
  {
    PhaseAccumulator acc(prof);
    ASSERT_EQ(acc.on(), kObsCompiledIn);
    acc.start();
    acc.stop(Phase::kCacheLookup);
    acc.stop(Phase::kClassify);  // stitched: starts where the last stopped
    acc.add(Phase::kMerge, 1234, 2);
    acc.count(ProfCounter::kChunks, 1);
  }  // destructor flushes
  const auto snap = prof.snapshot();
  if constexpr (kObsCompiledIn) {
    EXPECT_EQ(snap.calls[static_cast<std::size_t>(Phase::kCacheLookup)],
              1);
    EXPECT_EQ(snap.calls[static_cast<std::size_t>(Phase::kClassify)], 1);
    EXPECT_GE(snap.ns[static_cast<std::size_t>(Phase::kClassify)], 0);
    EXPECT_EQ(snap.ns[static_cast<std::size_t>(Phase::kMerge)], 1234);
    EXPECT_EQ(snap.calls[static_cast<std::size_t>(Phase::kMerge)], 2);
    EXPECT_EQ(
        snap.counters[static_cast<std::size_t>(ProfCounter::kChunks)], 1);
  } else {
    EXPECT_EQ(snap.ns[static_cast<std::size_t>(Phase::kMerge)], 0);
  }
}

TEST(PhaseAccumulator, DisabledProfilerRecordsNothing) {
  PhaseProfiler prof;  // enabled() defaults to false
  {
    PhaseAccumulator acc(prof);
    EXPECT_FALSE(acc.on());
    acc.start();
    acc.stop(Phase::kClassify);
    acc.add(Phase::kMerge, 999);
  }
  const auto snap = prof.snapshot();
  EXPECT_EQ(snap.ns[static_cast<std::size_t>(Phase::kMerge)], 0);
  EXPECT_EQ(snap.calls[static_cast<std::size_t>(Phase::kClassify)], 0);
}

// ---------------------------------------------------------------------------
// Reproducibility and overhead contracts

McConfig prof_test_config() {
  McConfig config;
  config.trials = 64;
  config.seed = 23;
  config.max_slots = 1 << 12;
  config.batch = 16;
  config.parallel = false;
  config.keep_outcomes = true;
  return config;
}

McResult run_prof_workload() {
  AdversarySpec spec;
  spec.policy = "saturating";
  spec.T = 32;
  spec.eps = 0.5;
  return run_aggregate_mc([] { return std::make_unique<Lesk>(0.5); }, spec,
                          256, prof_test_config());
}

TEST(ProfilerContract, TrialOutcomesBitIdenticalProfilingOnOrOff) {
  auto& prof = PhaseProfiler::global();
  const bool was_enabled = prof.enabled();

  prof.set_enabled(false);
  const McResult off = run_prof_workload();
  prof.set_enabled(true);
  const McResult on = run_prof_workload();
  prof.set_enabled(was_enabled);

  ASSERT_EQ(off.trials, on.trials);
  ASSERT_EQ(off.outcomes.size(), on.outcomes.size());
  for (std::size_t i = 0; i < off.outcomes.size(); ++i) {
    EXPECT_EQ(off.outcomes[i].elected, on.outcomes[i].elected) << "trial " << i;
    EXPECT_EQ(off.outcomes[i].slots, on.outcomes[i].slots) << "trial " << i;
    EXPECT_EQ(off.outcomes[i].jams, on.outcomes[i].jams) << "trial " << i;
    EXPECT_EQ(off.outcomes[i].transmissions, on.outcomes[i].transmissions)
        << "trial " << i;
  }
}

TEST(ProfilerContract, EnabledOverheadIsBounded) {
  // Interleaved A/B min-of-k: the cheapest observed run with profiling
  // on must not dwarf the cheapest with it off. The bound is deliberately
  // generous (3x + 50ms absolute slack) — this is a tripwire for
  // accidentally putting a syscall or lock on the per-slot path, not a
  // precision benchmark; CI machines are noisy and Debug builds slow.
  auto& prof = PhaseProfiler::global();
  const bool was_enabled = prof.enabled();
  using Clock = std::chrono::steady_clock;

  constexpr int kRounds = 5;
  std::int64_t best_off = std::numeric_limits<std::int64_t>::max();
  std::int64_t best_on = best_off;
  for (int round = 0; round < kRounds; ++round) {
    prof.set_enabled(false);
    auto t0 = Clock::now();
    const McResult off = run_prof_workload();
    best_off = std::min<std::int64_t>(
        best_off, std::chrono::duration_cast<std::chrono::microseconds>(
                      Clock::now() - t0)
                      .count());
    ASSERT_EQ(off.trials, 64u);

    prof.set_enabled(true);
    t0 = Clock::now();
    const McResult on = run_prof_workload();
    best_on = std::min<std::int64_t>(
        best_on, std::chrono::duration_cast<std::chrono::microseconds>(
                     Clock::now() - t0)
                     .count());
    ASSERT_EQ(on.trials, 64u);
  }
  prof.set_enabled(was_enabled);
  EXPECT_LE(best_on, best_off * 3 + 50000)
      << "profiling-on min " << best_on << "us vs off min " << best_off << "us";
}

}  // namespace
}  // namespace jamelect::obs
