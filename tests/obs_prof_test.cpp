#include "obs/prof.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "obs/span.hpp"
#include "protocols/lesk.hpp"
#include "sim/montecarlo.hpp"

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
// SpanRing

SpanRecord make_span(const char* name, std::int64_t ts) {
  SpanRecord rec;
  rec.name = name;
  rec.ts_us = ts;
  rec.dur_us = 1;
  return rec;
}

TEST(SpanRing, HoldsRecordsBelowCapacity) {
  SpanRing ring(8);
  ring.push(make_span("a", 0));
  ring.push(make_span("b", 1));
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.pushed(), 2u);
  EXPECT_EQ(ring.overwritten(), 0u);
  const auto snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_STREQ(snap[0].name, "a");
  EXPECT_STREQ(snap[1].name, "b");
}

TEST(SpanRing, OverflowOverwritesOldestFirst) {
  SpanRing ring(4);
  for (std::int64_t i = 0; i < 10; ++i) ring.push(make_span("s", i));
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.pushed(), 10u);
  EXPECT_EQ(ring.overwritten(), 6u);
  const auto snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  // Oldest-first snapshot of the last four pushes: ts 6, 7, 8, 9.
  for (std::size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].ts_us, static_cast<std::int64_t>(6 + i));
  }
}

TEST(SpanRing, WraparoundIsStableOverManyGenerations) {
  SpanRing ring(3);
  for (std::int64_t i = 0; i < 1000; ++i) ring.push(make_span("s", i));
  EXPECT_EQ(ring.pushed(), 1000u);
  EXPECT_EQ(ring.overwritten(), 997u);
  const auto snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].ts_us, 997);
  EXPECT_EQ(snap[2].ts_us, 999);
}

TEST(SpanRing, ClearResetsCountsAndContents) {
  SpanRing ring(2);
  ring.push(make_span("a", 0));
  ring.push(make_span("b", 1));
  ring.push(make_span("c", 2));
  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.pushed(), 0u);
  EXPECT_EQ(ring.overwritten(), 0u);
  EXPECT_TRUE(ring.snapshot().empty());
}

// ---------------------------------------------------------------------------
// Span JSON / FlightRecorder

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

TEST(FlightRecorder, WriteNdjsonEmitsSpansThenSummary) {
  FlightRecorder flight(8);
  const ScopedTrace scoped(TraceId::derive(21, 42));
  flight.record("svc.admission", "admission", 0, 5);
  flight.record("svc.compute", "compute", 5, 100);
  std::ostringstream out;
  flight.write_ndjson(out);
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

TEST(FlightRecorder, DumpWritesTimestampedFile) {
  FlightRecorder flight(4);
  flight.record("dump_me", "", 0, 1);
  const std::string path = flight.dump("/tmp/jamelect-flight-test");
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.rfind("/tmp/jamelect-flight-test-", 0), 0u);
  EXPECT_NE(path.find(".ndjson"), std::string::npos);
  std::FILE* fh = std::fopen(path.c_str(), "rb");
  ASSERT_NE(fh, nullptr);
  std::fclose(fh);
  std::remove(path.c_str());
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
