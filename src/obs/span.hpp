// Trace ids, span records, and the one bounded span store.
//
// A TraceId is a 128-bit request-scoped identifier minted at the edge
// (jamelect_loadgen, or any client that puts a "trace" field in the
// request envelope) and threaded through the whole stack: request →
// SweepService job → sweep_runner → McConfig → thread-pool chunk
// tasks. Every span recorded while a ScopedTrace is active on the
// current thread is tagged with it, so one request reassembles into
// one coherent trace tree.
//
// SpanStore is where every span goes: a fixed-capacity ring on a
// steady-clock epoch. A record is O(1) under a short lock and
// overwrites the oldest span once the ring is full; `overwritten()`
// counts the loss. It has two writers over the same held records: the
// NDJSON dump (`span` lines plus one `flight` summary, validated by
// docs/event_schema.json) and the Chrome trace-event JSON that
// https://ui.perfetto.dev opens, which carries the same counts so a
// truncated trace says so. Span names/phases are string literals
// (stored, not copied).
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace jamelect::obs {

/// 128-bit trace/span id. Zero (`valid() == false`) means "untraced".
struct TraceId {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  [[nodiscard]] bool valid() const noexcept { return (hi | lo) != 0; }

  /// 32 lowercase hex chars, hi word first.
  [[nodiscard]] std::string hex() const;

  /// Parses the hex() format. Returns an invalid id on anything that
  /// is not exactly 32 hex chars.
  [[nodiscard]] static TraceId parse(std::string_view text) noexcept;

  /// Deterministically derives an id from two seed words (splitmix64
  /// finalizer on each lane, cross-mixed so (a,b) and (b,a) differ).
  /// Never returns the invalid id.
  [[nodiscard]] static TraceId derive(std::uint64_t a,
                                      std::uint64_t b) noexcept;

  friend bool operator==(const TraceId&, const TraceId&) = default;
};

/// The trace id active on the calling thread (invalid if none).
[[nodiscard]] TraceId current_trace() noexcept;

/// Sets the calling thread's active trace id for a scope; restores the
/// previous one on destruction. Spans recorded while active inherit it.
class ScopedTrace {
 public:
  explicit ScopedTrace(TraceId id) noexcept;
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;
  ~ScopedTrace();

 private:
  TraceId prev_;
};

/// One completed interval. `name` and `phase` must be string literals
/// (or otherwise outlive the store).
struct SpanRecord {
  const char* name = "";
  const char* phase = "";  ///< phase tag ("" when not phase-attributed)
  std::uint32_t tid = 0;
  std::int64_t ts_us = 0;  ///< start, microseconds since store epoch
  std::int64_t dur_us = 0;
  TraceId trace{};
};

/// Fixed-capacity span ring with both writers. Thread-safe: a record
/// takes one short lock and never allocates.
class SpanStore {
 public:
  explicit SpanStore(std::size_t capacity = 4096);

  /// Microseconds since the store's epoch (steady clock).
  [[nodiscard]] std::int64_t now_us() const noexcept;

  /// Records a completed interval, overwriting the oldest record once
  /// full. An invalid `trace` falls back to the calling thread's
  /// current_trace(); `phase` may be null.
  void record(const char* name, const char* phase, std::int64_t ts_us,
              std::int64_t dur_us, TraceId trace = {}) noexcept;

  /// Records currently held, oldest first.
  [[nodiscard]] std::vector<SpanRecord> snapshot() const;

  [[nodiscard]] std::size_t size() const;
  /// Total records since construction/clear (>= size()).
  [[nodiscard]] std::uint64_t pushed() const;
  /// Records lost to overwrite (== pushed() - size()).
  [[nodiscard]] std::uint64_t overwritten() const;

  void clear();

  /// One `{"ev":"span",...}` NDJSON line per held record (oldest
  /// first), then one `{"ev":"flight",...}` summary line with
  /// pushed/overwritten/capacity.
  void write_ndjson(std::ostream& out) const;

  /// Writes write_ndjson() to `<prefix>-<utc timestamp>-<seq>.ndjson`.
  /// Returns the path, or "" on I/O failure.
  [[nodiscard]] std::string dump(const std::string& prefix) const;

  /// {"displayTimeUnit":"ms","otherData":{pushed,overwritten,capacity},
  ///  "traceEvents":[...]}: one complete ("X") event per held record,
  /// with the trace id and phase (when set) in its args.
  void write_chrome_json(std::ostream& out) const;
  /// write_chrome_json to a file; returns false on I/O failure.
  bool write_chrome_file(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;

  /// Held records (oldest first) and the push count, read under one
  /// lock so both writers report a consistent view.
  struct Held {
    std::vector<SpanRecord> records;
    std::uint64_t pushed = 0;
  };
  [[nodiscard]] Held held() const;

  const std::size_t capacity_;
  const Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> ring_;
  std::size_t head_ = 0;  ///< next write slot once the ring is full
  std::uint64_t pushed_ = 0;
};

/// Serializes one span as an NDJSON object (no trailing newline):
/// {"ev":"span","name":...,"phase":...,"tid":...,"ts_us":...,
///  "dur_us":...,"trace":"<32 hex>"} — `phase`/`trace` omitted when
/// empty/invalid.
void append_span_json(std::string& out, const SpanRecord& rec);

}  // namespace jamelect::obs
