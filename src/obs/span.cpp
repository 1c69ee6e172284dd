#include "obs/span.hpp"

#include <atomic>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <ostream>

#include "support/expects.hpp"

namespace jamelect::obs {

namespace {

thread_local TraceId t_current_trace{};

[[nodiscard]] std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

[[nodiscard]] int hex_digit(char c) noexcept {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

void append_hex64(std::string& out, std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  for (int shift = 60; shift >= 0; shift -= 4) {
    out.push_back(kDigits[(v >> shift) & 0xf]);
  }
}

}  // namespace

std::string TraceId::hex() const {
  std::string out;
  out.reserve(32);
  append_hex64(out, hi);
  append_hex64(out, lo);
  return out;
}

TraceId TraceId::parse(std::string_view text) noexcept {
  if (text.size() != 32) return {};
  TraceId id;
  for (std::size_t i = 0; i < 32; ++i) {
    const int d = hex_digit(text[i]);
    if (d < 0) return {};
    std::uint64_t& word = i < 16 ? id.hi : id.lo;
    word = (word << 4) | static_cast<std::uint64_t>(d);
  }
  return id;
}

TraceId TraceId::derive(std::uint64_t a, std::uint64_t b) noexcept {
  TraceId id;
  id.hi = splitmix64(a ^ splitmix64(b));
  id.lo = splitmix64(b + 0x6a09e667f3bcc909ULL + splitmix64(a));
  if (!id.valid()) id.lo = 1;  // zero means "untraced"; never mint it
  return id;
}

TraceId current_trace() noexcept { return t_current_trace; }

ScopedTrace::ScopedTrace(TraceId id) noexcept : prev_(t_current_trace) {
  t_current_trace = id;
}

ScopedTrace::~ScopedTrace() { t_current_trace = prev_; }

SpanStore::SpanStore(std::size_t capacity)
    : capacity_(capacity), epoch_(Clock::now()) {
  JAMELECT_EXPECTS(capacity > 0);
  ring_.reserve(capacity);
}

std::int64_t SpanStore::now_us() const noexcept {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               epoch_)
      .count();
}

void SpanStore::record(const char* name, const char* phase,
                       std::int64_t ts_us, std::int64_t dur_us,
                       TraceId trace) noexcept {
  static std::atomic<std::uint32_t> next_tid{1};
  thread_local const std::uint32_t tid =
      next_tid.fetch_add(1, std::memory_order_relaxed);
  SpanRecord rec;
  rec.name = name;
  rec.phase = phase == nullptr ? "" : phase;
  rec.tid = tid;
  rec.ts_us = ts_us;
  rec.dur_us = dur_us;
  rec.trace = trace.valid() ? trace : current_trace();
  std::lock_guard lock(mutex_);
  ++pushed_;
  if (ring_.size() < capacity_) {
    ring_.push_back(rec);  // within the reserved capacity: no allocation
    return;
  }
  // Full: overwrite the oldest. head_ chases the logical start.
  ring_[head_] = rec;
  head_ = (head_ + 1) % capacity_;
}

SpanStore::Held SpanStore::held() const {
  std::lock_guard lock(mutex_);
  Held out;
  out.records.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.records.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  out.pushed = pushed_;
  return out;
}

std::vector<SpanRecord> SpanStore::snapshot() const {
  return held().records;
}

std::size_t SpanStore::size() const {
  std::lock_guard lock(mutex_);
  return ring_.size();
}

std::uint64_t SpanStore::pushed() const {
  std::lock_guard lock(mutex_);
  return pushed_;
}

std::uint64_t SpanStore::overwritten() const {
  std::lock_guard lock(mutex_);
  return pushed_ - ring_.size();
}

void SpanStore::clear() {
  std::lock_guard lock(mutex_);
  ring_.clear();
  head_ = 0;
  pushed_ = 0;
}

void append_span_json(std::string& out, const SpanRecord& rec) {
  out += "{\"ev\":\"span\",\"name\":\"";
  out += rec.name;
  out += '"';
  if (rec.phase != nullptr && rec.phase[0] != '\0') {
    out += ",\"phase\":\"";
    out += rec.phase;
    out += '"';
  }
  out += ",\"tid\":";
  out += std::to_string(rec.tid);
  out += ",\"ts_us\":";
  out += std::to_string(rec.ts_us);
  out += ",\"dur_us\":";
  out += std::to_string(rec.dur_us);
  if (rec.trace.valid()) {
    out += ",\"trace\":\"";
    out += rec.trace.hex();
    out += '"';
  }
  out += '}';
}

void SpanStore::write_ndjson(std::ostream& out) const {
  const Held h = held();
  std::string line;
  for (const SpanRecord& rec : h.records) {
    line.clear();
    append_span_json(line, rec);
    line += '\n';
    out << line;
  }
  out << "{\"ev\":\"flight\",\"pushed\":" << h.pushed
      << ",\"overwritten\":" << h.pushed - h.records.size()
      << ",\"capacity\":" << capacity_ << "}\n";
}

std::string SpanStore::dump(const std::string& prefix) const {
  // Timestamp + process-lifetime sequence number: SIGUSR1 can fire
  // twice in one second and must not clobber the first dump.
  static std::atomic<std::uint32_t> seq{0};
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char stamp[32];
  std::strftime(stamp, sizeof(stamp), "%Y%m%dT%H%M%SZ", &tm);
  std::string path = prefix;
  path += '-';
  path += stamp;
  path += '-';
  path += std::to_string(seq.fetch_add(1, std::memory_order_relaxed));
  path += ".ndjson";
  std::ofstream out(path);
  if (!out) return "";
  write_ndjson(out);
  if (!out.good()) return "";
  return path;
}

void SpanStore::write_chrome_json(std::ostream& out) const {
  const Held h = held();
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"pushed\":"
      << h.pushed << ",\"overwritten\":" << h.pushed - h.records.size()
      << ",\"capacity\":" << capacity_ << "},\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& r : h.records) {
    if (!first) out << ',';
    first = false;
    out << "{\"name\":\"" << r.name
        << "\",\"ph\":\"X\",\"cat\":\"jamelect\",\"pid\":1,\"tid\":" << r.tid
        << ",\"ts\":" << r.ts_us << ",\"dur\":" << r.dur_us;
    // Request lineage and phase tag ride in args, each only when set.
    const bool traced = r.trace.valid();
    const bool phased = r.phase[0] != '\0';
    if (traced || phased) {
      out << ",\"args\":{";
      if (traced) {
        out << "\"trace\":\"" << r.trace.hex() << (phased ? "\"," : "\"");
      }
      if (phased) out << "\"phase\":\"" << r.phase << '"';
      out << '}';
    }
    out << '}';
  }
  out << "]}\n";
}

bool SpanStore::write_chrome_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  write_chrome_json(out);
  return out.good();
}

}  // namespace jamelect::obs
