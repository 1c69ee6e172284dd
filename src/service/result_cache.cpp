#include "service/result_cache.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <string_view>
#include <utility>

#include "obs/manifest.hpp"

namespace jamelect::service {

namespace {

/// Keys are hex fingerprints; reject anything else before it becomes a
/// filename (defense against path traversal via a corrupted key).
bool safe_key(const std::string& key) {
  if (key.empty() || key.size() > 64) return false;
  for (const char c : key) {
    const bool ok = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
    if (!ok) return false;
  }
  return true;
}

std::size_t entry_bytes(const std::string& key, const std::string& value) {
  return key.size() + value.size();
}

/// Files larger than this are not envelopes this cache wrote; reading
/// one would only cost memory.
constexpr std::size_t kMaxEnvelopeBytes = std::size_t{64} << 20;

constexpr std::string_view kBytesField = "\",\"result_bytes\":";
constexpr std::string_view kFnvField = ",\"result_fnv\":\"";
constexpr std::string_view kRequestField = "\",\"request\":";
constexpr std::string_view kResultField = ",\"result\":";
constexpr std::string_view kTail = "}\n";

/// {"key":K,"result_bytes":N,"result_fnv":H,"request":R,"result":X}\n
std::string make_envelope(const std::string& key,
                          const std::string& request_canonical,
                          const std::string& result_json) {
  const obs::Fnv128Hex fnv = obs::fnv128_hex(result_json);
  const std::string bytes = std::to_string(result_json.size());
  const std::string_view request =
      request_canonical.empty() ? std::string_view("null")
                                : std::string_view(request_canonical);
  std::string out;
  out.reserve(64 + key.size() + bytes.size() + request.size() +
              result_json.size());
  out += "{\"key\":\"";
  out += key;
  out += kBytesField;
  out += bytes;
  out += kFnvField;
  out.append(fnv.data(), fnv.size());
  out += kRequestField;
  out += request;
  out += kResultField;
  out += result_json;
  out += kTail;
  return out;
}

/// Checks `env` against make_envelope's layout for `key`; on success
/// [*pos, *pos + *len) is the result. Everything but the request is
/// checked, and the result against its length and checksum.
bool check_envelope(std::string_view env, const std::string& key,
                    std::size_t* pos, std::size_t* len) {
  constexpr std::size_t kFnvLen = obs::Fnv128Hex{}.size();
  std::size_t at = 0;
  const auto eat = [&](std::string_view lit) {
    if (env.substr(at, lit.size()) != lit) return false;
    at += lit.size();
    return true;
  };
  if (!eat("{\"key\":\"") || !eat(key) || !eat(kBytesField)) return false;
  const std::size_t digits = at;
  std::size_t n = 0;
  while (at < env.size() && at - digits < 12 && env[at] >= '0' &&
         env[at] <= '9') {
    n = n * 10 + static_cast<std::size_t>(env[at++] - '0');
  }
  if (at == digits || !eat(kFnvField)) return false;
  const std::string_view fnv = env.substr(at, kFnvLen);
  if (fnv.size() != kFnvLen) return false;
  at += kFnvLen;
  if (!eat(kRequestField)) return false;
  // The request runs from `at` to the result marker; the result sits
  // right before the tail.
  if (n < 2 || env.size() <= at + kResultField.size() + n + kTail.size()) {
    return false;
  }
  const std::size_t result_pos = env.size() - kTail.size() - n;
  if (env.substr(result_pos - kResultField.size(), kResultField.size()) !=
          kResultField ||
      env.substr(env.size() - kTail.size()) != kTail ||
      env[result_pos] != '{' || env[result_pos + n - 1] != '}') {
    return false;
  }
  const obs::Fnv128Hex actual = obs::fnv128_hex(env.substr(result_pos, n));
  if (std::string_view(actual.data(), actual.size()) != fnv) return false;
  *pos = result_pos;
  *len = n;
  return true;
}

}  // namespace

ResultCache::ResultCache(std::string disk_dir, std::size_t max_entries,
                         std::size_t max_bytes)
    : dir_(std::move(disk_dir)),
      max_entries_(max_entries),
      max_bytes_(max_bytes),
      m_evictions_(
          obs::MetricsRegistry::global().counter("svc.cache_evictions")),
      m_disk_hits_(
          obs::MetricsRegistry::global().counter("svc.cache_disk_hits")),
      m_disk_rejects_(
          obs::MetricsRegistry::global().counter("svc.cache_disk_rejects")),
      m_disk_write_failures_(obs::MetricsRegistry::global().counter(
          "svc.cache_disk_write_failures")) {
  // Register at zero so a daemon's /metrics always carries the
  // counters, evictions or disk faults or not.
  auto& reg = obs::MetricsRegistry::global();
  for (const auto id : {m_evictions_, m_disk_hits_, m_disk_rejects_,
                        m_disk_write_failures_}) {
    reg.add(id, 0);
  }
  if (dir_.empty()) return;
  // A directory that cannot be created leaves every write failing,
  // counted; the memory tier still serves.
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  writer_ = std::thread([this] { writer_loop(); });
}

ResultCache::~ResultCache() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  // The writer empties the queue before it exits.
  if (writer_.joinable()) writer_.join();
}

std::string ResultCache::shard_for(const std::string& key) const {
  return dir_ + "/" + key.substr(0, 2);
}

std::string ResultCache::path_for(const std::string& key) const {
  return shard_for(key) + "/" + key + ".result.json";
}

std::optional<std::string> ResultCache::lookup(const std::string& key) {
  std::uint64_t landed = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = memory_.find(key);
    if (it != memory_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      return it->second.value;
    }
    if (const auto p = pending_.find(key); p != pending_.end()) {
      const std::string& envelope = *p->second.envelope;
      std::string value(envelope,
                        envelope.size() - kTail.size() - p->second.result_len,
                        p->second.result_len);
      insert_locked(key, value);
      return value;
    }
    if (dir_.empty() || !safe_key(key) || rejected_.count(key) != 0) {
      return std::nullopt;
    }
    landed = writes_landed_;
  }
  std::string value;
  const DiskLoad load = load_from_disk(key, value);
  if (load == DiskLoad::kAbsent) return std::nullopt;
  auto& reg = obs::MetricsRegistry::global();
  const std::lock_guard<std::mutex> lock(mutex_);
  if (load == DiskLoad::kRejected) {
    // Concurrent readers of one bad file count it once.
    if (rejected_.count(key) == 0) {
      ++disk_rejects_;
      reg.add(m_disk_rejects_, 1);
      // A write that landed meanwhile may have replaced the bad file.
      if (writes_landed_ == landed) rejected_.insert(key);
    }
    return std::nullopt;
  }
  ++disk_hits_;
  reg.add(m_disk_hits_, 1);
  insert_locked(key, value);
  return value;
}

ResultCache::DiskLoad ResultCache::load_from_disk(const std::string& key,
                                                  std::string& result) const {
  // O_NONBLOCK: a FIFO planted under the name must not hang the
  // lookup; it then fails the regular-file check below.
  const int fd =
      ::open(path_for(key).c_str(), O_RDONLY | O_CLOEXEC | O_NONBLOCK);
  if (fd < 0) return DiskLoad::kAbsent;
  struct stat st {};
  bool ok = ::fstat(fd, &st) == 0 && S_ISREG(st.st_mode) &&
            static_cast<std::size_t>(st.st_size) <= kMaxEnvelopeBytes;
  std::string buf;
  if (ok) {
    buf.resize(static_cast<std::size_t>(st.st_size));
    std::size_t got = 0;
    while (got < buf.size()) {
      const ssize_t r = ::read(fd, buf.data() + got, buf.size() - got);
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) break;
      got += static_cast<std::size_t>(r);
    }
    ok = got == buf.size();
  }
  ::close(fd);
  std::size_t pos = 0;
  std::size_t len = 0;
  if (!ok || !check_envelope(buf, key, &pos, &len)) return DiskLoad::kRejected;
  buf.resize(pos + len);
  buf.erase(0, pos);
  result = std::move(buf);
  return DiskLoad::kHit;
}

bool ResultCache::write_to_disk(const std::string& key,
                                const std::string& envelope) const {
  const std::string path = path_for(key);
  const std::string tmp = path + ".tmp";
  const auto create = [&tmp] {
    return ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  };
  int fd = create();
  if (fd < 0 && errno == ENOENT &&
      ::mkdir(shard_for(key).c_str(), 0755) == 0) {
    fd = create();  // the key's shard directory did not exist yet
  }
  if (fd < 0) return false;
  std::size_t put = 0;
  while (put < envelope.size()) {
    const ssize_t w = ::write(fd, envelope.data() + put, envelope.size() - put);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) break;
    put += static_cast<std::size_t>(w);
  }
  const bool closed = ::close(fd) == 0;
  // rename() is atomic within a filesystem: readers see the old state
  // or the complete new file, never a torn write.
  if (put == envelope.size() && closed &&
      std::rename(tmp.c_str(), path.c_str()) == 0) {
    return true;
  }
  std::remove(tmp.c_str());
  return false;
}

void ResultCache::writer_loop() {
  auto& reg = obs::MetricsRegistry::global();
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping, and nothing left to write
    const std::string key = std::move(queue_.front());
    queue_.pop_front();
    const auto envelope = pending_.at(key).envelope;
    lock.unlock();
    const bool ok = write_to_disk(key, *envelope);
    lock.lock();
    // Only now may lookups fall through to the file.
    pending_.erase(key);
    if (ok) {
      ++writes_landed_;
      rejected_.erase(key);
    } else {
      ++disk_write_failures_;
      reg.add(m_disk_write_failures_, 1);
    }
    room_cv_.notify_all();
  }
}

void ResultCache::insert_locked(const std::string& key,
                                const std::string& value) {
  const auto it = memory_.find(key);
  if (it != memory_.end()) {
    // Same key always carries the same bytes, but stay defensive about
    // the accounting if they ever differ.
    bytes_ -= entry_bytes(key, it->second.value);
    bytes_ += entry_bytes(key, value);
    it->second.value = value;
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  } else {
    lru_.push_front(key);
    memory_.emplace(key, Entry{value, lru_.begin()});
    bytes_ += entry_bytes(key, value);
  }
  evict_to_bounds_locked();
}

void ResultCache::evict_to_bounds_locked() {
  const auto over = [this] {
    // Never evict the just-touched MRU entry: a single oversized result
    // must still be servable, so the bounds apply to entries beyond it.
    if (memory_.size() <= 1) return false;
    if (max_entries_ != 0 && memory_.size() > max_entries_) return true;
    if (max_bytes_ != 0 && bytes_ > max_bytes_) return true;
    return false;
  };
  while (over()) {
    const std::string& victim = lru_.back();
    const auto it = memory_.find(victim);
    bytes_ -= entry_bytes(victim, it->second.value);
    memory_.erase(it);
    lru_.pop_back();
    ++evictions_;
    obs::MetricsRegistry::global().add(m_evictions_, 1);
  }
}

void ResultCache::store(const std::string& key,
                        const std::string& request_canonical,
                        const std::string& result_json) {
  const bool to_disk = writer_.joinable() && safe_key(key);
  // Built before the lock; the writer thread puts it on disk.
  std::shared_ptr<const std::string> envelope;
  if (to_disk) {
    envelope = std::make_shared<const std::string>(
        make_envelope(key, request_canonical, result_json));
  }
  std::unique_lock<std::mutex> lock(mutex_);
  if (to_disk) {
    // A full queue holds this store back; the disk copy is never
    // dropped. Same key, same bytes: one queued write of it is enough.
    room_cv_.wait(lock, [this, &key] {
      return queue_.size() < kMaxQueuedWrites || pending_.count(key) != 0;
    });
  }
  // Memory and the pending map change under one hold, so an eviction
  // can never catch the key in neither.
  insert_locked(key, result_json);
  if (!to_disk || !pending_
                       .emplace(key, PendingWrite{std::move(envelope),
                                                  result_json.size()})
                       .second) {
    return;
  }
  queue_.push_back(key);
  lock.unlock();
  work_cv_.notify_one();
}

void ResultCache::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  room_cv_.wait(lock, [this] { return pending_.empty(); });
}

std::size_t ResultCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return memory_.size();
}

std::size_t ResultCache::memory_bytes() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

std::uint64_t ResultCache::evictions() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return evictions_;
}

std::uint64_t ResultCache::disk_hits() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return disk_hits_;
}

std::uint64_t ResultCache::disk_rejects() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return disk_rejects_;
}

std::uint64_t ResultCache::disk_write_failures() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return disk_write_failures_;
}

}  // namespace jamelect::service
