// Manifest-keyed result cache: bounded in-memory LRU + optional
// on-disk tier.
//
// Keys are obs::config_fingerprint(SweepRequest::config_map()) — the
// canonical config+seed+git-SHA hash — and values are the EXACT bytes
// of the canonical result JSON, so a hit is bit-identical to the
// computation it memoizes. The disk tier makes hits survive daemon
// restarts: each entry is one `<dir>/<key[0:2]>/<key>.result.json`
// envelope line
//
//   {"key":K,"result_bytes":N,"result_fnv":H,"request":R,"result":X}\n
//
// with the result X spliced verbatim last, N its length and H its
// obs::fnv128_hex checksum. A load is one read plus byte checks (key
// prefix, length, `"result":` marker, `}\n` tail, X's braces, H) and
// no JSON parse; any failed check (torn, truncated, bit-flipped,
// foreign key, or an older envelope without a checksum) is a miss,
// counted on "svc.cache_disk_rejects", and the key skips the disk
// until a store of it lands there.
//
// The memory tier is bounded two ways — max_entries and max_bytes
// (sum of key + value sizes) — with least-recently-used eviction; 0
// means unbounded. Eviction only drops the MEMORY copy: with a disk
// tier configured every store also goes to disk, so an evicted key
// is still a (slower) hit that reloads and re-promotes. A long-lived
// daemon's memory is therefore capped by configuration, not by the
// lifetime diversity of its request stream. Evictions are counted
// locally (evictions()) and on the global registry
// ("svc.cache_evictions").
//
// Stores are write-behind: store() fills memory and queues the
// envelope for the cache's one writer thread (temp file + rename), so
// the storing thread never touches the disk. Until the rename lands, a
// pending map serves the key even after an LRU eviction. The queue is
// bounded (kMaxQueuedWrites); a full queue makes store() wait, never
// drops the disk copy. drain() and the destructor wait until every
// queued envelope is on disk. A failed write is counted
// ("svc.cache_disk_write_failures") and leaves the key memory-only.
//
// Thread-safe. One mutex guards the memory tier, the pending map and
// the queue; it is held only for those probes and updates, never
// across file I/O. In-flight request coalescing lives one layer up, in
// SweepService — the cache only stores finished runs.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "obs/metrics.hpp"

namespace jamelect::service {

class ResultCache {
 public:
  /// Envelopes queued for the writer beyond which store() waits.
  static constexpr std::size_t kMaxQueuedWrites = 1024;

  /// `disk_dir` empty => memory-only. Otherwise the directory is
  /// created here (its shards later, by the writer) and one writer
  /// thread is started. `max_entries` /
  /// `max_bytes` bound the memory tier (0 = unbounded).
  explicit ResultCache(std::string disk_dir, std::size_t max_entries = 0,
                       std::size_t max_bytes = 0);
  /// Drains every queued write, then stops the writer.
  ~ResultCache();

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// The stored result JSON bytes for `key`: memory, then a pending
  /// write, then disk (a pending or disk hit is promoted into memory).
  /// A hit marks the entry most-recently-used. nullopt on miss.
  [[nodiscard]] std::optional<std::string> lookup(const std::string& key);

  /// Stores a finished result. `request_canonical` (the request's
  /// canonical JSON) is embedded in the disk envelope so cache files
  /// are self-describing; it is not needed to serve hits. Idempotent —
  /// same key always carries the same bytes. May evict LRU entries
  /// from memory to respect the bounds. The disk write happens later,
  /// on the writer thread.
  void store(const std::string& key, const std::string& request_canonical,
             const std::string& result_json);

  /// Blocks until every write queued so far has landed (or failed).
  void drain();

  /// Entries currently resident in memory.
  [[nodiscard]] std::size_t size() const;

  /// Approximate memory-tier footprint: sum of key + value bytes.
  [[nodiscard]] std::size_t memory_bytes() const;

  /// Memory-tier entries dropped by the LRU bound since construction.
  [[nodiscard]] std::uint64_t evictions() const;
  /// Lookups served by reading a disk envelope.
  [[nodiscard]] std::uint64_t disk_hits() const;
  /// Disk envelopes that failed a check (served as misses).
  [[nodiscard]] std::uint64_t disk_rejects() const;
  /// Queued envelopes the writer could not put on disk.
  [[nodiscard]] std::uint64_t disk_write_failures() const;

  [[nodiscard]] const std::string& disk_dir() const noexcept { return dir_; }
  [[nodiscard]] std::size_t max_entries() const noexcept {
    return max_entries_;
  }
  [[nodiscard]] std::size_t max_bytes() const noexcept { return max_bytes_; }

 private:
  struct Entry {
    std::string value;
    std::list<std::string>::iterator lru_pos;
  };
  /// A queued envelope; the result is its last `result_len` bytes
  /// before the closing "}\n".
  struct PendingWrite {
    std::shared_ptr<const std::string> envelope;
    std::size_t result_len = 0;
  };
  enum class DiskLoad { kAbsent, kRejected, kHit };

  /// Envelopes live in subdirectories named by the key's first two
  /// hex digits, made by the writer on first use. Creating or renaming
  /// a file locks its directory and stalls lookups of other names in
  /// it; with 256 shards a write rarely shares one with a lookup.
  [[nodiscard]] std::string shard_for(const std::string& key) const;
  [[nodiscard]] std::string path_for(const std::string& key) const;
  /// Reads and checks a disk envelope; on kHit `result` holds the
  /// result bytes. No lock held.
  [[nodiscard]] DiskLoad load_from_disk(const std::string& key,
                                        std::string& result) const;
  /// Writes an envelope via temp file + rename. No lock held.
  [[nodiscard]] bool write_to_disk(const std::string& key,
                                   const std::string& envelope) const;
  void writer_loop();
  /// Inserts/refreshes key as MRU, then evicts from the LRU end until
  /// the bounds hold. Caller holds mutex_.
  void insert_locked(const std::string& key, const std::string& value);
  void evict_to_bounds_locked();

  mutable std::mutex mutex_;
  std::string dir_;
  std::size_t max_entries_;
  std::size_t max_bytes_;
  std::size_t bytes_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t disk_hits_ = 0;
  std::uint64_t disk_rejects_ = 0;
  std::uint64_t disk_write_failures_ = 0;
  std::list<std::string> lru_;  ///< front = most recent
  std::unordered_map<std::string, Entry> memory_;

  // Disk tier. Keys in pending_ are queued or being written; a key in
  // rejected_ failed a check on disk and is not re-read until a write
  // of it lands (writes_landed_ tells a stale reject from a fresh one).
  std::unordered_map<std::string, PendingWrite> pending_;
  std::deque<std::string> queue_;
  std::unordered_set<std::string> rejected_;
  std::uint64_t writes_landed_ = 0;
  bool stopping_ = false;
  std::condition_variable work_cv_;  ///< writer: queue non-empty or stop
  std::condition_variable room_cv_;  ///< a write finished
  std::thread writer_;

  obs::MetricsRegistry::MetricId m_evictions_;
  obs::MetricsRegistry::MetricId m_disk_hits_;
  obs::MetricsRegistry::MetricId m_disk_rejects_;
  obs::MetricsRegistry::MetricId m_disk_write_failures_;
};

}  // namespace jamelect::service
