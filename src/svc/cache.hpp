// svc::Cache — a content-addressed, two-tier result cache.
//
// Tier 1 is an in-memory LRU over the serialized payloads; tier 2 is a
// directory of one file per digest.  Keys are 64-hex-char SHA-256 digests
// computed by the caller (see svc::request_digest: canonical .g text +
// options fingerprint + cache schema version), so distinct inputs or
// options can never alias and a schema bump invalidates every old entry by
// changing the key, not by versioned reads.
//
// Durability contract: put() writes <dir>/<digest>.entry via a temp file +
// atomic rename, so a crash mid-write can never leave a half-written entry
// under the final name.  Reads validate a small header (magic, digest,
// payload length); anything corrupt, truncated, or foreign is treated as a
// miss — never an error — and the offending file is removed.
//
// Thread safety: all methods are safe to call concurrently (one mutex; the
// disk I/O happens under it, which is fine at the request rates a synthesis
// daemon sees — entries are a few KB and reads are one open+read).
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

namespace mps::svc {

struct CacheOptions {
  /// On-disk tier directory; empty = memory-only.  Created (one level) on
  /// first put if missing.
  std::string dir;
  /// Max entries held in the in-memory LRU tier; 0 disables the tier.
  std::size_t mem_entries = 256;
};

struct CacheStats {
  std::int64_t mem_hits = 0;
  std::int64_t disk_hits = 0;   ///< served from disk (and promoted to memory)
  std::int64_t misses = 0;
  std::int64_t puts = 0;
  std::int64_t evictions = 0;   ///< memory-tier LRU evictions
  std::int64_t corrupt = 0;     ///< disk entries dropped by validation
  std::int64_t entries_mem = 0; ///< current memory-tier size
};

class Cache {
 public:
  explicit Cache(const CacheOptions& opts = {});

  /// Payload for `digest`, or nullopt.  A disk hit is promoted into the
  /// memory tier.  Counted in CacheStats.
  std::optional<std::string> get(const std::string& digest);

  /// Store `payload` under `digest` in both tiers.  Overwrites an existing
  /// entry (same digest => same content by construction, so this is
  /// idempotent).  Disk write failures are swallowed: the cache is an
  /// accelerator, a read-only cache directory must not fail requests.
  void put(const std::string& digest, const std::string& payload);

  CacheStats stats() const;

  /// Path of the disk entry for `digest` ("" when no disk tier).
  std::string entry_path(const std::string& digest) const;

 private:
  void touch_locked(const std::string& digest, const std::string& payload);

  CacheOptions opts_;
  mutable std::mutex mutex_;
  /// LRU: most-recent at front; map values point into the list.
  std::list<std::pair<std::string, std::string>> lru_;
  std::unordered_map<std::string, std::list<std::pair<std::string, std::string>>::iterator>
      index_;
  CacheStats stats_;
};

}  // namespace mps::svc
