#include "svc/cache.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "util/common.hpp"
#include "util/parse.hpp"
#include "util/text.hpp"

namespace mps::svc {

namespace {

constexpr char kMagic[] = "mps-cache";

/// Header line: "mps-cache <digest> <payload_bytes>\n", then the payload.
std::string encode_entry(const std::string& digest, const std::string& payload) {
  return std::string(kMagic) + " " + digest + " " + std::to_string(payload.size()) + "\n" +
         payload;
}

/// Validate and strip the header; nullopt on any mismatch.
std::optional<std::string> decode_entry(const std::string& digest, const std::string& raw) {
  const std::size_t nl = raw.find('\n');
  if (nl == std::string::npos) return std::nullopt;
  const auto fields = util::split_ws(std::string_view(raw).substr(0, nl));
  if (fields.size() != 3 || fields[0] != kMagic || fields[1] != digest) return std::nullopt;
  const auto size = util::parse_int(fields[2], 0, std::numeric_limits<std::int64_t>::max());
  if (!size.has_value()) return std::nullopt;
  std::string payload = raw.substr(nl + 1);
  if (payload.size() != static_cast<std::size_t>(*size)) return std::nullopt;
  return payload;
}

bool is_hex_digest(const std::string& digest) {
  if (digest.size() != 64) return false;
  for (const char c : digest) {
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  }
  return true;
}

}  // namespace

Cache::Cache(const CacheOptions& opts) : opts_(opts) {
  if (!opts_.dir.empty()) {
    ::mkdir(opts_.dir.c_str(), 0777);  // EEXIST is fine; real failures surface on put
  }
}

std::string Cache::entry_path(const std::string& digest) const {
  if (opts_.dir.empty()) return {};
  return opts_.dir + "/" + digest + ".entry";
}

void Cache::touch_locked(const std::string& digest, const std::string& payload) {
  if (opts_.mem_entries == 0) return;
  const auto it = index_.find(digest);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(digest, payload);
  index_[digest] = lru_.begin();
  if (lru_.size() > opts_.mem_entries) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
  }
  stats_.entries_mem = static_cast<std::int64_t>(lru_.size());
}

std::optional<std::string> Cache::get(const std::string& digest) {
  MPS_ASSERT(is_hex_digest(digest));  // keys come from sha256_hex, never user text
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(digest);
  if (it != index_.end()) {
    ++stats_.mem_hits;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->second;
  }
  const std::string path = entry_path(digest);
  if (!path.empty()) {
    std::ifstream in(path, std::ios::binary);
    if (in) {
      std::ostringstream ss;
      ss << in.rdbuf();
      auto payload = decode_entry(digest, ss.str());
      if (payload.has_value()) {
        ++stats_.disk_hits;
        touch_locked(digest, *payload);
        return payload;
      }
      // Corrupt / truncated / foreign: drop it and fall through to a miss.
      ++stats_.corrupt;
      ::unlink(path.c_str());
    }
  }
  ++stats_.misses;
  return std::nullopt;
}

void Cache::put(const std::string& digest, const std::string& payload) {
  MPS_ASSERT(is_hex_digest(digest));
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.puts;
  touch_locked(digest, payload);
  const std::string path = entry_path(digest);
  if (path.empty()) return;
  // Atomic write-rename; a unique temp name keeps concurrent writers of the
  // same digest (possible across processes — e.g. two bench runs sharing a
  // --cache-dir) from trampling each other's partial writes.
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return;  // unwritable cache dir: stay a pure accelerator
    out << encode_entry(digest, payload);
    if (!out.flush()) {
      ::unlink(tmp.c_str());
      return;
    }
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) ::unlink(tmp.c_str());
}

CacheStats Cache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace mps::svc
