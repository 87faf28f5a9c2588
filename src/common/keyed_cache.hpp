// Small thread-safe memo cache for immutable, deterministically-derivable
// values (solar traces, availability windows, profile tables). Sweep cells
// sharing a substrate key reuse one shared instance instead of rebuilding
// it per cell. Values are handed out as shared_ptr<const V>, so an entry
// evicted mid-sweep stays alive for every cell still holding it.
//
// Concurrency: lookups hold the mutex; factories run outside it so a slow
// build (a 10k-sample trace) never blocks threads resolving other keys.
// Threads missing the same key each build it; the first insert wins and all
// receive that one deterministic value. There is no per-key in-flight slot
// on purpose: sweep workers need the same key at the same moment, so a
// waiter would wait as long as a duplicate build takes. Measured on the
// 1152-cell gs_bench sweep (10 alternating pairs, 4 threads), such a slot
// cut duplicate builds (cache_build_waste 1.44 -> 1.00) but made setup 13%
// slower (20.3 -> 22.9 ms) and warm throughput 5% lower.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>

#include "common/assert.hpp"
#include "common/thread_annotations.hpp"

namespace gs {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class KeyedCache {
 public:
  /// Capacity bounds the map; least-recently-used entries are evicted
  /// (handed-out shared_ptrs keep evicted values alive until released).
  explicit KeyedCache(std::size_t capacity = 64) : capacity_(capacity) {
    GS_REQUIRE(capacity >= 1, "cache capacity must be positive");
  }

  /// Return the cached value for `key`, building it with `make()` on miss.
  template <typename Factory>
  std::shared_ptr<const Value> get_or_create(const Key& key, Factory&& make)
      GS_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      auto it = map_.find(key);
      if (it != map_.end()) {
        ++stats_.hits;
        it->second.last_used = ++tick_;
        return it->second.value;
      }
      ++stats_.misses;
    }
    auto built = std::make_shared<const Value>(make());
    MutexLock lock(mu_);
    auto [it, inserted] = map_.try_emplace(key, Entry{built, ++tick_});
    if (!inserted) {
      // Lost a build race: keep the incumbent so all holders share one
      // instance (both builds are deterministic and equal).
      it->second.last_used = tick_;
      return it->second.value;
    }
    if (map_.size() > capacity_) evict_lru();
    return built;
  }

  [[nodiscard]] std::size_t size() const GS_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return map_.size();
  }

  [[nodiscard]] CacheStats stats() const GS_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return stats_;
  }

  void clear() GS_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    map_.clear();
    stats_ = CacheStats{};
  }

 private:
  struct Entry {
    std::shared_ptr<const Value> value;
    std::uint64_t last_used = 0;
  };

  void evict_lru() GS_REQUIRES(mu_) {
    auto victim = map_.begin();
    for (auto it = map_.begin(); it != map_.end(); ++it) {
      if (it->second.last_used < victim->second.last_used) victim = it;
    }
    map_.erase(victim);
  }

  mutable Mutex mu_;
  std::unordered_map<Key, Entry, Hash> map_ GS_GUARDED_BY(mu_);
  CacheStats stats_ GS_GUARDED_BY(mu_);
  std::uint64_t tick_ GS_GUARDED_BY(mu_) = 0;
  const std::size_t capacity_;  // immutable after construction: unguarded
};

namespace detail {
constexpr std::uint64_t splitmix_step(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}
}  // namespace detail

/// Order-dependent 64-bit hash combiner (SplitMix64-mixed), shared by the
/// substrate cache key hashers.
constexpr std::uint64_t hash_combine(std::uint64_t h, std::uint64_t v) {
  return h ^ (detail::splitmix_step(v) + 0x9e3779b97f4a7c15ull + (h << 6) +
              (h >> 2));
}

/// Hash a double by bit pattern (cache keys compare floats exactly: two
/// configs are "the same substrate" only when every parameter is
/// bit-identical, which is also what the determinism guarantee needs).
inline std::uint64_t hash_combine(std::uint64_t h, double v) {
  return hash_combine(h, std::bit_cast<std::uint64_t>(v));
}

}  // namespace gs
