// Process-wide, sharded, bounded memoization table behind the plan and
// bitstream caches.
//
// A ShardedCache<Key, Value, Traits> maps keys to shared, immutable values
// (Value is a shared_ptr; lookup returns an empty one on a miss):
//
//   - sharded: Traits::kShards mutex-guarded maps, picked by the key's
//     hash, so parallel_for sweeps do not serialize on one lock;
//   - bounded: past capacity / kShards entries a shard drops an arbitrary
//     resident entry (hash order ~ random) - an overflow valve, not an LRU;
//   - exact and first-writer-wins: concurrent misses on one key may both
//     compute, but every caller gets the one resident value;
//   - counted: hits, misses and evictions for the process lifetime, plus
//     the resident entry count and Traits::weight summed over residents.
//
// This layer sits below obs/, so Traits carries the metric names and
// request events as compile-time hooks (no std::function, no virtuals):
//
//   static constexpr std::size_t kShards;     // power of two
//   static constexpr std::size_t kCapacity;   // default total entries
//   static std::size_t hash(const Key&);      // fnv1a over the key fields
//   static std::size_t weight(const Value&);  // summed into stats().weight
//   static void on_hit(); on_miss(); on_evict();
//   static void on_resident(std::size_t entries, std::size_t weight);
//
// on_resident reports the new totals after an insert and after clear().
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <initializer_list>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/ints.hpp"
#include "util/snapshot.hpp"

namespace prcost {

/// FNV-1a over a key's fields in order. Keys are hashed field-wise, never
/// memcmp'd: they have padding.
inline std::size_t fnv1a(std::initializer_list<u64> fields) noexcept {
  u64 h = 14695981039346656037ull;
  for (const u64 v : fields) {
    h ^= v;
    h *= 1099511628211ull;
  }
  return static_cast<std::size_t>(h);
}

/// Point-in-time cache counters (process lifetime, not reset by clear()).
struct CacheStats {
  u64 hits = 0;
  u64 misses = 0;
  u64 evictions = 0;
  u64 entries = 0;  ///< currently resident entries across all shards
  u64 weight = 0;   ///< Traits::weight summed over resident values
};

template <class Key, class Value, class Traits>
class ShardedCache {
  static_assert(std::has_single_bit(Traits::kShards));

 public:
  /// The process-wide cache of this instantiation.
  static ShardedCache& instance() {
    static ShardedCache cache;
    return cache;
  }

  /// Global switch, default on; read by the caller's compute-through path.
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Empty Value on a miss. Shared values: callers must not mutate.
  Value lookup(const Key& key) {
    Shard& shard = shard_for(key);
    {
      const std::scoped_lock lock{shard.mu};
      const auto it = shard.map.find(key);
      if (it != shard.map.end()) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        Traits::on_hit();
        return it->second;
      }
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    Traits::on_miss();
    return Value{};
  }

  /// Insert (first writer wins) and return the resident value.
  Value insert(const Key& key, Value value) {
    Shard& shard = shard_for(key);
    const std::size_t shard_cap = std::max<std::size_t>(
        1, capacity_.load(std::memory_order_relaxed) / Traits::kShards);
    const std::scoped_lock lock{shard.mu};
    if (shard.map.size() >= shard_cap && !shard.map.contains(key)) {
      const auto victim = shard.map.begin();
      weight_.fetch_sub(Traits::weight(victim->second),
                        std::memory_order_relaxed);
      shard.map.erase(victim);
      entries_.fetch_sub(1, std::memory_order_relaxed);
      evictions_.fetch_add(1, std::memory_order_relaxed);
      Traits::on_evict();
    }
    const auto [it, inserted] = shard.map.try_emplace(key, std::move(value));
    if (inserted) {
      const std::size_t weight = Traits::weight(it->second);
      Traits::on_resident(
          entries_.fetch_add(1, std::memory_order_relaxed) + 1,
          weight_.fetch_add(weight, std::memory_order_relaxed) + weight);
    }
    return it->second;
  }

  /// Drop every entry (counters survive).
  void clear() {
    for (Shard& shard : shards_) {
      const std::scoped_lock lock{shard.mu};
      entries_.fetch_sub(shard.map.size(), std::memory_order_relaxed);
      for (const auto& [key, value] : shard.map) {
        weight_.fetch_sub(Traits::weight(value), std::memory_order_relaxed);
      }
      shard.map.clear();
    }
    Traits::on_resident(entries_.load(std::memory_order_relaxed),
                        weight_.load(std::memory_order_relaxed));
  }

  CacheStats stats() const {
    CacheStats out;
    out.hits = hits_.load(std::memory_order_relaxed);
    out.misses = misses_.load(std::memory_order_relaxed);
    out.evictions = evictions_.load(std::memory_order_relaxed);
    out.entries = entries_.load(std::memory_order_relaxed);
    out.weight = weight_.load(std::memory_order_relaxed);
    return out;
  }

  /// Cap the total resident entries (approximate; enforced per shard).
  void set_capacity(std::size_t max_entries) {
    capacity_.store(std::max(Traits::kShards, max_entries),
                    std::memory_order_relaxed);
  }

  /// Write a u64 entry count, then every resident entry through
  /// put(out, key, value). Values are pinned shard by shard and encoded
  /// outside the locks. Returns the entries written.
  template <class Put>
  std::size_t save(SnapshotWriter& out, Put put) const {
    std::vector<std::pair<Key, Value>> resident;
    for (const Shard& shard : shards_) {
      const std::scoped_lock lock{shard.mu};
      resident.insert(resident.end(), shard.map.begin(), shard.map.end());
    }
    out.put_u64(resident.size());
    for (const auto& [key, value] : resident) put(out, key, value);
    return resident.size();
  }

  /// Read what save wrote, decoding each entry with get(in), which returns
  /// a std::pair<Key, Value>. Everything is decoded and the payload must
  /// end before anything is inserted, so a malformed snapshot throws
  /// ParseError with the cache unchanged. Returns the entries restored.
  template <class Get>
  std::size_t load(SnapshotReader& in, Get get) {
    const u64 count = in.get_u64();
    std::vector<std::pair<Key, Value>> loaded;
    // Bound the reserve: a crafted count larger than the payload could
    // otherwise throw bad_alloc instead of the underrun ParseError.
    loaded.reserve(std::min<u64>(count, 1u << 16));
    for (u64 i = 0; i < count; ++i) loaded.push_back(get(in));
    if (in.remaining() != 0) in.fail("trailing bytes");
    for (auto& [key, value] : loaded) insert(key, std::move(value));
    return loaded.size();
  }

 private:
  struct Hash {
    std::size_t operator()(const Key& key) const noexcept {
      return Traits::hash(key);
    }
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<Key, Value, Hash> map;
  };

  Shard& shard_for(const Key& key) {
    return shards_[Traits::hash(key) & (Traits::kShards - 1)];
  }

  std::array<Shard, Traits::kShards> shards_;
  std::atomic<bool> enabled_{true};
  std::atomic<u64> hits_{0};
  std::atomic<u64> misses_{0};
  std::atomic<u64> evictions_{0};
  std::atomic<std::size_t> entries_{0};  ///< mirrors the shard maps (gauge)
  std::atomic<std::size_t> weight_{0};
  std::atomic<std::size_t> capacity_{Traits::kCapacity};
};

}  // namespace prcost
