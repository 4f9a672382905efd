#include "bitstream/bitstream_cache.hpp"

#include <bit>
#include <utility>

#include "obs/obs.hpp"
#include "util/sharded_cache.hpp"
#include "util/snapshot.hpp"

namespace prcost {
namespace {

/// Everything generate_bitstream reads: the family (interning the frame
/// constants), the plan geometry that shapes the bursts, and the payload
/// options. The window width is deliberately absent - generation only
/// reads window.first_col.
struct Key {
  u32 family = 0;
  u32 h = 0;
  u32 clb_cols = 0;
  u32 dsp_cols = 0;
  u32 bram_cols = 0;
  u32 first_col = 0;
  u32 first_row = 0;
  u64 payload_seed = 0;
  u32 idcode = 0;
  u32 payload_kind = 0;
  u64 density_bits = 0;  ///< sparse_density, compared bit-exactly

  bool operator==(const Key&) const = default;
};

using Words = std::shared_ptr<const std::vector<u32>>;

struct Traits {
  // Entries are whole bitstreams, so the default cap is small; the
  // typical working set is a handful of PRMs per device.
  static constexpr std::size_t kShards = 8;
  static constexpr std::size_t kCapacity = 128;

  static std::size_t hash(const Key& key) noexcept {
    return fnv1a({key.family, key.h, key.clb_cols, key.dsp_cols,
                  key.bram_cols, key.first_col, key.first_row,
                  key.payload_seed, key.idcode, key.payload_kind,
                  key.density_bits});
  }
  static std::size_t weight(const Words& words) noexcept {
    return words->size();
  }
  static void on_hit() {
    PRCOST_COUNT("bitstream_cache.hits");
    PRCOST_REQUEST_EVENT(kBitstreamCacheHit);
  }
  static void on_miss() {
    PRCOST_COUNT("bitstream_cache.misses");
    PRCOST_REQUEST_EVENT(kBitstreamCacheMiss);
  }
  static void on_evict() { PRCOST_COUNT("bitstream_cache.evictions"); }
  static void on_resident(std::size_t entries, std::size_t words) {
    PRCOST_GAUGE_SET("bitstream_cache.entries", entries);
    PRCOST_GAUGE_SET("bitstream_cache.resident_words", words);
  }
};

using Cache = ShardedCache<Key, Words, Traits>;

Key key_of(const PrrPlan& plan, Family family,
           const GeneratorOptions& options) {
  Key key;
  key.family = static_cast<u32>(family);
  key.h = plan.organization.h;
  key.clb_cols = plan.organization.columns.clb_cols;
  key.dsp_cols = plan.organization.columns.dsp_cols;
  key.bram_cols = plan.organization.columns.bram_cols;
  key.first_col = plan.window.first_col;
  key.first_row = plan.first_row;
  key.payload_seed = options.payload_seed;
  key.idcode = options.idcode;
  key.payload_kind = static_cast<u32>(options.payload);
  key.density_bits = std::bit_cast<u64>(options.sparse_density);
  return key;
}

// Snapshot format version 1 payload:
//   u64 entry_count
//     { 11 key fields; u64 word_count; word_count x u32 words } x count
// Words are written as one bulk byte range (not word-by-word): resident
// bitstreams dominate the file, and the bulk path keeps warm restart
// well under the 100 ms budget.
constexpr u32 kBitstreamSnapshotVersion = 1;

}  // namespace

std::size_t bitstream_cache_save(const std::string& path) {
  SnapshotWriter out;
  const std::size_t written = Cache::instance().save(
      out, [](SnapshotWriter& w, const Key& key, const Words& words) {
        w.put_u32(key.family);
        w.put_u32(key.h);
        w.put_u32(key.clb_cols);
        w.put_u32(key.dsp_cols);
        w.put_u32(key.bram_cols);
        w.put_u32(key.first_col);
        w.put_u32(key.first_row);
        w.put_u64(key.payload_seed);
        w.put_u32(key.idcode);
        w.put_u32(key.payload_kind);
        w.put_u64(key.density_bits);
        w.put_u64(words->size());
        w.put_bytes(words->data(), words->size() * sizeof(u32));
      });
  out.write(path, kBitstreamSnapshotVersion);
  return written;
}

std::size_t bitstream_cache_load(const std::string& path) {
  SnapshotReader in{path, kBitstreamSnapshotVersion};
  return Cache::instance().load(in, [](SnapshotReader& r) {
    Key key;
    key.family = r.get_u32();
    key.h = r.get_u32();
    key.clb_cols = r.get_u32();
    key.dsp_cols = r.get_u32();
    key.bram_cols = r.get_u32();
    key.first_col = r.get_u32();
    key.first_row = r.get_u32();
    key.payload_seed = r.get_u64();
    key.idcode = r.get_u32();
    key.payload_kind = r.get_u32();
    key.density_bits = r.get_u64();
    // Divide, not multiply: a crafted count times sizeof(u32) can wrap.
    const u64 word_count = r.get_u64();
    if (word_count > r.remaining() / sizeof(u32)) r.fail("payload underrun");
    std::vector<u32> words(static_cast<std::size_t>(word_count));
    r.get_bytes(words.data(), words.size() * sizeof(u32));
    return std::pair<Key, Words>{
        key, std::make_shared<const std::vector<u32>>(std::move(words))};
  });
}

std::shared_ptr<const std::vector<u32>> generate_bitstream_cached(
    const PrrPlan& plan, Family family, const GeneratorOptions& options) {
  const Key key = key_of(plan, family, options);
  if (Words words = Cache::instance().lookup(key)) return words;
  auto words = std::make_shared<const std::vector<u32>>(
      generate_bitstream(plan, family, options));
  return Cache::instance().insert(key, std::move(words));
}

void bitstream_cache_clear() { Cache::instance().clear(); }

BitstreamCacheStats bitstream_cache_stats() {
  const CacheStats stats = Cache::instance().stats();
  return {stats.hits, stats.misses, stats.evictions, stats.entries,
          stats.weight};
}

void set_bitstream_cache_capacity(std::size_t max_entries) {
  Cache::instance().set_capacity(max_entries);
}

}  // namespace prcost
