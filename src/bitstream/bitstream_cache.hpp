// Process-wide memoization of generated bitstreams.
//
// Batch cross-checks, explore verification, and reconfiguration studies
// regenerate the identical partial bitstream many times: every request
// that plans the same PRM on the same device reaches generate_bitstream
// with the same plan geometry and options. Generation is a pure function
// of (family traits, PRR plan geometry, GeneratorOptions) - the family
// enum interns the fabric's frame constants, and the plan's organization,
// column window, and first row pin the burst layout - so the words are
// memoized process-wide in a util/ShardedCache, the one behind the plan
// cache: 8 shards, and a small default cap because entries are whole
// bitstreams. A hit is byte-identical to a fresh generation.
//
// Hit/miss/eviction counts are exported through the obs metrics registry
// ("bitstream_cache.hits" / ".misses" / ".evictions", gauges ".entries"
// and ".resident_words") and through bitstream_cache_stats() for callers
// that keep metrics off.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bitstream/generator.hpp"

namespace prcost {

/// Point-in-time cache counters (process lifetime, not reset by clear()).
struct BitstreamCacheStats {
  u64 hits = 0;
  u64 misses = 0;
  u64 evictions = 0;
  u64 entries = 0;         ///< currently resident bitstreams
  u64 resident_words = 0;  ///< total words held across all entries
};

/// Memoized generate_bitstream. The returned vector is shared and
/// immutable; on a hit no generation (and no copy) happens.
std::shared_ptr<const std::vector<u32>> generate_bitstream_cached(
    const PrrPlan& plan, Family family, const GeneratorOptions& options = {});

/// Persist every resident bitstream as a versioned, checksummed snapshot
/// (util/snapshot.hpp). Keys are (family, geometry, options) - all
/// process-independent - so no translation table is needed. Returns the
/// entries written. Throws IoError when the file cannot be written.
std::size_t bitstream_cache_save(const std::string& path);

/// Restore entries written by bitstream_cache_save. Throws IoError when
/// the file cannot be opened and ParseError on any corruption; in both
/// cases the cache is left unchanged, so callers can fall back to a
/// clean cold start. Returns the entries restored.
std::size_t bitstream_cache_load(const std::string& path);

/// Drop every cached bitstream (stats survive). Intended for tests and
/// for benchmarks that need cold-cache timings.
void bitstream_cache_clear();

BitstreamCacheStats bitstream_cache_stats();

/// Cap the total resident entries (approximate; enforced per shard).
/// Entries are whole bitstreams, so the default is deliberately small:
/// 128.
void set_bitstream_cache_capacity(std::size_t max_entries);

}  // namespace prcost
