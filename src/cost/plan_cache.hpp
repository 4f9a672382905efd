// Process-wide memoization of PRR plan derivations - the DSE hot path.
//
// Design-space exploration re-derives the identical PRR plan thousands of
// times: every partition whose groups merge to the same PrmRequirements
// repeats the full Fig. 1 height sweep, window scan, and bitstream
// estimate. All of those are pure functions of (fabric, requirements,
// search options), so this cache memoizes them process-wide:
//
//   - find_prr results (including "infeasible"), keyed by fabric identity,
//     the requirement 5-tuple, and SearchOptions;
//   - Floorplanner placement candidate lists (objective-sorted
//     organizations, not yet window-placed), shared read-only across
//     threads.
//
// Both kinds share one util/ShardedCache (16 shards, 2^16 entries by
// default): sharded so parallel_for sweeps do not serialize on one lock,
// bounded, and exact - a hit returns byte-identical data to a fresh
// computation, so results with the cache disabled match results with it
// enabled. Hit/miss/eviction counts are exported through the obs metrics
// registry ("plan_cache.hits" / ".misses" / ".evictions") and through
// plan_cache_stats() for callers that keep metrics off.
// set_plan_cache_enabled(false) is the escape hatch (benches and tests
// compare against the uncached path with it).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cost/prr_search.hpp"

namespace prcost {

/// Global switch, default on. Checked by find_prr and Floorplanner::place.
bool plan_cache_enabled() noexcept;
void set_plan_cache_enabled(bool on) noexcept;

/// Point-in-time cache counters (process lifetime, not reset by clear()).
struct PlanCacheStats {
  u64 hits = 0;
  u64 misses = 0;
  u64 evictions = 0;
  u64 entries = 0;  ///< currently resident entries across all shards
};

/// Memoized find_prr. Equivalent to find_prr_uncached(req, fabric,
/// options) in every case; compute-through on miss.
std::optional<PrrPlan> find_prr_cached(const PrmRequirements& req,
                                       const Fabric& fabric,
                                       const SearchOptions& options);

/// Memoized placement_candidates_uncached. The returned vector is shared
/// and immutable; callers iterate it concurrently without copying.
std::shared_ptr<const std::vector<PrrPlan>> placement_candidates(
    const PrmRequirements& req, const Fabric& fabric,
    SearchObjective objective);

/// Memoized widen_candidates over the (also memoized) candidate list: the
/// full superset-window sequence Floorplanner::place pass 2 tries, with
/// per-window availability/utilization/bitstream already computed. Shared
/// and immutable like placement_candidates.
std::shared_ptr<const std::vector<PrrPlan>> widened_candidates(
    const PrmRequirements& req, const Fabric& fabric,
    SearchObjective objective);

/// Persist every resident entry - together with the fabric-identity
/// table needed to re-key them in another process - as a versioned,
/// checksummed snapshot (util/snapshot.hpp). Returns the number of
/// entries written. Throws IoError when the file cannot be written.
std::size_t plan_cache_save(const std::string& path);

/// Restore entries written by plan_cache_save. Fabric identities are
/// re-interned on load and every key is translated, so snapshots remain
/// valid across processes (interning order does not matter). Throws
/// IoError when the file cannot be opened and ParseError on any
/// corruption; in both cases the cache is left unchanged, so callers can
/// fall back to a clean cold start. Returns the entries restored.
std::size_t plan_cache_load(const std::string& path);

/// Drop every cached entry (stats survive). Intended for tests and for
/// benchmarks that need cold-cache timings.
void plan_cache_clear();

PlanCacheStats plan_cache_stats();

/// Cap the total resident entries (approximate; enforced per shard).
/// Intended for tests exercising eviction. Default is 1 << 16.
void set_plan_cache_capacity(std::size_t max_entries);

}  // namespace prcost
