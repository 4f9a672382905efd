#include "cost/plan_cache.hpp"

#include <algorithm>
#include <iterator>
#include <unordered_map>
#include <utility>

#include "obs/obs.hpp"
#include "util/sharded_cache.hpp"
#include "util/snapshot.hpp"

namespace prcost {
namespace {

/// What a cache entry memoizes: a find_prr result, a candidate list, or a
/// widened (superset-window) candidate list - discriminated by Key::kind,
/// never more than one per entry.
enum class EntryKind : u32 { kFindPrr, kCandidates, kWidened };

struct Key {
  u64 fabric_id = 0;
  PrmRequirements req;
  u32 max_height = 0;  ///< SearchOptions::max_height (0 for candidates)
  u32 objective = 0;
  EntryKind kind = EntryKind::kFindPrr;

  bool operator==(const Key&) const = default;
};

struct Entry {
  std::optional<PrrPlan> plan;  // kFindPrr
  std::shared_ptr<const std::vector<PrrPlan>> candidates;  // kCandidates/kWidened
};

using EntryPtr = std::shared_ptr<const Entry>;

struct Traits {
  static constexpr std::size_t kShards = 16;
  static constexpr std::size_t kCapacity = std::size_t{1} << 16;

  static std::size_t hash(const Key& key) noexcept {
    return fnv1a({key.fabric_id, key.req.lut_ff_pairs, key.req.luts,
                  key.req.ffs, key.req.dsps, key.req.brams, key.max_height,
                  key.objective, static_cast<u64>(key.kind)});
  }
  /// Only the entry count is exported; entries carry no weight.
  static std::size_t weight(const EntryPtr&) noexcept { return 0; }
  static void on_hit() {
    PRCOST_COUNT("plan_cache.hits");
    PRCOST_REQUEST_EVENT(kPlanCacheHit);
  }
  static void on_miss() {
    PRCOST_COUNT("plan_cache.misses");
    PRCOST_REQUEST_EVENT(kPlanCacheMiss);
  }
  static void on_evict() { PRCOST_COUNT("plan_cache.evictions"); }
  static void on_resident(std::size_t entries, std::size_t) {
    PRCOST_GAUGE_SET("plan_cache.entries", entries);
  }
};

using Cache = ShardedCache<Key, EntryPtr, Traits>;

// ---------------------------------------------------------------------
// Snapshot persistence (plan_cache_save / plan_cache_load).
//
// Format version 1 payload:
//   u64 identity_count
//     { u64 id; u32 family; u32 rows; string pattern } x identity_count
//   u64 entry_count
//     { Key; per-kind body } x entry_count
//
// Keys carry process-local fabric identity ids, so the identity table
// (family, rows, pattern - everything Fabric::identity() interns over)
// travels with the snapshot and keys are re-interned + translated on
// load. PrrPlan is flat scalars, written field-wise (never memcpy'd:
// struct padding would leak indeterminate bytes into the checksum).

constexpr u32 kPlanSnapshotVersion = 1;

void put_plan(SnapshotWriter& out, const PrrPlan& plan) {
  out.put_u32(plan.organization.h);
  out.put_u32(plan.organization.columns.clb_cols);
  out.put_u32(plan.organization.columns.dsp_cols);
  out.put_u32(plan.organization.columns.bram_cols);
  out.put_u32(plan.window.first_col);
  out.put_u32(plan.window.width);
  out.put_u32(plan.first_row);
  out.put_u64(plan.available.clbs);
  out.put_u64(plan.available.ffs);
  out.put_u64(plan.available.luts);
  out.put_u64(plan.available.dsps);
  out.put_u64(plan.available.brams);
  out.put_f64(plan.ru.clb);
  out.put_f64(plan.ru.ff);
  out.put_f64(plan.ru.lut);
  out.put_f64(plan.ru.dsp);
  out.put_f64(plan.ru.bram);
  out.put_u64(plan.bitstream.initial_words);
  out.put_u64(plan.bitstream.config_words_per_row);
  out.put_u64(plan.bitstream.bram_words_per_row);
  out.put_u64(plan.bitstream.final_words);
  out.put_u64(plan.bitstream.rows);
  out.put_u64(plan.bitstream.total_words);
  out.put_u64(plan.bitstream.total_bytes);
  out.put_u64(plan.bitstream.config_frames_per_row);
}

PrrPlan get_plan(SnapshotReader& in) {
  PrrPlan plan;
  plan.organization.h = in.get_u32();
  plan.organization.columns.clb_cols = in.get_u32();
  plan.organization.columns.dsp_cols = in.get_u32();
  plan.organization.columns.bram_cols = in.get_u32();
  plan.window.first_col = in.get_u32();
  plan.window.width = in.get_u32();
  plan.first_row = in.get_u32();
  plan.available.clbs = in.get_u64();
  plan.available.ffs = in.get_u64();
  plan.available.luts = in.get_u64();
  plan.available.dsps = in.get_u64();
  plan.available.brams = in.get_u64();
  plan.ru.clb = in.get_f64();
  plan.ru.ff = in.get_f64();
  plan.ru.lut = in.get_f64();
  plan.ru.dsp = in.get_f64();
  plan.ru.bram = in.get_f64();
  plan.bitstream.initial_words = in.get_u64();
  plan.bitstream.config_words_per_row = in.get_u64();
  plan.bitstream.bram_words_per_row = in.get_u64();
  plan.bitstream.final_words = in.get_u64();
  plan.bitstream.rows = in.get_u64();
  plan.bitstream.total_words = in.get_u64();
  plan.bitstream.total_bytes = in.get_u64();
  plan.bitstream.config_frames_per_row = in.get_u64();
  return plan;
}

/// Memoized candidate list of `kind` (kCandidates or kWidened), computed
/// through `compute` on a miss or with the cache off.
template <class Compute>
std::shared_ptr<const std::vector<PrrPlan>> cached_candidates(
    const PrmRequirements& req, const Fabric& fabric,
    SearchObjective objective, EntryKind kind, Compute compute) {
  if (!plan_cache_enabled()) {
    return std::make_shared<const std::vector<PrrPlan>>(compute());
  }
  const Key key{fabric.identity(), req, 0, static_cast<u32>(objective), kind};
  if (const auto entry = Cache::instance().lookup(key)) {
    return entry->candidates;
  }
  auto entry = std::make_shared<Entry>();
  entry->candidates = std::make_shared<const std::vector<PrrPlan>>(compute());
  return Cache::instance().insert(key, std::move(entry))->candidates;
}

}  // namespace

std::size_t plan_cache_save(const std::string& path) {
  SnapshotWriter out;
  const auto identities = interned_fabric_identities();
  out.put_u64(identities.size());
  for (const FabricIdentityRecord& record : identities) {
    out.put_u64(record.id);
    out.put_u32(static_cast<u32>(record.family));
    out.put_u32(record.rows);
    out.put_string(record.pattern);
  }
  const std::size_t written = Cache::instance().save(
      out, [](SnapshotWriter& w, const Key& key, const EntryPtr& entry) {
        w.put_u64(key.fabric_id);
        w.put_u64(key.req.lut_ff_pairs);
        w.put_u64(key.req.luts);
        w.put_u64(key.req.ffs);
        w.put_u64(key.req.dsps);
        w.put_u64(key.req.brams);
        w.put_u32(key.max_height);
        w.put_u32(key.objective);
        w.put_u32(static_cast<u32>(key.kind));
        if (key.kind == EntryKind::kFindPrr) {
          w.put_u32(entry->plan.has_value() ? 1 : 0);
          if (entry->plan.has_value()) put_plan(w, *entry->plan);
        } else {
          w.put_u64(entry->candidates->size());
          for (const PrrPlan& plan : *entry->candidates) put_plan(w, plan);
        }
      });
  out.write(path, kPlanSnapshotVersion);
  return written;
}

std::size_t plan_cache_load(const std::string& path) {
  SnapshotReader in{path, kPlanSnapshotVersion};
  // Re-intern the identity table; old id -> current process id.
  std::unordered_map<u64, u64> translate;
  const u64 identity_count = in.get_u64();
  for (u64 i = 0; i < identity_count; ++i) {
    const u64 old_id = in.get_u64();
    const u32 family = in.get_u32();
    const u32 rows = in.get_u32();
    const std::string pattern = in.get_string();
    if (family >= std::size(kAllFamilies) || rows == 0 || pattern.empty()) {
      in.fail("invalid fabric identity");
    }
    translate[old_id] =
        intern_fabric_identity(static_cast<Family>(family), pattern, rows);
  }
  return Cache::instance().load(in, [&translate](SnapshotReader& r) {
    Key key;
    const auto mapped = translate.find(r.get_u64());
    if (mapped == translate.end()) r.fail("unknown fabric id");
    key.fabric_id = mapped->second;
    key.req.lut_ff_pairs = r.get_u64();
    key.req.luts = r.get_u64();
    key.req.ffs = r.get_u64();
    key.req.dsps = r.get_u64();
    key.req.brams = r.get_u64();
    key.max_height = r.get_u32();
    key.objective = r.get_u32();
    const u32 kind = r.get_u32();
    if (kind > static_cast<u32>(EntryKind::kWidened)) {
      r.fail("invalid entry kind");
    }
    key.kind = static_cast<EntryKind>(kind);
    auto entry = std::make_shared<Entry>();
    if (key.kind == EntryKind::kFindPrr) {
      if (r.get_u32() != 0) entry->plan = get_plan(r);
    } else {
      const u64 plan_count = r.get_u64();
      std::vector<PrrPlan> plans;
      plans.reserve(std::min<u64>(plan_count, 1u << 16));
      for (u64 j = 0; j < plan_count; ++j) plans.push_back(get_plan(r));
      entry->candidates =
          std::make_shared<const std::vector<PrrPlan>>(std::move(plans));
    }
    return std::pair<Key, EntryPtr>{key, std::move(entry)};
  });
}

bool plan_cache_enabled() noexcept { return Cache::instance().enabled(); }

void set_plan_cache_enabled(bool on) noexcept {
  Cache::instance().set_enabled(on);
}

std::optional<PrrPlan> find_prr_cached(const PrmRequirements& req,
                                       const Fabric& fabric,
                                       const SearchOptions& options) {
  const Key key{fabric.identity(), req, options.max_height,
                static_cast<u32>(options.objective), EntryKind::kFindPrr};
  if (const auto entry = Cache::instance().lookup(key)) return entry->plan;
  auto entry = std::make_shared<Entry>();
  entry->plan = find_prr_uncached(req, fabric, options);
  return Cache::instance().insert(key, std::move(entry))->plan;
}

std::shared_ptr<const std::vector<PrrPlan>> placement_candidates(
    const PrmRequirements& req, const Fabric& fabric,
    SearchObjective objective) {
  return cached_candidates(
      req, fabric, objective, EntryKind::kCandidates,
      [&] { return placement_candidates_uncached(req, fabric, objective); });
}

std::shared_ptr<const std::vector<PrrPlan>> widened_candidates(
    const PrmRequirements& req, const Fabric& fabric,
    SearchObjective objective) {
  return cached_candidates(
      req, fabric, objective, EntryKind::kWidened, [&] {
        return widen_candidates(*placement_candidates(req, fabric, objective),
                                req, fabric);
      });
}

void plan_cache_clear() { Cache::instance().clear(); }

PlanCacheStats plan_cache_stats() {
  const CacheStats stats = Cache::instance().stats();
  return {stats.hits, stats.misses, stats.evictions, stats.entries};
}

void set_plan_cache_capacity(std::size_t max_entries) {
  Cache::instance().set_capacity(max_entries);
}

}  // namespace prcost
