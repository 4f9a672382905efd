#include "cost/prr_search.hpp"

#include <algorithm>

#include "cost/plan_cache.hpp"
#include "obs/obs.hpp"
#include "util/arena.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace prcost {
namespace {

PrrPlan make_plan(const PrmRequirements& req, const Fabric& fabric,
                  const PrrOrganization& org, const ColumnWindow& window) {
  PrrPlan plan;
  plan.organization = org;
  plan.window = window;
  plan.first_row = 0;  // fabric rows are uniform; Fig. 1 starts at row 1
  plan.available = availability(org, fabric.traits());
  plan.ru = utilization(req, plan.available, fabric.traits());
  plan.bitstream = estimate_bitstream(org, fabric.traits());
  return plan;
}

/// True if `a` beats `b` under `objective` (ties prefer smaller H).
bool better(const PrrPlan& a, const PrrPlan& b, SearchObjective objective) {
  switch (objective) {
    case SearchObjective::kMinArea:
      if (a.organization.size() != b.organization.size()) {
        return a.organization.size() < b.organization.size();
      }
      return a.organization.h < b.organization.h;
    case SearchObjective::kFirstFeasible:
      return a.organization.h < b.organization.h;
    case SearchObjective::kMinBitstream:
      if (a.bitstream.total_bytes != b.bitstream.total_bytes) {
        return a.bitstream.total_bytes < b.bitstream.total_bytes;
      }
      return a.organization.h < b.organization.h;
  }
  throw ContractError{"better: unknown objective"};
}

std::optional<PrrPlan> search(const PrmRequirements& req, const Fabric& fabric,
                              const SearchOptions& options) {
  PRCOST_TRACE_SPAN("prr_search");
  const bool single_dsp = fabric.column_count(ColumnType::kDsp) == 1;
  const u32 max_h = options.max_height == 0
                        ? fabric.rows()
                        : std::min(options.max_height, fabric.rows());
  std::optional<PrrPlan> best;
  u64 rejected = 0, accepted = 0;
  for (u32 h = 1; h <= max_h; ++h) {
    const auto org =
        organization_for_height(req, fabric.traits(), h, single_dsp);
    if (!org) {
      ++rejected;
      continue;
    }
    const auto window = fabric.find_window(org->columns);
    if (!window) {  // internal fragmentation: no contiguous span
      ++rejected;
      PRCOST_COUNT("prr_search.window_misses");
      continue;
    }
    PrrPlan plan = make_plan(req, fabric, *org, *window);
    if (!best || better(plan, *best, options.objective)) {
      best = std::move(plan);
      ++accepted;
      if (options.objective == SearchObjective::kFirstFeasible) break;
    }
  }
  PRCOST_COUNT("prr_search.searches");
  PRCOST_COUNT_N("prr_search.candidates_rejected", rejected);
  PRCOST_COUNT_N("prr_search.candidates_accepted", accepted);
  if (!best) PRCOST_COUNT("prr_search.infeasible");
  return best;
}

}  // namespace

std::optional<PrrPlan> find_prr(const PrmRequirements& req,
                                const Fabric& fabric,
                                const SearchOptions& options) {
  if (req.lut_ff_pairs == 0 && req.dsps == 0 && req.brams == 0) {
    return std::nullopt;  // empty PRM: nothing to place
  }
  if (plan_cache_enabled()) return find_prr_cached(req, fabric, options);
  return search(req, fabric, options);
}

std::optional<PrrPlan> find_prr_uncached(const PrmRequirements& req,
                                         const Fabric& fabric,
                                         const SearchOptions& options) {
  if (req.lut_ff_pairs == 0 && req.dsps == 0 && req.brams == 0) {
    return std::nullopt;
  }
  return search(req, fabric, options);
}

std::vector<PrrPlan> placement_candidates_uncached(const PrmRequirements& req,
                                                   const Fabric& fabric,
                                                   SearchObjective objective) {
  // Stage through the thread's scratch arena: the sweep does not know its
  // candidate count up front, so a plain vector would reallocate-and-copy
  // log2(n) times. The arena bumps instead, and the single exact-size heap
  // allocation happens once at the end.
  ScratchScope scratch;
  std::vector<PrrPlan, ArenaAllocator<PrrPlan>> candidates{
      ArenaAllocator<PrrPlan>{scratch.arena()}};
  const bool single_dsp = fabric.column_count(ColumnType::kDsp) == 1;
  for (u32 h = 1; h <= fabric.rows(); ++h) {
    const auto org =
        organization_for_height(req, fabric.traits(), h, single_dsp);
    if (!org) continue;
    PrrPlan plan;
    plan.organization = *org;
    plan.available = availability(*org, fabric.traits());
    plan.ru = utilization(req, plan.available, fabric.traits());
    plan.bitstream = estimate_bitstream(*org, fabric.traits());
    candidates.push_back(std::move(plan));
  }
  const auto key = [&](const PrrPlan& p) {
    switch (objective) {
      case SearchObjective::kMinArea:
        return std::pair<u64, u64>{p.organization.size(), p.organization.h};
      case SearchObjective::kFirstFeasible:
        return std::pair<u64, u64>{p.organization.h, 0};
      case SearchObjective::kMinBitstream:
        return std::pair<u64, u64>{p.bitstream.total_bytes, p.organization.h};
    }
    throw ContractError{"placement_candidates: unknown objective"};
  };
  std::stable_sort(
      candidates.begin(), candidates.end(),
      [&](const PrrPlan& a, const PrrPlan& b) { return key(a) < key(b); });
  return std::vector<PrrPlan>(candidates.begin(), candidates.end());
}

std::vector<PrrPlan> widen_candidates(const std::vector<PrrPlan>& candidates,
                                      const PrmRequirements& req,
                                      const Fabric& fabric) {
  // Same arena staging as placement_candidates_uncached.
  ScratchScope scratch;
  std::vector<PrrPlan, ArenaAllocator<PrrPlan>> widened{
      ArenaAllocator<PrrPlan>{scratch.arena()}};
  for (const PrrPlan& candidate : candidates) {
    for (u32 width = candidate.organization.width();
         width <= fabric.num_columns(); ++width) {
      const auto windows =
          fabric.superset_windows(candidate.organization.columns, width);
      for (const ColumnWindow& window : *windows) {
        PrrPlan plan = candidate;
        plan.window = window;
        plan.organization.columns = fabric.window_composition(window);
        plan.available = availability(plan.organization, fabric.traits());
        plan.bitstream = estimate_bitstream(plan.organization, fabric.traits());
        plan.ru = utilization(req, plan.available, fabric.traits());
        widened.push_back(std::move(plan));
      }
    }
  }
  return std::vector<PrrPlan>(widened.begin(), widened.end());
}

std::optional<PrrPlan> find_shared_prr(std::span<const PrmRequirements> reqs,
                                       const Fabric& fabric,
                                       const SearchOptions& options) {
  if (reqs.empty()) return std::nullopt;
  PrmRequirements merged;
  for (const PrmRequirements& r : reqs) merged.merge(r);
  return find_prr(merged, fabric, options);
}

std::vector<PrrPlan> enumerate_prrs(const PrmRequirements& req,
                                    const Fabric& fabric, u32 max_height) {
  PRCOST_TRACE_SPAN("prr_enumerate");
  PRCOST_COUNT("prr_search.enumerations");
  std::vector<PrrPlan> plans;
  const bool single_dsp = fabric.column_count(ColumnType::kDsp) == 1;
  const u32 max_h = max_height == 0 ? fabric.rows()
                                    : std::min(max_height, fabric.rows());
  for (u32 h = 1; h <= max_h; ++h) {
    const auto org =
        organization_for_height(req, fabric.traits(), h, single_dsp);
    if (!org) continue;
    const auto window = fabric.find_window(org->columns);
    if (!window) continue;
    plans.push_back(make_plan(req, fabric, *org, *window));
  }
  return plans;
}

}  // namespace prcost
