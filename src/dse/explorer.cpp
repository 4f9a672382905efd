#include "dse/explorer.hpp"

#include <algorithm>
#include <limits>

#include "obs/obs.hpp"
#include "util/parallel.hpp"

namespace prcost {
namespace {

DesignPoint evaluate_partition(const Partition& partition,
                               const std::vector<PrmInfo>& prms,
                               const Fabric& fabric,
                               const std::vector<HwTask>& workload,
                               const ExploreOptions& options) {
  PRCOST_TRACE_SPAN("dse_partition_eval");
  PRCOST_COUNT("dse.partitions_evaluated");
  DesignPoint point;
  point.partition = partition;

  // Size and floorplan one shared PRR per group.
  Floorplanner floorplanner{fabric};
  for (const auto& group : partition) {
    // Shared PRR demand: element-wise max (the paper's shared-PRR rule),
    // placed through the occupancy-aware floorplanner.
    PrmRequirements merged;
    for (const u32 prm : group) merged.merge(prms[prm].req);
    const auto placed = floorplanner.place("group", merged);
    if (!placed) {
      point.infeasible_reason = "no room for a PRR group on the fabric";
      PRCOST_COUNT("dse.partitions_infeasible");
      return point;
    }
    point.prr_plans.push_back(placed->plan);
    point.total_prr_area += placed->plan.organization.size();
  }

  // Per-PRM bitstream size = its group's PRR organization through
  // Eqs. (18)-(23) (every PRM of a group reconfigures the whole PRR).
  std::vector<PrmInfo> sized = prms;
  for (std::size_t g = 0; g < partition.size(); ++g) {
    const u64 bytes = point.prr_plans[g].bitstream.total_bytes;
    for (const u32 prm : partition[g]) {
      sized[prm].bitstream_bytes = bytes;
      point.total_bitstream_bytes += bytes;
    }
  }

  // Schedule the workload: each group is a PRR; tasks of a PRM dispatch to
  // their group's PRR. The pool simulator models the pool as symmetric
  // PRRs, which matches when groups are similar; we approximate
  // group-affinity by running the pool with one PRR per group.
  SimConfig sim_config;
  sim_config.prr_count = narrow<u32>(partition.size());
  sim_config.policy = options.policy;
  sim_config.media = options.media;
  sim_config.controller = options.controller;
  const SimResult sim = simulate(sized, workload, sim_config);
  point.makespan_s = sim.makespan_s;
  point.total_reconfig_s = sim.total_reconfig_s;
  point.feasible = true;
  return point;
}

}  // namespace

std::vector<DesignPoint> explore(const std::vector<PrmInfo>& prms,
                                 const Fabric& fabric,
                                 const std::vector<HwTask>& workload,
                                 const ExploreOptions& options) {
  PRCOST_TRACE_SPAN("dse_explore");
  const auto partitions =
      enumerate_partitions(narrow<u32>(prms.size()), options.max_groups);
  std::vector<DesignPoint> points(partitions.size());
  parallel_for(
      partitions.size(),
      [&](std::size_t i) {
        points[i] =
            evaluate_partition(partitions[i], prms, fabric, workload, options);
      },
      options.workers);
  return points;
}

std::vector<DesignPoint> pareto_front(const std::vector<DesignPoint>& points) {
  // O(n log n) sort-and-sweep instead of the all-pairs dominance test.
  // Sorted by (area asc, makespan asc), a point survives iff it has the
  // smallest makespan of its area group AND beats the best makespan of
  // every strictly smaller area. Ties in both coordinates are mutually
  // non-dominating (no strict inequality), so a whole tied group survives
  // together - same semantics as the quadratic scan.
  std::vector<const DesignPoint*> feasible;
  feasible.reserve(points.size());
  for (const DesignPoint& p : points) {
    if (p.feasible) feasible.push_back(&p);
  }
  std::stable_sort(feasible.begin(), feasible.end(),
                   [](const DesignPoint* a, const DesignPoint* b) {
                     if (a->total_prr_area != b->total_prr_area) {
                       return a->total_prr_area < b->total_prr_area;
                     }
                     return a->makespan_s < b->makespan_s;
                   });
  std::vector<DesignPoint> front;
  double best_makespan = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < feasible.size();) {
    const u64 area = feasible[i]->total_prr_area;
    const double group_makespan = feasible[i]->makespan_s;  // group minimum
    for (; i < feasible.size() && feasible[i]->total_prr_area == area; ++i) {
      if (feasible[i]->makespan_s == group_makespan &&
          group_makespan < best_makespan) {
        front.push_back(*feasible[i]);
      }
    }
    best_makespan = std::min(best_makespan, group_makespan);
  }
  return front;
}

}  // namespace prcost
