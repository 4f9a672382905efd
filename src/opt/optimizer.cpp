#include "opt/optimizer.hpp"

#include <algorithm>
#include <cmath>

#include "cost/prr_model.hpp"
#include "obs/obs.hpp"
#include "reconfig/baselines.hpp"
#include "reconfig/controllers.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace prcost::opt {
namespace {

/// Scalarization weights: cost = kRejectWeight * rejected_prms
/// + kTimeWeight * makespan_s + kMoveWeight * relocation_s. A rejected PRM
/// outweighs any makespan or relocation saving.
constexpr double kRejectWeight = 1000.0;
constexpr double kTimeWeight = 1.0;
constexpr double kMoveWeight = 0.1;
/// Temperature decay per annealing round.
constexpr double kCooling = 0.92;

/// Rescue pass: try to place every unplaced group, in index order. Both
/// the greedy baseline and every annealing move end with this, so a move
/// that frees the right rectangle immediately converts a rejection into a
/// placement (which is how the annealer attacks the rejection rate).
void place_unplaced(Floorplanner& fp, std::span<const GroupSpec> groups) {
  for (const GroupSpec& group : groups) {
    if (placement_index_of(fp, group.name) != std::size_t(-1)) continue;
    fp.place(group.name, group.req, group.objective);
  }
}

}  // namespace

PrmRequirements group_requirements(const OptInstance& instance, u32 g) {
  PrmRequirements merged;
  for (std::size_t i = 0; i < instance.prms.size(); ++i) {
    if (instance.group_of[i] == g) merged.merge(instance.prms[i].req);
  }
  return merged;
}

std::vector<GroupSpec> group_specs(const OptInstance& instance) {
  std::vector<GroupSpec> groups;
  groups.reserve(instance.group_count);
  for (u32 g = 0; g < instance.group_count; ++g) {
    GroupSpec spec;
    spec.name = "g" + std::to_string(g);
    spec.req = group_requirements(instance, g);
    groups.push_back(std::move(spec));
  }
  return groups;
}

OptInstance make_prm_fleet(const Device& device, u32 prm_count, u32 groups,
                           u64 seed) {
  OptInstance instance;
  instance.device = &device;
  if (groups == 0) {
    groups = std::clamp<u32>(prm_count / 10, 4, 32);
  }
  instance.group_count = groups;
  Rng rng{seed};
  instance.prms.reserve(prm_count);
  instance.group_of.reserve(prm_count);
  // Size PRMs against a per-group LUT-FF budget so the element-wise-max
  // group requirements total ~80% of the fabric regardless of fleet
  // size: placement is then fragmentation-bound, not capacity-bound.
  // A group's requirement is the max over its members, so what matters
  // is the *top* of each jitter range, which we pin to the budget.
  const FamilyTraits& traits = device.fabric.traits();
  PrrOrganization cell;
  cell.h = 1;
  cell.columns.clb_cols = 1;
  const u64 lutff_per_cell = availability(cell, traits).clbs * traits.lut_clb;
  const u64 total_cells =
      u64{device.fabric.rows()} * device.fabric.num_columns();
  const u64 budget =
      std::max<u64>(total_cells * lutff_per_cell * 4 / (5 * groups), 200);
  for (u32 i = 0; i < prm_count; ++i) {
    // Mostly small PRMs with a rare large one (the defrag ablation's
    // jitter family, scaled to budget). DSP/BRAM demand is a per-group
    // trait: a group's requirement is the max over members, so per-PRM
    // probabilities would make *every* group demand the fabric's scarce
    // DSP/BRAM columns and capacity-bind the placement on them.
    const u32 g = static_cast<u32>(rng.below(groups));
    PrmRequirements req;
    const bool large = rng.below(8) == 0;
    req.lut_ff_pairs = large ? budget / 2 + rng.below(budget / 2 + 1)
                             : budget / 10 + rng.below(budget * 2 / 5 + 1);
    req.luts = req.lut_ff_pairs * 3 / 4;
    req.ffs = req.lut_ff_pairs / 2;
    if (g % 8 == 1 && rng.below(4) == 0) req.dsps = 1 + rng.below(2);
    if (g % 4 == 3 && rng.below(4) == 0) req.brams = 1;
    instance.prms.push_back(PrmInfo{"prm" + std::to_string(i), req, 0});
    instance.group_of.push_back(g);
  }
  // Two tasks per PRM with exponential service times.
  instance.tasks.reserve(std::size_t{prm_count} * 2);
  double arrival = 0;
  for (u32 t = 0; t < prm_count * 2; ++t) {
    arrival += rng.exponential(2.0e-3);
    HwTask task;
    task.name = "t" + std::to_string(t);
    task.prm = t % prm_count;
    task.arrival_s = arrival;
    task.exec_s = rng.exponential(5.0e-3);
    instance.tasks.push_back(std::move(task));
  }
  // Scattered single-cell static obstacles: they shatter the free pool so
  // index-order greedy placement strands space that a co-planned layout
  // can still use.
  const u32 rows = device.fabric.rows();
  const u32 cols = device.fabric.num_columns();
  const u32 obstacles = std::min<u32>(6, rows * cols / 64);
  for (u32 i = 0; i < obstacles; ++i) {
    OptInstance::Rect rect;
    rect.first_col = static_cast<u32>(rng.below(cols));
    rect.width = 1;
    rect.first_row = static_cast<u32>(rng.below(rows));
    rect.height = 1;
    instance.reserved.push_back(rect);
  }
  return instance;
}

PlanState greedy_plan(const OptInstance& instance,
                      const OptimizeOptions& options) {
  (void)options;
  PRCOST_TRACE_SPAN("opt.greedy");
  PlanState state{instance.device->fabric};
  for (const OptInstance::Rect& rect : instance.reserved) {
    state.fp.reserve(rect.first_col, rect.width, rect.first_row, rect.height);
  }
  place_unplaced(state.fp, group_specs(instance));
  return state;
}

CostBreakdown evaluate(const OptInstance& instance, const PlanState& state,
                       const OptimizeOptions& options) {
  PRCOST_TRACE_SPAN("opt.evaluate");
  const Fabric& fabric = instance.device->fabric;
  const DmaIcapController controller{default_icap(fabric.family())};
  RetryPolicy policy;
  policy.max_retries = options.max_retries;

  CostBreakdown cost;
  cost.relocation_s = state.relocation_spent_s;

  // Per group: placement (by name), Eq. 18-23 bitstream bytes from the
  // placed plan, and the fault-aware effective reconfiguration time.
  std::vector<double> effective_reconfig_s(instance.group_count, 0);
  std::vector<bool> placed(instance.group_count, false);
  for (u32 g = 0; g < instance.group_count; ++g) {
    const std::size_t index =
        placement_index_of(state.fp, "g" + std::to_string(g));
    if (index == std::size_t(-1)) continue;
    placed[g] = true;
    ++cost.placed_groups;
    const u64 bytes =
        state.fp.placements()[index].plan.bitstream.total_bytes;
    const double attempt_s =
        controller.estimate(bytes, options.media).total_s;
    effective_reconfig_s[g] =
        expected_retry_cost(attempt_s, options.fault_rate, policy)
            .expected_time_s;
  }
  for (std::size_t i = 0; i < instance.prms.size(); ++i) {
    if (!placed[instance.group_of[i]]) ++cost.rejected_prms;
  }

  // Analytic schedule: every accepted task runs in its group's PRR and
  // pays one (fault-aware) reconfiguration; PRRs run in parallel, all
  // reconfigurations serialize on the single ICAP.
  std::vector<double> busy(instance.group_count, 0);
  for (const HwTask& task : instance.tasks) {
    const u32 g = instance.group_of[task.prm];
    if (!placed[g]) {
      ++cost.rejected_tasks;
      continue;
    }
    busy[g] += task.exec_s + effective_reconfig_s[g];
    cost.icap_s += effective_reconfig_s[g];
  }
  for (u32 g = 0; g < instance.group_count; ++g) {
    cost.busy_max_s = std::max(cost.busy_max_s, busy[g]);
  }
  cost.makespan_s = std::max(cost.busy_max_s, cost.icap_s);
  cost.cost = kRejectWeight * static_cast<double>(cost.rejected_prms) +
              kTimeWeight * cost.makespan_s +
              kMoveWeight * cost.relocation_s;
  return cost;
}

JointOptimizer::JointOptimizer(const OptInstance& instance,
                               const OptimizeOptions& options)
    : instance_(&instance), options_(options), groups_(group_specs(instance)) {
  if (instance.device == nullptr) {
    throw ContractError{"JointOptimizer: instance has no device"};
  }
  if (instance.group_of.size() != instance.prms.size()) {
    throw ContractError{"JointOptimizer: group_of/prms size mismatch"};
  }
  if (options_.proposals_per_round == 0) options_.proposals_per_round = 1;
}

OptimizeResult JointOptimizer::run() {
  PRCOST_TRACE_SPAN("opt.anneal");
  const Fabric& fabric = instance_->device->fabric;
  const IcapModel icap = default_icap(fabric.family());

  OptimizeResult result;
  PlanState state = greedy_plan(*instance_, options_);
  result.greedy = evaluate(*instance_, state, options_);
  {
    Layout layout{state.fp, fabric};
    result.greedy_frag = layout.fragmentation();
  }
  PRCOST_GAUGE_SET("opt.cost.greedy", result.greedy.cost);

  CostBreakdown current = result.greedy;
  // The start temperature is 5% of the greedy cost.
  double temperature = std::max(0.05 * result.greedy.cost, 1e-9);
  Rng rng{options_.seed};

  struct Proposal {
    Move move;
    double uniform = 1.0;  ///< pre-drawn Metropolis acceptance draw
  };
  for (u32 round = 0; round < options_.rounds; ++round) {
    PRCOST_TRACE_SPAN("opt.round");
    // Draw the whole round serially so the stream of random numbers -
    // and therefore the result - does not depend on evaluation order.
    std::vector<Proposal> proposals;
    {
      PRCOST_TRACE_SPAN("opt.propose");
      Layout layout{state.fp, fabric};
      proposals.reserve(options_.proposals_per_round);
      for (u32 p = 0; p < options_.proposals_per_round; ++p) {
        const std::optional<Move> move = propose_move(layout, groups_, rng);
        if (!move) break;
        proposals.push_back(Proposal{*move, rng.uniform01()});
      }
    }
    if (proposals.empty()) break;
    result.proposals += proposals.size();
    PRCOST_COUNT_N("opt.moves.proposed", proposals.size());

    // Speculative evaluation: each proposal applies to its own copy of
    // the current layout and is costed end to end.
    struct Trial {
      PlanState state;
      MoveOutcome outcome;
      CostBreakdown cost;
    };
    std::vector<Trial> trials(proposals.size(),
                              Trial{state, MoveOutcome{}, CostBreakdown{}});
    {
      PRCOST_TRACE_SPAN("opt.evaluate_round");
      parallel_for(
          trials.size(),
          [&](std::size_t i) {
            Trial& trial = trials[i];
            Layout layout{trial.state.fp, fabric};
            trial.outcome =
                apply_move(layout, groups_, proposals[i].move, icap);
            if (!trial.outcome.applied) return;
            trial.state.relocation_spent_s += trial.outcome.relocation_s;
            place_unplaced(trial.state.fp, groups_);
            trial.cost = evaluate(*instance_, trial.state, options_);
          },
          options_.workers);
    }

    // Sequential acceptance in draw order: the first proposal that passes
    // Metropolis against the round's starting state wins the round.
    {
      PRCOST_TRACE_SPAN("opt.accept");
      for (std::size_t i = 0; i < trials.size(); ++i) {
        if (!trials[i].outcome.applied) continue;
        const double delta = trials[i].cost.cost - current.cost;
        const bool accept =
            delta < 0 ||
            proposals[i].uniform < std::exp(-delta / temperature);
        if (!accept) {
          PRCOST_COUNT("opt.moves.rejected");
          continue;
        }
        state = std::move(trials[i].state);
        current = trials[i].cost;
        ++result.accepted;
        ++result.accepted_by_kind[static_cast<std::size_t>(
            proposals[i].move.kind)];
        PRCOST_COUNT("opt.moves.accepted");
        break;
      }
    }
    temperature *= kCooling;
  }
  result.final_temperature = temperature;

  result.best = current;
  {
    Layout layout{state.fp, fabric};
    result.best_frag = layout.fragmentation();
  }
  result.placements = state.fp.placements();
  // The acceptance loop only ever compared freshly evaluated costs, so a
  // final from-scratch evaluation of the surviving layout must reproduce
  // the accepted cost bit for bit.
  result.cost_verified =
      evaluate(*instance_, state, options_).cost == current.cost;
  PRCOST_GAUGE_SET("opt.cost.best", result.best.cost);
  PRCOST_COUNT_N("opt.rejections.greedy", result.greedy.rejected_prms);
  PRCOST_COUNT_N("opt.rejections.best", result.best.rejected_prms);
  return result;
}

}  // namespace prcost::opt
