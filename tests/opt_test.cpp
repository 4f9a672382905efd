// Tests for the joint partition-schedule-floorplan optimizer: same-seed
// determinism, end-to-end cost verification, never-worse-than-greedy, and
// the shared substrate invariants the annealer relies on.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "device/device_db.hpp"
#include "opt/layout.hpp"
#include "opt/moves.hpp"
#include "opt/optimizer.hpp"
#include "util/rng.hpp"

namespace prcost {
namespace {

const Device& lx110t() { return DeviceDb::instance().get("xc5vlx110t"); }

opt::OptimizeOptions small_options() {
  opt::OptimizeOptions options;
  options.seed = 7;
  options.rounds = 12;
  options.proposals_per_round = 6;
  return options;
}

TEST(PrmFleet, SameSeedSameFleet) {
  const opt::OptInstance a = opt::make_prm_fleet(lx110t(), 80, 0, 5);
  const opt::OptInstance b = opt::make_prm_fleet(lx110t(), 80, 0, 5);
  ASSERT_EQ(a.prms.size(), b.prms.size());
  ASSERT_EQ(a.group_count, b.group_count);
  for (std::size_t i = 0; i < a.prms.size(); ++i) {
    EXPECT_EQ(a.prms[i].req.lut_ff_pairs, b.prms[i].req.lut_ff_pairs);
    EXPECT_EQ(a.group_of[i], b.group_of[i]);
  }
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (std::size_t t = 0; t < a.tasks.size(); ++t) {
    EXPECT_EQ(a.tasks[t].exec_s, b.tasks[t].exec_s);
  }
}

TEST(GroupRequirements, ElementWiseMaxOverMembers) {
  opt::OptInstance instance;
  instance.device = &lx110t();
  instance.group_count = 2;
  PrmRequirements a;
  a.lut_ff_pairs = 100;
  a.dsps = 4;
  PrmRequirements b;
  b.lut_ff_pairs = 900;
  b.brams = 2;
  PrmRequirements other;
  other.lut_ff_pairs = 5000;
  instance.prms = {PrmInfo{"a", a, 0}, PrmInfo{"b", b, 0},
                   PrmInfo{"other", other, 0}};
  instance.group_of = {0, 0, 1};
  const PrmRequirements merged = opt::group_requirements(instance, 0);
  EXPECT_EQ(merged.lut_ff_pairs, 900u);
  EXPECT_EQ(merged.dsps, 4u);
  EXPECT_EQ(merged.brams, 2u);
  EXPECT_EQ(opt::group_requirements(instance, 1).lut_ff_pairs, 5000u);
}

TEST(JointOptimizer, SameSeedSameResult) {
  const opt::OptInstance instance = opt::make_prm_fleet(lx110t(), 60, 0, 7);
  const opt::OptimizeOptions options = small_options();
  const opt::OptimizeResult a = opt::JointOptimizer{instance, options}.run();
  const opt::OptimizeResult b = opt::JointOptimizer{instance, options}.run();
  EXPECT_EQ(a.proposals, b.proposals);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.accepted_by_kind, b.accepted_by_kind);
  EXPECT_EQ(a.greedy.cost, b.greedy.cost);
  EXPECT_EQ(a.best.cost, b.best.cost);
  ASSERT_EQ(a.placements.size(), b.placements.size());
  for (std::size_t i = 0; i < a.placements.size(); ++i) {
    EXPECT_EQ(a.placements[i].name, b.placements[i].name);
    EXPECT_EQ(a.placements[i].first_col, b.placements[i].first_col);
    EXPECT_EQ(a.placements[i].first_row, b.placements[i].first_row);
    EXPECT_EQ(a.placements[i].plan.bitstream.total_bytes,
              b.placements[i].plan.bitstream.total_bytes);
  }
}

TEST(JointOptimizer, ResultIndependentOfWorkerCount) {
  const opt::OptInstance instance = opt::make_prm_fleet(lx110t(), 60, 0, 7);
  opt::OptimizeOptions serial = small_options();
  serial.workers = 1;
  opt::OptimizeOptions wide = small_options();
  wide.workers = 4;
  const opt::OptimizeResult a = opt::JointOptimizer{instance, serial}.run();
  const opt::OptimizeResult b = opt::JointOptimizer{instance, wide}.run();
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.best.cost, b.best.cost);
  EXPECT_EQ(a.best.rejected_prms, b.best.rejected_prms);
}

TEST(JointOptimizer, CostVerifiedAndNeverWorseThanGreedy) {
  for (const u64 seed : {7ull, 19ull, 42ull}) {
    opt::OptimizeOptions options = small_options();
    options.seed = seed;
    const opt::OptInstance instance =
        opt::make_prm_fleet(lx110t(), 80, 0, seed);
    const opt::OptimizeResult result =
        opt::JointOptimizer{instance, options}.run();
    EXPECT_TRUE(result.cost_verified) << "seed " << seed;
    EXPECT_LE(result.best.cost, result.greedy.cost) << "seed " << seed;
    EXPECT_LE(result.best.rejected_prms, result.greedy.rejected_prms)
        << "seed " << seed;
  }
}

TEST(JointOptimizer, FinalLayoutIsConsistent) {
  const opt::OptInstance instance = opt::make_prm_fleet(lx110t(), 60, 0, 7);
  const opt::OptimizeResult result =
      opt::JointOptimizer{instance, small_options()}.run();
  // Rebuild the result layout and check the non-overlap invariant.
  Floorplanner fp{instance.device->fabric};
  for (const opt::OptInstance::Rect& rect : instance.reserved) {
    fp.reserve(rect.first_col, rect.width, rect.first_row, rect.height);
  }
  for (const PlacedPrr& placed : result.placements) {
    EXPECT_TRUE(fp.place_plan(placed.name, placed.plan).has_value())
        << placed.name;
  }
  opt::Layout layout{fp, instance.device->fabric};
  EXPECT_TRUE(layout.consistent());
}

TEST(Evaluate, RejectionsDominateCost) {
  const opt::OptInstance instance = opt::make_prm_fleet(lx110t(), 40, 0, 3);
  const opt::OptimizeOptions options = small_options();
  const opt::PlanState state = opt::greedy_plan(instance, options);
  const opt::CostBreakdown cost = opt::evaluate(instance, state, options);
  EXPECT_EQ(cost.placed_groups + 0u, state.fp.placements().size());
  // Each rejected PRM costs 1000, more than any makespan here.
  EXPECT_GE(cost.cost, 1000.0 * static_cast<double>(cost.rejected_prms));
  EXPECT_GE(cost.makespan_s, cost.busy_max_s);
  EXPECT_GE(cost.makespan_s, cost.icap_s);
}

TEST(Evaluate, FaultRateInflatesMakespan) {
  const opt::OptInstance instance = opt::make_prm_fleet(lx110t(), 40, 0, 3);
  opt::OptimizeOptions clean = small_options();
  opt::OptimizeOptions faulty = small_options();
  faulty.fault_rate = 0.3;
  const opt::PlanState state = opt::greedy_plan(instance, clean);
  const opt::CostBreakdown base = opt::evaluate(instance, state, clean);
  const opt::CostBreakdown degraded = opt::evaluate(instance, state, faulty);
  EXPECT_GT(degraded.icap_s, base.icap_s);
  EXPECT_GE(degraded.makespan_s, base.makespan_s);
}

TEST(Moves, ProposalsAreDeterministic) {
  const opt::OptInstance instance = opt::make_prm_fleet(lx110t(), 60, 0, 7);
  const opt::OptimizeOptions options = small_options();
  opt::PlanState state_a = opt::greedy_plan(instance, options);
  opt::PlanState state_b = opt::greedy_plan(instance, options);
  const std::vector<opt::GroupSpec> groups = opt::group_specs(instance);
  opt::Layout layout_a{state_a.fp, instance.device->fabric};
  opt::Layout layout_b{state_b.fp, instance.device->fabric};
  Rng rng_a{9};
  Rng rng_b{9};
  for (int i = 0; i < 32; ++i) {
    const auto move_a = opt::propose_move(layout_a, groups, rng_a);
    const auto move_b = opt::propose_move(layout_b, groups, rng_b);
    ASSERT_EQ(move_a.has_value(), move_b.has_value());
    if (!move_a) continue;
    EXPECT_EQ(move_a->kind, move_b->kind);
    EXPECT_EQ(move_a->group_a, move_b->group_a);
    EXPECT_EQ(move_a->group_b, move_b->group_b);
    EXPECT_EQ(move_a->target.first_col, move_b->target.first_col);
    EXPECT_EQ(move_a->target_row, move_b->target_row);
  }
}

}  // namespace
}  // namespace prcost
