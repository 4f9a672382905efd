#include <gtest/gtest.h>

#include "multitask/preemptive.hpp"
#include "util/error.hpp"

namespace prcost {
namespace {

std::vector<PrmInfo> two_prms() {
  return {PrmInfo{"a", {}, 83064}, PrmInfo{"b", {}, 18040}};
}

TEST(Preemptive, ModeNames) {
  EXPECT_EQ(preempt_mode_name(PreemptMode::kNoPreemption), "no-preemption");
  EXPECT_EQ(preempt_mode_name(PreemptMode::kSaveRestore), "save-restore");
}

TEST(Preemptive, ValidatesInput) {
  PreemptiveConfig config;
  config.prr_count = 0;
  EXPECT_THROW(simulate_preemptive(two_prms(), {}, config), ContractError);
  config.prr_count = 1;
  std::vector<HwTask> bad{HwTask{"x", 7, 0, 1e-3, 0}};
  EXPECT_THROW(simulate_preemptive(two_prms(), bad, config), ContractError);
}

TEST(Preemptive, NoPreemptionRunsEverything) {
  std::vector<HwTask> tasks;
  for (int i = 0; i < 10; ++i) {
    tasks.push_back(HwTask{"t" + std::to_string(i),
                           static_cast<u32>(i % 2), i * 1e-4, 2e-3,
                           static_cast<u32>(i % 4)});
  }
  PreemptiveConfig config;
  config.prr_count = 2;
  config.mode = PreemptMode::kNoPreemption;
  const PreemptiveResult result =
      simulate_preemptive(two_prms(), tasks, config);
  EXPECT_EQ(result.preemptions, 0u);
  for (const TaskOutcome& outcome : result.tasks) {
    EXPECT_GT(outcome.finish_s, 0.0);
  }
}

TEST(Preemptive, DuplicateArrivalsAreDeterministic) {
  // Equal-arrival tasks: the explicit (arrival, input order) tie-break
  // makes repeated runs bit-identical even with every mode's preemption
  // churn in play.
  std::vector<HwTask> tasks;
  for (int i = 0; i < 10; ++i) {
    tasks.push_back(HwTask{"t" + std::to_string(i), static_cast<u32>(i % 2),
                           1e-3 * static_cast<double>(i / 5), 2e-3,
                           static_cast<u32>(i % 3)});
  }
  for (const PreemptMode mode :
       {PreemptMode::kNoPreemption, PreemptMode::kRestart,
        PreemptMode::kSaveRestore}) {
    PreemptiveConfig config;
    config.prr_count = 2;
    config.mode = mode;
    const PreemptiveResult a = simulate_preemptive(two_prms(), tasks, config);
    const PreemptiveResult b = simulate_preemptive(two_prms(), tasks, config);
    EXPECT_EQ(a.makespan_s, b.makespan_s);
    EXPECT_EQ(a.preemptions, b.preemptions);
    ASSERT_EQ(a.tasks.size(), b.tasks.size());
    for (std::size_t i = 0; i < a.tasks.size(); ++i) {
      EXPECT_EQ(a.tasks[i].start_s, b.tasks[i].start_s);
      EXPECT_EQ(a.tasks[i].finish_s, b.tasks[i].finish_s);
      EXPECT_EQ(a.tasks[i].slot, b.tasks[i].slot);
    }
  }
}

TEST(Preemptive, UrgentTaskPreemptsLongRunner) {
  // A long low-priority task occupies the single PRR; an urgent short one
  // arrives mid-flight. With preemption the urgent task finishes well
  // before the long task would have released the PRR.
  std::vector<HwTask> tasks{
      HwTask{"long", 0, 0.0, 100e-3, /*priority=*/0},
      HwTask{"urgent", 0, 5e-3, 1e-3, /*priority=*/7},
  };
  PreemptiveConfig preempt;
  preempt.prr_count = 1;
  preempt.mode = PreemptMode::kSaveRestore;
  preempt.context_save_s = 100e-6;
  preempt.context_restore_s = 100e-6;
  PreemptiveConfig fifo = preempt;
  fifo.mode = PreemptMode::kNoPreemption;

  const auto with = simulate_preemptive(two_prms(), tasks, preempt);
  const auto without = simulate_preemptive(two_prms(), tasks, fifo);
  EXPECT_EQ(with.preemptions, 1u);
  EXPECT_LT(with.tasks[1].finish_s, without.tasks[1].finish_s);
  // The long task resumed rather than restarted: total makespan grows only
  // by roughly the urgent task + overheads.
  EXPECT_LT(with.makespan_s, without.makespan_s + 5e-3);
}

TEST(Preemptive, SaveRestoreBeatsRestart) {
  // Preempting a half-done long task: with save/restore the victim loses
  // only the overhead; with restart it repeats its whole execution.
  std::vector<HwTask> tasks{
      HwTask{"long", 0, 0.0, 50e-3, 0},
      HwTask{"urgent", 0, 25e-3, 1e-3, 9},
  };
  PreemptiveConfig save;
  save.prr_count = 1;
  save.mode = PreemptMode::kSaveRestore;
  save.context_save_s = 200e-6;
  save.context_restore_s = 200e-6;
  PreemptiveConfig restart = save;
  restart.mode = PreemptMode::kRestart;

  const auto a = simulate_preemptive(two_prms(), tasks, save);
  const auto b = simulate_preemptive(two_prms(), tasks, restart);
  EXPECT_EQ(a.preemptions, 1u);
  EXPECT_EQ(b.preemptions, 1u);
  // Restart repeats ~25 ms of lost work.
  EXPECT_LT(a.makespan_s + 20e-3, b.makespan_s);
  EXPECT_GT(a.total_save_restore_s, 0.0);
  EXPECT_DOUBLE_EQ(b.total_save_restore_s, 0.0);
}

TEST(Preemptive, HighPriorityWaitImproves) {
  // Random-ish mixed load: the top-quartile tasks must wait less under
  // save/restore preemption than under FIFO.
  std::vector<HwTask> tasks;
  for (int i = 0; i < 40; ++i) {
    tasks.push_back(HwTask{"t" + std::to_string(i),
                           static_cast<u32>(i % 2), i * 0.3e-3,
                           (1 + i % 5) * 2e-3,
                           static_cast<u32>((i * 7) % 8)});
  }
  PreemptiveConfig preempt;
  preempt.prr_count = 2;
  preempt.mode = PreemptMode::kSaveRestore;
  preempt.context_save_s = 100e-6;
  preempt.context_restore_s = 100e-6;
  PreemptiveConfig fifo = preempt;
  fifo.mode = PreemptMode::kNoPreemption;
  const auto with = simulate_preemptive(two_prms(), tasks, preempt);
  const auto without = simulate_preemptive(two_prms(), tasks, fifo);
  EXPECT_GT(with.preemptions, 0u);
  EXPECT_LE(with.mean_high_priority_wait_s,
            without.mean_high_priority_wait_s);
}

TEST(Preemptive, AllTasksEventuallyComplete) {
  std::vector<HwTask> tasks;
  for (int i = 0; i < 30; ++i) {
    tasks.push_back(HwTask{"t" + std::to_string(i),
                           static_cast<u32>(i % 2), 0.0, 1e-3,
                           static_cast<u32>(i % 8)});
  }
  for (const PreemptMode mode :
       {PreemptMode::kNoPreemption, PreemptMode::kRestart,
        PreemptMode::kSaveRestore}) {
    PreemptiveConfig config;
    config.prr_count = 3;
    config.mode = mode;
    config.context_save_s = 50e-6;
    config.context_restore_s = 50e-6;
    const auto result = simulate_preemptive(two_prms(), tasks, config);
    ASSERT_EQ(result.tasks.size(), tasks.size());
    for (const TaskOutcome& outcome : result.tasks) {
      EXPECT_GT(outcome.finish_s, 0.0) << preempt_mode_name(mode);
    }
  }
}

}  // namespace
}  // namespace prcost
