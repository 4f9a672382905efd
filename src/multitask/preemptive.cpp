#include "multitask/preemptive.hpp"

#include <algorithm>

#include "obs/obs.hpp"

namespace prcost {

PreemptiveResult simulate_preemptive(const std::vector<PrmInfo>& prms,
                                     std::vector<HwTask> tasks,
                                     const PreemptiveConfig& config) {
  PRCOST_TRACE_SPAN("preemptive_sim");
  sort_by_arrival(tasks);
  CoreConfig core;
  core.slot_count = config.prr_count;
  core.policy = SchedPolicy::kPriority;
  core.placement = Placement::kSlotMajor;
  core.preempt = config.mode;
  core.context_save_s = config.context_save_s;
  core.context_restore_s = config.context_restore_s;
  core.controller = config.controller;
  core.cold_media = core.warm_media = config.media;
  core.faults = config.faults;
  core.retry = config.retry;
  core.drop_penalty_s = config.drop_penalty_s;
  PreemptiveResult result = run_event_core(prms, tasks, core);

  // High-priority wait statistic: the top priority quartile's mean wait.
  std::vector<u32> priorities;
  for (const HwTask& task : tasks) priorities.push_back(task.priority);
  std::sort(priorities.begin(), priorities.end());
  const u32 cutoff =
      priorities.empty() ? 0 : priorities[priorities.size() * 3 / 4];
  double wait_sum = 0;
  u64 wait_count = 0;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (tasks[i].priority < cutoff) continue;
    wait_sum += std::max(0.0, result.tasks[i].wait_s);
    ++wait_count;
  }
  if (wait_count > 0) {
    result.mean_high_priority_wait_s =
        wait_sum / static_cast<double>(wait_count);
  }
  PRCOST_COUNT("sim.preemptive_runs");
  PRCOST_COUNT_N("sim.preemptions", result.preemptions);
  PRCOST_COUNT_N("reconfig.icap_writes", result.reconfig_count);
  PRCOST_COUNT_N("reconfig.icap_bytes", result.reconfig_bytes);
  if (config.faults != nullptr) {
    PRCOST_COUNT_N("sim.failed_reconfigs", result.failed_reconfigs);
    PRCOST_COUNT_N("sim.dropped_tasks", result.dropped_tasks);
  }
  return result;
}

}  // namespace prcost
