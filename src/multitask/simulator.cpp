#include "multitask/simulator.hpp"

#include "obs/obs.hpp"

namespace prcost {

SimResult simulate(const std::vector<PrmInfo>& prms, std::vector<HwTask> tasks,
                   const SimConfig& config) {
  PRCOST_TRACE_SPAN("multitask_sim");
  sort_by_arrival(tasks);
  CoreConfig core;
  core.slot_count = config.prr_count;
  core.policy = config.policy;
  core.controller = config.controller;
  core.cold_media = core.warm_media = config.media;
  if (config.allow_relocation) core.relocation_s = config.relocation_s;
  core.faults = config.faults;
  core.retry = config.retry;
  core.recovery = config.recovery;
  core.max_reschedules = config.max_reschedules;
  core.drop_penalty_s = config.drop_penalty_s;
  SimResult result = run_event_core(prms, tasks, core);
  PRCOST_COUNT("sim.runs");
  PRCOST_COUNT_N("sim.tasks_completed", tasks.size());
  PRCOST_COUNT_N("sim.reconfigs", result.reconfig_count);
  PRCOST_COUNT_N("sim.relocations", result.relocation_count);
  PRCOST_COUNT_N("sim.reuse_hits", result.reuse_hits);
  PRCOST_COUNT_N("sim.reconfig_bytes", result.reconfig_bytes);
  PRCOST_COUNT_N("reconfig.icap_writes", result.reconfig_count);
  PRCOST_COUNT_N("reconfig.icap_bytes", result.reconfig_bytes);
  if (config.faults != nullptr) {
    // Gated so fault-free runs register no fault metrics at all.
    PRCOST_COUNT_N("sim.failed_reconfigs", result.failed_reconfigs);
    PRCOST_COUNT_N("sim.dropped_tasks", result.dropped_tasks);
    PRCOST_COUNT_N("sim.rescheduled_tasks", result.rescheduled_tasks);
  }
  return result;
}

SimResult simulate_full_reconfig(
    const std::vector<PrmInfo>& prms, std::vector<HwTask> tasks,
    u64 full_bitstream_bytes, StorageMedia media,
    std::shared_ptr<const ReconfigController> controller) {
  PRCOST_TRACE_SPAN("multitask_sim_full");
  sort_by_arrival(tasks);
  std::vector<PrmInfo> full = prms;  // every switch reloads the device
  for (PrmInfo& prm : full) prm.bitstream_bytes = full_bitstream_bytes;
  CoreConfig core;  // one slot, FCFS
  core.controller = std::move(controller);
  core.cold_media = core.warm_media = media;
  SimResult result = run_event_core(full, tasks, core);
  PRCOST_COUNT("sim.full_reconfig_runs");
  PRCOST_COUNT_N("sim.reconfigs", result.reconfig_count);
  PRCOST_COUNT_N("sim.reconfig_bytes", result.reconfig_bytes);
  PRCOST_COUNT_N("reconfig.icap_writes", result.reconfig_count);
  PRCOST_COUNT_N("reconfig.icap_bytes", result.reconfig_bytes);
  return result;
}

}  // namespace prcost
