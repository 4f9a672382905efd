#include "sched/scheduler.hpp"

#include "obs/obs.hpp"

namespace prcost::sched {

Report run(const std::vector<PrmInfo>& prms, std::vector<Task> tasks,
           const SchedulerConfig& config) {
  PRCOST_TRACE_SPAN("sched_run");
  CoreConfig core;
  core.slot_count = config.slot_count;
  core.policy = config.policy;
  core.placement = Placement::kEarliestFinish;
  core.controller = config.controller;
  core.cold_media = config.cold_media;
  core.warm_media = config.warm_media;
  core.fault_rate = config.fault_rate;
  core.retry = config.retry;
  core.prefetch_rate_hz = config.prefetch_rate_hz;
  core.prefetch_hook = config.prefetch_hook;
  core.cpu_workers = config.cpu_workers;
  core.cpu_slowdown = config.cpu_slowdown;
  Report report = run_event_core(prms, tasks, core);
  if (report.tasks.empty()) return report;  // registers no sched.* metrics
  PRCOST_COUNT_N("sched.tasks", report.completed);
  PRCOST_COUNT_N("sched.reconfigs", report.reconfig_count);
  PRCOST_COUNT_N("reconfig.icap_writes", report.reconfig_count);
  PRCOST_COUNT_N("reconfig.icap_bytes", report.reconfig_bytes);
  PRCOST_COUNT_N("sched.reuse_hits", report.reuse_hits);
  PRCOST_COUNT_N("sched.prefetches", report.prefetches_issued);
  PRCOST_COUNT_N("sched.cpu_fallbacks", report.cpu_fallbacks);
  PRCOST_COUNT_N("sched.deadline_misses", report.deadline_misses);
  return report;
}

}  // namespace prcost::sched
