// One discrete-event core behind every hardware-multitasking runtime:
// tasks time-multiplex PRR slots and every context switch loads a partial
// bitstream through the one shared ICAP, so the Eq. 18-23 size becomes
// schedule time. simulate, simulate_preemptive and sched::run are thin
// adapters that translate their config into a CoreConfig. The loop keeps
// one ready queue, ICAP timeline and fault ledger; the policy, placement,
// preemption mode, switch-cost source (controller estimate at cold or
// warm media, verified transfer, expected retry cost, relocation),
// prefetch and CPU fallback are config choices, not callbacks.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "multitask/workload.hpp"
#include "reconfig/controllers.hpp"
#include "reconfig/faults.hpp"
#include "reconfig/media.hpp"

namespace prcost {

/// Ready-queue discipline. Every pick scans the ready list in insertion
/// order and breaks ties toward the earliest entry; re-queued tasks
/// (reschedules, preemption victims) go to the back.
enum class SchedPolicy {
  kFcfs,        ///< insertion (arrival) order
  kSjf,         ///< shortest execution first
  kPriority,    ///< largest priority first
  kReuseAware,  ///< first task whose PRM sits in an idle slot, else FCFS
  kEdf,         ///< earliest absolute deadline first (no deadline = last)
};

/// The four policies of the multitasking ablation tables.
inline constexpr SchedPolicy kAllPolicies[] = {
    SchedPolicy::kFcfs, SchedPolicy::kSjf, SchedPolicy::kPriority,
    SchedPolicy::kReuseAware};

/// Table spelling: "FCFS", "SJF", "Priority", "Reuse-aware", "EDF".
inline std::string_view sched_policy_name(SchedPolicy policy) {
  constexpr std::string_view kNames[] = {"FCFS", "SJF", "Priority",
                                         "Reuse-aware", "EDF"};
  return kNames[static_cast<std::size_t>(policy)];
}

/// Preemption discipline for preemptible jobs.
enum class PreemptMode {
  kNoPreemption,  ///< urgent tasks wait for a free slot
  kRestart,       ///< the victim loses its progress
  kSaveRestore,   ///< the victim pays an ICAP save, later a restore
};

inline std::string_view preempt_mode_name(PreemptMode mode) {
  constexpr std::string_view kNames[] = {"no-preemption", "restart",
                                         "save-restore"};
  return kNames[static_cast<std::size_t>(mode)];
}

/// What to do with a task whose verified transfer failed permanently.
enum class FaultRecovery {
  kDrop,        ///< record the task as dropped with a penalty
  kReschedule,  ///< re-queue the task (bounded by max_reschedules), then drop
};

/// How a ready task is matched to a slot.
enum class Placement {
  kResidentFirst,   ///< idle slot holding the PRM, else the first idle one
  kSlotMajor,       ///< each idle slot in index order takes the best task
  kEarliestFinish,  ///< any slot, busy ones at their free time; min finish
};

struct CoreConfig {
  u32 slot_count = 1;
  SchedPolicy policy = SchedPolicy::kFcfs;
  Placement placement = Placement::kResidentFirst;
  /// Unset: tasks run to completion and their outcome is final at
  /// dispatch (wait = start - arrival). Set: tasks are preemptible jobs
  /// retired when they finish (wait = finish - arrival - exec).
  std::optional<PreemptMode> preempt;
  double context_save_s = 0;     ///< ICAP time per kSaveRestore eviction
  double context_restore_s = 0;  ///< ICAP time per resume
  /// Reconfiguration controller; null = DMA-ICAP on Virtex-5 timings.
  std::shared_ptr<const ReconfigController> controller;
  StorageMedia cold_media = StorageMedia::kDdrSdram;
  StorageMedia warm_media = StorageMedia::kDdrSdram;  ///< after prefetch
  double relocation_s = 0;  ///< > 0: on-chip copy from a resident slot
  FaultInjector* faults = nullptr;  ///< set: verified transfers
  RetryPolicy retry;
  FaultRecovery recovery = FaultRecovery::kDrop;
  u32 max_reschedules = 1;
  double drop_penalty_s = 0;
  double fault_rate = 0;  ///< > 0: price switches at expected_retry_cost
  double prefetch_rate_hz = 0;  ///< EWMA arrival rate to prefetch at
  std::function<void(u32 prm)> prefetch_hook;
  u32 cpu_workers = 0;  ///< fallback when the best slot misses a deadline
  double cpu_slowdown = 8.0;
};

/// Per-task outcome, in input order.
struct TaskOutcome {
  u32 task_index = 0;
  u32 slot = 0;               ///< PRR slot, or CPU worker on cpu_fallback
  bool reconfigured = false;  ///< run-to-completion: a switch was needed
  bool dropped = false;       ///< reconfiguration failed permanently
  bool cpu_fallback = false;
  bool prefetched = false;    ///< switch fetched at warm media
  bool deadline_miss = false;
  u32 reconfig_attempts = 0;  ///< verified-transfer attempts
  double reconfig_s = 0;      ///< this task's own switch time
  double start_s = 0;         ///< execution start (post-reconfiguration)
  double finish_s = 0;        ///< dropped tasks: when the ICAP gave up
  double wait_s = 0;
};

/// Aggregate results. Fault fields stay zero without `faults`.
struct Report {
  double makespan_s = 0;
  u64 completed = 0;  ///< tasks not dropped
  u64 reconfig_count = 0;
  double total_reconfig_s = 0;
  u64 reconfig_bytes = 0;    ///< bytes of successful storage switches
  u64 reuse_hits = 0;        ///< dispatches that found the PRM resident
  u64 relocation_count = 0;  ///< switches served by on-chip copy
  double total_relocation_s = 0;
  double mean_wait_s = 0;
  double mean_turnaround_s = 0;   ///< mean (finish - arrival)
  double throughput_per_s = 0;    ///< completed / makespan
  double reconfig_seconds_per_task = 0;  ///< total_reconfig / completed
  double prr_busy_fraction = 0;   ///< mean execution utilization of slots
  u64 preemptions = 0;
  double total_save_restore_s = 0;
  double mean_high_priority_wait_s = 0;  ///< preemptive: top quartile
  u64 deadline_misses = 0;
  u64 cpu_fallbacks = 0;
  u64 prefetches_issued = 0;
  u64 prefetched_reconfigs = 0;  ///< switches served at warm media
  u64 failed_reconfigs = 0;      ///< transfers that exhausted retries
  u64 dropped_tasks = 0;
  u64 rescheduled_tasks = 0;     ///< re-queue events
  u64 retry_attempts = 0;        ///< attempts beyond the first
  double total_retry_backoff_s = 0;
  double total_fault_wasted_s = 0;  ///< ICAP time on failed attempts
  double total_penalty_s = 0;       ///< dropped_tasks * drop_penalty_s
  std::vector<TaskOutcome> tasks;
};

/// Run `tasks` over `prms`. Admission follows (arrival, input order);
/// outcomes come back in input order. Throws ContractError on an empty
/// slot pool or a task referencing an unknown PRM.
Report run_event_core(const std::vector<PrmInfo>& prms,
                      const std::vector<HwTask>& tasks,
                      const CoreConfig& config);

}  // namespace prcost
