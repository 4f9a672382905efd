// Online, event-driven hardware-multitasking scheduler runtime.
//
// The multitask simulators replay fixed, pre-sorted schedules; this module
// makes the dispatch decision *online*, as tasks arrive, the way a
// production PR runtime would:
//
//   - a priority ready-queue with pluggable policies (FCFS / priority /
//     EDF) over online arrivals (Poisson / bursty generators or JSONL
//     trace replay - src/sched/generators.hpp);
//   - a fixed pool of PRR slots (placed upstream by the bitmask
//     floorplanner) sharing one ICAP, where every slot is priced through
//     the controller estimate of the Eq. 18-23 partial bitstream, expanded
//     by expected_retry_cost under the fault model;
//   - bitstream prefetch: when a PRM's arrival-rate estimate crosses a
//     threshold its partial bitstream is staged from cold storage into
//     memory (the process-wide bitstream cache via `prefetch_hook`), so
//     later reconfigurations fetch at warm-media speed;
//   - CPU fallback: when the best placement over every slot (a busy slot
//     priced from when it frees) would miss the task's deadline, the task
//     runs in software at `cpu_slowdown` cost instead of wasting ICAP
//     bandwidth on a doomed reconfiguration.
//
// The runtime is the shared event core with earliest-finish placement:
// single-threaded and deterministic for a (prms, tasks, config) triple.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "multitask/event_core.hpp"
#include "util/error.hpp"

namespace prcost::sched {

/// The event core's vocabulary: one policy enum, task, outcome and report
/// type shared with the simulators. The online runtime offers FCFS,
/// priority and EDF.
using Policy = SchedPolicy;
using Task = HwTask;
using prcost::Report;
using prcost::TaskOutcome;

/// Wire spelling: "fcfs", "priority", "edf" (and "sjf", "reuse-aware").
inline std::string_view policy_name(Policy policy) {
  constexpr std::string_view kNames[] = {"fcfs", "sjf", "priority",
                                         "reuse-aware", "edf"};
  return kNames[static_cast<std::size_t>(policy)];
}
/// "fcfs" | "priority" | "edf" -> Policy; throws UsageError otherwise.
inline Policy parse_policy(std::string_view name) {
  if (name == "fcfs") return Policy::kFcfs;
  if (name == "priority") return Policy::kPriority;
  if (name == "edf") return Policy::kEdf;
  throw UsageError{"unknown policy '" + std::string{name} +
                   "' (expected fcfs, priority or edf)"};
}

struct SchedulerConfig {
  u32 slot_count = 2;    ///< PRR slots (floorplanner-placed upstream)
  Policy policy = Policy::kFcfs;
  /// Where partial bitstreams are fetched from before (cold) and after
  /// (warm) a prefetch staged them into memory.
  StorageMedia cold_media = StorageMedia::kFlash;
  StorageMedia warm_media = StorageMedia::kDdrSdram;
  /// Reconfiguration controller; null = DMA-ICAP on Virtex-5 timings.
  std::shared_ptr<const ReconfigController> controller;
  /// Fault environment for reconfiguration pricing: each transfer costs
  /// its expected_retry_cost wall time instead of the fault-free
  /// estimate. Rate 0 (default) collapses to the plain estimate.
  double fault_rate = 0.0;
  RetryPolicy retry;
  /// Prefetch: issue when a PRM's arrival-rate estimate (EWMA of
  /// inter-arrival gaps, smoothing 0.5) reaches `prefetch_rate_hz`
  /// (0 = off). The hook (when set) warms the process-wide bitstream
  /// cache; staging from cold storage completes
  /// `fetch_seconds(cold_media, bytes)` later.
  double prefetch_rate_hz = 0.0;
  std::function<void(u32 prm)> prefetch_hook;
  /// CPU fallback pool: software execution runs `cpu_slowdown` times
  /// slower than the hardware exec_s, on `cpu_workers` cores.
  u32 cpu_workers = 2;
  double cpu_slowdown = 8.0;
};

/// Run the online scheduler. Tasks may arrive in any order; admission
/// uses the canonical (arrival, input order) tie-break shared with the
/// simulators. Outcomes come back in input order, with wait = start -
/// arrival. Throws ContractError on an empty slot pool or a task
/// referencing an unknown PRM.
Report run(const std::vector<PrmInfo>& prms, std::vector<Task> tasks,
           const SchedulerConfig& config);

}  // namespace prcost::sched
