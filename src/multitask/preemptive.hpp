// Preemptive hardware multitasking with context save/restore.
//
// The authors' FCCM'13 work [5] exists precisely so a running hardware
// task can be *preempted*: its flip-flop/BRAM state is captured and read
// back (context save), the PRR is given to a more urgent task, and the
// victim later resumes from its saved context. Without save/restore, a
// preempted hardware task must restart from scratch, discarding completed
// work. This simulator quantifies the difference across the PreemptMode
// disciplines; all configuration traffic (reconfigure, save, restore)
// serializes on the shared ICAP.
#pragma once

#include <memory>
#include <vector>

#include "multitask/event_core.hpp"

namespace prcost {

/// Configuration for the preemptive simulator.
struct PreemptiveConfig {
  u32 prr_count = 1;
  PreemptMode mode = PreemptMode::kSaveRestore;
  StorageMedia media = StorageMedia::kDdrSdram;
  std::shared_ptr<const ReconfigController> controller;  ///< null = DMA
  double context_save_s = 0.0;     ///< HTR readback cost per preemption
  double context_restore_s = 0.0;  ///< HTR write-back cost per resume
  /// Fault injection: when set, reconfigurations run the verified transfer
  /// loop and a permanent failure drops the job (a failed load leaves no
  /// context worth resuming). Null (default): the fault-free fast path.
  FaultInjector* faults = nullptr;
  RetryPolicy retry;
  double drop_penalty_s = 0.0;  ///< recorded penalty per dropped task
};

/// Results (the event core's report); task outcomes carry final
/// completion times, wait = finish - arrival - exec, and start_s is the
/// first dispatch.
using PreemptiveResult = Report;

/// Run `tasks` (priorities matter: larger = more urgent) over `prms`.
PreemptiveResult simulate_preemptive(const std::vector<PrmInfo>& prms,
                                     std::vector<HwTask> tasks,
                                     const PreemptiveConfig& config);

}  // namespace prcost
