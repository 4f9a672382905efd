// Event-driven hardware-multitasking simulator: PRMs time-multiplexing a
// pool of PRRs, the system the paper's title names. It quantifies how PRR
// sizing - via partial bitstream size and hence reconfiguration time -
// turns into schedule-level makespan, the motivation of Section I.
#pragma once

#include <memory>
#include <vector>

#include "multitask/event_core.hpp"

namespace prcost {

/// Simulation configuration.
struct SimConfig {
  u32 prr_count = 2;         ///< PRRs in the pool
  SchedPolicy policy = SchedPolicy::kReuseAware;
  StorageMedia media = StorageMedia::kDdrSdram;
  /// Reconfiguration controller; nullptr selects a DMA-ICAP default.
  std::shared_ptr<const ReconfigController> controller;
  /// HTR option: when the incoming PRM is already configured in some other
  /// PRR, copy it on-chip (capture/readback/rewrite, see src/htr) instead
  /// of fetching the bitstream from storage - taken whenever
  /// `relocation_s` beats the storage path. 0 disables relocation.
  bool allow_relocation = false;
  double relocation_s = 0.0;  ///< on-chip copy time per context switch
  /// Fault injection: when set, every storage-path context switch goes
  /// through the CRC-verified transfer loop (retry + backoff per `retry`)
  /// and permanent failures degrade per `recovery` instead of asserting.
  /// Null (default) keeps the fault-free fast path - results are
  /// bit-identical to a build without fault support.
  FaultInjector* faults = nullptr;
  RetryPolicy retry;
  FaultRecovery recovery = FaultRecovery::kDrop;
  u32 max_reschedules = 1;      ///< kReschedule re-queue budget per task
  double drop_penalty_s = 0.0;  ///< recorded penalty per dropped task
};

/// Aggregate results (the event core's report).
using SimResult = Report;

/// Simulate `tasks` over `prms` with `config`. Tasks may arrive in any
/// order; the simulator sorts by (arrival, input order) and reports
/// outcomes in that order, with wait = start - arrival. All PRRs are
/// assumed large enough for every PRM (size the pool with find_shared_prr
/// first).
SimResult simulate(const std::vector<PrmInfo>& prms,
                   std::vector<HwTask> tasks, const SimConfig& config);

/// Non-PR baseline: a single full-device context; every switch between
/// different PRMs reloads the full bitstream and halts execution (no
/// overlap, no parallel PRRs) - a one-slot FCFS run priced at
/// `full_bitstream_bytes`.
SimResult simulate_full_reconfig(const std::vector<PrmInfo>& prms,
                                 std::vector<HwTask> tasks,
                                 u64 full_bitstream_bytes,
                                 StorageMedia media,
                                 std::shared_ptr<const ReconfigController>
                                     controller = nullptr);

}  // namespace prcost
