// Fault-injection & recovery layer: deterministic injector sequences, the
// verified-transfer retry/backoff/timeout accounting, the closed-form
// retry expectation, graceful simulator degradation, and the Engine
// `faults` workflow (strict mode -> FaultError).
#include <gtest/gtest.h>

#include <vector>

#include "api/engine.hpp"
#include "multitask/preemptive.hpp"
#include "multitask/simulator.hpp"
#include "reconfig/baselines.hpp"
#include "reconfig/controllers.hpp"
#include "reconfig/faults.hpp"
#include "reconfig/icap.hpp"
#include "tests/support/mutator.hpp"
#include "util/error.hpp"

namespace prcost {
namespace {

// FIR on xc5vlx110t per Table V/VII - the reconfig_test anchor size.
constexpr u64 kFirBytes = 83064;

FaultProfile rate(double fault_rate, u64 seed = 0x5EED) {
  FaultProfile profile;
  profile.fault_rate = fault_rate;
  profile.seed = seed;
  return profile;
}

std::vector<PrmInfo> two_prms() {
  return {PrmInfo{"a", {}, kFirBytes}, PrmInfo{"b", {}, kFirBytes}};
}

std::vector<HwTask> small_workload(u32 count = 24) {
  WorkloadParams wp;
  wp.count = count;
  wp.prm_count = 2;
  return make_workload(wp);
}

// ------------------------------------------------------------- injector ---

TEST(FaultInjector, DeterministicUnderFixedSeed) {
  FaultProfile profile = rate(0.5, 123);
  profile.stall_rate = 0.25;
  FaultInjector a{profile};
  FaultInjector b{profile};
  for (int i = 0; i < 1000; ++i) {
    const FaultInjector::Attempt fa = a.next_attempt();
    const FaultInjector::Attempt fb = b.next_attempt();
    EXPECT_EQ(fa.kind, fb.kind);
    EXPECT_EQ(fa.stall_s, fb.stall_s);
  }
  EXPECT_EQ(a.attempts(), 1000u);
  EXPECT_EQ(a.corrupted(), b.corrupted());
  EXPECT_EQ(a.stalls(), b.stalls());
  EXPECT_GT(a.corrupted(), 0u);
  EXPECT_GT(a.stalls(), 0u);
}

TEST(FaultInjector, SeedsProduceDistinctSequences) {
  FaultInjector a{rate(0.5, 1)};
  FaultInjector b{rate(0.5, 2)};
  bool diverged = false;
  for (int i = 0; i < 200 && !diverged; ++i) {
    diverged = a.next_attempt().kind != b.next_attempt().kind;
  }
  EXPECT_TRUE(diverged);
}

TEST(FaultInjector, InactiveProfileNeverFires) {
  FaultInjector injector{FaultProfile{}};
  EXPECT_FALSE(injector.profile().active());
  for (int i = 0; i < 200; ++i) {
    const FaultInjector::Attempt fate = injector.next_attempt();
    EXPECT_FALSE(fate.corrupted());
    EXPECT_EQ(fate.stall_s, 0.0);
  }
  EXPECT_EQ(injector.corrupted(), 0u);
  EXPECT_EQ(injector.stalls(), 0u);
}

TEST(FaultInjector, RejectsBadProfile) {
  EXPECT_THROW(FaultInjector{rate(1.5)}, ContractError);
  EXPECT_THROW(FaultInjector{rate(-0.1)}, ContractError);
  FaultProfile bad_stall;
  bad_stall.stall_rate = 2.0;
  EXPECT_THROW(FaultInjector{bad_stall}, ContractError);
  FaultProfile negative;
  negative.stall_s = -1.0;
  EXPECT_THROW(FaultInjector{negative}, ContractError);
}

TEST(WordMutator, CorruptMutatesNonEmptyBuffers) {
  WordMutator mutator{7};
  for (int i = 0; i < 50; ++i) {
    std::vector<u32> words(64, 0xA5A5A5A5u);
    const std::vector<u32> original = words;
    const FaultKind kind = mutator.corrupt(words);
    EXPECT_NE(kind, FaultKind::kNone);
    EXPECT_NE(words, original) << fault_kind_name(kind);
  }
  std::vector<u32> empty;
  EXPECT_EQ(mutator.corrupt(empty), FaultKind::kNone);
}

TEST(WordMutator, ApplyChangesSizeAsDocumented) {
  Rng rng{99};
  std::vector<u32> words(32, 1u);
  WordMutator::apply(words, FaultKind::kWordDrop, rng);
  EXPECT_EQ(words.size(), 31u);
  WordMutator::apply(words, FaultKind::kWordDup, rng);
  EXPECT_EQ(words.size(), 32u);
  WordMutator::apply(words, FaultKind::kTruncate, rng);
  EXPECT_LT(words.size(), 32u);
}

// ----------------------------------------------------- verified transfer ---

TEST(VerifiedTransfer, FaultFreeIdentity) {
  const DmaIcapController controller{default_icap(Family::kVirtex5)};
  const ReconfigEstimate estimate =
      controller.estimate(kFirBytes, StorageMedia::kDdrSdram);
  const TransferOutcome out =
      verified_transfer(controller, kFirBytes, StorageMedia::kDdrSdram);
  EXPECT_TRUE(out.success);
  EXPECT_EQ(out.attempts, 1u);
  // Exact, not approximate: the fault-free path must be bit-identical.
  EXPECT_EQ(out.total_s, estimate.total_s);
  EXPECT_EQ(out.backoff_s, 0.0);
  EXPECT_EQ(out.wasted_s, 0.0);
  EXPECT_EQ(out.timeouts, 0u);
}

TEST(VerifiedTransfer, ExhaustsRetriesAtRateOne) {
  const DmaIcapController controller{default_icap(Family::kVirtex5)};
  FaultInjector injector{rate(1.0)};
  const RetryPolicy policy;  // 3 retries, 10us backoff doubling
  const TransferOutcome out = verified_transfer(
      controller, kFirBytes, StorageMedia::kDdrSdram, &injector, policy);
  EXPECT_FALSE(out.success);
  EXPECT_EQ(out.attempts, 4u);
  // Backoff schedule is exact: 10us + 20us + 40us between the 4 attempts.
  EXPECT_DOUBLE_EQ(out.backoff_s, 70e-6);
  const double attempt_s =
      controller.estimate(kFirBytes, StorageMedia::kDdrSdram).total_s;
  EXPECT_DOUBLE_EQ(out.total_s, 4.0 * attempt_s + 70e-6);
  EXPECT_DOUBLE_EQ(out.wasted_s, out.total_s);
  EXPECT_EQ(injector.attempts(), 4u);
}

TEST(VerifiedTransfer, RecoversAfterCorruptedAttempt) {
  const DmaIcapController controller{default_icap(Family::kVirtex5)};
  // Find a seed whose first draw corrupts and second does not, so the
  // transfer recovers on attempt 2 deterministically.
  u64 seed = 0;
  for (;; ++seed) {
    FaultInjector probe{rate(0.5, seed)};
    if (probe.next_attempt().corrupted() &&
        !probe.next_attempt().corrupted()) {
      break;
    }
    ASSERT_LT(seed, 1000u);
  }
  FaultInjector injector{rate(0.5, seed)};
  const TransferOutcome out = verified_transfer(
      controller, kFirBytes, StorageMedia::kDdrSdram, &injector, {});
  EXPECT_TRUE(out.success);
  EXPECT_EQ(out.attempts, 2u);
  EXPECT_DOUBLE_EQ(out.backoff_s, 10e-6);
  EXPECT_GT(out.wasted_s, 0.0);
  EXPECT_LT(out.wasted_s, out.total_s);
}

TEST(VerifiedTransfer, TimeoutAbandonsAtTheCap) {
  const DmaIcapController controller{default_icap(Family::kVirtex5)};
  const double attempt_s =
      controller.estimate(kFirBytes, StorageMedia::kDdrSdram).total_s;
  RetryPolicy policy;
  policy.max_retries = 1;
  policy.attempt_timeout_s = attempt_s / 2.0;
  const TransferOutcome out = verified_transfer(
      controller, kFirBytes, StorageMedia::kDdrSdram, nullptr, policy);
  EXPECT_FALSE(out.success);
  EXPECT_EQ(out.attempts, 2u);
  EXPECT_EQ(out.timeouts, 2u);
  // Each attempt is abandoned exactly at the cap.
  EXPECT_DOUBLE_EQ(out.total_s, 2.0 * policy.attempt_timeout_s + 10e-6);
}

TEST(VerifiedTransfer, RejectsBadPolicy) {
  const DmaIcapController controller{default_icap(Family::kVirtex5)};
  RetryPolicy shrink;
  shrink.backoff_multiplier = 0.5;
  EXPECT_THROW(verified_transfer(controller, kFirBytes,
                                 StorageMedia::kDdrSdram, nullptr, shrink),
               ContractError);
  RetryPolicy negative;
  negative.backoff_initial_s = -1.0;
  EXPECT_THROW(verified_transfer(controller, kFirBytes,
                                 StorageMedia::kDdrSdram, nullptr, negative),
               ContractError);
  RetryPolicy zero_cap;
  zero_cap.attempt_timeout_s = 0.0;
  EXPECT_THROW(verified_transfer(controller, kFirBytes,
                                 StorageMedia::kDdrSdram, nullptr, zero_cap),
               ContractError);
}

// ----------------------------------------------------- retry expectation ---

TEST(RetryExpectation, ClosedFormMatchesHandComputation) {
  const RetryPolicy policy;  // n = 4 attempts, 10us backoff doubling
  const RetryExpectation none = expected_retry_cost(1.0, 0.0, policy);
  EXPECT_DOUBLE_EQ(none.expected_attempts, 1.0);
  EXPECT_DOUBLE_EQ(none.success_probability, 1.0);
  EXPECT_DOUBLE_EQ(none.expected_time_s, 1.0);

  const RetryExpectation certain = expected_retry_cost(1.0, 1.0, policy);
  EXPECT_DOUBLE_EQ(certain.expected_attempts, 4.0);
  EXPECT_DOUBLE_EQ(certain.success_probability, 0.0);

  // p = 0.5: E[attempts] = 1 + .5 + .25 + .125; backoff = .5*10u + .25*20u
  // + .125*40u = 15us.
  const RetryExpectation half = expected_retry_cost(1.0, 0.5, policy);
  EXPECT_DOUBLE_EQ(half.expected_attempts, 1.875);
  EXPECT_DOUBLE_EQ(half.success_probability, 1.0 - 0.0625);
  EXPECT_DOUBLE_EQ(half.expected_time_s, 1.875 + 15e-6);

  EXPECT_THROW(expected_retry_cost(1.0, -0.1, policy), ContractError);
  EXPECT_THROW(expected_retry_cost(1.0, 1.1, policy), ContractError);
}

// ------------------------------------------------- simulator degradation ---

TEST(SimulatorFaults, InactiveInjectorIsBitIdenticalToBaseline) {
  const auto prms = two_prms();
  const auto tasks = small_workload();
  SimConfig base;
  base.prr_count = 2;
  const SimResult clean = simulate(prms, tasks, base);

  FaultInjector injector{FaultProfile{}};  // attached but rates all zero
  SimConfig faulty = base;
  faulty.faults = &injector;
  const SimResult guarded = simulate(prms, tasks, faulty);

  EXPECT_EQ(clean.makespan_s, guarded.makespan_s);
  EXPECT_EQ(clean.total_reconfig_s, guarded.total_reconfig_s);
  EXPECT_EQ(clean.reconfig_count, guarded.reconfig_count);
  EXPECT_EQ(guarded.retry_attempts, 0u);
  EXPECT_EQ(guarded.failed_reconfigs, 0u);
  EXPECT_EQ(guarded.dropped_tasks, 0u);
}

TEST(SimulatorFaults, RateOneDropsEveryTask) {
  const auto prms = two_prms();
  const auto tasks = small_workload();
  FaultInjector injector{rate(1.0)};
  SimConfig config;
  config.prr_count = 2;
  config.faults = &injector;
  config.drop_penalty_s = 1e-3;
  const SimResult r = simulate(prms, tasks, config);  // must not throw
  EXPECT_EQ(r.reconfig_count, 0u);
  EXPECT_EQ(r.dropped_tasks, tasks.size());
  EXPECT_EQ(r.failed_reconfigs, tasks.size());
  EXPECT_DOUBLE_EQ(r.total_penalty_s,
                   static_cast<double>(tasks.size()) * 1e-3);
  for (const TaskOutcome& t : r.tasks) {
    EXPECT_TRUE(t.dropped);
    EXPECT_EQ(t.reconfig_attempts, 4u);  // 1 + 3 retries, all corrupted
  }
  EXPECT_GT(r.makespan_s, 0.0);
  EXPECT_GT(r.total_fault_wasted_s, 0.0);
}

TEST(SimulatorFaults, RescheduleRetriesBeforeDropping) {
  const auto prms = two_prms();
  const auto tasks = small_workload(8);
  FaultInjector injector{rate(1.0)};
  SimConfig config;
  config.prr_count = 2;
  config.faults = &injector;
  config.recovery = FaultRecovery::kReschedule;
  config.max_reschedules = 2;
  const SimResult r = simulate(prms, tasks, config);
  EXPECT_EQ(r.dropped_tasks, tasks.size());
  EXPECT_EQ(r.rescheduled_tasks, 2 * tasks.size());
  EXPECT_EQ(r.failed_reconfigs, 3 * tasks.size());
  for (const TaskOutcome& t : r.tasks) {
    EXPECT_TRUE(t.dropped);
    EXPECT_EQ(t.reconfig_attempts, 12u);  // 3 transfers x 4 attempts
  }
}

// kReschedule accounting audit (property test): every permanent transfer
// failure is either one re-queue event or one drop, the re-queue count is
// bounded by the per-task budget, and reconfiguration time is never
// double-charged into wait_s — for tasks that ran, wait is exactly
// start - arrival and finish is exactly start + exec; for dropped tasks,
// start == finish == the give-up instant.
TEST(SimulatorFaults, RescheduleAccountingInvariants) {
  const auto prms = two_prms();
  const auto tasks = small_workload(60);
  for (const double fault_rate : {0.3, 0.6, 1.0}) {
    FaultInjector injector{rate(fault_rate, 99)};
    SimConfig config;
    config.prr_count = 2;
    config.faults = &injector;
    config.recovery = FaultRecovery::kReschedule;
    config.max_reschedules = 3;
    const SimResult r = simulate(prms, tasks, config);
    EXPECT_EQ(r.failed_reconfigs, r.rescheduled_tasks + r.dropped_tasks);
    EXPECT_LE(r.rescheduled_tasks,
              static_cast<u64>(config.max_reschedules) * tasks.size());
    // make_workload arrivals are strictly increasing, so the simulator's
    // (arrival, input order) sort leaves input order intact and
    // r.tasks[i] corresponds to tasks[i].
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const TaskOutcome& t = r.tasks[i];
      ASSERT_EQ(t.task_index, i);
      if (t.dropped) {
        EXPECT_EQ(t.start_s, t.finish_s);
        EXPECT_EQ(t.wait_s, t.finish_s - tasks[i].arrival_s);
      } else {
        EXPECT_EQ(t.wait_s, t.start_s - tasks[i].arrival_s);
        EXPECT_EQ(t.finish_s, t.start_s + tasks[i].exec_s);
        EXPECT_GE(t.wait_s, 0.0);
      }
    }
  }
  // Rate 1.0 exactness: with N tasks and budget R every task drops after
  // R re-queues, so the event count is N*R, not N.
  FaultInjector certain{rate(1.0)};
  SimConfig config;
  config.prr_count = 2;
  config.faults = &certain;
  config.recovery = FaultRecovery::kReschedule;
  config.max_reschedules = 3;
  const SimResult r = simulate(prms, tasks, config);
  EXPECT_EQ(r.rescheduled_tasks, 3 * tasks.size());
  EXPECT_EQ(r.dropped_tasks, tasks.size());
  EXPECT_EQ(r.failed_reconfigs, 4 * tasks.size());
  EXPECT_EQ(r.reconfig_count, 0u);
}

TEST(SimulatorFaults, FixedSeedIsBitReproducible) {
  const auto prms = two_prms();
  const auto tasks = small_workload(40);
  const auto run = [&] {
    FaultInjector injector{rate(0.3, 77)};
    SimConfig config;
    config.prr_count = 2;
    config.faults = &injector;
    return simulate(prms, tasks, config);
  };
  const SimResult a = run();
  const SimResult b = run();
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.total_reconfig_s, b.total_reconfig_s);
  EXPECT_EQ(a.retry_attempts, b.retry_attempts);
  EXPECT_EQ(a.failed_reconfigs, b.failed_reconfigs);
  EXPECT_EQ(a.dropped_tasks, b.dropped_tasks);
  EXPECT_EQ(a.total_retry_backoff_s, b.total_retry_backoff_s);
}

TEST(PreemptiveFaults, DropsJobsGracefully) {
  const auto prms = two_prms();
  const auto tasks = small_workload(12);
  FaultInjector injector{rate(1.0)};
  PreemptiveConfig config;
  config.prr_count = 1;
  config.faults = &injector;
  config.drop_penalty_s = 5e-4;
  const PreemptiveResult r = simulate_preemptive(prms, tasks, config);
  EXPECT_EQ(r.reconfig_count, 0u);
  EXPECT_EQ(r.dropped_tasks, tasks.size());
  EXPECT_DOUBLE_EQ(r.total_penalty_s,
                   static_cast<double>(tasks.size()) * 5e-4);
  for (const TaskOutcome& t : r.tasks) EXPECT_TRUE(t.dropped);
}

TEST(PreemptiveFaults, InactiveInjectorIsBitIdenticalToBaseline) {
  const auto prms = two_prms();
  const auto tasks = small_workload(16);
  PreemptiveConfig base;
  base.prr_count = 2;
  const PreemptiveResult clean = simulate_preemptive(prms, tasks, base);
  FaultInjector injector{FaultProfile{}};
  PreemptiveConfig faulty = base;
  faulty.faults = &injector;
  const PreemptiveResult guarded = simulate_preemptive(prms, tasks, faulty);
  EXPECT_EQ(clean.makespan_s, guarded.makespan_s);
  EXPECT_EQ(clean.total_reconfig_s, guarded.total_reconfig_s);
  EXPECT_EQ(guarded.dropped_tasks, 0u);
  EXPECT_EQ(guarded.retry_attempts, 0u);
}

// --------------------------------------------------------- engine layer ---

TEST(EngineFaults, ZeroRateIsClean) {
  const api::Engine engine;
  api::FaultsRequest request;
  request.device = "xc5vlx110t";
  request.prms = {"fir", "uart"};
  request.tasks = 20;
  const api::FaultsResponse response = engine.faults(request);
  EXPECT_EQ(response.fault_rate, 0.0);
  EXPECT_EQ(response.report.dropped_tasks, 0u);
  EXPECT_EQ(response.report.retry_attempts, 0u);
  EXPECT_EQ(response.injected_faults, 0u);
  EXPECT_GT(response.report.reconfig_count, 0u);
  EXPECT_GT(response.effective_reconfig_s(), 0.0);
}

TEST(EngineFaults, FixedFaultSeedIsBitReproducible) {
  const api::Engine engine;
  api::FaultsRequest request;
  request.device = "xc5vlx110t";
  request.prms = {"fir", "uart"};
  request.tasks = 30;
  request.fault_rate = 0.6;
  request.fault_seed = u64{99};
  const api::FaultsResponse a = engine.faults(request);
  const api::FaultsResponse b = engine.faults(request);
  EXPECT_EQ(a.report.makespan_s, b.report.makespan_s);
  EXPECT_EQ(a.report.retry_attempts, b.report.retry_attempts);
  EXPECT_EQ(a.report.dropped_tasks, b.report.dropped_tasks);
  EXPECT_EQ(a.injected_faults, b.injected_faults);
  EXPECT_GT(a.injected_faults, 0u);
}

TEST(EngineFaults, StrictModeThrowsFaultError) {
  const api::Engine engine;
  api::FaultsRequest request;
  request.device = "xc5vlx110t";
  request.prms = {"fir"};
  request.tasks = 10;
  request.fault_rate = 1.0;
  request.strict = true;
  EXPECT_THROW(engine.faults(request), FaultError);
  request.strict = false;
  EXPECT_NO_THROW(engine.faults(request));
}

TEST(EngineFaults, ValidatesRequest) {
  const api::Engine engine;
  api::FaultsRequest request;
  request.device = "xc5vlx110t";
  EXPECT_THROW(engine.faults(request), UsageError);  // no PRMs
  request.prms = {"fir"};
  request.recovery = "retry";
  EXPECT_THROW(engine.faults(request), UsageError);
  request.recovery = "drop";
  request.media = "tape";
  EXPECT_THROW(engine.faults(request), UsageError);
}

TEST(FaultErrorTaxonomy, StableWireName) {
  EXPECT_EQ(error_code_name(ErrorCode::kFault), "fault");
  const FaultError error{"boom"};
  EXPECT_EQ(error.code(), ErrorCode::kFault);
  EXPECT_STREQ(error.what(), "boom");
}

}  // namespace
}  // namespace prcost
