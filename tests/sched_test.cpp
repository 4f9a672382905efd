// Online scheduler runtime: policies, placement pricing, prefetch, CPU
// fallback, trace replay, and the determinism contract (same seed+policy
// => identical Engine::schedule JSON regardless of worker count).
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/engine.hpp"
#include "api/requests.hpp"
#include "bitstream/bitstream_cache.hpp"
#include "sched/generators.hpp"
#include "sched/scheduler.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace prcost {
namespace {

using api::Engine;

/// The scheduler never reads `req` (placement happens upstream), so unit
/// tests only need a name and a bitstream size.
PrmInfo make_prm(const std::string& name, u64 bytes) {
  return PrmInfo{name, PrmRequirements{}, bytes};
}

sched::Task make_task(const std::string& name, u32 prm, double arrival_s,
                      double exec_s, u32 priority = 0,
                      double deadline_s = 0) {
  return sched::Task{name, prm, arrival_s, exec_s, priority, deadline_s};
}

// -------------------------------------------------------------- policy --

TEST(SchedPolicy, NamesRoundTrip) {
  for (const auto policy : {sched::Policy::kFcfs, sched::Policy::kPriority,
                            sched::Policy::kEdf}) {
    EXPECT_EQ(sched::parse_policy(sched::policy_name(policy)), policy);
  }
  EXPECT_THROW(sched::parse_policy("round-robin"), UsageError);
}

// ----------------------------------------------------------------- run --

TEST(SchedRun, ResidentPrmIsReusedWithoutReconfiguration) {
  const std::vector<PrmInfo> prms = {make_prm("a", 100'000)};
  std::vector<sched::Task> tasks = {
      make_task("t0", 0, 0.0, 1e-3),
      make_task("t1", 0, 1.0, 1e-3),  // slot already holds PRM a
  };
  sched::SchedulerConfig config;
  config.slot_count = 1;
  const sched::Report report = sched::run(prms, tasks, config);
  ASSERT_EQ(report.tasks.size(), 2u);
  EXPECT_TRUE(report.tasks[0].reconfigured);
  EXPECT_FALSE(report.tasks[1].reconfigured);
  EXPECT_EQ(report.reuse_hits, 1u);
  EXPECT_EQ(report.reconfig_count, 1u);
  EXPECT_DOUBLE_EQ(report.tasks[1].reconfig_s, 0.0);
  EXPECT_DOUBLE_EQ(report.tasks[1].start_s, 1.0);
}

TEST(SchedRun, PriorityPolicyDispatchesUrgentTasksFirst) {
  const std::vector<PrmInfo> prms = {make_prm("a", 100'000)};
  // All arrive together on one slot: priority order is B, C, A.
  std::vector<sched::Task> tasks = {
      make_task("A", 0, 0.0, 1e-3, 1),
      make_task("B", 0, 0.0, 1e-3, 5),
      make_task("C", 0, 0.0, 1e-3, 3),
  };
  sched::SchedulerConfig config;
  config.slot_count = 1;
  config.policy = sched::Policy::kPriority;
  const sched::Report report = sched::run(prms, tasks, config);
  ASSERT_EQ(report.tasks.size(), 3u);
  EXPECT_LT(report.tasks[1].start_s, report.tasks[2].start_s);
  EXPECT_LT(report.tasks[2].start_s, report.tasks[0].start_s);
}

TEST(SchedRun, EdfPolicyDispatchesEarliestDeadlineFirst) {
  const std::vector<PrmInfo> prms = {make_prm("a", 100'000)};
  // Deadlines 0.9 / 0.2 / 0.5; the no-deadline task D sorts last.
  std::vector<sched::Task> tasks = {
      make_task("A", 0, 0.0, 1e-3, 0, 0.9),
      make_task("B", 0, 0.0, 1e-3, 0, 0.2),
      make_task("C", 0, 0.0, 1e-3, 0, 0.5),
      make_task("D", 0, 0.0, 1e-3, 0, 0.0),
  };
  sched::SchedulerConfig config;
  config.slot_count = 1;
  config.policy = sched::Policy::kEdf;
  const sched::Report report = sched::run(prms, tasks, config);
  ASSERT_EQ(report.tasks.size(), 4u);
  EXPECT_LT(report.tasks[1].start_s, report.tasks[2].start_s);
  EXPECT_LT(report.tasks[2].start_s, report.tasks[0].start_s);
  EXPECT_LT(report.tasks[0].start_s, report.tasks[3].start_s);
}

TEST(SchedRun, RejectsEmptySlotPoolAndUnknownPrm) {
  const std::vector<PrmInfo> prms = {make_prm("a", 100'000)};
  std::vector<sched::Task> tasks = {make_task("t", 0, 0.0, 1e-3)};
  sched::SchedulerConfig empty;
  empty.slot_count = 0;
  EXPECT_THROW(sched::run(prms, tasks, empty), ContractError);
  std::vector<sched::Task> bad = {make_task("t", 5, 0.0, 1e-3)};
  EXPECT_THROW(sched::run(prms, bad, sched::SchedulerConfig{}),
               ContractError);
}

TEST(SchedRun, CpuFallbackRescuesDoomedDeadline) {
  // 4 MB over DMA-ICAP takes ~10 ms, so hardware cannot make the 3 ms
  // deadline; the CPU path (2x slowdown on a 1 ms task) can.
  const std::vector<PrmInfo> prms = {make_prm("big", 4'000'000)};
  std::vector<sched::Task> tasks = {
      make_task("t", 0, 0.0, 1e-3, 0, 3e-3)};
  sched::SchedulerConfig config;
  config.slot_count = 1;
  config.cpu_workers = 1;
  config.cpu_slowdown = 2.0;
  const sched::Report report = sched::run(prms, tasks, config);
  ASSERT_EQ(report.tasks.size(), 1u);
  EXPECT_TRUE(report.tasks[0].cpu_fallback);
  EXPECT_FALSE(report.tasks[0].reconfigured);
  EXPECT_FALSE(report.tasks[0].deadline_miss);
  EXPECT_EQ(report.cpu_fallbacks, 1u);
  EXPECT_EQ(report.reconfig_count, 0u);

  // Without a CPU pool the task has to take the doomed hardware slot.
  config.cpu_workers = 0;
  const sched::Report hw_only = sched::run(prms, tasks, config);
  EXPECT_FALSE(hw_only.tasks[0].cpu_fallback);
  EXPECT_TRUE(hw_only.tasks[0].reconfigured);
  EXPECT_TRUE(hw_only.tasks[0].deadline_miss);
}

TEST(SchedRun, FaultRateInflatesReconfigurationTime) {
  const std::vector<PrmInfo> prms = {make_prm("a", 1'000'000)};
  std::vector<sched::Task> tasks = {make_task("t", 0, 0.0, 1e-3)};
  sched::SchedulerConfig config;
  config.slot_count = 1;
  const sched::Report clean = sched::run(prms, tasks, config);
  config.fault_rate = 0.2;
  const sched::Report faulty = sched::run(prms, tasks, config);
  EXPECT_GT(faulty.tasks[0].reconfig_s, clean.tasks[0].reconfig_s);
}

TEST(SchedRun, PrefetchWarmsLaterReconfigurations) {
  // Two PRMs alternating on one slot: every dispatch reconfigures, and
  // each PRM recurs every 2 ms (500 Hz), far above the 100 Hz threshold.
  const std::vector<PrmInfo> prms = {make_prm("a", 200'000),
                                     make_prm("b", 200'000)};
  std::vector<sched::Task> tasks;
  for (u32 i = 0; i < 40; ++i) {
    tasks.push_back(
        make_task("t" + std::to_string(i), i % 2, i * 1e-3, 2e-4));
  }
  sched::SchedulerConfig config;
  config.slot_count = 1;
  const sched::Report cold = sched::run(prms, tasks, config);

  u32 hook_calls = 0;
  config.prefetch_rate_hz = 100.0;
  config.prefetch_hook = [&hook_calls](u32) { ++hook_calls; };
  const sched::Report warm = sched::run(prms, tasks, config);

  EXPECT_EQ(warm.prefetches_issued, 2u);  // once per PRM
  EXPECT_EQ(hook_calls, 2u);
  EXPECT_GT(warm.prefetched_reconfigs, 0u);
  EXPECT_LT(warm.total_reconfig_s, cold.total_reconfig_s);
  EXPECT_EQ(cold.prefetches_issued, 0u);
  EXPECT_EQ(cold.prefetched_reconfigs, 0u);
}

TEST(SchedRun, SameInputProducesIdenticalReport) {
  const std::vector<PrmInfo> prms = {make_prm("a", 300'000),
                                     make_prm("b", 150'000),
                                     make_prm("c", 500'000)};
  sched::ArrivalParams params;
  params.count = 120;
  params.prm_count = 3;
  params.deadline_factor = 10.0;
  params.seed = 7;
  const std::vector<sched::Task> tasks = sched::make_bursty(params);
  sched::SchedulerConfig config;
  config.slot_count = 2;
  config.policy = sched::Policy::kEdf;
  config.prefetch_rate_hz = 50.0;
  const sched::Report a = sched::run(prms, tasks, config);
  const sched::Report b = sched::run(prms, tasks, config);
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.total_reconfig_s, b.total_reconfig_s);
  EXPECT_EQ(a.reuse_hits, b.reuse_hits);
  EXPECT_EQ(a.deadline_misses, b.deadline_misses);
  EXPECT_EQ(a.prefetched_reconfigs, b.prefetched_reconfigs);
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    EXPECT_EQ(a.tasks[i].slot, b.tasks[i].slot);
    EXPECT_EQ(a.tasks[i].start_s, b.tasks[i].start_s);
    EXPECT_EQ(a.tasks[i].finish_s, b.tasks[i].finish_s);
  }
}

// ---------------------------------------------------------- generators --

TEST(SchedGenerators, SameSeedIsDeterministic) {
  sched::ArrivalParams params;
  params.count = 50;
  params.seed = 13;
  const auto a = sched::make_poisson(params);
  const auto b = sched::make_poisson(params);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival_s, b[i].arrival_s);
    EXPECT_EQ(a[i].exec_s, b[i].exec_s);
    EXPECT_EQ(a[i].prm, b[i].prm);
  }
  params.seed = 14;
  const auto c = sched::make_poisson(params);
  EXPECT_NE(a.front().arrival_s + a.front().exec_s,
            c.front().arrival_s + c.front().exec_s);
}

TEST(SchedGenerators, TraceRoundTripIsExact) {
  sched::ArrivalParams params;
  params.count = 64;
  params.deadline_factor = 8.0;
  params.seed = 21;
  const std::vector<sched::Task> tasks = sched::make_bursty(params);
  const std::vector<sched::Task> replayed =
      sched::parse_trace(sched::dump_trace(tasks));
  ASSERT_EQ(replayed.size(), tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_EQ(replayed[i].name, tasks[i].name);
    EXPECT_EQ(replayed[i].prm, tasks[i].prm);
    // Json doubles dump via shortest-round-trip to_chars, so replay is
    // bit-exact - the basis of the trace-determinism guarantee.
    EXPECT_EQ(replayed[i].arrival_s, tasks[i].arrival_s);
    EXPECT_EQ(replayed[i].exec_s, tasks[i].exec_s);
    EXPECT_EQ(replayed[i].priority, tasks[i].priority);
    EXPECT_EQ(replayed[i].deadline_s, tasks[i].deadline_s);
  }
}

TEST(SchedGenerators, ParseTraceNamesTheOffendingLine) {
  const std::string text =
      "{\"prm\":0,\"arrival_s\":0.0,\"exec_s\":1e-3}\n"
      "{\"prm\":1,\"arrival_s\":0.1}\n";  // missing exec_s
  try {
    sched::parse_trace(text);
    FAIL() << "expected ParseError";
  } catch (const ParseError& error) {
    EXPECT_NE(std::string{error.what()}.find("line 2"), std::string::npos);
  }
}

// -------------------------------------------------------------- engine --

api::ScheduleRequest engine_request() {
  api::ScheduleRequest request;
  request.device = "xc6vlx240t";
  request.prms = {"fir", "mips", "aes"};
  request.slots = 2;
  request.workload = "bursty";
  request.tasks = 80;
  request.seed = 5;
  request.deadline_factor = 12.0;
  request.prefetch_rate_hz = 25.0;
  request.detail = true;
  return request;
}

TEST(EngineSchedule, IdenticalJsonAcrossWorkerCounts) {
  const api::ScheduleRequest request = engine_request();
  std::string baseline;
  for (const std::size_t workers : {1u, 2u, 4u}) {
    Engine::Options options;
    options.workers = workers;
    const Engine engine{options};
    const std::string dump = to_json(engine.schedule(request)).dump();
    if (baseline.empty()) {
      baseline = dump;
    } else {
      EXPECT_EQ(dump, baseline) << "workers=" << workers;
    }
  }
  EXPECT_FALSE(baseline.empty());
}

TEST(EngineSchedule, TraceReplayMatchesGeneratorRun) {
  const api::ScheduleRequest generated = engine_request();
  // Rebuild the same workload the engine synthesizes, dump it as a JSONL
  // trace, and replay it: the two runs must be byte-identical.
  sched::ArrivalParams params;
  params.count = generated.tasks;
  params.prm_count = 3;
  params.deadline_factor = generated.deadline_factor;
  params.seed = generated.seed;
  api::ScheduleRequest replay = generated;
  replay.workload = "trace";
  replay.trace = sched::dump_trace(sched::make_bursty(params));
  const Engine engine;
  EXPECT_EQ(to_json(engine.schedule(replay)).dump(),
            to_json(engine.schedule(generated)).dump());
}

TEST(EngineSchedule, PrefetchAccountingMatchesBitstreamCache) {
  bitstream_cache_clear();
  const BitstreamCacheStats before = bitstream_cache_stats();
  const Engine engine;
  const api::ScheduleResponse response = engine.schedule(engine_request());
  const BitstreamCacheStats after = bitstream_cache_stats();
  // Each issued prefetch is exactly one generate_bitstream_cached call;
  // scheduling does no other bitstream generation.
  EXPECT_GE(response.report.prefetches_issued, 1u);
  EXPECT_LE(response.report.prefetches_issued, 3u);  // at most once per PRM
  EXPECT_EQ((after.hits + after.misses) - (before.hits + before.misses),
            response.report.prefetches_issued);
  EXPECT_GE(after.misses - before.misses, 1u);
}

TEST(EngineSchedule, RejectsUnknownWorkloadAndBadTracePrm) {
  const Engine engine;
  api::ScheduleRequest request = engine_request();
  request.workload = "adversarial";
  EXPECT_THROW(engine.schedule(request), UsageError);
  request.workload = "trace";
  request.trace = "{\"prm\":9,\"arrival_s\":0.0,\"exec_s\":1e-3}\n";
  EXPECT_THROW(engine.schedule(request), UsageError);
}

}  // namespace
}  // namespace prcost
