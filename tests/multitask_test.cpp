#include <gtest/gtest.h>

#include <algorithm>

#include "device/device_db.hpp"
#include "multitask/simulator.hpp"
#include "multitask/workload.hpp"
#include "reconfig/full_bitstream.hpp"
#include "util/error.hpp"

namespace prcost {
namespace {

std::vector<PrmInfo> three_prms() {
  // Bitstream sizes from the paper's devices (FIR/MIPS/SDRAM on LX110T).
  return {
      PrmInfo{"fir", {}, 83064},
      PrmInfo{"mips", {}, 157296},
      PrmInfo{"sdram", {}, 18040},
  };
}

double dma_reconfig_s(u64 bytes) {
  const DmaIcapController dma{default_icap(Family::kVirtex5)};
  return dma.estimate(bytes, StorageMedia::kDdrSdram).total_s;
}

// --------------------------------------------------------------- workload ---

TEST(Workload, DeterministicForSeed) {
  const auto a = make_workload({});
  const auto b = make_workload({});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival_s, b[i].arrival_s);
    EXPECT_EQ(a[i].prm, b[i].prm);
  }
}

TEST(Workload, ArrivalsMonotonic) {
  const auto tasks = make_workload({});
  for (std::size_t i = 1; i < tasks.size(); ++i) {
    EXPECT_GE(tasks[i].arrival_s, tasks[i - 1].arrival_s);
  }
}

TEST(Workload, PrmIndicesInRange) {
  WorkloadParams params;
  params.prm_count = 3;
  for (const HwTask& task : make_workload(params)) EXPECT_LT(task.prm, 3u);
  params.prm_count = 0;
  EXPECT_THROW(make_workload(params), ContractError);
}

TEST(Workload, SortByArrivalBreaksTiesByInputOrder) {
  std::vector<HwTask> tasks{
      HwTask{"late", 2, 1.0, 0.1, 0},
      HwTask{"a", 0, 0.5, 0.1, 0},
      HwTask{"b", 1, 0.5, 0.1, 7},
      HwTask{"c", 0, 0.5, 0.1, 3},
  };
  sort_by_arrival(tasks);
  EXPECT_EQ(tasks[0].name, "a");
  EXPECT_EQ(tasks[1].name, "b");
  EXPECT_EQ(tasks[2].name, "c");
  EXPECT_EQ(tasks[3].name, "late");
}

// -------------------------------------------------------------- simulator ---

TEST(Simulator, SingleTaskTimingExact) {
  const auto prms = three_prms();
  std::vector<HwTask> tasks{HwTask{"t0", 0, 0.0, 0.010, 0}};
  SimConfig config;
  config.prr_count = 1;
  const SimResult result = simulate(prms, tasks, config);
  const double reconfig = dma_reconfig_s(prms[0].bitstream_bytes);
  ASSERT_EQ(result.tasks.size(), 1u);
  EXPECT_TRUE(result.tasks[0].reconfigured);
  EXPECT_NEAR(result.tasks[0].start_s, reconfig, 1e-12);
  EXPECT_NEAR(result.makespan_s, reconfig + 0.010, 1e-12);
  EXPECT_EQ(result.reconfig_count, 1u);
}

TEST(Simulator, ReuseSkipsReconfiguration) {
  const auto prms = three_prms();
  std::vector<HwTask> tasks{HwTask{"a", 0, 0.0, 0.001, 0},
                            HwTask{"b", 0, 0.0, 0.001, 0}};
  SimConfig config;
  config.prr_count = 1;
  const SimResult result = simulate(prms, tasks, config);
  EXPECT_EQ(result.reconfig_count, 1u);
  EXPECT_EQ(result.reuse_hits, 1u);
}

TEST(Simulator, AllTasksComplete) {
  const auto prms = three_prms();
  WorkloadParams params;
  params.count = 100;
  const auto tasks = make_workload(params);
  SimConfig config;
  config.prr_count = 3;
  const SimResult result = simulate(prms, tasks, config);
  ASSERT_EQ(result.tasks.size(), tasks.size());
  EXPECT_EQ(result.reconfig_count + result.reuse_hits, tasks.size());
  for (const TaskOutcome& outcome : result.tasks) {
    EXPECT_GT(outcome.finish_s, 0.0);
    EXPECT_GE(outcome.wait_s, 0.0);
  }
}

TEST(Simulator, DuplicateArrivalsDispatchInInputOrder) {
  const auto prms = three_prms();
  // Twelve tasks sharing three arrival instants: with the explicit
  // (arrival, input order) tie-break, two runs must agree task-for-task
  // and the makespan must be bit-identical.
  std::vector<HwTask> tasks;
  for (int i = 0; i < 12; ++i) {
    tasks.push_back(HwTask{"t" + std::to_string(i), static_cast<u32>(i % 3),
                           1e-3 * static_cast<double>(i / 4), 2e-3,
                           static_cast<u32>(i % 5)});
  }
  SimConfig config;
  config.prr_count = 2;
  const SimResult a = simulate(prms, tasks, config);
  const SimResult b = simulate(prms, tasks, config);
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    EXPECT_EQ(a.tasks[i].task_index, b.tasks[i].task_index);
    EXPECT_EQ(a.tasks[i].slot, b.tasks[i].slot);
    EXPECT_EQ(a.tasks[i].start_s, b.tasks[i].start_s);
    EXPECT_EQ(a.tasks[i].finish_s, b.tasks[i].finish_s);
  }
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  // FCFS on one PRR with every task arriving at t=0: execution order is
  // exactly input order, so starts are non-decreasing in input index.
  std::vector<HwTask> burst;
  for (int i = 0; i < 6; ++i) {
    burst.push_back(HwTask{"b" + std::to_string(i), 0, 0.0, 1e-3, 0});
  }
  SimConfig serial;
  serial.prr_count = 1;
  const SimResult r = simulate(prms, burst, serial);
  for (std::size_t i = 1; i < r.tasks.size(); ++i) {
    EXPECT_GT(r.tasks[i].start_s, r.tasks[i - 1].start_s);
  }
}

TEST(Simulator, MakespanLowerBound) {
  const auto prms = three_prms();
  const auto tasks = make_workload({});
  SimConfig config;
  config.prr_count = 2;
  const SimResult result = simulate(prms, tasks, config);
  double bound = 0;
  for (const HwTask& task : tasks) {
    bound = std::max(bound, task.arrival_s + task.exec_s);
  }
  EXPECT_GE(result.makespan_s, bound);
}

TEST(Simulator, MorePrrsNeverHurt) {
  const auto prms = three_prms();
  WorkloadParams params;
  params.count = 80;
  params.mean_interarrival_s = 0.5e-3;  // saturating load
  const auto tasks = make_workload(params);
  SimConfig one;
  one.prr_count = 1;
  SimConfig three;
  three.prr_count = 3;
  EXPECT_LE(simulate(prms, tasks, three).makespan_s,
            simulate(prms, tasks, one).makespan_s * 1.0001);
}

TEST(Simulator, ReuseAwareBeatsFcfsOnSwitchHeavyLoad) {
  const auto prms = three_prms();
  // Alternating pattern arriving at once: reuse-aware can batch.
  std::vector<HwTask> tasks;
  for (int i = 0; i < 24; ++i) {
    tasks.push_back(
        HwTask{"t" + std::to_string(i), static_cast<u32>(i % 3), 0.0, 1e-4, 0});
  }
  SimConfig fcfs;
  fcfs.prr_count = 3;
  fcfs.policy = SchedPolicy::kFcfs;
  SimConfig reuse = fcfs;
  reuse.policy = SchedPolicy::kReuseAware;
  const SimResult r_fcfs = simulate(prms, tasks, fcfs);
  const SimResult r_reuse = simulate(prms, tasks, reuse);
  EXPECT_GE(r_reuse.reuse_hits, r_fcfs.reuse_hits);
  EXPECT_LE(r_reuse.total_reconfig_s, r_fcfs.total_reconfig_s + 1e-12);
}

TEST(Simulator, PolicyNames) {
  EXPECT_EQ(sched_policy_name(SchedPolicy::kFcfs), "FCFS");
  EXPECT_EQ(sched_policy_name(SchedPolicy::kReuseAware), "Reuse-aware");
}

TEST(Simulator, ValidatesInput) {
  const auto prms = three_prms();
  std::vector<HwTask> tasks{HwTask{"bad", 9, 0.0, 0.001, 0}};
  EXPECT_THROW(simulate(prms, tasks, SimConfig{}), ContractError);
  SimConfig config;
  config.prr_count = 0;
  EXPECT_THROW(simulate(prms, {}, config), ContractError);
}

// ----------------------------------------------------------- relocation ---

TEST(Simulator, RelocationReplacesSlowStorageFetches) {
  // From CompactFlash, the on-chip HTR copy is far cheaper than a storage
  // fetch; with two PRRs ping-ponging one PRM plus a competitor, enabling
  // relocation must cut total context-switch time.
  const auto prms = three_prms();
  std::vector<HwTask> tasks;
  for (int i = 0; i < 30; ++i) {
    tasks.push_back(
        HwTask{"t" + std::to_string(i), static_cast<u32>(i % 2), 0.0, 1e-4, 0});
  }
  SimConfig base;
  base.prr_count = 2;
  base.policy = SchedPolicy::kFcfs;
  base.media = StorageMedia::kCompactFlash;
  SimConfig htr = base;
  htr.allow_relocation = true;
  htr.relocation_s = 500e-6;  // on-chip copy: ~0.5 ms vs ~170 ms CF fetch
  const SimResult without = simulate(prms, tasks, base);
  const SimResult with = simulate(prms, tasks, htr);
  EXPECT_GT(with.relocation_count, 0u);
  EXPECT_LT(with.makespan_s, without.makespan_s);
  EXPECT_EQ(with.relocation_count + with.reconfig_count + with.reuse_hits,
            tasks.size());
}

TEST(Simulator, RelocationIgnoredWhenSlowerThanStorage) {
  const auto prms = three_prms();
  std::vector<HwTask> tasks{HwTask{"a", 0, 0.0, 1e-4, 0},
                            HwTask{"b", 1, 0.0, 1e-4, 0},
                            HwTask{"c", 0, 0.0, 1e-4, 0}};
  SimConfig config;
  config.prr_count = 2;
  config.media = StorageMedia::kDdrSdram;  // storage already fast
  config.allow_relocation = true;
  config.relocation_s = 1.0;  // absurdly slow copy
  const SimResult result = simulate(prms, tasks, config);
  EXPECT_EQ(result.relocation_count, 0u);
}

// ----------------------------------------------------- non-PR comparison ---

TEST(FullReconfigBaseline, PrWinsWhenTasksAlternate) {
  // Section I's motivation: with sensible PRRs, PR beats full
  // reconfiguration because partial bitstreams are far smaller and PRRs
  // run in parallel.
  const auto prms = three_prms();
  WorkloadParams params;
  params.count = 60;
  const auto tasks = make_workload(params);
  const u64 full =
      full_bitstream_bytes(DeviceDb::instance().get("xc5vlx110t").fabric);
  SimConfig config;
  config.prr_count = 2;
  const SimResult pr = simulate(prms, tasks, config);
  const SimResult nonpr =
      simulate_full_reconfig(prms, tasks, full, StorageMedia::kDdrSdram);
  EXPECT_LT(pr.makespan_s, nonpr.makespan_s);
  EXPECT_LT(pr.total_reconfig_s, nonpr.total_reconfig_s);
}

TEST(FullReconfigBaseline, PrCanLoseWithOversizedPrrs) {
  // ...and the converse motivation: a PR design whose single PRR is so
  // oversized that its partial bitstream approaches the full bitstream
  // (plus per-switch ICAP serialization) can be WORSE than non-PR when
  // the workload rarely switches.
  const u64 full =
      full_bitstream_bytes(DeviceDb::instance().get("xc5vlx110t").fabric);
  std::vector<PrmInfo> prms{
      PrmInfo{"a", {}, full},  // oversized PRR: partial == full size
      PrmInfo{"b", {}, full},
  };
  // Tasks always alternate PRMs and the scheduler is FCFS (a reuse-aware
  // scheduler would rescue the design by batching same-PRM tasks) -> both
  // systems reconfigure every time; the PR pool has one PRR, so no
  // parallelism compensates.
  std::vector<HwTask> tasks;
  for (int i = 0; i < 10; ++i) {
    tasks.push_back(
        HwTask{"t" + std::to_string(i), static_cast<u32>(i % 2), 0.0, 1e-5, 0});
  }
  SimConfig config;
  config.prr_count = 1;
  config.policy = SchedPolicy::kFcfs;
  const SimResult pr = simulate(prms, tasks, config);
  const SimResult nonpr =
      simulate_full_reconfig(prms, tasks, full, StorageMedia::kDdrSdram);
  EXPECT_GE(pr.makespan_s, nonpr.makespan_s * 0.99);
}

}  // namespace
}  // namespace prcost
