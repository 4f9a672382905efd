// Golden pin for the multitasking runtimes: simulate, simulate_full_reconfig,
// simulate_preemptive and sched::run. Each case records makespan, total
// reconfiguration time and mean wait as %.17g strings, plus a 64-bit FNV-1a
// digest over every per-task outcome field (doubles by bit pattern) and the
// report's counters. The other runtime tests mostly check relations; this
// one catches any drift in arithmetic order, tie-breaks or event ordering.
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "multitask/preemptive.hpp"
#include "multitask/simulator.hpp"
#include "multitask/workload.hpp"
#include "reconfig/faults.hpp"
#include "sched/scheduler.hpp"

namespace prcost {
namespace {

struct Digest {
  u64 h = 0xcbf29ce484222325ull;
  void add(u64 v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  void add(double v) { add(std::bit_cast<u64>(v)); }
  void add(u32 v) { add(static_cast<u64>(v)); }
  void add(bool v) { add(static_cast<u64>(v)); }
};

struct Golden {
  std::string makespan_s;
  std::string total_reconfig_s;
  std::string mean_wait_s;
  std::string digest;
};

std::string g17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string hex(u64 v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

std::vector<PrmInfo> prms() {
  return {PrmInfo{"fir", {}, 83064}, PrmInfo{"mips", {}, 157296},
          PrmInfo{"sdram", {}, 18040}};
}

std::vector<HwTask> workload() {
  WorkloadParams wp;
  wp.count = 48;
  wp.prm_count = 3;
  wp.mean_interarrival_s = 1.5e-3;
  wp.mean_exec_s = 4e-3;
  wp.seed = 7;
  std::vector<HwTask> tasks = make_workload(wp);
  // Equal arrivals exercise the (arrival, input order) tie-break.
  tasks[5].arrival_s = tasks[4].arrival_s;
  tasks[20].arrival_s = tasks[19].arrival_s;
  return tasks;
}

Golden pin_sim(const SimResult& r) {
  Digest d;
  for (const TaskOutcome& t : r.tasks) {
    d.add(t.task_index);
    d.add(t.slot);
    d.add(t.reconfigured);
    d.add(t.dropped);
    d.add(t.reconfig_attempts);
    d.add(t.start_s);
    d.add(t.finish_s);
    d.add(t.wait_s);
  }
  d.add(r.reconfig_count);
  d.add(r.reuse_hits);
  d.add(r.relocation_count);
  d.add(r.total_relocation_s);
  d.add(r.prr_busy_fraction);
  d.add(r.failed_reconfigs);
  d.add(r.dropped_tasks);
  d.add(r.rescheduled_tasks);
  d.add(r.retry_attempts);
  d.add(r.total_retry_backoff_s);
  d.add(r.total_fault_wasted_s);
  d.add(r.total_penalty_s);
  return {g17(r.makespan_s), g17(r.total_reconfig_s), g17(r.mean_wait_s),
          hex(d.h)};
}

Golden pin_preemptive(const PreemptiveResult& r) {
  Digest d;
  for (const TaskOutcome& t : r.tasks) {
    d.add(t.task_index);
    d.add(t.slot);
    d.add(t.reconfigured);
    d.add(t.dropped);
    d.add(t.reconfig_attempts);
    d.add(t.start_s);
    d.add(t.finish_s);
    d.add(t.wait_s);
  }
  d.add(r.preemptions);
  d.add(r.reconfig_count);
  d.add(r.total_save_restore_s);
  d.add(r.failed_reconfigs);
  d.add(r.dropped_tasks);
  d.add(r.retry_attempts);
  d.add(r.total_retry_backoff_s);
  d.add(r.total_fault_wasted_s);
  d.add(r.total_penalty_s);
  // The preemptive report's wait statistic is the top-quartile mean.
  return {g17(r.makespan_s), g17(r.total_reconfig_s),
          g17(r.mean_high_priority_wait_s), hex(d.h)};
}

Golden pin_sched(const sched::Report& r) {
  Digest d;
  for (const sched::TaskOutcome& t : r.tasks) {
    d.add(t.task_index);
    d.add(t.slot);
    d.add(t.cpu_fallback);
    d.add(t.reconfigured);
    d.add(t.prefetched);
    d.add(t.deadline_miss);
    d.add(t.reconfig_s);
    d.add(t.start_s);
    d.add(t.finish_s);
    d.add(t.wait_s);
  }
  d.add(r.completed);
  d.add(r.reuse_hits);
  d.add(r.reconfig_count);
  d.add(r.reconfig_seconds_per_task);
  d.add(r.deadline_misses);
  d.add(r.cpu_fallbacks);
  d.add(r.prefetches_issued);
  d.add(r.prefetched_reconfigs);
  d.add(r.mean_turnaround_s);
  d.add(r.throughput_per_s);
  return {g17(r.makespan_s), g17(r.total_reconfig_s), g17(r.mean_wait_s),
          hex(d.h)};
}

void expect_golden(const std::string& name, const Golden& got,
                   const Golden& want) {
  EXPECT_EQ(got.makespan_s, want.makespan_s) << name;
  EXPECT_EQ(got.total_reconfig_s, want.total_reconfig_s) << name;
  EXPECT_EQ(got.mean_wait_s, want.mean_wait_s) << name;
  EXPECT_EQ(got.digest, want.digest) << name;
  if (got.makespan_s != want.makespan_s ||
      got.total_reconfig_s != want.total_reconfig_s ||
      got.mean_wait_s != want.mean_wait_s || got.digest != want.digest) {
    std::printf("    {\"%s\", {\"%s\", \"%s\", \"%s\", \"%s\"}},\n",
                name.c_str(), got.makespan_s.c_str(),
                got.total_reconfig_s.c_str(), got.mean_wait_s.c_str(),
                got.digest.c_str());
  }
}

struct Case {
  std::string name;
  Golden want;
};

const Golden& want(const std::vector<Case>& table, const std::string& name) {
  for (const Case& c : table) {
    if (c.name == name) return c.want;
  }
  static const Golden kMissing{};
  return kMissing;
}

// ------------------------------------------------------------- simulate --

const std::vector<Case> kSimulate = {
    {"FCFS/1",
     {"0.19288158519280568", "0.0073173199999999978",
      "0.064082757694788106", "95d3e6b376be276a"}},
    {"FCFS/3",
     {"0.082194099179751456", "0.0066615999999999993",
      "0.0076240748672137216", "6489bd418f660a5b"}},
    {"SJF/1",
     {"0.1913670251928056", "0.0058027599999999988",
      "0.030448337091496819", "d7dd93497155742c"}},
    {"SJF/3",
     {"0.082578192202603803", "0.0073926999999999977",
      "0.0036037118605895015", "b582e1f7028e7474"}},
    {"Priority/1",
     {"0.19241144519280559", "0.0068471799999999979",
      "0.054347820167961837", "c0602380afbfc471"}},
    {"Priority/3",
     {"0.080762353479122626", "0.0077408399999999971",
      "0.0065175906997168133", "95719d9f163723a9"}},
    {"Reuse-aware/1",
     {"0.18737460519280563", "0.0018103399999999999",
      "0.058390867360854713", "5acd5d98197c8b21"}},
    {"Reuse-aware/3",
     {"0.081443792566899278", "0.0027591000000000004",
      "0.0071385868895373307", "d7f51a7eacda6201"}},
    {"relocation",
     {"0.081271032566899284", "0.0011894399999999999",
      "0.0069658123062040006", "e9e494014b142cd4"}},
    {"fault-drop",
     {"0.084905042293291433", "0.016601820000000003",
      "0.0074555639240968764", "3563ce315ad971a5"}},
    {"fault-reschedule",
     {"0.08142814664753284", "0.0085935800000000017",
      "0.0074395512754239597", "626e1fcd6d75adc0"}},
    {"full-reconfig",
     {"0.55557965866718761", "0.37087999999999982",
      "0.24757551501180389", "3e9cc45e68ce5ef6"}},
};

TEST(RuntimeGolden, Simulate) {
  const std::vector<SchedPolicy> policies = {
      SchedPolicy::kFcfs, SchedPolicy::kSjf, SchedPolicy::kPriority,
      SchedPolicy::kReuseAware};
  for (const SchedPolicy policy : policies) {
    for (const u32 prr_count : {1u, 3u}) {
      SimConfig config;
      config.prr_count = prr_count;
      config.policy = policy;
      const std::string name = std::string{sched_policy_name(policy)} +
                               "/" + std::to_string(prr_count);
      expect_golden(name, pin_sim(simulate(prms(), workload(), config)),
                    want(kSimulate, name));
    }
  }
  SimConfig htr;
  htr.prr_count = 3;
  htr.allow_relocation = true;
  htr.relocation_s = 50e-6;
  expect_golden("relocation", pin_sim(simulate(prms(), workload(), htr)),
                want(kSimulate, "relocation"));
  for (const FaultRecovery recovery :
       {FaultRecovery::kDrop, FaultRecovery::kReschedule}) {
    FaultProfile profile;
    profile.fault_rate = 0.6;
    profile.stall_rate = 0.1;
    profile.seed = 11;
    FaultInjector injector{profile};
    SimConfig config;
    config.prr_count = 3;
    config.faults = &injector;
    config.recovery = recovery;
    config.max_reschedules = 2;
    config.drop_penalty_s = 1e-3;
    const std::string name =
        recovery == FaultRecovery::kDrop ? "fault-drop" : "fault-reschedule";
    const SimResult r = simulate(prms(), workload(), config);
    EXPECT_GT(recovery == FaultRecovery::kDrop ? r.dropped_tasks
                                               : r.rescheduled_tasks,
              0u)
        << name;
    expect_golden(name, pin_sim(r), want(kSimulate, name));
  }
  expect_golden("full-reconfig",
                pin_sim(simulate_full_reconfig(prms(), workload(), 3'900'000,
                                           StorageMedia::kDdrSdram)),
                want(kSimulate, "full-reconfig"));
}

// --------------------------------------------------------- preemptive --

const std::vector<Case> kPreemptive = {
    {"no-preemption/clean",
     {"0.10828794511647112", "0.0075782799999999971",
      "0.002363045427079628", "f47c30a95bf5725b"}},
    {"no-preemption/faults",
     {"0.10454145512985355", "0.013007660000000001",
      "0.0047896523790785751", "16752f29340453ed"}},
    {"restart/clean",
     {"0.12887292745337087", "0.0093335200000000014",
      "0.00064175115932391493", "a072f4d8e3ed35f8"}},
    {"restart/faults",
     {"0.10179731767015585", "0.016196980000000007",
      "0.00087902832926146967", "a2dbe185bade1946"}},
    {"save-restore/clean",
     {"0.11162992648673446", "0.0098036599999999988",
      "0.00063423253956586148", "e4e804098627d295"}},
    {"save-restore/faults",
     {"0.094019755268206134", "0.01542258",
      "0.00096956720518721667", "bb67068c4bfba00f"}},
};

TEST(RuntimeGolden, Preemptive) {
  for (const PreemptMode mode :
       {PreemptMode::kNoPreemption, PreemptMode::kRestart,
        PreemptMode::kSaveRestore}) {
    for (const bool faulty : {false, true}) {
      FaultProfile profile;
      profile.fault_rate = 0.6;
      profile.seed = 5;
      FaultInjector injector{profile};
      PreemptiveConfig config;
      config.prr_count = 2;
      config.mode = mode;
      config.context_save_s = 100e-6;
      config.context_restore_s = 120e-6;
      config.drop_penalty_s = 2e-3;
      if (faulty) config.faults = &injector;
      const std::string name = std::string{preempt_mode_name(mode)} +
                               (faulty ? "/faults" : "/clean");
      const PreemptiveResult r =
          simulate_preemptive(prms(), workload(), config);
      if (faulty) {
        EXPECT_GT(r.dropped_tasks, 0u) << name;
      }
      if (mode != PreemptMode::kNoPreemption) {
        EXPECT_GT(r.preemptions, 0u) << name;
      }
      expect_golden(name, pin_preemptive(r), want(kPreemptive, name));
    }
  }
}

// ---------------------------------------------------------- sched::run --

const std::vector<Case> kSched = {
    {"fcfs/pf0/fr0/none",
     {"0.14631303626979572", "0.074229818115234367",
      "0.036637145997680649", "2bc9e244441a7222"}},
    {"fcfs/pf0/fr0/deadlines",
     {"0.33023991643453759", "0.038905773315429687",
      "0.08794194799838477", "4be2a5d9f4842fa2"}},
    {"fcfs/pf0/fr0.05/none",
     {"0.14961081113399249", "0.078147817293548597",
      "0.038165730107487673", "200a71dd24063e08"}},
    {"fcfs/pf0/fr0.05/deadlines",
     {"0.31654906941249772", "0.033462590583801272",
      "0.088804769616591936", "d011082dc38f62b4"}},
    {"fcfs/pf200/fr0/none",
     {"0.11340880408939261", "0.019810526401367188",
      "0.024665277382991943", "63983e02a6c4f19e"}},
    {"fcfs/pf200/fr0/deadlines",
     {"0.27311521727839788", "0.013057180463867186",
      "0.062848741496870558", "a9361497d2c72bba"}},
    {"fcfs/pf200/fr0.05/none",
     {"0.11424133577723199", "0.020871925353239139",
      "0.02527266249469971", "52909df0a1d86372"}},
    {"fcfs/pf200/fr0.05/deadlines",
     {"0.27317620790993047", "0.013753749585778199",
      "0.062990647029912666", "06952e0cfdd1898c"}},
    {"priority/pf0/fr0/none",
     {"0.15109141743710841", "0.076990460815429679",
      "0.031359045368504306", "c92fe1e64dd65e79"}},
    {"priority/pf0/fr0/deadlines",
     {"0.29683800282842732", "0.034884973144531248",
      "0.068229434560603722", "e433fdf8f833e9bc"}},
    {"priority/pf0/fr0.05/none",
     {"0.15327506237458377", "0.075853258528518694",
      "0.032419071004096404", "959b99142d2416c0"}},
    {"priority/pf0/fr0.05/deadlines",
     {"0.31698514121313515", "0.036726344856262208",
      "0.072221830783171265", "aba54d8b690d141e"}},
    {"priority/pf200/fr0/none",
     {"0.11351931837286414", "0.019592866401367183",
      "0.020535432069300644", "83ab8f95edc019db"}},
    {"priority/pf200/fr0/deadlines",
     {"0.24740780874831705", "0.013405320463867186",
      "0.042360257650110957", "0f2257dd42f9c003"}},
    {"priority/pf200/fr0.05/none",
     {"0.114755439250033", "0.02178256622317017",
      "0.021668273377314713", "3ab4f0522d85127c"}},
    {"priority/pf200/fr0.05/deadlines",
     {"0.24740780874831705", "0.013753749585778199",
      "0.041896376144792587", "e7c2656b7d4d5bd6"}},
    {"edf/pf0/fr0/none",
     {"0.14631303626979572", "0.074229818115234367",
      "0.036637145997680649", "2bc9e244441a7222"}},
    {"edf/pf0/fr0/deadlines",
     {"0.2649138290255767", "0.039344844970703119",
      "0.041373795366239786", "a35dd91ca3c1a74b"}},
    {"edf/pf0/fr0.05/none",
     {"0.14961081113399249", "0.078147817293548597",
      "0.038165730107487673", "200a71dd24063e08"}},
    {"edf/pf0/fr0.05/deadlines",
     {"0.26957408605751948", "0.045654422217178345",
      "0.045213352781855926", "ac2bb5ea80fb49b2"}},
    {"edf/pf200/fr0/none",
     {"0.11340880408939261", "0.019810526401367188",
      "0.024665277382991943", "63983e02a6c4f19e"}},
    {"edf/pf200/fr0/deadlines",
     {"0.18837671327767086", "0.014539660463867182",
      "0.023379700493237298", "43a2d70666053d60"}},
    {"edf/pf200/fr0.05/none",
     {"0.11424133577723199", "0.020871925353239139",
      "0.02527266249469971", "52909df0a1d86372"}},
    {"edf/pf200/fr0.05/deadlines",
     {"0.18843770390920345", "0.015375574733278202",
      "0.023540975539798989", "f4042160cc826ef9"}},
};

TEST(RuntimeGolden, SchedRun) {
  for (const sched::Policy policy :
       {sched::Policy::kFcfs, sched::Policy::kPriority, sched::Policy::kEdf}) {
    for (const double prefetch_hz : {0.0, 200.0}) {
      for (const double fault_rate : {0.0, 0.05}) {
        for (const bool deadlines : {false, true}) {
          std::vector<sched::Task> tasks;
          for (const HwTask& t : workload()) {
            tasks.push_back(
                sched::Task{t.name, t.prm, t.arrival_s, t.exec_s, t.priority,
                            0.0});
          }
          if (deadlines) {
            // Every third deadline is too tight for any reconfiguration,
            // so those tasks fall back to the CPU pool.
            for (std::size_t i = 0; i < tasks.size(); ++i) {
              const double factor = i % 3 == 0 ? 1.2 : 6.0;
              tasks[i].deadline_s =
                  tasks[i].arrival_s + factor * tasks[i].exec_s;
            }
          }
          sched::SchedulerConfig config;
          config.slot_count = 2;
          config.policy = policy;
          config.prefetch_rate_hz = prefetch_hz;
          config.fault_rate = fault_rate;
          char name[96];
          std::snprintf(name, sizeof name, "%s/pf%g/fr%g/%s",
                        std::string{sched::policy_name(policy)}.c_str(),
                        prefetch_hz, fault_rate,
                        deadlines ? "deadlines" : "none");
          const sched::Report r = sched::run(prms(), tasks, config);
          if (deadlines) {
            EXPECT_GT(r.cpu_fallbacks, 0u) << name;
          }
          if (prefetch_hz > 0) {
            EXPECT_GT(r.prefetched_reconfigs, 0u) << name;
          }
          expect_golden(name, pin_sched(r), want(kSched, name));
        }
      }
    }
  }
}

}  // namespace
}  // namespace prcost
