// Hardware-task workload model for the multitasking simulator.
#pragma once

#include <string>
#include <vector>

#include "cost/prr_model.hpp"
#include "util/ints.hpp"

namespace prcost {

/// A hardware module that tasks instantiate (one per PRM).
struct PrmInfo {
  std::string name;
  PrmRequirements req;        ///< resource requirements (for PRR sizing)
  u64 bitstream_bytes = 0;    ///< partial bitstream size (for reconfig time)
};

/// One task instance: run PRM `prm` for `exec_s` seconds, arriving at
/// `arrival_s`.
struct HwTask {
  std::string name;
  u32 prm = 0;            ///< index into the PrmInfo table
  double arrival_s = 0;
  double exec_s = 0;      ///< hardware execution time once placed
  u32 priority = 0;       ///< larger = more urgent (kPriority policy)
  double deadline_s = 0;  ///< absolute completion deadline (0 = none)
};

/// Deterministic random workload: `count` tasks over `prm_count` PRMs with
/// exponential inter-arrival (mean `mean_interarrival_s`) and exponential
/// service (mean `mean_exec_s`).
struct WorkloadParams {
  u32 count = 64;
  u32 prm_count = 3;
  double mean_interarrival_s = 2.0e-3;
  double mean_exec_s = 5.0e-3;
  u64 seed = 42;
};
std::vector<HwTask> make_workload(const WorkloadParams& params);

/// Canonical dispatch order shared by every runtime: input positions
/// sorted stably by arrival_s, so equal arrivals keep their input order
/// on every standard library and same-seed runs reproduce everywhere.
std::vector<std::size_t> arrival_order(const std::vector<HwTask>& tasks);

/// Reorder `tasks` into arrival_order.
void sort_by_arrival(std::vector<HwTask>& tasks);

}  // namespace prcost
