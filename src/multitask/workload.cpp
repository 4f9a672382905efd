#include "multitask/workload.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace prcost {

std::vector<HwTask> make_workload(const WorkloadParams& params) {
  if (params.prm_count == 0) {
    throw ContractError{"make_workload: zero PRMs"};
  }
  Rng rng{params.seed};
  std::vector<HwTask> tasks;
  tasks.reserve(params.count);
  double clock = 0.0;
  for (u32 i = 0; i < params.count; ++i) {
    clock += rng.exponential(params.mean_interarrival_s);
    HwTask task;
    task.name = "task" + std::to_string(i);
    task.prm = narrow<u32>(rng.below(params.prm_count));
    task.arrival_s = clock;
    task.exec_s = rng.exponential(params.mean_exec_s);
    task.priority = narrow<u32>(rng.below(8));
    tasks.push_back(std::move(task));
  }
  return tasks;
}

std::vector<std::size_t> arrival_order(const std::vector<HwTask>& tasks) {
  std::vector<std::size_t> order(tasks.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  const auto earlier = [&tasks](std::size_t a, std::size_t b) {
    return tasks[a].arrival_s < tasks[b].arrival_s;
  };
  // Generated workloads and pre-sorted input skip the sort entirely.
  if (!std::is_sorted(order.begin(), order.end(), earlier)) {
    std::stable_sort(order.begin(), order.end(), earlier);
  }
  return order;
}

void sort_by_arrival(std::vector<HwTask>& tasks) {
  std::vector<HwTask> sorted;
  sorted.reserve(tasks.size());
  for (const std::size_t i : arrival_order(tasks)) {
    sorted.push_back(std::move(tasks[i]));
  }
  tasks = std::move(sorted);
}

}  // namespace prcost
