#include "sched/generators.hpp"

#include <utility>

#include "util/error.hpp"
#include "util/json.hpp"
#include "util/lines.hpp"
#include "util/rng.hpp"

namespace prcost::sched {
namespace {

/// make_bursty's shape: tasks per burst, and the gap between bursts as a
/// multiple of an exponential inter-arrival draw.
constexpr u32 kBurstSize = 8;
constexpr double kBurstGapFactor = 16.0;

Task synth_task(u32 index, double arrival, Rng& rng,
                const ArrivalParams& params) {
  Task task;
  task.name = "task" + std::to_string(index);
  task.prm = narrow<u32>(rng.below(params.prm_count));
  task.arrival_s = arrival;
  task.exec_s = rng.exponential(params.mean_exec_s);
  task.priority = narrow<u32>(rng.below(8));
  if (params.deadline_factor > 0) {
    task.deadline_s = task.arrival_s + params.deadline_factor * task.exec_s;
  }
  return task;
}

void check_params(const ArrivalParams& params, const char* who) {
  if (params.prm_count == 0) {
    throw ContractError{std::string{who} + ": zero PRMs"};
  }
}

}  // namespace

std::vector<Task> make_poisson(const ArrivalParams& params) {
  check_params(params, "make_poisson");
  Rng rng{params.seed};
  std::vector<Task> tasks;
  tasks.reserve(params.count);
  double clock = 0.0;
  for (u32 i = 0; i < params.count; ++i) {
    clock += rng.exponential(params.mean_interarrival_s);
    tasks.push_back(synth_task(i, clock, rng, params));
  }
  return tasks;
}

std::vector<Task> make_bursty(const ArrivalParams& params) {
  check_params(params, "make_bursty");
  Rng rng{params.seed};
  std::vector<Task> tasks;
  tasks.reserve(params.count);
  double clock = 0.0;
  for (u32 i = 0; i < params.count; ++i) {
    if (i != 0 && i % kBurstSize == 0) {
      // Inter-burst idle gap; within a burst arrivals are jittered by a
      // small fraction of the mean inter-arrival so they stay "almost
      // simultaneous" without being byte-equal.
      clock += kBurstGapFactor * rng.exponential(params.mean_interarrival_s);
    } else {
      clock += 0.05 * rng.exponential(params.mean_interarrival_s);
    }
    tasks.push_back(synth_task(i, clock, rng, params));
  }
  return tasks;
}

std::string dump_trace(const std::vector<Task>& tasks) {
  std::string out;
  for (const Task& task : tasks) {
    Json record = Json::object();
    record.set("name", task.name);
    record.set("prm", task.prm);
    record.set("arrival_s", task.arrival_s);
    record.set("exec_s", task.exec_s);
    if (task.priority != 0) record.set("priority", task.priority);
    if (task.deadline_s != 0) record.set("deadline_s", task.deadline_s);
    out += record.dump();
    out += '\n';
  }
  return out;
}

std::vector<Task> parse_trace(std::string_view text) {
  std::vector<Task> tasks;
  LineSplitter splitter;
  splitter.append(text);
  u64 line_no = 0;
  const auto consume = [&tasks, &line_no](const std::string& line) {
    ++line_no;
    if (line.empty()) return;
    Json record;
    try {
      record = Json::parse(line);
    } catch (const ParseError& error) {
      throw ParseError{"trace line " + std::to_string(line_no) + ": " +
                       error.what()};
    }
    const auto require = [&record, &line_no](std::string_view key) {
      const Json* member = record.find(key);
      if (member == nullptr) {
        throw ParseError{"trace line " + std::to_string(line_no) +
                         ": missing \"" + std::string{key} + "\""};
      }
      return member;
    };
    Task task;
    task.prm = narrow<u32>(require("prm")->as_u64());
    task.arrival_s = require("arrival_s")->as_double();
    task.exec_s = require("exec_s")->as_double();
    if (const Json* name = record.find("name")) {
      task.name = name->as_string();
    } else {
      task.name = "task" + std::to_string(tasks.size());
    }
    if (const Json* priority = record.find("priority")) {
      task.priority = narrow<u32>(priority->as_u64());
    }
    if (const Json* deadline = record.find("deadline_s")) {
      task.deadline_s = deadline->as_double();
    }
    tasks.push_back(std::move(task));
  };
  while (auto line = splitter.next_line()) consume(*line);
  const std::string tail = splitter.take_tail();
  if (!tail.empty()) consume(tail);
  return tasks;
}

}  // namespace prcost::sched
