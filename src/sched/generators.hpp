// Online-arrival sources for the scheduler runtime: deterministic
// synthetic generators (Poisson and bursty) plus JSONL trace replay, so
// the same Engine::schedule entry point serves both what-if studies and
// replay of recorded production arrival logs.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "sched/scheduler.hpp"
#include "util/ints.hpp"

namespace prcost::sched {

/// Parameters shared by the synthetic generators.
struct ArrivalParams {
  u32 count = 64;            ///< tasks to generate
  u32 prm_count = 3;         ///< PRM indices drawn uniformly from [0, n)
  double mean_interarrival_s = 2.0e-3;
  double mean_exec_s = 5.0e-3;
  /// Relative deadline factor: deadline = arrival + factor * exec
  /// (0 = no deadlines).
  double deadline_factor = 0.0;
  u64 seed = 42;
};

/// Poisson process: exponential inter-arrival and service times, uniform
/// PRM mix - the open-arrival analogue of multitask::make_workload.
std::vector<Task> make_poisson(const ArrivalParams& params);

/// Bursty process: bursts of 8 near-simultaneous arrivals separated by
/// gaps of 16 times an exponential inter-arrival draw. Stresses queue policies and the prefetch rate estimator far more
/// than the smooth Poisson mix.
std::vector<Task> make_bursty(const ArrivalParams& params);

/// Serialize tasks as a JSONL trace (one object per line, trailing
/// newline), replayable by parse_trace. Fields: name, prm, arrival_s,
/// exec_s, priority, deadline_s (the latter two omitted when zero).
std::string dump_trace(const std::vector<Task>& tasks);

/// Parse a JSONL trace (LineSplitter framing: blank lines skipped, a
/// trailing unterminated line still counts). Each record needs "prm",
/// "arrival_s" and "exec_s"; "name", "priority" and "deadline_s" are
/// optional. Throws ParseError naming the offending line number.
std::vector<Task> parse_trace(std::string_view text);

}  // namespace prcost::sched
