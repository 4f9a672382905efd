// Wall-clock stopwatch used by the Table VIII flow-runtime bench.
#pragma once

#include <chrono>
#include <string>

#include "util/ints.hpp"

namespace prcost {

/// Nanoseconds on the steady clock since a process-wide epoch (the first
/// call). Shared by the logger's line timestamps and the tracer's span
/// timestamps so log lines correlate with trace spans.
u64 monotonic_ns() noexcept;

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Restart the stopwatch.
  void reset() { start_ = Clock::now(); }

  /// Elapsed seconds since construction or last reset().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Format a duration in seconds as the paper's "XmYYs" notation.
std::string format_minutes_seconds(double seconds);

}  // namespace prcost
