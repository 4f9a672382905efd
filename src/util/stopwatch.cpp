#include "util/stopwatch.hpp"

#include <cmath>
#include <sstream>

#include "util/strings.hpp"

namespace prcost {

u64 monotonic_ns() noexcept {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch)
          .count());
}

std::string format_minutes_seconds(double seconds) {
  if (seconds < 0) seconds = 0;
  const auto whole_minutes = static_cast<long long>(seconds / 60.0);
  const double rem = seconds - static_cast<double>(whole_minutes) * 60.0;
  std::ostringstream os;
  if (whole_minutes > 0) os << whole_minutes << "m";
  os << format_fixed(rem, rem < 1.0 ? 6 : 3) << "s";
  return os.str();
}

}  // namespace prcost
