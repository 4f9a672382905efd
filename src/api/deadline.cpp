#include "api/deadline.hpp"

#include <string>

#include "obs/obs.hpp"
#include "util/error.hpp"

namespace prcost::api {
namespace {

thread_local bool t_active = false;
thread_local DeadlineClock::time_point t_deadline{};

}  // namespace

DeadlineScope::DeadlineScope(DeadlineClock::time_point deadline) {
  if (t_active) return;  // outermost wins
  t_active = true;
  t_deadline = deadline;
  owner_ = true;
}

DeadlineScope::~DeadlineScope() {
  if (owner_) t_active = false;
}

void check_deadline(const char* phase) {
  if (!t_active) return;
  const auto now = DeadlineClock::now();
  if (now <= t_deadline) return;
  const auto over_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
      now - t_deadline);
  PRCOST_COUNT("api.deadline_exceeded");
  throw DeadlineError{"deadline exceeded at phase '" + std::string{phase} +
                      "' (" + std::to_string(over_ns.count() / 1000000) +
                      " ms over budget)"};
}

}  // namespace prcost::api
