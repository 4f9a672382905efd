// Per-request deadline propagation for the engine's phase boundaries.
//
// A request may carry a "deadline_ms" budget (JSONL member, or an
// arrival-anchored deadline set by the serving front-end). The dispatch
// layer opens a DeadlineScope around the engine call; the engine checks
// check_deadline() at its phase boundaries (after input load, after the
// PRR search, before cross-checks...) and throws DeadlineError - mapped
// to the stable "deadline" wire code - the first time the budget is
// exhausted. Work is never cancelled mid-phase, so a response is either
// complete or a clean deadline error, never partial.
//
// Scopes nest outermost-wins: the serve front-end anchors the deadline at
// request *arrival* (queue time counts against the budget), and the inner
// scope that dispatch_request would open for the same request becomes a
// no-op. The deadline is thread-local to the dispatching thread; work
// fanned out through parallel_for is bounded by the checks its submitter
// performs between batches.
#pragma once

#include <chrono>

namespace prcost::api {

using DeadlineClock = std::chrono::steady_clock;

/// RAII deadline for the current thread. Only the outermost scope on a
/// thread takes effect; nested scopes are no-ops and restore nothing.
class DeadlineScope {
 public:
  explicit DeadlineScope(DeadlineClock::time_point deadline);
  ~DeadlineScope();

  DeadlineScope(const DeadlineScope&) = delete;
  DeadlineScope& operator=(const DeadlineScope&) = delete;

 private:
  bool owner_ = false;
};

/// Throws DeadlineError naming `phase` when the active deadline has
/// passed; no-op when no scope is active. Call at phase boundaries.
void check_deadline(const char* phase);

}  // namespace prcost::api
