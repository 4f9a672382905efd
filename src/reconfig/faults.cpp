#include "reconfig/faults.hpp"

#include <iterator>

#include "obs/obs.hpp"
#include "util/error.hpp"

namespace prcost {

FaultInjector::FaultInjector(const FaultProfile& profile)
    : profile_(profile), rng_(profile.seed) {
  if (profile.fault_rate < 0.0 || profile.fault_rate > 1.0) {
    throw ContractError{"FaultInjector: fault rate out of [0,1]"};
  }
  if (profile.stall_rate < 0.0 || profile.stall_rate > 1.0) {
    throw ContractError{"FaultInjector: stall rate out of [0,1]"};
  }
  if (profile.stall_s < 0.0) {
    throw ContractError{"FaultInjector: negative stall time"};
  }
}

FaultInjector::Attempt FaultInjector::next_attempt() {
  ++attempts_;
  Attempt attempt;
  // Fixed draw order (corruption first, then stall) keeps the sequence a
  // pure function of the seed regardless of which rates are zero.
  if (rng_.chance(profile_.fault_rate)) {
    attempt.kind =
        kCorruptionKinds[rng_.below(std::size(kCorruptionKinds))];
    ++corrupted_;
    PRCOST_COUNT("reconfig.faults.injected");
  }
  if (rng_.chance(profile_.stall_rate)) {
    attempt.stall_s = profile_.stall_s;
    ++stalls_;
    PRCOST_COUNT("reconfig.faults.stalls");
  }
  return attempt;
}

}  // namespace prcost
