#include "reconfig/controllers.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "util/error.hpp"

namespace prcost {
namespace {

/// Shared tally for every controller's estimate() entry point. It counts
/// pricings; the ICAP writes a run books are counted by the multitasking
/// adapters from its Report.
void note_estimate() { PRCOST_COUNT("reconfig.estimates"); }

}  // namespace

ReconfigEstimate CpuIcapController::estimate(u64 bytes,
                                             StorageMedia media) const {
  note_estimate();
  ReconfigEstimate e;
  e.fetch_s = fetch_seconds(media, bytes);
  e.write_s = icap_write_seconds(icap_, bytes);
  e.overhead_s =
      per_word_overhead_s_ * static_cast<double>(bytes / icap_.port_bytes);
  e.total_s = e.fetch_s + e.write_s + e.overhead_s;  // fully serialized
  return e;
}

ReconfigEstimate DmaIcapController::estimate(u64 bytes,
                                             StorageMedia media) const {
  note_estimate();
  ReconfigEstimate e;
  e.fetch_s = fetch_seconds(media, bytes);
  e.write_s = icap_write_seconds(icap_, bytes);
  e.overhead_s = setup_s_;
  // Streaming DMA overlaps fetch and write: the pipeline drains at the
  // slower stage.
  e.total_s = std::max(e.fetch_s, e.write_s) + e.overhead_s;
  return e;
}

FarmController::FarmController(IcapModel icap, double compression_ratio,
                               double overclock, double setup_s)
    : icap_(icap),
      compression_ratio_(compression_ratio),
      overclock_(overclock),
      setup_s_(setup_s) {
  if (compression_ratio <= 0.0 || compression_ratio > 1.0) {
    throw ContractError{"FarmController: compression ratio out of (0,1]"};
  }
  if (overclock < 1.0) {
    throw ContractError{"FarmController: overclock below 1.0"};
  }
}

ReconfigEstimate FarmController::estimate(u64 bytes,
                                          StorageMedia media) const {
  note_estimate();
  ReconfigEstimate e;
  const auto compressed =
      static_cast<u64>(static_cast<double>(bytes) * compression_ratio_);
  e.fetch_s = fetch_seconds(media, compressed);
  IcapModel fast = icap_;
  fast.clock_hz *= overclock_;
  e.write_s = icap_write_seconds(fast, bytes);  // decompressed at the port
  e.overhead_s = setup_s_;
  e.total_s = std::max(e.fetch_s, e.write_s) + e.overhead_s;
  return e;
}

BusyFactorController::BusyFactorController(
    std::shared_ptr<const ReconfigController> inner, double busy_factor)
    : inner_(std::move(inner)), busy_factor_(busy_factor) {
  if (!inner_) throw ContractError{"BusyFactorController: null inner"};
  if (busy_factor_ < 0.0 || busy_factor_ >= 1.0) {
    throw ContractError{"BusyFactorController: busy factor out of [0,1)"};
  }
}

std::string BusyFactorController::name() const {
  return inner_->name() + "+busy";
}

ReconfigEstimate BusyFactorController::estimate(u64 bytes,
                                                StorageMedia media) const {
  ReconfigEstimate e = inner_->estimate(bytes, media);
  // Contention stretches the ICAP write phase (Claus'08).
  const double stretched = e.write_s / (1.0 - busy_factor_);
  e.total_s += stretched - e.write_s;
  e.write_s = stretched;
  return e;
}

std::vector<std::shared_ptr<const ReconfigController>> standard_controllers(
    Family family) {
  const IcapModel icap = default_icap(family);
  return {
      std::make_shared<CpuIcapController>(icap),
      std::make_shared<DmaIcapController>(icap),
      std::make_shared<FarmController>(icap),
  };
}

TransferOutcome verified_transfer(const ReconfigController& controller,
                                  u64 bytes, StorageMedia media,
                                  FaultInjector* faults,
                                  const RetryPolicy& policy) {
  if (policy.backoff_multiplier < 1.0) {
    throw ContractError{"verified_transfer: backoff multiplier below 1.0"};
  }
  if (policy.backoff_initial_s < 0.0 || policy.verify_s < 0.0 ||
      policy.attempt_timeout_s <= 0.0) {
    throw ContractError{"verified_transfer: negative retry parameter"};
  }

  TransferOutcome outcome;
  outcome.attempts = 0;
  double backoff = policy.backoff_initial_s;
  for (u32 attempt = 0; attempt <= policy.max_retries; ++attempt) {
    ++outcome.attempts;
    outcome.last = controller.estimate(bytes, media);
    const FaultInjector::Attempt fault =
        faults != nullptr ? faults->next_attempt() : FaultInjector::Attempt{};
    if (fault.stall_s > 0.0) ++outcome.stalls;
    double attempt_s = outcome.last.total_s + fault.stall_s + policy.verify_s;
    // An attempt over the cap is abandoned at the cap: the time is spent,
    // the PRR is not configured.
    const bool timed_out = attempt_s > policy.attempt_timeout_s;
    if (timed_out) {
      attempt_s = policy.attempt_timeout_s;
      ++outcome.timeouts;
      PRCOST_COUNT("reconfig.faults.timeouts");
    }
    outcome.total_s += attempt_s;
    PRCOST_COUNT("reconfig.retries.attempts");
    // A retry is any attempt beyond the first; attribute it to the request.
    if (attempt > 0) PRCOST_REQUEST_EVENT(kRetry);
    if (!fault.corrupted() && !timed_out) {
      outcome.success = true;
      if (attempt > 0) PRCOST_COUNT("reconfig.retries.recovered");
      return outcome;
    }
    outcome.wasted_s += attempt_s;
    if (attempt < policy.max_retries) {
      outcome.total_s += backoff;
      outcome.backoff_s += backoff;
      outcome.wasted_s += backoff;
      backoff *= policy.backoff_multiplier;
      PRCOST_COUNT("reconfig.retries.backoffs");
    }
  }
  outcome.success = false;
  PRCOST_COUNT("reconfig.retries.exhausted");
  return outcome;
}

}  // namespace prcost
