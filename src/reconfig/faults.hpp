// Fault injection for the reconfiguration pipeline.
//
// The paper's Section III.C-IV models assume every ICAP transfer succeeds.
// Real PR runtimes do not: partial bitstreams arrive corrupted (media bit
// rot, DMA glitches), storage stalls, and transfers time out. This module
// makes those scenarios first-class and *deterministic*: a seedable
// FaultInjector decides, per transfer attempt, whether the delivered
// bitstream is corrupted (and how) and whether the media stalled, so every
// fault run is bit-reproducible from (--fault-seed, --fault-rate) alone.
//
// verified_transfer() (controllers.hpp), the CRC-verified transfer loop,
// asks next_attempt() for each attempt's fate and pays the retry/backoff
// schedule in RetryPolicy.
#pragma once

#include <limits>

#include "util/ints.hpp"
#include "util/rng.hpp"

namespace prcost {

/// What went wrong with one delivered bitstream (or nothing).
enum class FaultKind {
  kNone,      ///< transfer delivered intact
  kBitFlip,   ///< one configuration word has a flipped bit
  kWordDrop,  ///< one word missing (stream shifts left)
  kWordDup,   ///< one word duplicated (stream shifts right)
  kTruncate,  ///< stream cut short
  kSplice,    ///< a run of garbage words spliced in
};

/// Corruption kinds an attempt draws among, in draw order. The order is
/// part of the determinism contract: reordering changes every seeded
/// fault sequence.
inline constexpr FaultKind kCorruptionKinds[] = {
    FaultKind::kBitFlip, FaultKind::kWordDrop, FaultKind::kWordDup,
    FaultKind::kTruncate, FaultKind::kSplice};

/// Fault environment description. All-zero rates (the default) mean the
/// injector never fires and fault-aware paths behave identically to the
/// fault-free ones.
struct FaultProfile {
  double fault_rate = 0.0;  ///< P(an attempt delivers a corrupted stream)
  double stall_rate = 0.0;  ///< P(the media stalls during an attempt)
  double stall_s = 2.0e-3;  ///< added fetch time per stall
  u64 seed = 0x5EED;        ///< deterministic fault sequence seed

  bool active() const { return fault_rate > 0.0 || stall_rate > 0.0; }
};

/// Retry discipline for CRC-verified transfers: bounded retries with
/// exponential backoff and an optional per-attempt timeout.
struct RetryPolicy {
  u32 max_retries = 3;            ///< retries after the first attempt
  double backoff_initial_s = 10e-6;  ///< delay before the first retry
  double backoff_multiplier = 2.0;   ///< exponential backoff growth
  double verify_s = 0.0;          ///< per-attempt CRC verification overhead
  /// Per-attempt wall-clock cap; an attempt that would exceed it is
  /// abandoned at the cap and counts as failed.
  double attempt_timeout_s = std::numeric_limits<double>::infinity();
};

/// Deterministic, seedable fault source. Each next_attempt() call draws
/// the fate of one transfer attempt; the sequence is a pure function of
/// the profile seed and the call order.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultProfile& profile);

  /// Fate of one transfer attempt.
  struct Attempt {
    FaultKind kind = FaultKind::kNone;  ///< corruption kind (kNone = intact)
    double stall_s = 0.0;               ///< media stall added to this attempt
    bool corrupted() const { return kind != FaultKind::kNone; }
  };

  /// Draw the next attempt's fate.
  Attempt next_attempt();

  const FaultProfile& profile() const { return profile_; }
  u64 attempts() const { return attempts_; }    ///< next_attempt() calls
  u64 corrupted() const { return corrupted_; }  ///< attempts corrupted
  u64 stalls() const { return stalls_; }        ///< attempts stalled

 private:
  FaultProfile profile_;
  Rng rng_;
  u64 attempts_ = 0;
  u64 corrupted_ = 0;
  u64 stalls_ = 0;
};

}  // namespace prcost
