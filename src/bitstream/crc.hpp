// Configuration CRC.
//
// Virtex configuration logic accumulates a CRC over every (register
// address, data word) pair written through the configuration interface and
// compares it against the value written to the CRC register before
// startup. We implement the documented 32-bit scheme: each written word
// contributes 37 bits (5-bit register address above the 32 data bits) fed
// LSB-first into a CRC-32C (Castagnoli, 0x1EDC6F41) register, per the
// Virtex-5 configuration user guide.
//
// ConfigCrc is the streaming accumulator. It dispatches at runtime between
// several implementations of the same 37-bit scheme:
//
//   kBitSerial  the original bit-at-a-time loop (the property-test oracle)
//   kSliced     table-driven slice-by-4 with the 5 address bits pre-folded
//               into the word tables via GF(2) linearity
//   kHwCrc32    SSE4.2 `crc32` instruction. 64 register writes are exactly
//               2368 bits = 37 u64 lanes, so a burst packs its 37-bit
//               symbols into u64 lanes and feeds them straight through
//               `_mm_crc32_u64` with no combine step
//
// The default is chosen by CPUID at first use; `PRCOST_FORCE_CRC`
// (bitserial | sliced | hw | sse42) overrides it, and `set_crc_impl`
// overrides both (used by benches and tests). All three implementations
// are bit-identical; the dispatch is purely a speed knob.
//
// The scheme is linear over GF(2), which gives a second way to absorb a
// burst that is a slice of a fixed word sequence (the generator's payload
// tape). Let P_i be the state after absorbing words [0, i) from state 0.
// Then absorbing [a, b) from `state` yields
//
//   state' = Z(state ^ P_a) ^ P_b,   Z = CrcShift{b - a}
//
// where Z advances by 37(b - a) zero bits: multiplication by x^(37(b-a))
// mod the polynomial, the operator zlib's crc32_combine applies.
// CrcCheckpoints keeps P at every 64th word (4 bytes per 64 words, 1/64 of
// the sequence) and finds any P_i from the nearest checkpoint plus at most
// 63 words, so a burst costs O(1) words of CRC work instead of one per
// word.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "bitstream/words.hpp"
#include "util/ints.hpp"

namespace prcost {

/// Selectable implementations of the 37-bit configuration CRC step.
enum class CrcImpl {
  kBitSerial = 0,
  kSliced = 1,
  kHwCrc32 = 2,
};

/// True when `impl` can run on this machine (CPUID check for hw paths).
bool crc_impl_available(CrcImpl impl);

/// The implementation ConfigCrc currently dispatches to. Resolved on first
/// use: `set_crc_impl` override, else `PRCOST_FORCE_CRC`, else the fastest
/// available hardware path, else the sliced tables.
CrcImpl active_crc_impl();

/// Force a specific implementation process-wide. Returns false (and leaves
/// the dispatch unchanged) when `impl` is not available on this machine.
bool set_crc_impl(CrcImpl impl);

/// Stable short name ("bitserial", "sliced", "hw-crc32").
const char* crc_impl_name(CrcImpl impl);

/// Advance a reflected-domain accumulator (the `ConfigCrc` state, i.e.
/// bit_reverse of the register value) across a burst of writes using a
/// specific implementation. Exposed so tests and benches can compare
/// implementations directly without changing the process-wide dispatch.
u32 config_crc_advance(CrcImpl impl, u32 state, ConfigReg reg,
                       std::span<const u32> words);

/// Z: advance a reflected-domain state by 37·`writes` zero bits, i.e.
/// across `writes` register writes' worth of shifting with no input. Built
/// once per burst length; applying it costs one 32-bit GF(2) product.
class CrcShift {
 public:
  CrcShift() : CrcShift{u64{0}} {}  ///< the identity
  explicit CrcShift(u64 writes);

  u64 writes() const { return writes_; }

  /// `state` multiplied by x^(37·writes) mod the CRC-32C polynomial.
  u32 operator()(u32 state) const;

 private:
  u64 writes_;
  u32 power_;  ///< x^(37·writes) mod P, reflected (bit 31 is x^0)
};

/// Prefix states of one growing word sequence written to
/// `ConfigReg::kFdri`: P_i, the reflected state after absorbing words
/// [0, i) from state 0, checkpointed every kStride words.
class CrcCheckpoints {
 public:
  static constexpr std::size_t kStride = 64;

  /// Record the checkpoints of `words`, the whole sequence so far; it
  /// must extend the sequence of every earlier call. Runs the dispatched
  /// span kernel over the words since the last checkpoint.
  void extend(std::span<const u32> words);

  /// P_i of `words` (the sequence last passed to extend, or a prefix of
  /// it covering `i`): the nearest checkpoint at or below `i` advanced by
  /// at most kStride - 1 words.
  u32 prefix(std::span<const u32> words, std::size_t i) const;

  /// Number of checkpoints held (P_0, P_64, ...).
  std::size_t size() const { return states_.size(); }

 private:
  std::vector<u32> states_{0u};  ///< states_[k] = P_{k·kStride}
};

/// Streaming configuration-CRC accumulator (runtime-dispatched).
class ConfigCrc {
 public:
  /// Absorb one register write.
  void update(ConfigReg reg, u32 data);

  /// Absorb a burst of writes to the same register (FDRI payloads).
  /// Equivalent to calling update(reg, w) for each word in order.
  void update_span(ConfigReg reg, std::span<const u32> words);

  /// Absorb words [a, b) of a fixed sequence written to one register,
  /// given that sequence's prefix states P_a and P_b under the same
  /// register and `shift` = CrcShift{b - a}. Equivalent to update_span
  /// over the slice, at constant cost.
  void absorb_slice(u32 prefix_a, u32 prefix_b, const CrcShift& shift) {
    state_ = shift(state_ ^ prefix_a) ^ prefix_b;
  }

  /// Current CRC value.
  u32 value() const;

  /// Reset (the RCRC command).
  void reset() { state_ = 0; }

 private:
  u32 state_ = 0;  ///< accumulator in the bit-reversed (reflected) domain
};

/// Reference bit-at-a-time implementation of the same 37-bit scheme.
/// Retained as the test oracle for the dispatched implementations and as
/// the baseline the throughput bench measures speedup against.
class BitSerialConfigCrc {
 public:
  void update(ConfigReg reg, u32 data);
  u32 value() const { return crc_; }
  void reset() { crc_ = 0; }

 private:
  u32 crc_ = 0;
};

}  // namespace prcost
