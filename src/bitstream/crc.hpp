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
#pragma once

#include <cstddef>
#include <span>

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

/// Plain CRC-32C over bytes (init/final-xor 0xFFFFFFFF, reflected), used
/// to checksum cache snapshots. Uses the crc32 instruction when available.
u32 crc32c_bytes(const void* data, std::size_t size);

/// Streaming configuration-CRC accumulator (runtime-dispatched).
class ConfigCrc {
 public:
  /// Absorb one register write.
  void update(ConfigReg reg, u32 data);

  /// Absorb a burst of writes to the same register (FDRI payloads).
  /// Equivalent to calling update(reg, w) for each word in order.
  void update_span(ConfigReg reg, std::span<const u32> words);

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
