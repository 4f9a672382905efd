#include "bitstream/crc.hpp"

#include <array>
#include <atomic>
#include <cstdlib>
#include <string_view>

#include "util/error.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PRCOST_CRC_X86 1
#include <immintrin.h>
#endif

namespace prcost {
namespace {

constexpr u32 kPolynomial = 0x1EDC6F41;  // CRC-32C (Castagnoli)
constexpr u32 kReflected = 0x82F63B78;   // kPolynomial bit-reversed

constexpr u32 bit_reverse(u32 v) {
  v = ((v >> 1) & 0x55555555u) | ((v & 0x55555555u) << 1);
  v = ((v >> 2) & 0x33333333u) | ((v & 0x33333333u) << 2);
  v = ((v >> 4) & 0x0F0F0F0Fu) | ((v & 0x0F0F0F0Fu) << 4);
  v = ((v >> 8) & 0x00FF00FFu) | ((v & 0x00FF00FFu) << 8);
  return (v >> 16) | (v << 16);
}

static_assert(bit_reverse(kPolynomial) == kReflected);

/// Advance a reflected-domain accumulator by `n` zero input bits.
/// Equivalently (the accumulator is the bit-reflection of a degree-<32
/// polynomial): multiply that polynomial by x^n and reduce mod P.
constexpr u32 zero_steps(u32 s, u32 n) {
  for (u32 i = 0; i < n; ++i) s = (s >> 1) ^ ((s & 1u) ? kReflected : 0u);
  return s;
}

/// a·b mod P for reflected-domain polynomials (bit 31 is x^0): the
/// shift-and-add product of zlib's multmodp, without branches on `a`.
constexpr u32 mul_mod(u32 a, u32 b) {
  u32 p = 0;
  for (u32 i = 0; i < 32; ++i) {
    p ^= b & (0u - ((a >> (31 - i)) & 1u));
    b = (b >> 1) ^ (kReflected & (0u - (b & 1u)));
  }
  return p;
}

/// x^(2^k) mod P for every bit k of a u64 exponent.
constexpr std::array<u32, 64> make_x2k() {
  std::array<u32, 64> t{};
  t[0] = 1u << 30;  // x^1
  for (std::size_t k = 1; k < t.size(); ++k) t[k] = mul_mod(t[k - 1], t[k - 1]);
  return t;
}

constexpr std::array<u32, 64> kX2k = make_x2k();

/// x^n mod P by square-and-multiply over the bits of n.
constexpr u32 x_pow_mod(u64 n) {
  u32 p = 1u << 31;  // x^0
  for (std::size_t k = 0; n != 0; ++k, n >>= 1) {
    if ((n & 1u) != 0) p = mul_mod(kX2k[k], p);
  }
  return p;
}

static_assert(mul_mod(x_pow_mod(37), 0xDEADBEEFu) ==
              zero_steps(0xDEADBEEFu, 37));
static_assert(mul_mod(x_pow_mod(37 * 3), 0x0BADF00Du) ==
              zero_steps(0x0BADF00Du, 37 * 3));

// Keeping the accumulator bit-reversed turns the hardware's LSB-first feed
// (shift_in_bit in BitSerialConfigCrc below) into the classic reflected CRC
// recurrence, so one 37-bit register write (32 data bits, then the 5-bit
// register address) becomes
//
//   x  = state ^ data
//   state = word[0][x & 0xFF] ^ word[1][(x >> 8) & 0xFF]
//         ^ word[2][(x >> 16) & 0xFF] ^ word[3][x >> 24] ^ addr[reg]
//
// word[b] is the slice-by-4 table for byte b of the word with the five
// trailing zero shifts of the address step pre-folded in (the fold is
// legal because advancing by zero bits is linear over GF(2)); addr[] is
// the address bits' own 5-bit contribution, separable for the same
// linearity reason.
struct Tables {
  u32 word[4][256];
  u32 addr[32];
};

constexpr Tables make_tables() {
  // Base reflected byte table, then the three composed slice tables.
  u32 sliced[4][256]{};
  for (u32 i = 0; i < 256; ++i) sliced[0][i] = zero_steps(i, 8);
  for (u32 k = 1; k < 4; ++k) {
    for (u32 i = 0; i < 256; ++i) {
      const u32 prev = sliced[k - 1][i];
      sliced[k][i] = (prev >> 8) ^ sliced[0][prev & 0xFFu];
    }
  }
  Tables t{};
  // Byte 0 of the word is consumed first, so it is shifted over by the
  // most later input: it takes the most-composed table.
  for (u32 b = 0; b < 4; ++b) {
    for (u32 i = 0; i < 256; ++i) {
      t.word[b][i] = zero_steps(sliced[3 - b][i], 5);
    }
  }
  for (u32 i = 0; i < 32; ++i) t.addr[i] = zero_steps(i, 5);
  return t;
}

constexpr Tables kTables = make_tables();

constexpr u32 write_step(u32 state, u32 addr_contribution, u32 data) {
  const u32 x = state ^ data;
  return kTables.word[0][x & 0xFFu] ^ kTables.word[1][(x >> 8) & 0xFFu] ^
         kTables.word[2][(x >> 16) & 0xFFu] ^ kTables.word[3][x >> 24] ^
         addr_contribution;
}

constexpr u32 addr_contribution(ConfigReg reg) {
  return kTables.addr[static_cast<u32>(reg) & 0x1Fu];
}

constexpr u32 shift_in_bit(u32 crc, bool bit) {
  const bool msb = (crc & 0x80000000u) != 0;
  crc <<= 1;
  if (msb != bit) crc ^= kPolynomial;
  return crc;
}

// ------------------------------------------------------------------------
// Span kernels. All take and return the reflected-domain state.

u32 span_sliced(u32 state, u32 reg5, const u32* words, std::size_t n) {
  const u32 addr = kTables.addr[reg5];
  u32 s = state;
  for (std::size_t i = 0; i < n; ++i) s = write_step(s, addr, words[i]);
  return s;
}

u32 span_bitserial(u32 state, u32 reg5, const u32* words, std::size_t n) {
  // The oracle works in the non-reflected register domain.
  u32 crc = bit_reverse(state);
  for (std::size_t i = 0; i < n; ++i) {
    const u32 data = words[i];
    for (u32 b = 0; b < 32; ++b) {
      crc = shift_in_bit(crc, ((data >> b) & 1u) != 0);
    }
    for (u32 b = 0; b < 5; ++b) {
      crc = shift_in_bit(crc, ((reg5 >> b) & 1u) != 0);
    }
  }
  return bit_reverse(crc);
}

#if PRCOST_CRC_X86

// One register write via the crc32 instruction: `crc32` absorbs the 32
// data bits LSB-first in the reflected domain, then the 5 address bits are
// appended with the same split the sliced tables use —
// zero_steps(t, 5) = (t >> 5) ^ zero_steps(t & 31, 5) by GF(2) linearity,
// and zero_steps(i, 5) for i < 32 is exactly kTables.addr[i].
__attribute__((target("sse4.2"))) inline u32 hw_step(u32 state, u32 addr_c,
                                                     u32 data) {
  const u32 t = _mm_crc32_u32(state, data);
  return (t >> 5) ^ kTables.addr[t & 0x1Fu] ^ addr_c;
}

// Burst path: 64 writes x 37 bits = 2368 bits = exactly 37 u64 lanes, so
// any multiple of 64 words packs into whole lanes with no tail. The packer
// streams symbols (data | addr << 32) through a shift register and feeds
// each completed lane straight to `_mm_crc32_u64`, whose semantics are
// "absorb these 64 stream bits LSB-first" — the state flows through with
// no combine step. The < 64-word tail falls back to the scalar step.
__attribute__((target("sse4.2"))) u32 span_hw_crc32(u32 state, u32 reg5,
                                                    const u32* words,
                                                    std::size_t n) {
  const u64 addr_bits = static_cast<u64>(reg5) << 32;
  u64 s = state;
  std::size_t blocks = n / 64;
  while (blocks-- > 0) {
    u64 cur = 0;
    u32 bit = 0;
    for (u32 i = 0; i < 64; ++i) {
      const u64 sym = words[i] | addr_bits;
      cur |= sym << bit;
      bit += 37;
      if (bit >= 64) {
        s = _mm_crc32_u64(s, cur);
        bit -= 64;
        // Shift amount is in [1, 37]; when bit == 0 the symbol had no
        // bits left and sym >> 37 is zero anyway (symbols are 37 bits).
        cur = sym >> (37 - bit);
      }
    }
    words += 64;
  }
  u32 s32 = static_cast<u32>(s);
  const u32 addr_c = kTables.addr[reg5];
  for (std::size_t i = 0; i < n % 64; ++i) {
    s32 = hw_step(s32, addr_c, words[i]);
  }
  return s32;
}

bool cpu_has_sse42() { return __builtin_cpu_supports("sse4.2") != 0; }

#else  // !PRCOST_CRC_X86

bool cpu_has_sse42() { return false; }

#endif  // PRCOST_CRC_X86

// ------------------------------------------------------------------------
// Dispatch.

u32 span_with(CrcImpl impl, u32 state, u32 reg5, const u32* words,
              std::size_t n) {
  switch (impl) {
    case CrcImpl::kBitSerial:
      return span_bitserial(state, reg5, words, n);
#if PRCOST_CRC_X86
    case CrcImpl::kHwCrc32:
      return span_hw_crc32(state, reg5, words, n);
#endif
    case CrcImpl::kSliced:
    default:
      return span_sliced(state, reg5, words, n);
  }
}

constexpr int kImplUnresolved = -1;
std::atomic<int> g_impl{kImplUnresolved};

CrcImpl best_available() {
  return cpu_has_sse42() ? CrcImpl::kHwCrc32 : CrcImpl::kSliced;
}

CrcImpl resolve_default() {
  if (const char* env = std::getenv("PRCOST_FORCE_CRC")) {
    const std::string_view name{env};
    if (name == "bitserial" || name == "bit-serial" || name == "serial") {
      return CrcImpl::kBitSerial;
    }
    if (name == "sliced" || name == "table") return CrcImpl::kSliced;
    // "hw", "sse42" and "crc32" (available or not) and unknown names
    // all fall through to the auto pick, the fastest available path.
  }
  return best_available();
}

}  // namespace

bool crc_impl_available(CrcImpl impl) {
  switch (impl) {
    case CrcImpl::kBitSerial:
    case CrcImpl::kSliced:
      return true;
    case CrcImpl::kHwCrc32:
      return cpu_has_sse42();
  }
  return false;
}

CrcImpl active_crc_impl() {
  int current = g_impl.load(std::memory_order_relaxed);
  if (current == kImplUnresolved) {
    current = static_cast<int>(resolve_default());
    int expected = kImplUnresolved;
    // First resolver wins; a concurrent set_crc_impl takes priority.
    if (!g_impl.compare_exchange_strong(expected, current,
                                        std::memory_order_relaxed)) {
      current = expected;
    }
  }
  return static_cast<CrcImpl>(current);
}

bool set_crc_impl(CrcImpl impl) {
  if (!crc_impl_available(impl)) return false;
  g_impl.store(static_cast<int>(impl), std::memory_order_relaxed);
  return true;
}

const char* crc_impl_name(CrcImpl impl) {
  switch (impl) {
    case CrcImpl::kBitSerial:
      return "bitserial";
    case CrcImpl::kSliced:
      return "sliced";
    case CrcImpl::kHwCrc32:
      return "hw-crc32";
  }
  return "unknown";
}

u32 config_crc_advance(CrcImpl impl, u32 state, ConfigReg reg,
                       std::span<const u32> words) {
  const u32 reg5 = static_cast<u32>(reg) & 0x1Fu;
  return span_with(impl, state, reg5, words.data(), words.size());
}

void ConfigCrc::update(ConfigReg reg, u32 data) {
  const CrcImpl impl = active_crc_impl();
  if (impl == CrcImpl::kSliced) {
    state_ = write_step(state_, addr_contribution(reg), data);
    return;
  }
  const u32 reg5 = static_cast<u32>(reg) & 0x1Fu;
  state_ = span_with(impl, state_, reg5, &data, 1);
}

void ConfigCrc::update_span(ConfigReg reg, std::span<const u32> words) {
  const u32 reg5 = static_cast<u32>(reg) & 0x1Fu;
  state_ = span_with(active_crc_impl(), state_, reg5, words.data(),
                     words.size());
}

u32 ConfigCrc::value() const { return bit_reverse(state_); }

CrcShift::CrcShift(u64 writes)
    : writes_{writes}, power_{x_pow_mod(checked_mul(writes, 37))} {}

u32 CrcShift::operator()(u32 state) const { return mul_mod(power_, state); }

void CrcCheckpoints::extend(std::span<const u32> words) {
  std::size_t at = (states_.size() - 1) * kStride;
  if (words.size() < at) {
    throw ContractError{"CrcCheckpoints::extend: sequence shrank"};
  }
  const CrcImpl impl = active_crc_impl();
  const u32 reg5 = static_cast<u32>(ConfigReg::kFdri) & 0x1Fu;
  u32 state = states_.back();
  for (; words.size() - at >= kStride; at += kStride) {
    state = span_with(impl, state, reg5, words.data() + at, kStride);
    states_.push_back(state);
  }
}

u32 CrcCheckpoints::prefix(std::span<const u32> words, std::size_t i) const {
  const std::size_t k = i / kStride;
  if (k >= states_.size() || i > words.size()) {
    throw ContractError{"CrcCheckpoints::prefix: past the recorded words"};
  }
  const u32 reg5 = static_cast<u32>(ConfigReg::kFdri) & 0x1Fu;
  return span_with(active_crc_impl(), states_[k], reg5,
                   words.data() + k * kStride, i % kStride);
}

void BitSerialConfigCrc::update(ConfigReg reg, u32 data) {
  // 37-bit contribution: data bits 0..31 LSB-first, then the 5-bit
  // register address LSB-first.
  for (u32 i = 0; i < 32; ++i) {
    crc_ = shift_in_bit(crc_, ((data >> i) & 1u) != 0);
  }
  const u32 addr = static_cast<u32>(reg) & 0x1Fu;
  for (u32 i = 0; i < 5; ++i) {
    crc_ = shift_in_bit(crc_, ((addr >> i) & 1u) != 0);
  }
}

}  // namespace prcost
