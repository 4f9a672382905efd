// Word-level combinational/sequential construction helpers on top of the
// bit-level netlist IR: gates, muxes, ripple-carry arithmetic (LUT +
// CARRY4-style chain, matching how XST maps adders), registers, counters
// and wide reductions. PRM generators are written against this API.
#pragma once

#include <string>

#include "netlist/netlist.hpp"

namespace prcost {

/// Truth tables for common LUT functions (input 0 is the least-significant
/// index bit).
namespace tt {
inline constexpr u64 kNot = 0x1;        // 1 input
inline constexpr u64 kBuf = 0x2;        // 1 input
inline constexpr u64 kAnd2 = 0x8;       // 2 inputs
inline constexpr u64 kOr2 = 0xE;        // 2 inputs
inline constexpr u64 kXor2 = 0x6;       // 2 inputs
inline constexpr u64 kMux2 = 0xE4;      // 3 inputs: (sel, a, b) -> sel?b:a
inline constexpr u64 kOr3 = 0xFE;       // 3 inputs

/// Evaluate a k-input truth table on packed input bits.
constexpr bool eval(u64 table, u32 input_bits) {
  return ((table >> input_bits) & 1ull) != 0;
}
}  // namespace tt

/// Thin builder over a Netlist. All methods create cells in the underlying
/// netlist and return the resulting net(s).
class LogicBuilder {
 public:
  explicit LogicBuilder(Netlist& nl) : nl_(nl) {}

  Netlist& netlist() { return nl_; }

  // --- single-bit gates --------------------------------------------------
  NetId lnot(NetId a);
  NetId land(NetId a, NetId b);
  NetId lor(NetId a, NetId b);
  NetId lxor(NetId a, NetId b);
  NetId lor3(NetId a, NetId b, NetId c);
  /// 2:1 mux: sel ? b : a.
  NetId mux2(NetId sel, NetId a, NetId b);

  // --- buses ---------------------------------------------------------------
  /// Constant bus of `width` bits holding `value` (shared const cells);
  /// bits at and above 64 are 0.
  Bus constant(u32 width, u64 value);
  /// Bit-wise ops (equal widths required).
  Bus and_bus(const Bus& a, const Bus& b);
  Bus or_bus(const Bus& a, const Bus& b);
  Bus xor_bus(const Bus& a, const Bus& b);
  Bus not_bus(const Bus& a);
  /// Per-bit 2:1 mux.
  Bus mux2_bus(NetId sel, const Bus& a, const Bus& b);
  /// Zero-extend or truncate to `width`.
  Bus resize(const Bus& a, u32 width);

  // --- arithmetic ----------------------------------------------------------
  /// Ripple-carry adder with CARRY4-style chain cells: one propagate LUT
  /// per bit plus one kCarry cell per 4 bits (mirrors XST adder mapping).
  /// Result width = max(|a|, |b|) + 1 (carry out as MSB).
  Bus add(const Bus& a, const Bus& b);
  /// a - b in two's complement; result width = max(|a|, |b|) + 1.
  Bus sub(const Bus& a, const Bus& b);
  /// Increment by one; result same width as input (wraps).
  Bus increment(const Bus& a);

  // --- comparisons / reductions ------------------------------------------
  /// a == value (LUT comparator tree).
  NetId eq_const(const Bus& a, u64 value);
  /// OR-reduce a bus to one bit.
  NetId reduce_or(const Bus& a);
  /// AND-reduce a bus to one bit.
  NetId reduce_and(const Bus& a);
  /// XOR-reduce a bus to one bit.
  NetId reduce_xor(const Bus& a);

  // --- sequential ----------------------------------------------------------
  /// Register every bit (optionally clock-enabled via mux feedback).
  Bus register_bus(const Bus& d, const std::string& name = {});
  /// Register with clock enable: q <= ce ? d : q.
  Bus register_bus_ce(const Bus& d, NetId ce, const std::string& name = {});
  /// Free-running counter of `width` bits; returns count bus.
  Bus counter(u32 width, const std::string& name = {});
  /// Counter with enable and synchronous clear.
  Bus counter_ce_clr(u32 width, NetId ce, NetId clr,
                     const std::string& name = {});
  /// N-stage, W-bit shift register (delay line); returns all stage buses.
  std::vector<Bus> delay_line(const Bus& in, u32 stages,
                              const std::string& name = {});

  // --- wide selection -------------------------------------------------------
  /// N:1 mux over equally sized buses using a LUT tree (select is binary).
  Bus mux_n(const std::vector<Bus>& inputs, const Bus& select);
  /// One-hot decoder: `width`-bit input -> 2^width outputs.
  Bus decode(const Bus& a);

 private:
  Netlist& nl_;
};

}  // namespace prcost
