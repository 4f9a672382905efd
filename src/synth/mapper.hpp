// Technology mapping: generic macro cells -> family primitives, plus
// LUT-FF slice pairing. Together with the passes this completes the
// XST-simulator substrate that produces the SynthesisReport the paper's
// cost models consume.
#pragma once

#include "device/family_traits.hpp"
#include "netlist/netlist.hpp"
#include "synth/report.hpp"

namespace prcost {

/// Per-family DSP capability used during mapping.
struct DspArch {
  u32 a_width;       ///< max A operand width
  u32 b_width;       ///< max B operand width
  bool has_preadder; ///< DSP48E1-style pre-adder (Virtex-6, 7-series)
};

/// DSP architecture for `family` (Virtex-4: 18x18; Virtex-5: 25x18;
/// Virtex-6 / 7-series: 25x18 with pre-adder).
DspArch dsp_arch(Family family);

/// Result of mapping: how many primitives each macro kind expanded to.
struct MapStats {
  u64 muls_mapped = 0;       ///< generic multipliers consumed
  u64 muls_fused = 0;        ///< multiplier pairs fused via pre-adder
  u64 dsps_emitted = 0;      ///< DSP48 primitives created
  u64 rams_mapped = 0;       ///< generic RAM macros consumed
  u64 bram36_emitted = 0;    ///< 36Kb primitives created
  u64 bram18_emitted = 0;    ///< 18Kb primitives created
  u64 full_pairs = 0;        ///< LUT-FF pairs with both halves used
};

/// The most DSP48 plus BRAM primitives one netlist's MUL/MULACC/RAM macros
/// may expand to: over 20x the DSP or BRAM sites of the largest catalog
/// device (768 DSP48E1s on the xc6vlx240t). Macro sizes come from netlist
/// text, so without it one crafted cell expands without bound.
inline constexpr u64 kMaxMacroPrimitives = u64{1} << 14;

/// Map `nl` in place for `family`:
///  1. fuse multiplier pairs sharing a coefficient bus when the family DSP
///     has a pre-adder (symmetric FIR taps: the reason the paper's FIR
///     needs 32 DSPs on Virtex-5 but 27 on Virtex-6),
///  2. expand kMul/kMulAcc to kDsp48 primitives (tiling wide operands),
///  3. expand kRam macros to kBram36/kBram18 primitives,
///  4. compute LUT-FF pairing.
/// Throws ParseError, naming the cell, before expanding anything when the
/// macros would expand past kMaxMacroPrimitives.
MapStats map_netlist(Netlist& nl, Family family);

/// Count how many DSP48 primitives one (a_width x b_width) multiplier
/// needs on `arch` (operand tiling).
u64 dsp_count_for_mul(u64 a_width, u64 b_width, const DspArch& arch);

/// How many BRAM primitives a depth x width RAM macro needs; result in
/// {bram36, bram18} counts.
struct BramCount {
  u64 bram36 = 0;
  u64 bram18 = 0;
};
BramCount bram_count_for_ram(u64 depth, u64 width);

/// Derive the synthesis report for a mapped netlist (counts live cells;
/// `full_pairs` from MapStats refines LUT_FF_req).
SynthesisReport report_for(const Netlist& nl, Family family,
                           const MapStats& stats);

}  // namespace prcost
