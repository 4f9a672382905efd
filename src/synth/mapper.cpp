#include "synth/mapper.hpp"

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace prcost {

DspArch dsp_arch(Family family) {
  switch (family) {
    case Family::kVirtex4: return DspArch{18, 18, false};
    case Family::kVirtex5: return DspArch{25, 18, false};
    case Family::kVirtex6: return DspArch{25, 18, true};
    case Family::kSeries7: return DspArch{25, 18, true};
    case Family::kSpartan6: return DspArch{18, 18, true};  // DSP48A1 pre-adder
  }
  throw ContractError{"dsp_arch: unknown family"};
}

u64 dsp_count_for_mul(u64 a_width, u64 b_width, const DspArch& arch) {
  if (a_width == 0 || b_width == 0) {
    throw ContractError{"dsp_count_for_mul: zero operand width"};
  }
  // Orient the wider operand onto the wider DSP port, then tile.
  const u64 wide = std::max(a_width, b_width);
  const u64 narrow_w = std::min(a_width, b_width);
  const u64 port_wide = std::max(arch.a_width, arch.b_width);
  const u64 port_narrow = std::min(arch.a_width, arch.b_width);
  return ceil_div(wide, port_wide) * ceil_div(narrow_w, port_narrow);
}

BramCount bram_count_for_ram(u64 depth, u64 width) {
  if (depth == 0 || width == 0) {
    throw ContractError{"bram_count_for_ram: zero-sized RAM"};
  }
  const u64 bits = checked_mul(depth, width);
  // <= 16Kb fits one 18Kb primitive (leaving margin for parity/waste).
  if (bits <= 16 * 1024 && width <= 36) return BramCount{0, 1};
  // Otherwise tile 36Kb primitives: depth slices of 1024 x up-to-36 bits
  // (the widest natural aspect); wide shallow RAMs tile by width instead.
  const u64 by_depth = ceil_div(depth, 1024);
  const u64 by_width = ceil_div(width, 36);
  return BramCount{by_depth * by_width, 0};
}

namespace {

/// Fuse kMul pairs that share the same B-operand nets when the DSP has a
/// pre-adder: (x1 * c) + (x2 * c) == (x1 + x2) * c in one DSP48E1.
u64 fuse_preadder_pairs(Netlist& nl) {
  // Group generic multipliers by their B-input net list (param1 = b width;
  // the last param1 inputs are the B bus).
  std::map<std::vector<u32>, std::vector<CellId>> by_b_bus;
  for (const CellId id : nl.live_cells()) {
    const Cell& cell = nl.cell(id);
    if (cell.kind != CellKind::kMul) continue;
    const auto b_width = static_cast<std::size_t>(cell.param1);
    if (cell.inputs.size() < b_width) continue;
    std::vector<u32> key;
    key.reserve(b_width);
    for (std::size_t i = cell.inputs.size() - b_width; i < cell.inputs.size();
         ++i) {
      key.push_back(index(cell.inputs[i]));
    }
    by_b_bus[std::move(key)].push_back(id);
  }

  u64 fused = 0;
  for (auto& [key, group] : by_b_bus) {
    // Fuse consecutive pairs within each coefficient-sharing group.
    for (std::size_t i = 0; i + 1 < group.size(); i += 2) {
      const CellId keep = group[i];
      const CellId absorbed = group[i + 1];
      const Cell& k = nl.cell(keep);
      const Cell& a = nl.cell(absorbed);
      if (k.param0 != a.param0 || k.param1 != a.param1) continue;
      // The kept cell now computes the pre-added product; the absorbed
      // cell's product nets alias the kept cell's.
      const auto outs = a.outputs;
      const auto kept_outs = k.outputs;
      for (std::size_t bit = 0; bit < outs.size() && bit < kept_outs.size();
           ++bit) {
        nl.replace_net(outs[bit], kept_outs[bit]);
      }
      nl.kill_cell(absorbed);
      nl.cell_mut(keep).param0 |= 1ull << 63;  // mark: pre-adder in use
      ++fused;
    }
  }
  return fused;
}

/// Primitives `cell` expands to (0 for a non-macro), or more than
/// kMaxMacroPrimitives when over the ceiling. One primitive covers at most
/// 25 x 18 multiplier bits or 1024 x 36 RAM bits, so an operand above
/// kOperandCap alone puts a macro over the ceiling, and below it the
/// counting functions cannot overflow.
u64 macro_primitives(const Cell& cell, const DspArch& arch) {
  constexpr u64 kOperandCap = kMaxMacroPrimitives * 1024;
  switch (cell.kind) {
    case CellKind::kMul:
    case CellKind::kMulAcc: {
      const u64 a_width = cell.param0 & ~(1ull << 63);
      if (a_width > kOperandCap || cell.param1 > kOperandCap) {
        return kOperandCap;
      }
      return dsp_count_for_mul(a_width, cell.param1, arch);
    }
    case CellKind::kRam: {
      if (cell.param0 > kOperandCap || cell.param1 > kOperandCap) {
        return kOperandCap;
      }
      const BramCount count = bram_count_for_ram(cell.param0, cell.param1);
      return count.bram36 + count.bram18;
    }
    default: return 0;
  }
}

}  // namespace

MapStats map_netlist(Netlist& nl, Family family) {
  MapStats stats;
  const DspArch arch = dsp_arch(family);

  if (arch.has_preadder) {
    stats.muls_fused = fuse_preadder_pairs(nl);
  }

  u64 primitives = 0;
  for (const CellId id : nl.live_cells()) {
    const Cell& cell = nl.cell(id);
    primitives += macro_primitives(cell, arch);
    if (primitives > kMaxMacroPrimitives) {
      throw ParseError{"netlist: macros expand past " +
                       std::to_string(kMaxMacroPrimitives) +
                       " DSP48/BRAM primitives at cell '" + cell.name + "'"};
    }
  }

  // Expand multipliers to DSP48 primitives. The first primitive reuses the
  // macro cell (kind change in place keeps connectivity); extra tiles are
  // added as sibling cells sharing the inputs.
  for (const CellId id : nl.live_cells()) {
    Cell& cell = nl.cell_mut(id);
    if (cell.kind != CellKind::kMul && cell.kind != CellKind::kMulAcc) {
      continue;
    }
    const bool preadded = (cell.param0 & (1ull << 63)) != 0;
    const u64 a_width = cell.param0 & ~(1ull << 63);
    const u64 b_width = cell.param1;
    const u64 count = dsp_count_for_mul(a_width, b_width, arch);
    const std::vector<NetId> shared_inputs = cell.inputs;
    // Copy the name before add_cell: growing the cell vector invalidates
    // `cell` (and any other reference into it).
    const std::string base_name = cell.name;
    cell.kind = CellKind::kDsp48;
    cell.param0 = preadded ? 2 : 1;  // fused op count
    ++stats.muls_mapped;
    stats.dsps_emitted += count;
    for (u64 extra = 1; extra < count; ++extra) {
      nl.add_cell(CellKind::kDsp48, base_name + "_t" + std::to_string(extra),
                  shared_inputs, 1, 1);
    }
  }

  // Expand RAM macros to BRAM primitives.
  for (const CellId id : nl.live_cells()) {
    Cell& cell = nl.cell_mut(id);
    if (cell.kind != CellKind::kRam) continue;
    const u64 depth = cell.param0;
    const u64 width = cell.param1;
    const BramCount count = bram_count_for_ram(depth, width);
    const std::vector<NetId> shared_inputs = cell.inputs;
    ++stats.rams_mapped;
    stats.bram36_emitted += count.bram36;
    stats.bram18_emitted += count.bram18;
    if (count.bram18 > 0) {
      cell.kind = CellKind::kBram18;
    } else {
      cell.kind = CellKind::kBram36;
    }
    const u64 extras = (count.bram36 > 0 ? count.bram36 : count.bram18) - 1;
    const CellKind mapped_kind = cell.kind;
    const std::string base_name = cell.name;  // add_cell invalidates `cell`
    for (u64 extra = 0; extra < extras; ++extra) {
      nl.add_cell(mapped_kind, base_name + "_t" + std::to_string(extra),
                  shared_inputs, 1, depth, width);
    }
  }

  // LUT-FF pairing: a pair is "full" when an FF's D input is driven by a
  // LUT whose only sink is that FF (XST's packing heuristic).
  for (const CellId id : nl.live_cells()) {
    const Cell& ff = nl.cell(id);
    if (ff.kind != CellKind::kFf) continue;
    const NetId d = ff.inputs[0];
    if (d == kNoNet) continue;
    const CellId driver = nl.net(d).driver;
    if (driver == kNoCell) continue;
    const Cell& drv = nl.cell(driver);
    if (drv.kind == CellKind::kLut && nl.net(d).sinks.size() == 1) {
      ++stats.full_pairs;
    }
  }

  nl.validate();
  return stats;
}

SynthesisReport report_for(const Netlist& nl, Family family,
                           const MapStats& stats) {
  const NetlistStats counts = nl.stats();
  SynthesisReport report;
  report.module_name = nl.name();
  report.family = family;
  report.slice_luts = counts.luts;
  report.slice_ffs = counts.ffs;
  report.lut_ff_pairs = counts.luts + counts.ffs - stats.full_pairs;
  report.dsps = counts.dsp48s;
  // BRAM_req is reported in 36Kb-equivalents: two 18Kb halves share one
  // 36Kb block.
  report.brams = counts.bram36s + ceil_div(counts.bram18s, 2);
  report.bonded_iobs = counts.inputs + counts.outputs;
  if (!report.consistent()) {
    throw ContractError{"report_for: inconsistent LUT/FF pairing"};
  }
  return report;
}

}  // namespace prcost
