#include "synth/passes.hpp"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "netlist/logic.hpp"

namespace prcost {
namespace {

/// Is this cell a pure constant driver?
bool is_const(const Cell& cell) {
  return cell.kind == CellKind::kConst0 || cell.kind == CellKind::kConst1;
}

/// Cells that must never be dead-code-eliminated.
bool keep_alive(const Cell& cell) {
  switch (cell.kind) {
    case CellKind::kOutput:
    case CellKind::kInput:
    case CellKind::kRam:
    case CellKind::kBram36:
    case CellKind::kBram18:
    case CellKind::kDsp48:
    case CellKind::kMul:
    case CellKind::kMulAcc:
    case CellKind::kConst0:
    case CellKind::kConst1:
      return true;
    default:
      return false;
  }
}

/// Remove constant inputs from a LUT by specializing its truth table.
/// Returns true if the cell changed.
bool specialize_lut(Netlist& nl, CellId id) {
  Cell& cell = nl.cell_mut(id);
  // Find a constant input (if any).
  for (u32 pin = 0; pin < cell.inputs.size(); ++pin) {
    const NetId in = cell.inputs[pin];
    if (in == kNoNet) continue;
    const CellId driver = nl.net(in).driver;
    if (driver == kNoCell) continue;
    const Cell& driver_cell = nl.cell(driver);
    if (!is_const(driver_cell)) continue;
    const bool value = driver_cell.kind == CellKind::kConst1;

    // Build the specialized truth table over the remaining k-1 inputs.
    const u32 k = narrow<u32>(cell.inputs.size());
    u64 new_table = 0;
    for (u32 idx = 0; idx < (1u << (k - 1)); ++idx) {
      // Re-insert the fixed bit at position `pin`.
      const u32 low_mask = (1u << pin) - 1;
      const u32 full = (idx & low_mask) |
                       ((value ? 1u : 0u) << pin) |
                       ((idx & ~low_mask) << 1);
      if (tt::eval(cell.param0, full)) new_table |= 1ull << idx;
    }
    // Detach the constant pin.
    nl.rewire_input(id, pin, kNoNet);
    auto& inputs = nl.cell_mut(id).inputs;
    inputs.erase(inputs.begin() + pin);
    nl.cell_mut(id).param0 = new_table;
    return true;
  }
  return false;
}

}  // namespace

u64 propagate_constants(Netlist& nl) {
  u64 changed = 0;
  bool progress = true;
  while (progress) {
    progress = false;
    for (const CellId id : nl.live_cells()) {
      const Cell& cell = nl.cell(id);
      if (cell.kind != CellKind::kLut) continue;
      if (!cell.inputs.empty()) {
        if (specialize_lut(nl, id)) {
          ++changed;
          progress = true;
        }
      }
      // A LUT whose truth table no longer depends on its inputs (all-zeros
      // or all-ones over the remaining arity) is a constant; so is one
      // with no inputs left.
      const Cell& after = nl.cell(id);
      if (after.kind == CellKind::kLut) {
        const u32 k = narrow<u32>(after.inputs.size());
        const u64 mask = k >= 6 ? ~u64{0} : (u64{1} << (u64{1} << k)) - 1;
        const u64 table = after.param0 & mask;
        if (table == 0 || table == mask) {
          // const_net may add a cell, which invalidates `after`.
          const NetId out = after.outputs[0];
          nl.replace_net(out, nl.const_net(table != 0));
          nl.kill_cell(id);
          ++changed;
          progress = true;
          continue;
        }
      }
      // A 1-input LUT computing identity is a buffer: bypass it.
      if (after.kind == CellKind::kLut && after.inputs.size() == 1 &&
          after.param0 == tt::kBuf) {
        nl.replace_net(after.outputs[0], after.inputs[0]);
        nl.kill_cell(id);
        ++changed;
        progress = true;
      }
    }
  }
  return changed;
}

u64 eliminate_dead_cells(Netlist& nl) {
  u64 removed = 0;
  bool progress = true;
  while (progress) {
    progress = false;
    for (const CellId id : nl.live_cells()) {
      const Cell& cell = nl.cell(id);
      if (keep_alive(cell)) continue;
      const bool any_sink = std::any_of(
          cell.outputs.begin(), cell.outputs.end(),
          [&](NetId out) { return !nl.net(out).sinks.empty(); });
      if (!any_sink) {
        nl.kill_cell(id);
        ++removed;
        progress = true;
      }
    }
  }
  return removed;
}

u64 merge_duplicate_luts(Netlist& nl) {
  u64 merged = 0;
  bool progress = true;
  while (progress) {
    progress = false;
    // Key: truth table + exact input net ids.
    std::unordered_map<std::string, CellId> seen;
    for (const CellId id : nl.live_cells()) {
      const Cell& cell = nl.cell(id);
      if (cell.kind != CellKind::kLut) continue;
      std::string key = std::to_string(cell.param0);
      for (const NetId in : cell.inputs) {
        key += ',';
        key += std::to_string(index(in));
      }
      const auto [it, inserted] = seen.emplace(std::move(key), id);
      if (!inserted) {
        nl.replace_net(cell.outputs[0], nl.cell(it->second).outputs[0]);
        nl.kill_cell(id);
        ++merged;
        progress = true;
      }
    }
  }
  return merged;
}

u64 absorb_ce_muxes(Netlist& nl) {
  u64 absorbed = 0;
  for (const CellId id : nl.live_cells()) {
    const Cell& cell = nl.cell(id);
    if (cell.kind != CellKind::kLut || cell.param0 != tt::kMux2 ||
        cell.inputs.size() != 3) {
      continue;
    }
    const NetId out = cell.outputs[0];
    const auto& sinks = nl.net(out).sinks;
    if (sinks.size() != 1) continue;
    const CellId ff_id = sinks[0];
    const Cell& ff = nl.cell(ff_id);
    if (ff.kind != CellKind::kFf) continue;
    // Feedback pattern: mux '0' leg (pin 1) is the FF's own Q.
    if (cell.inputs[1] != ff.outputs[0]) continue;
    const NetId data = cell.inputs[2];
    const NetId enable = cell.inputs[0];
    nl.rewire_input(ff_id, 0, data);
    // The FF keeps the enable as a real CE pin (input 1) so behaviour is
    // unchanged: q <= ce ? d : q, now without the mux LUT.
    nl.add_input_pin(ff_id, enable);
    nl.cell_mut(ff_id).param1 = 1;  // marks: CE-connected FF
    nl.kill_cell(id);
    ++absorbed;
  }
  return absorbed;
}

u64 fold_inverters(Netlist& nl) {
  u64 folded = 0;
  for (const CellId id : nl.live_cells()) {
    const Cell& inv = nl.cell(id);
    if (inv.kind != CellKind::kLut || inv.inputs.size() != 1 ||
        inv.param0 != tt::kNot) {
      continue;
    }
    const NetId out = inv.outputs[0];
    const auto sinks = nl.net(out).sinks;  // copy: we mutate below
    if (sinks.size() != 1) continue;
    const CellId sink_id = sinks[0];
    Cell& sink = nl.cell_mut(sink_id);
    if (sink.kind != CellKind::kLut || sink.inputs.size() >= 6) continue;
    // Rewrite sink truth table with that input inverted.
    u32 pin = 0;
    while (pin < sink.inputs.size() && sink.inputs[pin] != out) ++pin;
    if (pin == sink.inputs.size()) continue;
    const u32 k = narrow<u32>(sink.inputs.size());
    u64 new_table = 0;
    for (u32 idx = 0; idx < (1u << k); ++idx) {
      if (tt::eval(sink.param0, idx ^ (1u << pin))) new_table |= 1ull << idx;
    }
    sink.param0 = new_table;
    nl.rewire_input(sink_id, pin, inv.inputs[0]);
    nl.kill_cell(id);
    ++folded;
  }
  return folded;
}

u64 run_synthesis_passes(Netlist& nl) {
  u64 total = 0;
  u64 round = 1;
  while (round != 0) {
    round = propagate_constants(nl);
    round += absorb_ce_muxes(nl);
    round += eliminate_dead_cells(nl);
    total += round;
  }
  nl.validate();
  return total;
}

u64 run_implementation_passes(Netlist& nl) {
  u64 total = run_synthesis_passes(nl);
  u64 round = 1;
  while (round != 0) {
    round = merge_duplicate_luts(nl);
    round += fold_inverters(nl);
    round += propagate_constants(nl);
    round += eliminate_dead_cells(nl);
    total += round;
  }
  nl.validate();
  return total;
}

}  // namespace prcost
