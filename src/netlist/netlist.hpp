// Structural netlist IR.
//
// This is the "design entry" substrate of the reproduction: the paper's
// cost models take as input the resource requirements that Xilinx XST
// reports after synthesizing a PR module (PRM). We cannot run XST, so PRMs
// are expressed as technology-level structural netlists (LUTs, FFs, generic
// multipliers/RAMs) built by the generators in `generators.hpp`, and
// `src/synth` plays the role of XST: optimize, map generic cells to
// DSP/BRAM primitives, pack LUT-FF pairs, and emit the synthesis report.
//
// The IR is bit-level for logic (one net per signal bit) and word-level for
// arithmetic/memory macro cells (a bus is a contiguous vector of nets).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/ints.hpp"

namespace prcost {

/// Index of a net within its netlist.
enum class NetId : u32 {};
/// Index of a cell within its netlist.
enum class CellId : u32 {};

constexpr u32 index(NetId id) { return static_cast<u32>(id); }
constexpr u32 index(CellId id) { return static_cast<u32>(id); }

/// Sentinel "not connected".
inline constexpr NetId kNoNet{0xFFFFFFFFu};
inline constexpr CellId kNoCell{0xFFFFFFFFu};

/// Kinds of cells in the IR. kLut/kFf/kCarry are technology-level; kMul,
/// kMulAcc and kRam are generic macro cells the synthesizer maps onto
/// DSP48/BRAM primitives; kDsp48/kBram36/kBram18 are post-mapping
/// primitives.
enum class CellKind : std::uint8_t {
  kConst0,   ///< constant 0 driver (no inputs, 1 output)
  kConst1,   ///< constant 1 driver (no inputs, 1 output)
  kInput,    ///< top-level input port (no inputs, 1 output)
  kOutput,   ///< top-level output port (1 input, no outputs)
  kLut,      ///< k-input LUT, 1 <= k <= 6; truth table in param0
  kFf,       ///< D flip-flop: inputs = {D}, output = {Q}; init in param0
  kCarry,    ///< 4-bit carry chain element: inputs = {cin, s0..s3, d0..d3}
  kMul,      ///< generic multiplier: param0 = a width, param1 = b width
  kMulAcc,   ///< generic multiply-accumulate; widths as kMul
  kRam,      ///< generic RAM macro: param0 = depth, param1 = data width
  kDsp48,    ///< mapped DSP slice; param0 = fused op count (1 or 2)
  kBram36,   ///< mapped 36Kb block RAM
  kBram18,   ///< mapped 18Kb block RAM
};

/// Human-readable cell kind name.
std::string_view cell_kind_name(CellKind kind);

/// One cell instance.
struct Cell {
  CellKind kind{CellKind::kConst0};
  std::string name;            ///< instance name (unique within netlist)
  std::vector<NetId> inputs;   ///< input pins in positional order
  std::vector<NetId> outputs;  ///< output pins in positional order
  u64 param0 = 0;              ///< kind-specific (LUT truth table, widths...)
  u64 param1 = 0;
  bool dead = false;           ///< tombstone set by optimization passes
};

/// One net: a single driver pin and any number of sink pins.
struct Net {
  std::string name;
  CellId driver = kNoCell;
  std::vector<CellId> sinks;  ///< cells reading this net (with multiplicity)
};

/// A multi-bit signal: bit 0 first (little-endian).
using Bus = std::vector<NetId>;

/// Aggregate counts of live cells by category.
struct NetlistStats {
  u64 luts = 0;
  u64 ffs = 0;
  u64 carries = 0;
  u64 muls = 0;      ///< generic kMul + kMulAcc
  u64 rams = 0;      ///< generic kRam
  u64 dsp48s = 0;    ///< mapped DSP primitives
  u64 bram36s = 0;   ///< mapped 36Kb BRAMs
  u64 bram18s = 0;   ///< mapped 18Kb BRAMs
  u64 inputs = 0;
  u64 outputs = 0;
  u64 constants = 0;

  u64 total_cells() const {
    return luts + ffs + carries + muls + rams + dsp48s + bram36s + bram18s +
           inputs + outputs + constants;
  }
};

/// The netlist: an append-only cell/net store with tombstoned deletion.
///
/// Invariants (checked by validate()):
///  - every non-dead cell's connected input is driven by a live net
///  - every net's driver/sink lists are consistent with cell pin lists
class Netlist {
 public:
  explicit Netlist(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  // --- construction ------------------------------------------------------

  /// Pre-size the cell and net stores (e.g. from a netlist file's line
  /// count); ids and contents are unaffected.
  void reserve(std::size_t cells, std::size_t nets);

  /// Create a fresh net; `name` may be empty (auto-named).
  NetId add_net(std::string name = {});

  /// Create a cell; inputs must be existing nets; outputs are created.
  CellId add_cell(CellKind kind, std::string name, std::span<const NetId> ins,
                  u32 output_count, u64 param0 = 0, u64 param1 = 0);

  // Convenience builders -------------------------------------------------

  /// Top-level input port; returns its net.
  NetId input(std::string name);
  /// Bus of input ports ("name[i]").
  Bus input_bus(const std::string& name, u32 width);
  /// Top-level output port reading `net`.
  CellId output(std::string name, NetId net);
  /// Output ports for each bit of `bus`.
  void output_bus(const std::string& name, const Bus& bus);
  /// Constant driver net (one shared cell per constant).
  NetId const_net(bool value);
  /// K-input LUT with the given truth table; returns output net.
  NetId lut(u64 truth_table, std::span<const NetId> ins,
            std::string name = {});
  /// D flip-flop; returns Q net.
  NetId ff(NetId d, std::string name = {}, bool init = false);
  /// Generic multiplier over two buses; returns product bus
  /// (a.size() + b.size() bits wide).
  Bus mul(const Bus& a, const Bus& b, std::string name = {});
  /// Generic multiply-accumulate: product of a,b plus accumulator feedback;
  /// returns accumulator output bus of `acc_width` bits.
  Bus mul_acc(const Bus& a, const Bus& b, u32 acc_width,
              std::string name = {});
  /// Generic RAM macro: returns read-data bus of `width` bits.
  Bus ram(u32 depth, u32 width, const Bus& addr, const Bus& write_data,
          NetId write_enable, std::string name = {});

  // --- access -------------------------------------------------------------

  u32 net_count() const { return narrow<u32>(nets_.size()); }
  u32 cell_count() const { return narrow<u32>(cells_.size()); }
  const Net& net(NetId id) const { return nets_.at(index(id)); }
  const Cell& cell(CellId id) const { return cells_.at(index(id)); }
  Cell& cell_mut(CellId id) { return cells_.at(index(id)); }

  /// Live (non-dead) cell ids.
  std::vector<CellId> live_cells() const;

  /// Count live cells by category.
  NetlistStats stats() const;

  // --- mutation used by optimization passes --------------------------------

  /// Tombstone a cell and detach it from its nets.
  void kill_cell(CellId id);

  /// Reconnect every sink of `from` to read `to` instead.
  void replace_net(NetId from, NetId to);

  /// Point one input pin of `cell` at a different net (keeps sink lists
  /// consistent). `pin` must be a valid input index.
  void rewire_input(CellId cell, u32 pin, NetId to);

  /// Append an input pin to `cell` reading `net` (e.g. the CE pin the
  /// clock-enable absorption pass attaches to an FF).
  void add_input_pin(CellId cell, NetId net);

  /// Check structural invariants; throws ContractError on violation.
  void validate() const;

 private:
  std::string name_;
  std::vector<Net> nets_;
  std::vector<Cell> cells_;
  NetId const0_ = kNoNet;
  NetId const1_ = kNoNet;
  u64 auto_name_counter_ = 0;

  std::string next_auto_name(std::string_view prefix);
};

}  // namespace prcost
