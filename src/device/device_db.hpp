// Database of synthetic-but-faithful device descriptions.
//
// The paper evaluates on a Virtex-5 LX110T (8 fabric rows) and a Virtex-6
// LX75T (3 fabric rows). Exact commercial column layouts are proprietary to
// the vendor's tools, so each entry here is a synthetic layout constructed
// to match the public resource totals and row counts of the named part
// (documented per-device below and checked by tests). This is the
// "simulate the hardware you do not have" substitution described in
// DESIGN.md; the cost models consume only row/column geometry, so any
// layout with the right densities exercises the same code paths.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "device/fabric.hpp"

namespace prcost {

/// One catalog entry: a named part and its fabric.
struct Device {
  std::string name;   ///< canonical lower-case part name, e.g. "xc5vlx110t"
  Fabric fabric;      ///< full-device fabric model
};

/// Immutable catalog of known parts.
class DeviceDb {
 public:
  /// The process-wide catalog (built once, thread-safe).
  static const DeviceDb& instance();

  /// Look up by part name (case-insensitive); throws ContractError if the
  /// part is unknown.
  const Device& get(std::string_view name) const;

  /// All devices, in catalog order.
  const std::vector<Device>& all() const { return devices_; }

 private:
  DeviceDb();
  std::vector<Device> devices_;
};

/// Build a regular synthetic column pattern: `clb_cols` CLB columns with
/// `dsp_cols` DSP and `bram_cols` BRAM columns spread evenly among them,
/// `iob_cols` IOB columns at the edges/quarters and one CLK column in the
/// middle when `clk_cols` > 0. Used for catalog parts that do not need a
/// hand-crafted layout.
std::string make_regular_pattern(u32 clb_cols, u32 dsp_cols, u32 bram_cols,
                                 u32 iob_cols, u32 clk_cols);

}  // namespace prcost
