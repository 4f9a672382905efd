#include "par/packer.hpp"

#include <cmath>

#include "util/error.hpp"

namespace prcost {

PackResult pack_slices(const Netlist& nl, const PackOptions& options) {
  if (options.cross_pack_efficiency < 0.0 ||
      options.cross_pack_efficiency > 1.0) {
    throw ContractError{"pack_slices: efficiency out of [0,1]"};
  }
  PackResult result;
  result.stats = nl.stats();

  // Direct pairs: FF driven by a single-sink LUT.
  for (const CellId id : nl.live_cells()) {
    const Cell& ff = nl.cell(id);
    if (ff.kind != CellKind::kFf) continue;
    const NetId d = ff.inputs[0];
    if (d == kNoNet) continue;
    const CellId driver = nl.net(d).driver;
    if (driver == kNoCell) continue;
    if (nl.cell(driver).kind == CellKind::kLut &&
        nl.net(d).sinks.size() == 1) {
      ++result.direct_pairs;
    }
  }

  const u64 luts = result.stats.luts;
  const u64 ffs = result.stats.ffs;
  const u64 lone_luts = luts - result.direct_pairs;
  const u64 lone_ffs = ffs - result.direct_pairs;
  const u64 packable = lone_luts < lone_ffs ? lone_luts : lone_ffs;
  result.cross_packed = static_cast<u64>(
      std::floor(static_cast<double>(packable) *
                 options.cross_pack_efficiency));
  result.lut_ff_pairs = luts + ffs - result.direct_pairs - result.cross_packed;
  return result;
}

}  // namespace prcost
