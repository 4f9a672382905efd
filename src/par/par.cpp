#include "par/par.hpp"

#include "obs/obs.hpp"
#include "synth/mapper.hpp"
#include "synth/passes.hpp"
#include "util/log.hpp"

namespace prcost {

ParResult place_and_route(Netlist mapped, const PrrPlan& plan,
                          const Fabric& fabric, const ParOptions& options) {
  PRCOST_TRACE_SPAN("par");
  PRCOST_COUNT("par.runs");
  ParResult result;

  // MAP-level optimization: cross-boundary dedup and polarity folding that
  // XST's hierarchical synthesis leaves behind - the source of the paper's
  // Table VI LUT/CLB savings.
  {
    PRCOST_TRACE_SPAN("par_opt_passes");
    result.cells_optimized = run_implementation_passes(mapped);
  }
  PRCOST_COUNT_N("par.cells_optimized", result.cells_optimized);

  {
    PRCOST_TRACE_SPAN("par_pack");
    result.packing = pack_slices(mapped, options.pack);
  }

  result.placement =
      place_into_prr(mapped, plan, fabric, result.packing, options.place);
  if (!result.placement.feasible) {
    result.failure_reason = result.placement.failure_reason;
    return result;
  }

  // Post-PAR report: packed pair count replaces the synthesis-time pairing.
  const NetlistStats& stats = result.packing.stats;
  result.post_par.module_name = mapped.name();
  result.post_par.family = fabric.family();
  result.post_par.slice_luts = stats.luts;
  result.post_par.slice_ffs = stats.ffs;
  result.post_par.lut_ff_pairs = result.packing.lut_ff_pairs;
  result.post_par.dsps = stats.dsp48s;
  result.post_par.brams = stats.bram36s + ceil_div(stats.bram18s, 2);
  result.post_par.bonded_iobs = stats.inputs + stats.outputs;

  result.routed = true;
  log_debug("par ", mapped.name(), ": pairs ", result.post_par.lut_ff_pairs,
            " (", result.packing.cross_packed, " cross-packed), hpwl ",
            result.placement.hpwl_initial, " -> ",
            result.placement.hpwl_final, ", tcrit ",
            result.placement.critical_path_ns, " ns");
  return result;
}

}  // namespace prcost
