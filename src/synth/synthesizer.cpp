#include "synth/synthesizer.hpp"

#include "obs/obs.hpp"
#include "synth/passes.hpp"
#include "util/log.hpp"

namespace prcost {

SynthesisResult synthesize(Netlist design, const SynthOptions& options) {
  PRCOST_TRACE_SPAN("synthesis");
  PRCOST_COUNT("synth.runs");
  u64 optimized = run_synthesis_passes(design);
  const MapStats map_stats = map_netlist(design, options.family);
  // Mapping can expose more dead logic (e.g. fused multiplier operands).
  optimized += run_synthesis_passes(design);
  const SynthesisReport report = report_for(design, options.family, [&] {
    // Re-derive pairing after the post-map cleanup.
    MapStats refreshed = map_stats;
    refreshed.full_pairs = 0;
    for (const CellId id : design.live_cells()) {
      const Cell& ff = design.cell(id);
      if (ff.kind != CellKind::kFf) continue;
      const NetId d = ff.inputs[0];
      if (d == kNoNet) continue;
      const CellId driver = design.net(d).driver;
      if (driver == kNoCell) continue;
      if (design.cell(driver).kind == CellKind::kLut &&
          design.net(d).sinks.size() == 1) {
        ++refreshed.full_pairs;
      }
    }
    return refreshed;
  }());
  log_debug("synthesize ", design.name(), ": ", report.slice_luts, " LUTs, ",
            report.slice_ffs, " FFs, ", report.lut_ff_pairs, " pairs, ",
            report.dsps, " DSPs, ", report.brams, " BRAMs (", optimized,
            " cells optimized)");
  return SynthesisResult{std::move(design), report, map_stats, optimized};
}

}  // namespace prcost
