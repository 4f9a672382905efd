#include "tests/support/bitstreams.hpp"

#include <span>

#include "util/error.hpp"

namespace prcost {

std::vector<u32> generate_shaped_bitstream(const ShapedPrr& shape,
                                           Family family,
                                           const GeneratorOptions& options) {
  if (shape.bands.empty()) {
    throw ContractError{"generate_shaped_bitstream: no bands"};
  }
  const FamilyTraits& t = traits(family);
  std::vector<StreamBand> bands;
  for (const PrrBand& band : shape.bands) {
    // Per row: the band's CLB/DSP/BRAM configuration frames plus a flush
    // frame, then DF_BRAM frames per BRAM column plus a flush frame.
    const ColumnDemand& columns = band.organization.columns;
    bands.push_back(StreamBand{
        band.first_row, band.organization.h, band.window.first_col,
        u64{columns.clb_cols} * t.cf_clb + u64{columns.dsp_cols} * t.cf_dsp +
            u64{columns.bram_cols} * t.cf_bram + 1,
        columns.bram_cols > 0 ? u64{columns.bram_cols} * t.df_bram + 1 : 0});
  }
  std::vector<u32> out;
  generate_stream_into(out, bands, family, options);
  if (out.size() != estimate_shaped_bitstream(shape, t).total_words) {
    throw ContractError{"generate_shaped_bitstream: size model mismatch"};
  }
  return out;
}

std::vector<u32> generate_full_bitstream(const Fabric& fabric,
                                         const GeneratorOptions& options) {
  const FamilyTraits& t = fabric.traits();
  // Every column of a row participates, then one flush frame.
  u64 frames = 1;
  for (const ColumnType type : fabric.columns()) {
    frames += config_frames(type, t);
  }
  const u64 bram_cols = fabric.column_count(ColumnType::kBram);
  const StreamBand band{0, fabric.rows(), 0, frames,
                        bram_cols > 0 ? bram_cols * t.df_bram + 1 : 0};
  std::vector<u32> out;
  generate_stream_into(out, std::span{&band, 1}, fabric.family(), options);
  return out;
}

}  // namespace prcost
