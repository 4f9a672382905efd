#include "cost/bitstream_model.hpp"

#include "util/error.hpp"

namespace prcost {

BitstreamEstimate estimate_bitstream(const PrrOrganization& org,
                                     const FamilyTraits& t) {
  if (org.h == 0) throw ContractError{"estimate_bitstream: H == 0"};
  if (org.width() == 0) {
    throw ContractError{"estimate_bitstream: empty organization"};
  }
  BitstreamEstimate e;
  e.rows = org.h;
  e.initial_words = t.iw;
  e.final_words = t.fw;

  const u64 ncf_clb = checked_mul(org.columns.clb_cols, t.cf_clb);    // (20)
  const u64 ncf_dsp = checked_mul(org.columns.dsp_cols, t.cf_dsp);    // (21)
  const u64 ncf_bram = checked_mul(org.columns.bram_cols, t.cf_bram); // (22)
  e.config_frames_per_row = ncf_clb + ncf_dsp + ncf_bram + 1;
  e.config_words_per_row =
      t.far_fdri + checked_mul(e.config_frames_per_row, t.frame_size); // (19)

  if (org.columns.bram_cols > 0) {
    e.bram_words_per_row =
        t.far_fdri +
        checked_mul(checked_mul(org.columns.bram_cols, t.df_bram) + 1,
                    t.frame_size);                                     // (23)
  }

  e.total_words =
      checked_add(e.initial_words,
                  checked_add(checked_mul(e.rows, e.config_words_per_row +
                                                      e.bram_words_per_row),
                              e.final_words));
  e.total_bytes = checked_mul(e.total_words, t.bytes_word);            // (18)
  return e;
}

}  // namespace prcost
