// Partial bitstream size cost model - the paper's second contribution
// (Section III.C, Eqs. (18)-(23) and Tables III-IV).
//
// Given a PRR organization (H rows of W_CLB/W_DSP/W_BRAM columns) and the
// device family's frame geometry, the model predicts the exact byte size
// of the PRM's partial bitstream:
//
//   S_bitstream = {IW + H * (NCW_row + NDW_BRAM) + FW} * Bytes_word  (18)
//   NCW_row  = FAR_FDRI + (NCF_CLB + NCF_DSP + NCF_BRAM + 1) * FR_size (19)
//   NCF_CLB  = W_CLB  * CF_CLB                                        (20)
//   NCF_DSP  = W_DSP  * CF_DSP                                        (21)
//   NCF_BRAM = W_BRAM * CF_BRAM                                       (22)
//   NDW_BRAM = FAR_FDRI + (W_BRAM * DF_BRAM + 1) * FR_size            (23)
//
// The "+1" frame in (19)/(23) is the configuration-pipeline flush frame
// each FDRI burst carries. The model is validated byte-for-byte against
// the generator in src/bitstream.
#pragma once

#include "cost/prr_model.hpp"
#include "device/family_traits.hpp"

namespace prcost {

/// Full breakdown of a predicted partial bitstream (all counts in 32/16-bit
/// configuration words except `total_bytes`).
struct BitstreamEstimate {
  u64 initial_words = 0;        ///< IW
  u64 config_words_per_row = 0; ///< NCW_row  (Eq. 19)
  u64 bram_words_per_row = 0;   ///< NDW_BRAM (Eq. 23; 0 when W_BRAM == 0)
  u64 final_words = 0;          ///< FW
  u64 rows = 0;                 ///< H
  u64 total_words = 0;          ///< IW + H*(NCW_row + NDW_BRAM) + FW
  u64 total_bytes = 0;          ///< S_bitstream (Eq. 18)

  /// Configuration frames per PRR row (NCF_CLB + NCF_DSP + NCF_BRAM plus
  /// the flush frame) - the quantity reconfiguration-time models consume.
  u64 config_frames_per_row = 0;
};

/// Apply Eqs. (18)-(23) to `org` for family traits `t`.
BitstreamEstimate estimate_bitstream(const PrrOrganization& org,
                                     const FamilyTraits& t);

}  // namespace prcost
