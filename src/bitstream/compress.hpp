// Bitstream compression analysis.
//
// Duhem et al.'s FaRM controller [2] exploits bitstream compressibility to
// cut the fetch phase of reconfiguration. Rather than assuming a ratio,
// this module measures it on concrete bitstreams two ways:
//
//  * word-level run-length coding (what FaRM's hardware decompressor
//    implements);
//  * frame-redundancy analysis for MFWR-style compression: the Xilinx
//    configuration logic has a Multiple Frame Write command (MFWR) that
//    writes one FDRI frame to many addresses, so a bitstream whose frames
//    repeat (sparse logic, blanking frames) shrinks to its unique frames
//    plus one short MFWR packet per duplicate.
#pragma once

#include <span>
#include <vector>

#include "device/family_traits.hpp"
#include "util/ints.hpp"

namespace prcost {

/// RLE output: (count, word) pairs. Ratio < 1 means the stream shrank.
struct CompressionStats {
  u64 original_words = 0;
  u64 compressed_words = 0;
  double ratio() const {
    return original_words == 0
               ? 1.0
               : static_cast<double>(compressed_words) /
                     static_cast<double>(original_words);
  }
};

/// Size of the word-level run-length code of `words` - one (run length,
/// word) pair per run - without building it.
CompressionStats measure_rle(std::span<const u32> words);

/// Frame-level redundancy of a full bitstream word stream.
struct FrameRedundancy {
  u64 total_frames = 0;
  u64 unique_frames = 0;
  u64 zero_frames = 0;
  /// Achievable size fraction under MFWR compression: unique frames at
  /// full size + ~3 command words per duplicated frame write.
  double mfwr_ratio(u32 frame_size) const;
};

/// Analyze every FDRI burst of a complete partial bitstream.
FrameRedundancy analyze_bitstream_frames(std::span<const u32> bitstream,
                                         Family family);

}  // namespace prcost
