#include "bitstream/compress.hpp"

#include <string>
#include <unordered_set>

#include "bitstream/parser.hpp"

namespace prcost {

CompressionStats measure_rle(std::span<const u32> words) {
  // Each run of equal words (at most 2^32 - 1 long) codes as one
  // (count, word) pair.
  u64 runs = 0;
  std::size_t i = 0;
  while (i < words.size()) {
    const u32 word = words[i];
    std::size_t run = 1;
    while (i + run < words.size() && words[i + run] == word &&
           run < 0xFFFFFFFFu) {
      ++run;
    }
    ++runs;
    i += run;
  }
  CompressionStats stats;
  stats.original_words = words.size();
  stats.compressed_words = 2 * runs;
  return stats;
}

double FrameRedundancy::mfwr_ratio(u32 frame_size) const {
  if (total_frames == 0) return 1.0;
  const double full = static_cast<double>(total_frames) * frame_size;
  const double compressed =
      static_cast<double>(unique_frames) * frame_size +
      3.0 * static_cast<double>(total_frames - unique_frames);
  return compressed / full;
}

FrameRedundancy analyze_bitstream_frames(std::span<const u32> bitstream,
                                         Family family) {
  const BitstreamLayout layout = parse_bitstream(bitstream, family);
  const u32 frame_size = traits(family).frame_size;
  FrameRedundancy total;
  std::unordered_set<std::string> seen;
  for (const FdriBurst& burst : layout.bursts) {
    const auto payload =
        bitstream.subspan(burst.offset_words, burst.words);
    for (std::size_t f = 0; f < burst.frames; ++f) {
      const auto frame = payload.subspan(f * frame_size, frame_size);
      ++total.total_frames;
      bool zero = true;
      std::string key;
      key.reserve(frame_size * 4);
      for (const u32 word : frame) {
        if (word != 0) zero = false;
        key.append(reinterpret_cast<const char*>(&word), 4);
      }
      if (zero) ++total.zero_frames;
      if (seen.insert(std::move(key)).second) ++total.unique_frames;
    }
  }
  return total;
}

}  // namespace prcost
