#include "htr/relocation.hpp"

#include "cost/bitstream_model.hpp"
#include "util/error.hpp"

namespace prcost {

bool windows_compatible(const Fabric& fabric, const ColumnWindow& a,
                        const ColumnWindow& b) {
  if (a.width != b.width) return false;
  if (a.first_col + a.width > fabric.num_columns() ||
      b.first_col + b.width > fabric.num_columns()) {
    return false;
  }
  for (u32 i = 0; i < a.width; ++i) {
    if (fabric.column(a.first_col + i) != fabric.column(b.first_col + i)) {
      return false;
    }
  }
  return true;
}

RelocationResult relocate_region(ConfigMemory& cm, const ColumnWindow& src,
                                 u32 src_first_row, const ColumnWindow& dst,
                                 u32 dst_first_row, u32 h) {
  RelocationResult result;
  const Fabric& fabric = cm.fabric();
  if (!windows_compatible(fabric, src, dst)) {
    result.reason = "source and destination windows are not compatible";
    return result;
  }
  if (src_first_row + h > fabric.rows() || dst_first_row + h > fabric.rows()) {
    result.reason = "region exceeds fabric rows";
    return result;
  }
  if (h == 0) {
    result.reason = "empty region";
    return result;
  }

  // Frame counts per row for each block type over the window.
  u64 cfg_frames = 0;
  u64 bram_frames = 0;
  for (u32 c = src.first_col; c < src.first_col + src.width; ++c) {
    cfg_frames += cm.frames_in_column(c, FrameBlock::kInterconnect);
    bram_frames += cm.frames_in_column(c, FrameBlock::kBramContent);
  }

  for (u32 row = 0; row < h; ++row) {
    const auto copy = [&](FrameBlock block, u64 frame_count) {
      if (frame_count == 0) return;
      const FrameAddress from{block, src_first_row + row, src.first_col, 0};
      const FrameAddress to{block, dst_first_row + row, dst.first_col, 0};
      const std::vector<u32> words = cm.read_burst(from, frame_count);
      cm.write_burst(to, words);
      result.frames_copied += frame_count;
      result.words_copied += words.size();
    };
    copy(FrameBlock::kInterconnect, cfg_frames);
    copy(FrameBlock::kBramContent, bram_frames);
  }
  result.ok = true;
  return result;
}

ContextCost context_cost(const PrrOrganization& org, const FamilyTraits& t) {
  if (org.h == 0 || org.width() == 0) {
    throw ContractError{"context_cost: empty organization"};
  }
  // Readback returns the same frame payloads the partial bitstream writes
  // (config frames + BRAM content), plus one pipeline frame per burst and
  // a FAR/FDRO command group per row: the Eq. (18) rows term, without the
  // sync header and trailer.
  const BitstreamEstimate e = estimate_bitstream(org, t);
  ContextCost cost;
  cost.save_bytes = checked_mul(
      e.total_words - e.initial_words - e.final_words, t.bytes_word);
  // Restore re-writes the same frames plus the GRESTORE/GCAPTURE command
  // packets (folded into the per-row group already).
  cost.restore_bytes = cost.save_bytes;
  return cost;
}

RelocationTime relocation_time(const PrrOrganization& org,
                               const FamilyTraits& t, const IcapModel& icap) {
  const ContextCost cost = context_cost(org, t);
  RelocationTime time;
  // GCAPTURE/GRESTORE are single command packets: a few ICAP words each.
  const double word_s = 1.0 / icap.clock_hz;
  time.capture_s = 8 * word_s;
  time.restore_s = 8 * word_s;
  time.readback_s = icap_write_seconds(icap, cost.save_bytes);
  time.rewrite_s = icap_write_seconds(icap, cost.restore_bytes);
  time.total_s =
      time.capture_s + time.readback_s + time.rewrite_s + time.restore_s;
  return time;
}

}  // namespace prcost
