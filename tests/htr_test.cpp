#include <gtest/gtest.h>

#include "bitstream/generator.hpp"
#include "cost/prr_search.hpp"
#include "device/device_db.hpp"
#include "htr/relocation.hpp"
#include "paperdata/paper_dataset.hpp"

namespace prcost {
namespace {

const Fabric& lx110t() {
  return DeviceDb::instance().get("xc5vlx110t").fabric;
}

TEST(Compatibility, SameSequenceCompatible) {
  const Fabric fabric{Family::kVirtex5, "CCDCCBCCDCC", 4};
  // Columns 0..4 "CCDCC" and 6..10 "CCDCC" are compatible.
  EXPECT_TRUE(windows_compatible(fabric, ColumnWindow{0, 5},
                                 ColumnWindow{6, 5}));
  // Columns 1..5 "CDCCB" differ.
  EXPECT_FALSE(windows_compatible(fabric, ColumnWindow{0, 5},
                                  ColumnWindow{1, 5}));
  EXPECT_FALSE(windows_compatible(fabric, ColumnWindow{0, 5},
                                  ColumnWindow{0, 4}));
}

TEST(Relocation, CopiesFramesBetweenCompatibleRegions) {
  const Fabric fabric{Family::kVirtex5, "CCDCCBCCDCC", 4};
  ConfigMemory cm{fabric};
  const u32 fr = fabric.traits().frame_size;
  // Populate the source region (rows 0-1, columns 0..4).
  const u64 cfg_frames = 36 * 4 + 28;  // 4 CLB + 1 DSP columns
  std::vector<u32> payload(cfg_frames * fr);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<u32>(i ^ 0xC0FFEE);
  }
  for (u32 row = 0; row < 2; ++row) {
    cm.write_burst(FrameAddress{FrameBlock::kInterconnect, row, 0, 0},
                   payload);
  }

  const RelocationResult result = relocate_region(
      cm, ColumnWindow{0, 5}, 0, ColumnWindow{6, 5}, 2, 2);
  ASSERT_TRUE(result.ok) << result.reason;
  EXPECT_EQ(result.frames_copied, 2 * cfg_frames);

  // Destination frames equal the source frames.
  const auto src = cm.read_burst(
      FrameAddress{FrameBlock::kInterconnect, 0, 0, 0}, cfg_frames);
  const auto dst = cm.read_burst(
      FrameAddress{FrameBlock::kInterconnect, 2, 6, 0}, cfg_frames);
  EXPECT_EQ(src, dst);
}

TEST(Relocation, IncompatibleWindowsRefused) {
  const Fabric fabric{Family::kVirtex5, "CCDCCBCCDCC", 4};
  ConfigMemory cm{fabric};
  const RelocationResult result = relocate_region(
      cm, ColumnWindow{0, 5}, 0, ColumnWindow{1, 5}, 2, 2);
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.reason.empty());
}

TEST(Relocation, RowOverflowRefused) {
  const Fabric fabric{Family::kVirtex5, "CCDCCBCCDCC", 4};
  ConfigMemory cm{fabric};
  EXPECT_FALSE(
      relocate_region(cm, ColumnWindow{0, 5}, 0, ColumnWindow{6, 5}, 3, 2)
          .ok);
  EXPECT_FALSE(
      relocate_region(cm, ColumnWindow{0, 5}, 0, ColumnWindow{6, 5}, 0, 0)
          .ok);
}

TEST(Relocation, EndToEndWithGeneratedBitstream) {
  // Load SDRAM's bitstream into its PRR, relocate the region to another
  // all-CLB window, and verify the frames moved intact.
  const auto& rec = paperdata::table5_record("SDRAM", "xc5vlx110t");
  const auto plan = find_prr(rec.req, lx110t());
  ASSERT_TRUE(plan.has_value());
  ConfigMemory cm{lx110t()};
  cm.apply_bitstream(generate_bitstream(*plan, Family::kVirtex5));

  // Find a second compatible window to the right of the first.
  const auto windows = lx110t().exact_windows(plan->organization.columns);
  ASSERT_GE(windows->size(), 2u);
  const ColumnWindow src = plan->window;
  ColumnWindow dst{};
  bool found = false;
  for (const ColumnWindow& w : *windows) {
    if (w.first_col >= src.first_col + src.width &&
        windows_compatible(lx110t(), src, w)) {
      dst = w;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);

  const u64 before = cm.frames_written();
  const auto result = relocate_region(cm, src, plan->first_row, dst,
                                      plan->first_row, plan->organization.h);
  ASSERT_TRUE(result.ok) << result.reason;
  EXPECT_GT(cm.frames_written(), before);  // copies, source preserved
  const u64 frames_per_row = result.frames_copied / plan->organization.h;
  const auto src_words = cm.read_burst(
      FrameAddress{FrameBlock::kInterconnect, plan->first_row,
                   src.first_col, 0},
      frames_per_row);
  const auto dst_words = cm.read_burst(
      FrameAddress{FrameBlock::kInterconnect, plan->first_row,
                   dst.first_col, 0},
      frames_per_row);
  EXPECT_EQ(src_words, dst_words);
}

TEST(ContextCost, MirrorsBitstreamAccounting) {
  const auto& rec = paperdata::table5_record("MIPS", "xc5vlx110t");
  const auto plan = find_prr(rec.req, lx110t());
  const ContextCost cost =
      context_cost(plan->organization, lx110t().traits());
  // Save/restore carry the frame payloads but not the sync header/trailer:
  // strictly less than the partial bitstream, more than half of it.
  EXPECT_LT(cost.save_bytes, plan->bitstream.total_bytes);
  EXPECT_GT(cost.save_bytes, plan->bitstream.total_bytes / 2);
  EXPECT_EQ(cost.save_bytes, cost.restore_bytes);
  EXPECT_THROW(context_cost(PrrOrganization{}, lx110t().traits()),
               ContractError);
}

// The read path spelled out per row, independent of the bitstream model:
// one FAR/FDRO group and the config frames plus a pipeline frame, then the
// same again for BRAM content when the PRR holds BRAM columns.
u64 readback_bytes_per_row(const ColumnDemand& c, const FamilyTraits& t) {
  const u64 cfg_frames = u64{c.clb_cols} * t.cf_clb +
                         u64{c.dsp_cols} * t.cf_dsp +
                         u64{c.bram_cols} * t.cf_bram;
  u64 words = t.far_fdri + (cfg_frames + 1) * t.frame_size;
  if (c.bram_cols > 0) {
    words += t.far_fdri + (u64{c.bram_cols} * t.df_bram + 1) * t.frame_size;
  }
  return words * t.bytes_word;
}

TEST(ContextCost, SaveBytesMatchPerRowFrameAccounting) {
  constexpr ColumnDemand kColumns[] = {
      {1, 0, 0}, {4, 1, 0}, {3, 0, 2}, {8, 2, 1}};
  for (const Device& dev : DeviceDb::instance().all()) {
    const FamilyTraits& t = dev.fabric.traits();
    for (const ColumnDemand& columns : kColumns) {
      for (const u32 h : {1u, 3u}) {
        const ContextCost cost = context_cost(PrrOrganization{h, columns}, t);
        EXPECT_EQ(cost.save_bytes, h * readback_bytes_per_row(columns, t))
            << dev.name << " h=" << h;
        EXPECT_EQ(cost.restore_bytes, cost.save_bytes) << dev.name;
      }
    }
  }
}

TEST(ContextCost, BramColumnAddsItsFramesAndContentBurst) {
  const FamilyTraits& t = lx110t().traits();
  const u64 without = context_cost(PrrOrganization{2, {4, 0, 0}}, t).save_bytes;
  const u64 with = context_cost(PrrOrganization{2, {4, 0, 1}}, t).save_bytes;
  // Per row: the BRAM column's config frames, plus a FAR/FDRO group and
  // its content frames with one pipeline frame.
  const u64 per_row_words = u64{t.cf_bram} * t.frame_size + t.far_fdri +
                            (u64{t.df_bram} + 1) * t.frame_size;
  EXPECT_EQ(with - without, 2 * per_row_words * t.bytes_word);
}

TEST(ContextCost, ScalesLinearlyWithRows) {
  const FamilyTraits& t = lx110t().traits();
  const ColumnDemand columns{6, 1, 1};
  const u64 one_row = context_cost(PrrOrganization{1, columns}, t).save_bytes;
  for (u32 h = 2; h <= lx110t().rows(); ++h) {
    EXPECT_EQ(context_cost(PrrOrganization{h, columns}, t).save_bytes,
              h * one_row)
        << h;
  }
}

TEST(RelocationTime, DominatedByFrameTraffic) {
  const auto& rec = paperdata::table5_record("FIR", "xc5vlx110t");
  const auto plan = find_prr(rec.req, lx110t());
  const RelocationTime time = relocation_time(
      plan->organization, lx110t().traits(), default_icap(Family::kVirtex5));
  EXPECT_GT(time.readback_s, 0.0);
  EXPECT_NEAR(time.total_s,
              time.capture_s + time.readback_s + time.rewrite_s +
                  time.restore_s,
              1e-15);
  EXPECT_GT(time.readback_s + time.rewrite_s,
            100 * (time.capture_s + time.restore_s));
}

TEST(RelocationTime, ScalesWithPrrSize) {
  const auto& small = paperdata::table5_record("SDRAM", "xc5vlx110t");
  const auto& large = paperdata::table5_record("MIPS", "xc5vlx110t");
  const auto plan_small = find_prr(small.req, lx110t());
  const auto plan_large = find_prr(large.req, lx110t());
  const FamilyTraits& t = lx110t().traits();
  const IcapModel icap = default_icap(Family::kVirtex5);
  EXPECT_LT(relocation_time(plan_small->organization, t, icap).total_s,
            relocation_time(plan_large->organization, t, icap).total_s);
}

}  // namespace
}  // namespace prcost
