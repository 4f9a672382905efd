#include <gtest/gtest.h>

#include "bitstream/compress.hpp"
#include "bitstream/generator.hpp"
#include "bitstream/parser.hpp"
#include "cost/prr_search.hpp"
#include "device/device_db.hpp"
#include "paperdata/paper_dataset.hpp"
#include "util/error.hpp"

namespace prcost {
namespace {

TEST(Rle, CountsOnePairPerRun) {
  const std::vector<u32> streams[] = {
      {},
      {42},
      {7, 7, 7, 7},
      {1, 2, 3, 4, 5},
      {0, 0, 1, 0, 0, 0, 2, 2},
  };
  const u64 runs[] = {0, 1, 1, 5, 4};
  for (std::size_t i = 0; i < std::size(streams); ++i) {
    const CompressionStats stats = measure_rle(streams[i]);
    EXPECT_EQ(stats.original_words, streams[i].size()) << i;
    EXPECT_EQ(stats.compressed_words, 2 * runs[i]) << i;
  }
}

TEST(Rle, CompressesRuns) {
  const std::vector<u32> zeros(1000, 0);
  const CompressionStats stats = measure_rle(zeros);
  EXPECT_EQ(stats.compressed_words, 2u);
  EXPECT_LT(stats.ratio(), 0.01);
}

TEST(Rle, ExpandsIncompressibleData) {
  std::vector<u32> distinct(100);
  for (u32 i = 0; i < 100; ++i) distinct[i] = i;
  EXPECT_GT(measure_rle(distinct).ratio(), 1.0);
}

TEST(Frames, AnalyzeCountsDuplicatesAndZeros) {
  // An all-zero FIR bitstream with its first burst's frames rewritten to
  // A A 0 B 0 ...: three distinct frames (A, 0, B), all but A A B zero.
  const auto& rec = paperdata::table5_record("FIR", "xc5vlx110t");
  const Fabric& fabric = DeviceDb::instance().get(rec.device).fabric;
  const auto plan = find_prr(rec.req, fabric);
  ASSERT_TRUE(plan.has_value());
  GeneratorOptions options;
  options.payload = PayloadKind::kZeros;
  std::vector<u32> words = generate_bitstream(*plan, rec.family, options);
  const BitstreamLayout layout = parse_bitstream(words, rec.family);
  ASSERT_FALSE(layout.bursts.empty());
  const FdriBurst& burst = layout.bursts.front();
  ASSERT_GE(burst.frames, 5u);
  const u32 frame_size = traits(rec.family).frame_size;
  const auto fill = [&](u64 frame, u32 value) {
    const u64 first = burst.offset_words + frame * frame_size;
    for (u64 w = 0; w < frame_size; ++w) {
      words[first + w] = value + static_cast<u32>(w);
    }
  };
  fill(0, 0x100);
  fill(1, 0x100);
  fill(3, 0x900);

  const FrameRedundancy r = analyze_bitstream_frames(words, rec.family);
  const FrameRedundancy zeros =
      analyze_bitstream_frames(generate_bitstream(*plan, rec.family, options),
                               rec.family);
  EXPECT_EQ(r.total_frames, zeros.total_frames);
  EXPECT_EQ(r.unique_frames, 3u);
  EXPECT_EQ(r.zero_frames, r.total_frames - 3);
  EXPECT_LT(r.mfwr_ratio(frame_size), 1.0);
}

TEST(Frames, BitstreamAnalysisRejectsMalformedStreams) {
  const auto& rec = paperdata::table5_record("SDRAM", "xc5vlx110t");
  const Fabric& fabric = DeviceDb::instance().get(rec.device).fabric;
  const auto plan = find_prr(rec.req, fabric);
  ASSERT_TRUE(plan.has_value());
  const auto words = generate_bitstream(*plan, rec.family);
  // Cut inside the first FDRI burst: the type-2 count runs past the end.
  const BitstreamLayout layout = parse_bitstream(words, rec.family);
  ASSERT_FALSE(layout.bursts.empty());
  const std::span<const u32> truncated{
      words.data(), layout.bursts.front().offset_words + 1};
  EXPECT_THROW(analyze_bitstream_frames(truncated, rec.family), ParseError);
  EXPECT_THROW(analyze_bitstream_frames({}, rec.family), ParseError);
}

TEST(Frames, MfwrRatioBounds) {
  FrameRedundancy r;
  r.total_frames = 10;
  r.unique_frames = 10;
  EXPECT_DOUBLE_EQ(r.mfwr_ratio(41), 1.0);
  r.unique_frames = 1;
  EXPECT_LT(r.mfwr_ratio(41), 0.2);
  EXPECT_DOUBLE_EQ(FrameRedundancy{}.mfwr_ratio(41), 1.0);
}

TEST(Payload, KindsOrderCompressibility) {
  // zeros compress best, sparse in between, random not at all.
  const auto& rec = paperdata::table5_record("FIR", "xc5vlx110t");
  const Fabric& fabric = DeviceDb::instance().get(rec.device).fabric;
  const auto plan = find_prr(rec.req, fabric);
  const auto ratio_for = [&](PayloadKind kind) {
    GeneratorOptions options;
    options.payload = kind;
    const auto words = generate_bitstream(*plan, rec.family, options);
    return measure_rle(words).ratio();
  };
  const double zeros = ratio_for(PayloadKind::kZeros);
  const double sparse = ratio_for(PayloadKind::kSparse);
  const double random = ratio_for(PayloadKind::kRandom);
  EXPECT_LT(zeros, sparse);
  EXPECT_LT(sparse, random);
  EXPECT_LT(zeros, 0.05);
  EXPECT_GT(random, 1.0);
}

TEST(Payload, SparseDefaultIsFarmCompatible) {
  // The default sparse payload lands in the compression regime FaRM's
  // hardware decompressor exploits (well below 1.0).
  const auto& rec = paperdata::table5_record("MIPS", "xc6vlx75t");
  const Fabric& fabric = DeviceDb::instance().get(rec.device).fabric;
  const auto plan = find_prr(rec.req, fabric);
  const auto words = generate_bitstream(*plan, rec.family);
  EXPECT_LT(measure_rle(words).ratio(), 0.9);
}

TEST(Frames, BitstreamAnalysisCoversAllBursts) {
  const auto& rec = paperdata::table5_record("MIPS", "xc5vlx110t");
  const Fabric& fabric = DeviceDb::instance().get(rec.device).fabric;
  const auto plan = find_prr(rec.req, fabric);
  GeneratorOptions options;
  options.payload = PayloadKind::kZeros;
  const auto words = generate_bitstream(*plan, rec.family, options);
  const FrameRedundancy r = analyze_bitstream_frames(words, rec.family);
  // config frames + BRAM-content frames, including the flush frames.
  const u64 expected =
      plan->organization.h *
      (plan->bitstream.config_frames_per_row +
       (plan->organization.columns.bram_cols > 0
            ? u64{plan->organization.columns.bram_cols} * 128 + 1
            : 0));
  EXPECT_EQ(r.total_frames, expected);
  EXPECT_EQ(r.unique_frames, 1u);  // everything is the zero frame
  EXPECT_EQ(r.zero_frames, r.total_frames);
}

}  // namespace
}  // namespace prcost
