#include <gtest/gtest.h>

#include "bitstream/generator.hpp"
#include "cost/prr_search.hpp"
#include "device/device_db.hpp"
#include "htr/relocation.hpp"
#include "paperdata/paper_dataset.hpp"
#include "tests/support/readback.hpp"
#include "util/error.hpp"

namespace prcost {
namespace {

const Fabric& lx110t() {
  return DeviceDb::instance().get("xc5vlx110t").fabric;
}

TEST(Readback, RequestStructure) {
  const auto& rec = paperdata::table5_record("MIPS", "xc5vlx110t");
  const auto plan = find_prr(rec.req, lx110t());
  const ReadbackRequest request =
      make_readback_request(*plan, Family::kVirtex5);
  // One config burst per row plus one BRAM burst per row (MIPS has BRAM).
  EXPECT_EQ(request.bursts.size(), 2u * plan->organization.h);
  // Command stream contains sync, RCFG and desync.
  EXPECT_NE(std::find(request.command_words.begin(),
                      request.command_words.end(), cfg::kSync),
            request.command_words.end());
  EXPECT_GT(request.response_words, 0u);
  EXPECT_THROW(make_readback_request(PrrPlan{}, Family::kVirtex5),
               ContractError);
}

TEST(Readback, ResponseMatchesWrittenFrames) {
  // Configure a PRR, read it back, and verify the recovered frames equal
  // what the bitstream wrote (pad frames removed).
  const auto& rec = paperdata::table5_record("SDRAM", "xc5vlx110t");
  const auto plan = find_prr(rec.req, lx110t());
  ConfigMemory cm{lx110t()};
  cm.apply_bitstream(generate_bitstream(*plan, Family::kVirtex5));

  const ReadbackRequest request =
      make_readback_request(*plan, Family::kVirtex5);
  const std::vector<u32> response = serve_readback(cm, request);
  EXPECT_EQ(response.size(), request.response_words);

  const auto frames = split_readback_response(
      request, response, lx110t().traits().frame_size);
  ASSERT_EQ(frames.size(), request.bursts.size());
  for (std::size_t b = 0; b < frames.size(); ++b) {
    const auto direct =
        cm.read_burst(request.bursts[b].far, request.bursts[b].frames);
    EXPECT_EQ(frames[b], direct) << "burst " << b;
  }
}

TEST(Readback, ResponseWordsMatchContextCostModel) {
  // The readback request's word count is what the HTR save-time model
  // charges: both sides must agree (modulo the per-row FAR/FDRO command
  // words, which the model folds in as FAR_FDRI).
  const auto& rec = paperdata::table5_record("FIR", "xc5vlx110t");
  const auto plan = find_prr(rec.req, lx110t());
  const FamilyTraits& t = lx110t().traits();
  const ReadbackRequest request =
      make_readback_request(*plan, Family::kVirtex5);
  const ContextCost cost = context_cost(plan->organization, t);
  const u64 command_rows = request.bursts.size();
  const u64 modeled_words = cost.save_bytes / t.bytes_word;
  const u64 actual_words =
      request.response_words + command_rows * t.far_fdri;
  EXPECT_EQ(modeled_words, actual_words);
}

TEST(Readback, SplitRejectsWrongSizes) {
  const auto& rec = paperdata::table5_record("SDRAM", "xc5vlx110t");
  const auto plan = find_prr(rec.req, lx110t());
  const ReadbackRequest request =
      make_readback_request(*plan, Family::kVirtex5);
  const std::vector<u32> short_response(request.response_words - 1, 0);
  EXPECT_THROW(split_readback_response(request, short_response,
                                       lx110t().traits().frame_size),
               ContractError);
}

TEST(Readback, BlankMemoryReadsZeroes) {
  const auto& rec = paperdata::table5_record("SDRAM", "xc5vlx110t");
  const auto plan = find_prr(rec.req, lx110t());
  ConfigMemory cm{lx110t()};
  const ReadbackRequest request =
      make_readback_request(*plan, Family::kVirtex5);
  for (const u32 word : serve_readback(cm, request)) EXPECT_EQ(word, 0u);
}

}  // namespace
}  // namespace prcost
