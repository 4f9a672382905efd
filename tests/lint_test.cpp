#include <gtest/gtest.h>

#include "bitstream/generator.hpp"
#include "cost/prr_search.hpp"
#include "cost/shaped_prr.hpp"
#include "device/device_db.hpp"
#include "paperdata/paper_dataset.hpp"
#include "tests/support/lint.hpp"

namespace prcost {
namespace {

bool has_rule(const std::vector<LintIssue>& issues, std::string_view rule) {
  return std::any_of(issues.begin(), issues.end(),
                     [&](const LintIssue& i) { return i.rule == rule; });
}

// Every generated partial bitstream must lint clean: the linter is an
// independently written protocol model, so this is two implementations
// agreeing on the configuration rules.
class LintClean : public ::testing::TestWithParam<paperdata::TableVRecord> {};

TEST_P(LintClean, GeneratedBitstreamsHaveNoViolations) {
  const auto& rec = GetParam();
  const Fabric& fabric = DeviceDb::instance().get(rec.device).fabric;
  const auto plan = find_prr(rec.req, fabric);
  ASSERT_TRUE(plan.has_value());
  const auto issues =
      lint_bitstream(generate_bitstream(*plan, rec.family), rec.family);
  EXPECT_TRUE(issues.empty()) << issues.size() << " issues, first: "
                              << (issues.empty() ? "" : issues[0].message);
}

INSTANTIATE_TEST_SUITE_P(
    Paper, LintClean,
    ::testing::ValuesIn(paperdata::table5().begin(),
                        paperdata::table5().end()),
    [](const ::testing::TestParamInfo<paperdata::TableVRecord>& tp_info) {
      std::string name{tp_info.param.prm};
      name += "_";
      name += tp_info.param.device;
      return name;
    });

TEST(Lint, FullAndShapedBitstreamsClean) {
  for (const Device& dev : DeviceDb::instance().all()) {
    EXPECT_TRUE(lint_bitstream(generate_full_bitstream(dev.fabric),
                               dev.fabric.family())
                    .empty())
        << dev.name;
  }
  const auto& rec = paperdata::table5_record("FIR", "xc5vlx110t");
  const auto shaped = find_l_shaped_prr(
      rec.req, DeviceDb::instance().get("xc5vlx110t").fabric);
  ASSERT_TRUE(shaped.has_value());
  EXPECT_TRUE(lint_bitstream(
                  generate_shaped_bitstream(shaped->shape, Family::kVirtex5),
                  Family::kVirtex5)
                  .empty());
}

TEST(Lint, DetectsMissingSync) {
  const std::vector<u32> junk(8, cfg::kDummy);
  EXPECT_TRUE(has_rule(lint_bitstream(junk, Family::kVirtex5), "R2"));
}

TEST(Lint, DetectsGarbageBeforeSync) {
  std::vector<u32> words{0x12345678, cfg::kSync};
  EXPECT_TRUE(has_rule(lint_bitstream(words, Family::kVirtex5), "R1"));
}

TEST(Lint, DetectsFdriWithoutFar) {
  std::vector<u32> words{
      cfg::kSync,
      type1(PacketOp::kWrite, ConfigReg::kCmd, 1),
      static_cast<u32>(ConfigCmd::kRcrc),
      type1(PacketOp::kWrite, ConfigReg::kCmd, 1),
      static_cast<u32>(ConfigCmd::kWcfg),
      type1(PacketOp::kWrite, ConfigReg::kFdri, 0),
      type2(PacketOp::kWrite, 41),
  };
  words.insert(words.end(), 41, 0u);
  const auto issues = lint_bitstream(words, Family::kVirtex5);
  EXPECT_TRUE(has_rule(issues, "R5"));
}

TEST(Lint, DetectsFdriBeforeWcfg) {
  std::vector<u32> words{
      cfg::kSync,
      type1(PacketOp::kWrite, ConfigReg::kCmd, 1),
      static_cast<u32>(ConfigCmd::kRcrc),
      type1(PacketOp::kWrite, ConfigReg::kFar, 1),
      0x0,
      type1(PacketOp::kWrite, ConfigReg::kFdri, 0),
      type2(PacketOp::kWrite, 41),
  };
  words.insert(words.end(), 41, 0u);
  EXPECT_TRUE(has_rule(lint_bitstream(words, Family::kVirtex5), "R4"));
}

TEST(Lint, DetectsMisalignedPayload) {
  std::vector<u32> words{
      cfg::kSync,
      type1(PacketOp::kWrite, ConfigReg::kCmd, 1),
      static_cast<u32>(ConfigCmd::kRcrc),
      type1(PacketOp::kWrite, ConfigReg::kCmd, 1),
      static_cast<u32>(ConfigCmd::kWcfg),
      type1(PacketOp::kWrite, ConfigReg::kFar, 1),
      0x0,
      type1(PacketOp::kWrite, ConfigReg::kFdri, 0),
      type2(PacketOp::kWrite, 40),  // not a multiple of 41
  };
  words.insert(words.end(), 40, 0u);
  EXPECT_TRUE(has_rule(lint_bitstream(words, Family::kVirtex5), "R6"));
}

TEST(Lint, DetectsMissingDesyncAndCrc) {
  const std::vector<u32> words{cfg::kSync};
  const auto issues = lint_bitstream(words, Family::kVirtex5);
  EXPECT_TRUE(has_rule(issues, "R7"));
  EXPECT_TRUE(has_rule(issues, "R8"));
}

TEST(Lint, DetectsTrafficAfterDesync) {
  const auto& rec = paperdata::table5_record("SDRAM", "xc5vlx110t");
  const Fabric& fabric = DeviceDb::instance().get(rec.device).fabric;
  const auto plan = find_prr(rec.req, fabric);
  auto words = generate_bitstream(*plan, rec.family);
  words.push_back(type1(PacketOp::kWrite, ConfigReg::kFar, 1));
  words.push_back(0);
  EXPECT_TRUE(has_rule(lint_bitstream(words, rec.family), "R8"));
}

TEST(Lint, DetectsDoubleCrcWrite) {
  const auto& rec = paperdata::table5_record("SDRAM", "xc5vlx110t");
  const Fabric& fabric = DeviceDb::instance().get(rec.device).fabric;
  const auto plan = find_prr(rec.req, fabric);
  auto words = generate_bitstream(*plan, rec.family);
  // Duplicate the CRC write just before the trailer's desync.
  std::vector<u32> extra{type1(PacketOp::kWrite, ConfigReg::kCrc, 1), 0};
  words.insert(words.end() - static_cast<std::ptrdiff_t>(
                                 traits(rec.family).fw),
               extra.begin(), extra.end());
  EXPECT_TRUE(has_rule(lint_bitstream(words, rec.family), "R7"));
}

}  // namespace
}  // namespace prcost
