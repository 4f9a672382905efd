// Parser robustness under randomized corruption.
//
// The contract hardened in this PR: parse_bitstream must never crash,
// overflow, or allocate absurdly on corrupted input - every outcome is
// either a successfully parsed layout (corruption survived the grammar,
// e.g. a payload bit flip that only breaks the CRC) or a clean ParseError.
// The property loop below pushes >= 10k WordMutator-mutated bitstreams
// through the parser; the crafted cases pin the specific FDRI type-2
// guards (zero count, count past end-of-stream, unaligned count).
#include <gtest/gtest.h>

#include <vector>

#include "bitstream/generator.hpp"
#include "bitstream/parser.hpp"
#include "bitstream/words.hpp"
#include "cost/prr_search.hpp"
#include "tests/support/mutator.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace prcost {
namespace {

// Small synthetic PRR so one bitstream is a few hundred words: the 10k+
// mutation loop stays fast while still covering header, multi-row FDRI
// bursts (CLB + BRAM blocks), and trailer.
std::vector<u32> small_bitstream(Family family = Family::kVirtex5) {
  PrrPlan plan;
  plan.organization.h = 2;
  plan.organization.columns = ColumnDemand{3, 1, 1};
  plan.window = ColumnWindow{1, plan.organization.width()};
  plan.bitstream = estimate_bitstream(plan.organization, traits(family));
  return generate_bitstream(plan, family);
}

/// Parse and classify: 0 = clean, 1 = ParseError. Anything else (another
/// exception type, crash, sanitizer abort) fails the test.
int parse_outcome(const std::vector<u32>& words, Family family) {
  try {
    (void)parse_bitstream(words, family);
    return 0;
  } catch (const ParseError&) {
    return 1;
  }
}

TEST(ParserCorruption, SurvivesTenThousandMutatedBitstreams) {
  const std::vector<u32> clean = small_bitstream();
  ASSERT_GT(clean.size(), 0u);
  ASSERT_EQ(parse_outcome(clean, Family::kVirtex5), 0);

  WordMutator mutator{0xC0FFEE};

  u64 parse_errors = 0;
  u64 clean_parses = 0;
  constexpr int kIterations = 12000;
  for (int i = 0; i < kIterations; ++i) {
    std::vector<u32> mutated = clean;
    // 1-3 stacked corruptions: single faults plus compound damage.
    const int hits = 1 + i % 3;
    for (int c = 0; c < hits; ++c) mutator.corrupt(mutated);
    switch (parse_outcome(mutated, Family::kVirtex5)) {
      case 0: ++clean_parses; break;
      case 1: ++parse_errors; break;
    }
  }
  // The loop completing at all is the real assertion (no crash / UB under
  // the sanitizer jobs); both outcome classes must occur, and grammar
  // damage dominates.
  EXPECT_EQ(parse_errors + clean_parses, u64{kIterations});
  EXPECT_GT(parse_errors, u64{kIterations} / 2);
  EXPECT_GT(clean_parses, 0u);
}

TEST(ParserCorruption, EveryTruncationIsClean) {
  const std::vector<u32> clean = small_bitstream();
  for (std::size_t len = 0; len < clean.size(); ++len) {
    const std::vector<u32> prefix(clean.begin(),
                                  clean.begin() + static_cast<long>(len));
    // Must not crash; a strict prefix either parses (header-only streams
    // have no bursts yet) or reports a clean truncation error.
    (void)parse_outcome(prefix, Family::kVirtex5);
  }
}

TEST(ParserCorruption, RandomWordSoupNeverCrashes) {
  Rng rng{2026};
  for (int i = 0; i < 500; ++i) {
    std::vector<u32> words(rng.below(64));
    for (u32& w : words) w = static_cast<u32>(rng());
    if (i % 2 == 0 && !words.empty()) words[0] = cfg::kSync;
    (void)parse_outcome(words, Family::kVirtex5);
  }
}

// Pin the FDRI type-2 guards added in this PR: the count is validated
// before any pointer arithmetic or payload recording.

std::size_t find_type2(const std::vector<u32>& words) {
  for (std::size_t i = 0; i < words.size(); ++i) {
    if (packet_type(words[i]) == 2) return i;
  }
  ADD_FAILURE() << "no type-2 packet in generated stream";
  return 0;
}

TEST(ParserCorruption, HugeType2CountIsParseError) {
  std::vector<u32> words = small_bitstream();
  const std::size_t pos = find_type2(words);
  words[pos] = type2(PacketOp::kWrite, 0x3FFFFFFu);  // far past end of stream
  EXPECT_THROW(parse_bitstream(words, Family::kVirtex5), ParseError);
}

TEST(ParserCorruption, ZeroType2CountIsParseError) {
  std::vector<u32> words = small_bitstream();
  words[find_type2(words)] = type2(PacketOp::kWrite, 0);
  EXPECT_THROW(parse_bitstream(words, Family::kVirtex5), ParseError);
}

TEST(ParserCorruption, UnalignedType2CountIsParseError) {
  std::vector<u32> words = small_bitstream();
  const std::size_t pos = find_type2(words);
  const u64 count = type2_count(words[pos]);
  ASSERT_GT(count, 1u);
  // One word short of a whole number of frames, still inside the stream.
  words[pos] = type2(PacketOp::kWrite, narrow<u32>(count - 1));
  EXPECT_THROW(parse_bitstream(words, Family::kVirtex5), ParseError);
}

TEST(ParserCorruption, WorksAcrossFamilies) {
  for (const Family family : kAllFamilies) {
    const std::vector<u32> clean = small_bitstream(family);
    ASSERT_EQ(parse_outcome(clean, family), 0) << family_name(family);
    WordMutator mutator{0xBEEF};
    for (int i = 0; i < 500; ++i) {
      std::vector<u32> mutated = clean;
      mutator.corrupt(mutated);
      (void)parse_outcome(mutated, family);
    }
  }
}

}  // namespace
}  // namespace prcost
