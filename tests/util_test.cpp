#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <set>

#include "util/error.hpp"
#include "util/ints.hpp"
#include "util/json.hpp"
#include "util/lines.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace prcost {
namespace {

// ---------------------------------------------------------------- ints ---

TEST(CeilDiv, ExactDivision) {
  EXPECT_EQ(ceil_div(12, 4), 3u);
  EXPECT_EQ(ceil_div(0, 7), 0u);
}

TEST(CeilDiv, RoundsUp) {
  EXPECT_EQ(ceil_div(13, 4), 4u);
  EXPECT_EQ(ceil_div(1, 8), 1u);
  EXPECT_EQ(ceil_div(1300, 8), 163u);  // the paper's FIR CLB_req
}

TEST(CeilDiv, ZeroDenominatorThrows) {
  EXPECT_THROW(ceil_div(1, 0), std::invalid_argument);
}

TEST(CheckedMul, Normal) { EXPECT_EQ(checked_mul(6, 7), 42u); }

TEST(CheckedMul, OverflowThrows) {
  EXPECT_THROW(checked_mul(~0ull, 2), std::overflow_error);
}

TEST(CheckedAdd, OverflowThrows) {
  EXPECT_THROW(checked_add(~0ull, 1), std::overflow_error);
}

TEST(Narrow, FitsRoundTrips) {
  EXPECT_EQ(narrow<u32>(u64{12345}), 12345u);
}

TEST(Narrow, TruncationThrows) {
  EXPECT_THROW(narrow<u32>(u64{1} << 40), std::out_of_range);
}

TEST(Narrow, NegativeToUnsignedThrows) {
  EXPECT_THROW(narrow<u32>(-1), std::out_of_range);
}

TEST(Percent, Basic) {
  EXPECT_DOUBLE_EQ(percent(1, 2), 50.0);
  EXPECT_DOUBLE_EQ(percent(163, 200), 81.5);
}

TEST(Percent, ZeroAvailableIsZero) { EXPECT_DOUBLE_EQ(percent(5, 0), 0.0); }

// -------------------------------------------------------------- strings ---

TEST(Split, KeepsEmptyFields) {
  const auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(Split, SingleField) {
  const auto parts = split("alone", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "alone");
}

TEST(Trim, StripsBothEnds) {
  EXPECT_EQ(trim("  x y \t\n"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(StartsWith, Matches) {
  EXPECT_TRUE(starts_with("Number of Slice LUTs", "Number"));
  EXPECT_FALSE(starts_with("abc", "abcd"));
}

TEST(ToLower, Converts) { EXPECT_EQ(to_lower("Virtex-5"), "virtex-5"); }

TEST(FormatFixed, Digits) {
  EXPECT_EQ(format_fixed(81.526, 1), "81.5");
  EXPECT_EQ(format_fixed(2.0, 0), "2");
}

TEST(FormatBytes, Units) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(83064), "81.1 KiB");
}

TEST(ParseU64, Valid) {
  EXPECT_EQ(parse_u64("1300"), 1300ull);
  EXPECT_EQ(parse_u64("  42 "), 42ull);
}

TEST(ParseU64, JunkThrows) {
  EXPECT_THROW(parse_u64("12x"), ParseError);
  EXPECT_THROW(parse_u64(""), ParseError);
  EXPECT_THROW(parse_u64("-3"), ParseError);
}

TEST(ParseU64, ErrorsNameTheOffendingToken) {
  // Overflow is distinguished from junk, and both carry the input token so
  // a batch/report error points at the actual field content.
  try {
    parse_u64("99999999999999999999999");
    FAIL() << "overflow accepted";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string{e.what()}.find("out of range"), std::string::npos);
    EXPECT_NE(std::string{e.what()}.find("99999999999999999999999"),
              std::string::npos);
  }
  try {
    parse_u64("12x");
    FAIL() << "junk accepted";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string{e.what()}.find("'12x'"), std::string::npos);
  }
}

TEST(JsonU64, FullRangeRoundTripsExactly) {
  constexpr u64 kMax = std::numeric_limits<u64>::max();
  constexpr u64 kI64Max = std::numeric_limits<i64>::max();
  for (const u64 v : {u64{0}, kI64Max, kI64Max + 1, kMax - 1, kMax}) {
    const Json built{v};
    EXPECT_EQ(built.kind(), Json::Kind::kInt) << v;
    EXPECT_EQ(built.as_u64(), v);
    EXPECT_EQ(built.dump(), std::to_string(v));
    const Json parsed = Json::parse(std::to_string(v));
    EXPECT_EQ(parsed.kind(), Json::Kind::kInt) << v;
    EXPECT_EQ(parsed.as_u64(), v);
    EXPECT_EQ(parsed.dump(), std::to_string(v));
  }
  const Json seed = Json::parse(R"({"seed":18446744073709551615})");
  EXPECT_EQ(seed.find("seed")->as_u64(), kMax);
  EXPECT_EQ(seed.dump(), R"({"seed":18446744073709551615})");
}

TEST(JsonU64, AboveI64IsNotAnI64AndBeyondU64IsADouble) {
  const Json big = Json::parse("9223372036854775808");
  EXPECT_THROW((void)big.as_i64(), ParseError);
  EXPECT_DOUBLE_EQ(big.as_double(), 9223372036854775808.0);
  EXPECT_EQ(Json::parse("-9223372036854775808").as_i64(),
            std::numeric_limits<i64>::min());
  EXPECT_THROW((void)Json::parse("-1").as_u64(), ParseError);
  // Past u64 an integer token degrades to a double, as before.
  const Json huge = Json::parse("18446744073709551616");
  EXPECT_EQ(huge.kind(), Json::Kind::kDouble);
  EXPECT_THROW((void)huge.as_u64(), ParseError);
  EXPECT_EQ(Json::parse("-9223372036854775809").kind(), Json::Kind::kDouble);
}

TEST(ParseDouble, Valid) {
  EXPECT_DOUBLE_EQ(parse_double("1.5"), 1.5);
  EXPECT_DOUBLE_EQ(parse_double(" -2e-3 "), -2e-3);
  EXPECT_DOUBLE_EQ(parse_double("0"), 0.0);
}

TEST(ParseDouble, RejectsNonFiniteAndJunk) {
  // from_chars accepts "inf"/"nan" tokens; the models must never see one.
  EXPECT_THROW(parse_double("inf"), ParseError);
  EXPECT_THROW(parse_double("-inf"), ParseError);
  EXPECT_THROW(parse_double("nan"), ParseError);
  EXPECT_THROW(parse_double("1e999"), ParseError);
  EXPECT_THROW(parse_double(""), ParseError);
  EXPECT_THROW(parse_double("0.5.1"), ParseError);
  try {
    parse_double("1e999");
    FAIL() << "overflow accepted";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string{e.what()}.find("'1e999'"), std::string::npos);
  }
}

TEST(FormatMinutesSeconds, PaperNotation) {
  EXPECT_EQ(format_minutes_seconds(265.0), "4m25.000s");
  EXPECT_EQ(format_minutes_seconds(0.5), "0.500000s");
}

// ---------------------------------------------------------------- table ---

TEST(TextTable, AsciiContainsCells) {
  TextTable table{{"Parameter", "FIR"}};
  table.add_row({"LUT_FF_req", "1300"});
  const std::string ascii = table.to_ascii();
  EXPECT_NE(ascii.find("LUT_FF_req"), std::string::npos);
  EXPECT_NE(ascii.find("1300"), std::string::npos);
  EXPECT_NE(ascii.find("+"), std::string::npos);
}

TEST(TextTable, MarkdownHasHeaderRule) {
  TextTable table{{"a", "b"}};
  table.add_row({"1", "2"});
  const std::string md = table.to_markdown();
  EXPECT_NE(md.find("|---"), std::string::npos);
}

TEST(TextTable, RaggedRowsTolerated) {
  TextTable table{{"a", "b", "c"}};
  table.add_row({"only"});
  EXPECT_NO_THROW(table.to_ascii());
  EXPECT_EQ(table.row_count(), 1u);
}

// ------------------------------------------------------------------ rng ---

TEST(Rng, DeterministicForSeed) {
  Rng a{7}, b{7};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1}, b{2};
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, BelowInRange) {
  Rng rng{3};
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowZeroBound) {
  Rng rng{3};
  EXPECT_EQ(rng.below(0), 0u);
}

TEST(Rng, BetweenInclusive) {
  Rng rng{5};
  std::set<u64> seen;
  for (int i = 0; i < 500; ++i) {
    const u64 v = rng.between(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3u);  // all three values appear
}

TEST(Rng, Uniform01HalfOpen) {
  Rng rng{11};
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ExponentialMeanApproximate) {
  Rng rng{13};
  double sum = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / kSamples, 2.0, 0.1);
}

// ------------------------------------------------------------- parallel ---

TEST(ParallelFor, CoversEveryIndexOnce) {
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  parallel_for(kCount, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, ZeroCountIsNoop) {
  parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ParallelFor, SingleWorkerSequential) {
  std::vector<int> order;
  parallel_for(5, [&](std::size_t i) { order.push_back(static_cast<int>(i)); },
               1);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, PropagatesException) {
  EXPECT_THROW(
      parallel_for(100,
                   [](std::size_t i) {
                     if (i == 37) throw std::runtime_error{"boom"};
                   }),
      std::runtime_error);
}

// --------------------------------------------------------------- lines ---
// Incremental newline framing shared by `prcost serve` sockets and the
// streaming batch reader; the contract is std::getline equivalence.

TEST(LineSplitter, FramesLinesAcrossArbitraryChunkBoundaries) {
  LineSplitter splitter;
  splitter.append("ab");
  EXPECT_FALSE(splitter.next_line().has_value());
  splitter.append("c\nde\nf");
  EXPECT_EQ(splitter.next_line(), "abc");
  EXPECT_EQ(splitter.next_line(), "de");
  EXPECT_FALSE(splitter.next_line().has_value());  // "f" is unterminated
  splitter.append("\n");
  EXPECT_EQ(splitter.next_line(), "f");
}

TEST(LineSplitter, TakeTailFlushesUnterminatedFinalLine) {
  LineSplitter splitter;
  splitter.append("first\nlast-no-newline");
  EXPECT_EQ(splitter.next_line(), "first");
  EXPECT_FALSE(splitter.next_line().has_value());
  EXPECT_EQ(splitter.take_tail(), "last-no-newline");
  EXPECT_EQ(splitter.take_tail(), "");  // drained
  EXPECT_EQ(splitter.buffered(), 0u);
}

TEST(LineSplitter, EmptyLinesAndBufferedCount) {
  LineSplitter splitter;
  splitter.append("\n\nx\n");
  EXPECT_EQ(splitter.next_line(), "");
  EXPECT_EQ(splitter.next_line(), "");
  EXPECT_EQ(splitter.next_line(), "x");
  EXPECT_FALSE(splitter.next_line().has_value());
  splitter.append("partial");
  EXPECT_EQ(splitter.buffered(), 7u);
}

TEST(LineSplitter, ReclaimsConsumedPrefixOnLargeStreams) {
  // Push many lines through one splitter; buffered() must track only the
  // unconsumed remainder, not grow with the total stream.
  LineSplitter splitter;
  for (int round = 0; round < 1000; ++round) {
    splitter.append("line-" + std::to_string(round) + "\n");
    EXPECT_EQ(splitter.next_line(), "line-" + std::to_string(round));
  }
  EXPECT_EQ(splitter.buffered(), 0u);
}

}  // namespace
}  // namespace prcost
