// Golden pins for generated bitstream bytes.
//
// The other bitstream tests check sizes, structure and CRC
// self-consistency; nothing else pins the payload words themselves. Each
// case here records a stream's word count, its trailer CRC and a 64-bit
// FNV-1a digest over every word, so any change to what the generator
// emits - payload filler, burst order, FAR/header/trailer words - fails
// loudly. The orders and threads cases exercise generation paths that
// share state across calls (sizes that grow and shrink within one
// process, concurrent callers, more payload option sets than the
// generator keeps warm).
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "bitstream/generator.hpp"
#include "bitstream/parser.hpp"
#include "cost/shaped_prr.hpp"
#include "device/device_db.hpp"

namespace prcost {
namespace {

struct Digest {
  u64 words = 0;
  u32 crc = 0;
  u64 fnv = 0;
  bool operator==(const Digest&) const = default;
};

/// 64-bit FNV-1a over the words, four bytes each, least significant first.
u64 fnv1a(const std::vector<u32>& words) {
  u64 h = 0xCBF29CE484222325ull;
  for (const u32 word : words) {
    for (u32 b = 0; b < 4; ++b) {
      h ^= (word >> (8 * b)) & 0xFFu;
      h *= 0x100000001B3ull;
    }
  }
  return h;
}

Digest digest(const std::vector<u32>& words, Family family) {
  const BitstreamLayout layout = parse_bitstream(words, family);
  EXPECT_TRUE(layout.crc_ok);
  return Digest{words.size(), layout.crc_written, fnv1a(words)};
}

std::string show(const Digest& d) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "{%llu, 0x%08X, 0x%016llX}",
                static_cast<unsigned long long>(d.words), d.crc,
                static_cast<unsigned long long>(d.fnv));
  return buf;
}

PrrPlan plan(u32 h, ColumnDemand cols, u32 first_col, u32 first_row) {
  PrrPlan p;
  p.organization = PrrOrganization{h, cols};
  p.window = ColumnWindow{first_col, cols.width()};
  p.first_row = first_row;
  return p;
}

struct FamilyCase {
  const char* name;
  Family family;
  PrrPlan plan;
};

// One plan per family, every one but Virtex-5's with BRAM columns so both
// burst kinds are covered.
const std::array<FamilyCase, 5>& family_cases() {
  static const std::array<FamilyCase, 5> cases{{
      {"virtex4", Family::kVirtex4, plan(2, {3, 1, 1}, 10, 1)},
      {"virtex5", Family::kVirtex5, plan(5, {2, 1, 0}, 24, 0)},
      {"virtex6", Family::kVirtex6, plan(1, {4, 0, 1}, 5, 2)},
      {"series7", Family::kSeries7, plan(3, {6, 1, 2}, 12, 1)},
      {"spartan6", Family::kSpartan6, plan(2, {2, 1, 1}, 3, 0)},
  }};
  return cases;
}

GeneratorOptions options(PayloadKind kind, u64 seed, double density = 0.15) {
  GeneratorOptions o;
  o.payload = kind;
  o.payload_seed = seed;
  o.sparse_density = density;
  return o;
}

struct OptionCase {
  const char* name;
  GeneratorOptions options;
};

const std::array<OptionCase, 8>& option_cases() {
  static const std::array<OptionCase, 8> cases{{
      {"sparse/5eed", options(PayloadKind::kSparse, 0x5EED)},
      {"sparse/7", options(PayloadKind::kSparse, 7)},
      {"sparse50/5eed", options(PayloadKind::kSparse, 0x5EED, 0.5)},
      {"sparse50/7", options(PayloadKind::kSparse, 7, 0.5)},
      {"random/5eed", options(PayloadKind::kRandom, 0x5EED)},
      {"random/7", options(PayloadKind::kRandom, 7)},
      {"zeros/5eed", options(PayloadKind::kZeros, 0x5EED)},
      {"zeros/7", options(PayloadKind::kZeros, 7)},
  }};
  return cases;
}

// Expected digests, family-major in family_cases() x option_cases() order.
const std::array<Digest, 40> kFamilyGolden{{
    // virtex4
    {14240, 0x8D218A82, 0xA45254137E9297B4ull},
    {14240, 0xA6477D78, 0x6B503D497DDF9BD8ull},
    {14240, 0x099AFF21, 0x84FD403D9ADAA152ull},
    {14240, 0xDF7DD520, 0x6793E0B707CB421Cull},
    {14240, 0xCBAD2C27, 0x74A7503D3966D15Full},
    {14240, 0x67D1280A, 0x51D5534F49BD2287ull},
    {14240, 0xC6823D3A, 0x11F53D627F09B9A7ull},
    {14240, 0xC6823D3A, 0x11F53D627F09B9A7ull},
    // virtex5
    {20766, 0xE0F0672B, 0x66EB7C40F1F0DA90ull},
    {20766, 0x47341577, 0x98467AB2CDA6A60Aull},
    {20766, 0x5BE85144, 0xC22B17767592C112ull},
    {20766, 0xCA231C63, 0x94ACB8EEF5AC2DA9ull},
    {20766, 0x10149C60, 0x08918061DE88BFF4ull},
    {20766, 0xDA797C65, 0x55424A2CF2BDBDFFull},
    {20766, 0xFEF550F8, 0x044631E69284D846ull},
    {20766, 0xFEF550F8, 0x044631E69284D846ull},
    // virtex6
    {24512, 0xB5DB42C1, 0xE4949654472176E1ull},
    {24512, 0xCE91D485, 0x112EFB58CF355E46ull},
    {24512, 0x76A3D668, 0x1099292EAAEF7D45ull},
    {24512, 0x429A0B8B, 0x673D3C93E644971Dull},
    {24512, 0xB899638C, 0xBE4E80BAD6C3E08Bull},
    {24512, 0xD5FF92B7, 0x30F091A16E3A88E4ull},
    {24512, 0x32440FB9, 0xD158649C94C1DD4Full},
    {24512, 0x32440FB9, 0xD158649C94C1DD4Full},
    // series7
    {169146, 0x270F442B, 0x1C15E802D64EEB25ull},
    {169146, 0xD87B1345, 0x4474B8F33B192AE2ull},
    {169146, 0xEB7CCF79, 0x4F776DBEDC394FEFull},
    {169146, 0xD9159631, 0x186462951A8DE6B2ull},
    {169146, 0x76DC38C2, 0xA8591C69BEB8A2E5ull},
    {169146, 0x6A1B69EB, 0x01463407D8727B39ull},
    {169146, 0x94341F8E, 0x74982E577424501Dull},
    {169146, 0x94341F8E, 0x74982E577424501Dull},
    // spartan6
    {33594, 0x512C6EFD, 0xB8FE0B27193ACB37ull},
    {33594, 0xBC2E502F, 0xB0432AC79DA36C9Cull},
    {33594, 0x0D856D21, 0x049B9A66E489EC7Full},
    {33594, 0xEE11F9A4, 0x8A8F4DC29EE46FB6ull},
    {33594, 0xF4E8296D, 0xEDE6A1AE1CF1546Aull},
    {33594, 0x559AC06E, 0xC285BD5DCC581F3Aull},
    {33594, 0x6BC469F4, 0xC460E94D2470B14Cull},
    {33594, 0x6BC469F4, 0xC460E94D2470B14Cull},
}};

TEST(BitstreamGolden, EveryFamilyAndPayload) {
  std::size_t i = 0;
  for (const FamilyCase& fc : family_cases()) {
    for (const OptionCase& oc : option_cases()) {
      const Digest got =
          digest(generate_bitstream(fc.plan, fc.family, oc.options), fc.family);
      EXPECT_EQ(got, kFamilyGolden[i])
          << fc.name << " " << oc.name << ": " << show(got);
      ++i;
    }
  }
}

TEST(BitstreamGolden, SeedsAndDensitiesDiffer) {
  // Guards the table above against pinning the same stream twice.
  const FamilyCase& fc = family_cases()[1];
  std::vector<u64> seen;
  for (std::size_t o = 0; o < 6; ++o) {  // the zeros cases share one stream
    const GeneratorOptions& opts = option_cases()[o].options;
    seen.push_back(fnv1a(generate_bitstream(fc.plan, fc.family, opts)));
  }
  for (std::size_t a = 0; a < seen.size(); ++a) {
    for (std::size_t b = a + 1; b < seen.size(); ++b) {
      EXPECT_NE(seen[a], seen[b]) << a << " vs " << b;
    }
  }
}

TEST(BitstreamGolden, ShapedStream) {
  ShapedPrr shape;
  shape.bands.push_back(PrrBand{PrrOrganization{4, ColumnDemand{2, 1, 1}},
                                ColumnWindow{24, 4}, 0});
  shape.bands.push_back(PrrBand{PrrOrganization{1, ColumnDemand{1, 0, 0}},
                                ColumnWindow{24, 1}, 4});
  const auto words = generate_shaped_bitstream(shape, Family::kVirtex5);
  const Digest got = digest(words, Family::kVirtex5);
  const Digest want{44238, 0x17D6CA71, 0x188330478A18EA28ull};
  EXPECT_EQ(got, want) << show(got);
}

TEST(BitstreamGolden, FullBitstreams) {
  // xc6slx45 has 16-bit configuration words; xc4vlx60 has 32-bit ones.
  const std::array<const char*, 2> parts{"xc6slx45", "xc4vlx60"};
  const std::array<Digest, 2> want{{
      {847194, 0x81A96B1C, 0x3A462CCD5FC6A3BAull},
      {437010, 0x083C9307, 0x0AD589495DA24749ull},
  }};
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const Fabric& fabric = DeviceDb::instance().get(parts[i]).fabric;
    const Digest got =
        digest(generate_full_bitstream(fabric), fabric.family());
    EXPECT_EQ(got, want[i]) << parts[i] << ": " << show(got);
  }
}

// Three Virtex-5 plans of increasing payload length.
const PrrPlan& small_plan() {
  static const PrrPlan p = plan(1, {1, 0, 0}, 20, 0);
  return p;
}
const PrrPlan& large_plan() {
  static const PrrPlan p = plan(4, {8, 1, 2}, 10, 1);
  return p;
}
const PrrPlan& larger_plan() {
  static const PrrPlan p = plan(8, {12, 2, 3}, 2, 0);
  return p;
}

const Digest kSmall{1558, 0x8376898E, 0x5E507FAFD07F9D07ull};
const Digest kLarge{104052, 0xF6E38415, 0xD9E7E20CFF129585ull};
const Digest kLarger{316308, 0x9684F916, 0x3BAF5115B92FC82Cull};

const Digest kSmallRandom{1558, 0x7F9947C4, 0x478FA6E97BE447E9ull};
const Digest kLargeRandom{104052, 0x44624278, 0xACB8F6E3519FDBD2ull};
const Digest kLargerRandom{316308, 0xE09F7F62, 0x5F976F5EC6A17380ull};

std::vector<u32> v5_words(const PrrPlan& p, const GeneratorOptions& o) {
  return generate_bitstream(p, Family::kVirtex5, o);
}

Digest v5(const PrrPlan& p, const GeneratorOptions& o = {}) {
  return digest(v5_words(p, o), Family::kVirtex5);
}

TEST(BitstreamGolden, LargeSmallLargeOrder) {
  EXPECT_EQ(v5(large_plan()), kLarge) << show(v5(large_plan()));
  EXPECT_EQ(v5(small_plan()), kSmall) << show(v5(small_plan()));
  EXPECT_EQ(v5(large_plan()), kLarge);
  EXPECT_EQ(v5(larger_plan()), kLarger) << show(v5(larger_plan()));
  EXPECT_EQ(v5(small_plan()), kSmall);
}

TEST(BitstreamGolden, SmallLargeOrder) {
  EXPECT_EQ(v5(small_plan()), kSmall);
  EXPECT_EQ(v5(large_plan()), kLarge);
  EXPECT_EQ(v5(larger_plan()), kLarger);
}

TEST(BitstreamGolden, SmallLargeOrderRandomPayload) {
  const GeneratorOptions random = options(PayloadKind::kRandom, 0x5EED);
  EXPECT_EQ(v5(small_plan(), random), kSmallRandom)
      << show(v5(small_plan(), random));
  EXPECT_EQ(v5(large_plan(), random), kLargeRandom)
      << show(v5(large_plan(), random));
  EXPECT_EQ(v5(larger_plan(), random), kLargerRandom)
      << show(v5(larger_plan(), random));
}

TEST(BitstreamGolden, ManyPayloadSeeds) {
  // More distinct payload option sets than any generator-side memo keeps:
  // every stream must still match, in either order.
  constexpr u64 kSeeds = 24;
  const Digest want{48, 0, 0x864B054EF933CD66ull};
  for (const bool reverse : {false, true}) {
    std::vector<u32> all(2 * kSeeds);  // (digest, size) per seed, in order
    for (u64 i = 0; i < kSeeds; ++i) {
      const u64 seed = reverse ? kSeeds - 1 - i : i;
      const GeneratorOptions opts = options(PayloadKind::kSparse, 1000 + seed);
      const auto words = v5_words(small_plan(), opts);
      all[2 * seed] = static_cast<u32>(fnv1a(words));
      all[2 * seed + 1] = static_cast<u32>(words.size());
    }
    const Digest got{all.size(), 0, fnv1a(all)};
    EXPECT_EQ(got, want) << (reverse ? "reverse: " : "forward: ") << show(got);
  }
}

TEST(BitstreamGolden, ConcurrentGenerationMatchesSerial) {
  // Eight threads start together and each walks the three Virtex-5 plans
  // (sparse and random payloads) in its own order, so the first long
  // stream of one option set races shorter reads from other threads.
  const std::array<const PrrPlan*, 3> plans{&small_plan(), &large_plan(),
                                            &larger_plan()};
  const std::array<Digest, 3> sparse_want{kSmall, kLarge, kLarger};
  const GeneratorOptions random = options(PayloadKind::kRandom, 0x5EED);
  const std::array<Digest, 3> random_want{kSmallRandom, kLargeRandom,
                                          kLargerRandom};

  constexpr unsigned kThreads = 8;
  constexpr int kRounds = 4;
  std::latch start{kThreads};
  std::array<int, kThreads> mismatches{};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      std::vector<u32> out;
      for (int r = 0; r < kRounds; ++r) {
        for (std::size_t k = 0; k < plans.size(); ++k) {
          const std::size_t p = (t + k + static_cast<unsigned>(r)) % 3;
          const bool use_random = (t + static_cast<unsigned>(r)) % 2 == 1;
          generate_bitstream_into(out, *plans[p], Family::kVirtex5,
                                  use_random ? random : GeneratorOptions{});
          const Digest got{out.size(),
                           parse_bitstream(out, Family::kVirtex5).crc_written,
                           fnv1a(out)};
          if (got != (use_random ? random_want[p] : sparse_want[p])) {
            ++mismatches[t];
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (unsigned t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

}  // namespace
}  // namespace prcost
