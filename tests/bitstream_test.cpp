#include <gtest/gtest.h>

#include <array>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "bitstream/crc.hpp"
#include "bitstream/frame_address.hpp"
#include "bitstream/generator.hpp"
#include "bitstream/parser.hpp"
#include "cost/prr_search.hpp"
#include "device/device_db.hpp"
#include "obs/obs.hpp"
#include "paperdata/paper_dataset.hpp"
#include "tests/support/bitstreams.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace prcost {
namespace {

// ---------------------------------------------------------------- words ---

TEST(Packets, Type1RoundTrip) {
  const u32 word = type1(PacketOp::kWrite, ConfigReg::kFar, 1);
  EXPECT_EQ(packet_type(word), 1u);
  EXPECT_EQ(packet_op(word), PacketOp::kWrite);
  EXPECT_EQ(packet_reg(word), ConfigReg::kFar);
  EXPECT_EQ(type1_count(word), 1u);
}

TEST(Packets, Type2CarriesBigCounts) {
  const u32 word = type2(PacketOp::kWrite, 20730);
  EXPECT_EQ(packet_type(word), 2u);
  EXPECT_EQ(type2_count(word), 20730u);
}

TEST(Packets, EveryRegisterRoundTripsAtFullCount) {
  // No header field bleeds into its neighbours, even at the largest
  // type-1 count (11 bits) and on the highest register address.
  for (u32 r = 0; r <= static_cast<u32>(ConfigReg::kAxss); ++r) {
    const auto reg = static_cast<ConfigReg>(r);
    for (const PacketOp op : {PacketOp::kRead, PacketOp::kWrite}) {
      const u32 word = type1(op, reg, 0x7FF);
      EXPECT_EQ(packet_type(word), 1u) << r;
      EXPECT_EQ(packet_op(word), op) << r;
      EXPECT_EQ(packet_reg(word), reg) << r;
      EXPECT_EQ(type1_count(word), 0x7FFu) << r;
    }
  }
  const u32 big = type2(PacketOp::kWrite, 0x7FFFFFF);
  EXPECT_EQ(packet_type(big), 2u);
  EXPECT_EQ(packet_op(big), PacketOp::kWrite);
  EXPECT_EQ(type2_count(big), 0x7FFFFFFu);
}

// ------------------------------------------------------------------- far ---

TEST(FrameAddress, RoundTrips) {
  const FrameAddress far{FrameBlock::kBramContent, 7, 33, 5};
  EXPECT_EQ(decode_far(encode_far(far)), far);
}

TEST(FrameAddress, FieldRangeChecked) {
  FrameAddress far;
  far.row = 32;  // 5-bit field
  EXPECT_THROW(encode_far(far), ContractError);
  far = FrameAddress{};
  far.major = 256;
  EXPECT_THROW(encode_far(far), ContractError);
}

TEST(FrameAddress, ToString) {
  const FrameAddress far{FrameBlock::kInterconnect, 2, 25, 0};
  EXPECT_EQ(far_to_string(far), "CFG row 2 major 25 minor 0");
}

// ------------------------------------------------------------------- crc ---

TEST(Crc, DeterministicAndOrderSensitive) {
  ConfigCrc a, b;
  a.update(ConfigReg::kFdri, 0x12345678);
  a.update(ConfigReg::kFdri, 0x9ABCDEF0);
  b.update(ConfigReg::kFdri, 0x9ABCDEF0);
  b.update(ConfigReg::kFdri, 0x12345678);
  EXPECT_NE(a.value(), b.value());
  ConfigCrc c;
  c.update(ConfigReg::kFdri, 0x12345678);
  c.update(ConfigReg::kFdri, 0x9ABCDEF0);
  EXPECT_EQ(a.value(), c.value());
}

TEST(Crc, RegisterAddressMatters) {
  ConfigCrc a, b;
  a.update(ConfigReg::kFdri, 0x1);
  b.update(ConfigReg::kFar, 0x1);
  EXPECT_NE(a.value(), b.value());
}

TEST(Crc, ResetClears) {
  ConfigCrc crc;
  crc.update(ConfigReg::kFdri, 42);
  crc.reset();
  EXPECT_EQ(crc.value(), 0u);
}

// ------------------------------------------------------------ crc slices ---

std::vector<CrcImpl> available_crc_impls() {
  std::vector<CrcImpl> impls;
  for (const CrcImpl impl :
       {CrcImpl::kBitSerial, CrcImpl::kSliced, CrcImpl::kHwCrc32}) {
    if (crc_impl_available(impl)) impls.push_back(impl);
  }
  return impls;
}

/// Restores the process-wide CRC dispatch when the test ends.
struct CrcImplGuard {
  CrcImpl saved = active_crc_impl();
  ~CrcImplGuard() { set_crc_impl(saved); }
};

std::vector<u32> random_words(Rng& rng, std::size_t n) {
  std::vector<u32> words(n);
  for (u32& w : words) w = static_cast<u32>(rng());
  return words;
}

/// A ConfigCrc and its bit-serial oracle driven to one random state by
/// random writes to random registers.
struct CrcPair {
  ConfigCrc crc;
  BitSerialConfigCrc oracle;

  explicit CrcPair(Rng& rng) {
    const u64 writes = 1 + rng() % 8;
    for (u64 i = 0; i < writes; ++i) {
      const auto reg = static_cast<ConfigReg>(rng() % 32);
      const auto data = static_cast<u32>(rng());
      crc.update(reg, data);
      oracle.update(reg, data);
    }
  }

  /// Absorb words [a, a + n): the pair's ConfigCrc through the
  /// checkpoints and a shift, the oracle word by word.
  void absorb(const CrcCheckpoints& cps, const std::vector<u32>& words,
              std::size_t a, std::size_t n) {
    crc.absorb_slice(cps.prefix(words, a), cps.prefix(words, a + n),
                     CrcShift{n});
    for (std::size_t i = a; i < a + n; ++i) {
      oracle.update(ConfigReg::kFdri, words[i]);
    }
  }
};

TEST(CrcSlice, AbsorbSliceMatchesBitSerialOracle) {
  const CrcImplGuard guard;
  Rng rng{0x511CE};
  const std::vector<u32> words = random_words(rng, 1000);
  const std::array<std::size_t, 9> lengths{0, 1, 63, 64, 65, 127, 128, 129,
                                           700};
  const std::array<std::size_t, 8> offsets{0, 1, 62, 63, 64, 65, 128, 299};
  for (const CrcImpl impl : available_crc_impls()) {
    ASSERT_TRUE(set_crc_impl(impl));
    CrcCheckpoints cps;
    cps.extend(words);
    EXPECT_EQ(cps.size(), 1 + words.size() / CrcCheckpoints::kStride);
    for (const std::size_t n : lengths) {
      for (const std::size_t a : offsets) {
        CrcPair pair{rng};
        pair.absorb(cps, words, a, n);
        EXPECT_EQ(pair.crc.value(), pair.oracle.value())
            << crc_impl_name(impl) << " a=" << a << " n=" << n;
      }
    }
    for (int trial = 0; trial < 200; ++trial) {
      const std::size_t a = rng() % (words.size() + 1);
      const std::size_t n = rng() % (words.size() - a + 1);
      CrcPair pair{rng};
      pair.absorb(cps, words, a, n);
      EXPECT_EQ(pair.crc.value(), pair.oracle.value())
          << crc_impl_name(impl) << " a=" << a << " n=" << n;
    }
  }
}

TEST(CrcSlice, ConsecutiveSlicesThreadTheState) {
  // Bursts with register writes between them, as a stream absorbs them.
  const CrcImplGuard guard;
  Rng rng{0xB0057};
  const std::vector<u32> words = random_words(rng, 2000);
  for (const CrcImpl impl : available_crc_impls()) {
    ASSERT_TRUE(set_crc_impl(impl));
    CrcCheckpoints cps;
    cps.extend(words);
    CrcPair pair{rng};
    std::size_t a = 0;
    for (const std::size_t n : {41u, 41u, 369u, 0u, 64u, 1u, 1000u, 63u}) {
      const auto far = static_cast<u32>(rng());
      pair.crc.update(ConfigReg::kFar, far);
      pair.oracle.update(ConfigReg::kFar, far);
      pair.absorb(cps, words, a, n);
      a += n;
      EXPECT_EQ(pair.crc.value(), pair.oracle.value())
          << crc_impl_name(impl) << " after " << a << " words";
    }
  }
}

TEST(CrcSlice, CheckpointsSurviveGrowth) {
  // The tape grows to lengths that fall on and off the checkpoint stride;
  // each grown snapshot copies the older checkpoints and extends them,
  // and the older snapshot keeps answering for its own prefix.
  const CrcImplGuard guard;
  Rng rng{0x6A0};
  const std::vector<u32> words = random_words(rng, 1500);
  const std::span<const u32> all{words};
  for (const CrcImpl impl : available_crc_impls()) {
    ASSERT_TRUE(set_crc_impl(impl));
    std::vector<CrcCheckpoints> snapshots{CrcCheckpoints{}};
    std::vector<std::size_t> sizes{0};
    for (const std::size_t size : {1u, 63u, 64u, 65u, 200u, 256u, 257u,
                                   1000u, 1500u}) {
      CrcCheckpoints grown = snapshots.back();
      grown.extend(all.first(size));
      snapshots.push_back(grown);
      sizes.push_back(size);
    }
    for (std::size_t s = 0; s < snapshots.size(); ++s) {
      const std::span<const u32> held = all.first(sizes[s]);
      BitSerialConfigCrc oracle;
      for (std::size_t i = 0; i <= held.size(); ++i) {
        // From state 0 the slice [0, i) leaves exactly P_i.
        ConfigCrc from_zero;
        from_zero.absorb_slice(0, snapshots[s].prefix(held, i), CrcShift{});
        ASSERT_EQ(from_zero.value(), oracle.value())
            << crc_impl_name(impl) << " size=" << held.size() << " i=" << i;
        if (i < held.size()) oracle.update(ConfigReg::kFdri, held[i]);
      }
    }
    // Slices across the 200 -> 256 -> 257 growth steps, from the final
    // snapshot.
    for (const auto& [a, n] : {std::pair<std::size_t, std::size_t>{190, 20},
                               {199, 58}, {255, 2}, {63, 900}, {999, 501}}) {
      CrcPair pair{rng};
      pair.absorb(snapshots.back(), words, a, n);
      EXPECT_EQ(pair.crc.value(), pair.oracle.value())
          << crc_impl_name(impl) << " a=" << a << " n=" << n;
    }
  }
}

TEST(CrcSlice, ContractChecks) {
  Rng rng{0xC0};
  const std::vector<u32> words = random_words(rng, 130);
  CrcCheckpoints cps;
  cps.extend(words);
  EXPECT_EQ(cps.size(), 3u);
  EXPECT_THROW((void)cps.prefix(words, 131), ContractError);
  EXPECT_THROW(cps.extend(std::span<const u32>{words}.first(100)),
               ContractError);
  CrcCheckpoints short_cps;
  short_cps.extend(std::span<const u32>{words}.first(10));
  EXPECT_THROW((void)short_cps.prefix(words, 64), ContractError);
  EXPECT_EQ(CrcShift{}(0xDEADBEEFu), 0xDEADBEEFu);  // the identity
}

// ------------------------------------------------------ header / trailer ---

TEST(Generator, HeaderLengthEqualsIwForAllFamilies) {
  // The paper's IW constant must equal what the generator actually emits;
  // Table IV and the generator share one source of truth.
  for (const Family family : kAllFamilies) {
    EXPECT_EQ(header_words(family, default_idcode(family)).size(),
              traits(family).iw)
        << family_name(family);
  }
}

TEST(Generator, TrailerLengthEqualsFwForAllFamilies) {
  for (const Family family : kAllFamilies) {
    EXPECT_EQ(trailer_words(family, 0xDEADBEEF).size(), traits(family).fw)
        << family_name(family);
  }
}

TEST(Generator, BitstreamTracesAsBitstreamGen) {
  // perfbench attributes every "bitstream_gen*" span to its bitstream
  // layer; the generator must keep reporting under that name.
  const auto& rec = paperdata::table5_record("FIR", "xc5vlx110t");
  const auto plan =
      find_prr(rec.req, DeviceDb::instance().get(rec.device).fabric);
  ASSERT_TRUE(plan.has_value());
  obs::clear_trace();
  obs::set_tracing(true);
  const auto words = generate_bitstream(*plan, rec.family);
  obs::set_tracing(false);
  EXPECT_FALSE(words.empty());
  std::size_t spans = 0;
  for (const auto& span : obs::trace_spans()) {
    if (std::string_view{span.name} == "bitstream_gen") ++spans;
  }
  EXPECT_EQ(spans, 1u);
  obs::clear_trace();
}

TEST(Generator, HeaderContainsSync) {
  const auto words = header_words(Family::kVirtex5, 0x02AD6093);
  EXPECT_NE(std::find(words.begin(), words.end(), cfg::kSync), words.end());
}

// --------------------------------------- model == generator (Table VII) ---

class ModelVsGenerator
    : public ::testing::TestWithParam<paperdata::TableVRecord> {};

TEST_P(ModelVsGenerator, ByteExactAgreement) {
  const auto& rec = GetParam();
  const Fabric& fabric = DeviceDb::instance().get(rec.device).fabric;
  const auto plan = find_prr(rec.req, fabric);
  ASSERT_TRUE(plan.has_value());
  const auto words = generate_bitstream(*plan, rec.family);
  const auto bytes = to_bytes(words, rec.family);
  EXPECT_EQ(bytes.size(), plan->bitstream.total_bytes);
  EXPECT_EQ(words.size(), plan->bitstream.total_words);
}

TEST_P(ModelVsGenerator, ParserRecoversStructure) {
  const auto& rec = GetParam();
  const Fabric& fabric = DeviceDb::instance().get(rec.device).fabric;
  const auto plan = find_prr(rec.req, fabric);
  ASSERT_TRUE(plan.has_value());
  const auto words = generate_bitstream(*plan, rec.family);
  const BitstreamLayout layout = parse_bitstream(words, rec.family);
  const FamilyTraits& t = traits(rec.family);
  EXPECT_EQ(layout.initial_words, t.iw);
  EXPECT_EQ(layout.final_words, t.fw);
  EXPECT_EQ(layout.config_burst_count(), plan->organization.h);
  const u64 bram_bursts =
      plan->organization.columns.bram_cols > 0 ? plan->organization.h : 0;
  EXPECT_EQ(layout.bram_burst_count(), bram_bursts);
  EXPECT_TRUE(layout.crc_ok);
  EXPECT_TRUE(layout.desync_seen);
  EXPECT_EQ(layout.idcode, default_idcode(rec.family));
  // Frame counts per burst match Eqs. (19)-(23).
  for (const FdriBurst& burst : layout.bursts) {
    if (burst.far.block == FrameBlock::kInterconnect) {
      EXPECT_EQ(burst.frames, plan->bitstream.config_frames_per_row);
    } else {
      EXPECT_EQ(burst.frames,
                u64{plan->organization.columns.bram_cols} * t.df_bram + 1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Paper, ModelVsGenerator,
    ::testing::ValuesIn(paperdata::table5().begin(),
                        paperdata::table5().end()),
    [](const ::testing::TestParamInfo<paperdata::TableVRecord>& tp_info) {
      std::string name{tp_info.param.prm};
      name += "_";
      name += tp_info.param.device;
      return name;
    });

// Property sweep: model == generator for synthetic organizations across
// every family and a grid of shapes - not just the paper's six points.
struct SweepPoint {
  Family family;
  u32 h;
  u32 clb;
  u32 dsp;
  u32 bram;
};

class SizeSweep : public ::testing::TestWithParam<SweepPoint> {};

TEST_P(SizeSweep, ModelEqualsGenerator) {
  const auto& p = GetParam();
  PrrPlan plan;
  plan.organization.h = p.h;
  plan.organization.columns = ColumnDemand{p.clb, p.dsp, p.bram};
  plan.window = ColumnWindow{1, plan.organization.width()};
  plan.bitstream =
      estimate_bitstream(plan.organization, traits(p.family));
  const auto words = generate_bitstream(plan, p.family);
  EXPECT_EQ(words.size(), plan.bitstream.total_words);
  const auto layout = parse_bitstream(words, p.family);
  EXPECT_TRUE(layout.crc_ok);
  EXPECT_EQ(layout.total_words, plan.bitstream.total_words);
}

std::vector<SweepPoint> sweep_points() {
  std::vector<SweepPoint> points;
  for (const Family family : kAllFamilies) {
    for (const u32 h : {1u, 2u, 3u, 7u}) {
      for (const u32 clb : {1u, 5u, 17u}) {
        for (const u32 dsp : {0u, 1u, 2u}) {
          for (const u32 bram : {0u, 1u, 3u}) {
            points.push_back(SweepPoint{family, h, clb, dsp, bram});
          }
        }
      }
    }
  }
  return points;
}

INSTANTIATE_TEST_SUITE_P(Grid, SizeSweep, ::testing::ValuesIn(sweep_points()));

// ---------------------------------------------------------------- parser ---

TEST(Parser, MissingSyncThrows) {
  const std::vector<u32> junk(16, cfg::kDummy);
  EXPECT_THROW(parse_bitstream(junk, Family::kVirtex5), ParseError);
}

TEST(Parser, TruncatedStreamThrows) {
  PrrPlan plan;
  plan.organization.h = 1;
  plan.organization.columns = ColumnDemand{2, 0, 0};
  plan.bitstream = estimate_bitstream(plan.organization,
                                      traits(Family::kVirtex5));
  auto words = generate_bitstream(plan, Family::kVirtex5);
  words.resize(words.size() / 2);
  EXPECT_THROW(parse_bitstream(words, Family::kVirtex5), ParseError);
}

TEST(Parser, CorruptedPayloadBreaksCrc) {
  PrrPlan plan;
  plan.organization.h = 1;
  plan.organization.columns = ColumnDemand{2, 0, 0};
  plan.bitstream = estimate_bitstream(plan.organization,
                                      traits(Family::kVirtex5));
  auto words = generate_bitstream(plan, Family::kVirtex5);
  // Flip one bit in the middle of the frame data.
  words[words.size() / 2] ^= 0x00010000;
  const auto layout = parse_bitstream(words, Family::kVirtex5);
  EXPECT_FALSE(layout.crc_ok);
}

TEST(Parser, DisassemblyMentionsStructure) {
  PrrPlan plan;
  plan.organization.h = 2;
  plan.organization.columns = ColumnDemand{1, 0, 1};
  plan.bitstream = estimate_bitstream(plan.organization,
                                      traits(Family::kVirtex5));
  const auto words = generate_bitstream(plan, Family::kVirtex5);
  const std::string text = disassemble(words, Family::kVirtex5);
  EXPECT_NE(text.find("BRAM"), std::string::npos);
  EXPECT_NE(text.find("crc           : ok"), std::string::npos);
}

TEST(Generator, PayloadSeedChangesDataNotSize) {
  PrrPlan plan;
  plan.organization.h = 1;
  plan.organization.columns = ColumnDemand{3, 0, 0};
  plan.bitstream = estimate_bitstream(plan.organization,
                                      traits(Family::kVirtex5));
  GeneratorOptions a, b;
  a.payload_seed = 1;
  b.payload_seed = 2;
  const auto wa = generate_bitstream(plan, Family::kVirtex5, a);
  const auto wb = generate_bitstream(plan, Family::kVirtex5, b);
  EXPECT_EQ(wa.size(), wb.size());
  EXPECT_NE(wa, wb);
  // Both parse and CRC-check: the CRC adapts to the payload.
  EXPECT_TRUE(parse_bitstream(wa, Family::kVirtex5).crc_ok);
  EXPECT_TRUE(parse_bitstream(wb, Family::kVirtex5).crc_ok);
}

TEST(Generator, ToBytesBigEndian) {
  const std::vector<u32> words{0xAA995566};
  const auto bytes = to_bytes(words, Family::kVirtex5);
  ASSERT_EQ(bytes.size(), 4u);
  EXPECT_EQ(bytes[0], 0xAA);
  EXPECT_EQ(bytes[3], 0x66);
}

/// Bit-serial replica of the generator: its own payload Rng, word-at-a-
/// time output and BitSerialConfigCrc, sharing neither the payload tape
/// nor the span kernels with the code under test.
std::vector<u32> oracle_stream(const PrrPlan& plan, Family family,
                               const GeneratorOptions& options) {
  const FamilyTraits& t = traits(family);
  const u32 idcode = default_idcode(family);
  std::vector<u32> out = header_words(family, idcode);
  BitSerialConfigCrc crc;
  crc.update(ConfigReg::kIdcode, idcode);
  crc.update(ConfigReg::kCmd, static_cast<u32>(ConfigCmd::kWcfg));
  crc.update(ConfigReg::kMask, 0);
  if (family == Family::kVirtex6 || family == Family::kSeries7) {
    crc.update(ConfigReg::kCtl0, 0);
  }
  Rng payload{options.payload_seed};
  const auto draw = [&]() -> u32 {
    switch (options.payload) {
      case PayloadKind::kRandom: return static_cast<u32>(payload());
      case PayloadKind::kZeros: return 0;
      case PayloadKind::kSparse:
        return payload.chance(options.sparse_density)
                   ? static_cast<u32>(payload())
                   : 0u;
    }
    return 0;
  };
  const ColumnDemand& c = plan.organization.columns;
  const u64 cfg_words = (u64{c.clb_cols} * t.cf_clb + u64{c.dsp_cols} *
                         t.cf_dsp + u64{c.bram_cols} * t.cf_bram + 1) *
                        t.frame_size;
  const u64 bram_words =
      c.bram_cols > 0 ? (u64{c.bram_cols} * t.df_bram + 1) * t.frame_size : 0;
  const auto burst = [&](FrameBlock block, u32 row, u64 n) {
    out.push_back(cfg::kNoop);
    const u32 far =
        encode_far(FrameAddress{block, row, plan.window.first_col, 0});
    out.push_back(type1(PacketOp::kWrite, ConfigReg::kFar, 1));
    out.push_back(far);
    crc.update(ConfigReg::kFar, far);
    out.push_back(type1(PacketOp::kWrite, ConfigReg::kFdri, 0));
    out.push_back(type2(PacketOp::kWrite, static_cast<u32>(n)));
    for (u64 i = 0; i < n; ++i) {
      const u32 word = draw();
      out.push_back(word);
      crc.update(ConfigReg::kFdri, word);
    }
  };
  for (u32 row = 0; row < plan.organization.h; ++row) {
    burst(FrameBlock::kInterconnect, plan.first_row + row, cfg_words);
    if (bram_words > 0) {
      burst(FrameBlock::kBramContent, plan.first_row + row, bram_words);
    }
  }
  crc.update(ConfigReg::kCmd, static_cast<u32>(ConfigCmd::kLfrm));
  append_trailer_words(out, family, crc.value());
  return out;
}

PrrPlan v5_plan(u32 h, ColumnDemand cols) {
  PrrPlan p;
  p.organization = PrrOrganization{h, cols};
  p.window = ColumnWindow{10, cols.width()};
  p.first_row = 1;
  return p;
}

TEST(Generator, TapeGrownFreshAndTapelessStreamsMatchOracle) {
  // Seed 0x7A9E01 grows its tape from a small stream to a large one; seed
  // 0x7A9E02 starts with the large one. Eleven more option sets then take
  // every tape slot, so seed 0x7A9E0F draws its words without a tape.
  // Every stream must equal the bit-serial oracle under every CRC
  // implementation, whichever one recorded the tape's checkpoints.
  const CrcImplGuard guard;
  const PrrPlan small = v5_plan(1, {2, 0, 1});
  const PrrPlan large = v5_plan(4, {8, 1, 2});
  const auto opts = [](u64 seed, PayloadKind kind = PayloadKind::kSparse) {
    GeneratorOptions o;
    o.payload = kind;
    o.payload_seed = seed;
    return o;
  };
  const auto check = [&](const PrrPlan& plan, const GeneratorOptions& o,
                         const char* what) {
    const std::vector<u32> want = oracle_stream(plan, Family::kVirtex5, o);
    for (const CrcImpl impl : available_crc_impls()) {
      ASSERT_TRUE(set_crc_impl(impl));
      EXPECT_EQ(generate_bitstream(plan, Family::kVirtex5, o), want)
          << what << " under " << crc_impl_name(impl);
    }
  };
  check(small, opts(0x7A9E01), "small, fresh tape");
  check(large, opts(0x7A9E01), "large, grown tape");
  check(large, opts(0x7A9E02), "large, fresh tape");
  for (u64 seed = 0x7A9E03; seed < 0x7A9E0E; ++seed) {
    (void)generate_bitstream(small, Family::kVirtex5, opts(seed));
  }
  check(large, opts(0x7A9E0F), "large, no tape");
  check(large, opts(0x7A9E0F, PayloadKind::kRandom), "random, no tape");
  check(large, opts(0x7A9E0F, PayloadKind::kZeros), "zeros");
}

TEST(Generator, EmptyPlanThrows) {
  PrrPlan plan;  // h == 0
  EXPECT_THROW(generate_bitstream(plan, Family::kVirtex5), ContractError);
}

}  // namespace
}  // namespace prcost
