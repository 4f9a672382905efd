// Equivalence tests for the runtime-dispatched configuration CRC: every
// available implementation (bit-serial oracle, sliced tables, SSE4.2
// crc32) must produce identical states over random spans, spans
// straddling the 64-word lane block of the hardware kernel and its
// multiples, and every length 0..64 word by word.
#include <gtest/gtest.h>

#include <vector>

#include "bitstream/crc.hpp"
#include "util/rng.hpp"

namespace prcost {
namespace {

std::vector<CrcImpl> available_impls() {
  std::vector<CrcImpl> impls;
  for (const CrcImpl impl :
       {CrcImpl::kBitSerial, CrcImpl::kSliced, CrcImpl::kHwCrc32}) {
    if (crc_impl_available(impl)) impls.push_back(impl);
  }
  return impls;
}

std::vector<u32> random_words(Rng& rng, std::size_t n) {
  std::vector<u32> words(n);
  for (auto& w : words) w = static_cast<u32>(rng());
  return words;
}

TEST(CrcDispatch, SoftwareImplsAlwaysAvailable) {
  EXPECT_TRUE(crc_impl_available(CrcImpl::kBitSerial));
  EXPECT_TRUE(crc_impl_available(CrcImpl::kSliced));
  EXPECT_TRUE(crc_impl_available(active_crc_impl()));
}

TEST(CrcDispatch, ImplNamesAreStable) {
  EXPECT_STREQ(crc_impl_name(CrcImpl::kBitSerial), "bitserial");
  EXPECT_STREQ(crc_impl_name(CrcImpl::kSliced), "sliced");
  EXPECT_STREQ(crc_impl_name(CrcImpl::kHwCrc32), "hw-crc32");
}

TEST(CrcDispatch, AllImplsMatchOracleOnAllLengthsUpTo64) {
  Rng rng{0xC0FFEE01};
  const auto impls = available_impls();
  for (std::size_t len = 0; len <= 64; ++len) {
    const auto words = random_words(rng, len);
    for (const ConfigReg reg : {ConfigReg::kFdri, ConfigReg::kCmd,
                                ConfigReg::kFar}) {
      const u32 oracle = config_crc_advance(CrcImpl::kBitSerial, 0x12345678u,
                                            reg, words);
      for (const CrcImpl impl : impls) {
        EXPECT_EQ(config_crc_advance(impl, 0x12345678u, reg, words), oracle)
            << crc_impl_name(impl) << " len=" << len;
      }
    }
  }
}

TEST(CrcDispatch, AllImplsMatchOracleAroundBlockBoundaries) {
  Rng rng{0xC0FFEE02};
  const auto impls = available_impls();
  // The hw kernel switches strategy at 64-word (crc32 lane) boundaries;
  // exercise spans on each side of several multiples.
  for (const std::size_t len :
       {std::size_t{63}, std::size_t{64}, std::size_t{65}, std::size_t{127},
        std::size_t{128}, std::size_t{129}, std::size_t{191},
        std::size_t{192}, std::size_t{255}, std::size_t{256},
        std::size_t{257}, std::size_t{1000}}) {
    const auto words = random_words(rng, len);
    const u32 oracle =
        config_crc_advance(CrcImpl::kBitSerial, 0, ConfigReg::kFdri, words);
    for (const CrcImpl impl : impls) {
      EXPECT_EQ(config_crc_advance(impl, 0, ConfigReg::kFdri, words), oracle)
          << crc_impl_name(impl) << " len=" << len;
    }
  }
}

TEST(CrcDispatch, StateThreadsThroughSplitSpans) {
  // Splitting a span anywhere and threading the state through must equal
  // one contiguous advance, for every implementation.
  Rng rng{0xC0FFEE03};
  const auto words = random_words(rng, 300);
  const std::span<const u32> all{words};
  for (const CrcImpl impl : available_impls()) {
    const u32 whole = config_crc_advance(impl, 0, ConfigReg::kFdri, all);
    for (const std::size_t cut : {std::size_t{1}, std::size_t{37},
                                  std::size_t{64}, std::size_t{129},
                                  std::size_t{299}}) {
      u32 s = config_crc_advance(impl, 0, ConfigReg::kFdri, all.first(cut));
      s = config_crc_advance(impl, s, ConfigReg::kFdri, all.subspan(cut));
      EXPECT_EQ(s, whole) << crc_impl_name(impl) << " cut=" << cut;
    }
  }
}

TEST(CrcDispatch, CorruptedSpansDiverge) {
  // Flipping any single bit in a burst must change the CRC under every
  // implementation (it is a CRC, after all), and all implementations must
  // agree on the corrupted value too.
  Rng rng{0xC0FFEE04};
  const auto impls = available_impls();
  auto words = random_words(rng, 130);
  const u32 clean =
      config_crc_advance(CrcImpl::kBitSerial, 0, ConfigReg::kFdri, words);
  for (const std::size_t at : {std::size_t{0}, std::size_t{63},
                               std::size_t{64}, std::size_t{127},
                               std::size_t{128}, std::size_t{129}}) {
    words[at] ^= 1u << (at % 32);
    const u32 corrupt =
        config_crc_advance(CrcImpl::kBitSerial, 0, ConfigReg::kFdri, words);
    EXPECT_NE(corrupt, clean) << "bit flip at word " << at;
    for (const CrcImpl impl : impls) {
      EXPECT_EQ(config_crc_advance(impl, 0, ConfigReg::kFdri, words),
                corrupt)
          << crc_impl_name(impl) << " at=" << at;
    }
    words[at] ^= 1u << (at % 32);
  }
}

TEST(CrcDispatch, ConfigCrcMatchesOracleUnderEveryForcedImpl) {
  Rng rng{0xC0FFEE05};
  const auto words = random_words(rng, 200);
  BitSerialConfigCrc oracle;
  for (const u32 w : words) oracle.update(ConfigReg::kFdri, w);
  oracle.update(ConfigReg::kCmd, 0x5);

  const CrcImpl before = active_crc_impl();
  for (const CrcImpl impl : available_impls()) {
    ASSERT_TRUE(set_crc_impl(impl));
    EXPECT_EQ(active_crc_impl(), impl);
    ConfigCrc crc;
    crc.update_span(ConfigReg::kFdri, words);
    crc.update(ConfigReg::kCmd, 0x5);
    EXPECT_EQ(crc.value(), oracle.value()) << crc_impl_name(impl);
  }
  ASSERT_TRUE(set_crc_impl(before));
}

TEST(CrcDispatch, SetCrcImplRejectsUnavailable) {
  for (const CrcImpl impl : {CrcImpl::kHwCrc32}) {
    if (!crc_impl_available(impl)) {
      const CrcImpl before = active_crc_impl();
      EXPECT_FALSE(set_crc_impl(impl));
      EXPECT_EQ(active_crc_impl(), before);
    }
  }
}

TEST(Crc32cBytes, MatchesKnownVectors) {
  // RFC 3720 iSCSI test vectors for CRC-32C.
  const unsigned char zeros[32] = {};
  EXPECT_EQ(crc32c_bytes(zeros, sizeof zeros), 0x8A9136AAu);
  unsigned char ones[32];
  for (auto& b : ones) b = 0xFF;
  EXPECT_EQ(crc32c_bytes(ones, sizeof ones), 0x62A8AB43u);
  unsigned char ascending[32];
  for (u32 i = 0; i < 32; ++i) ascending[i] = static_cast<unsigned char>(i);
  EXPECT_EQ(crc32c_bytes(ascending, sizeof ascending), 0x46DD794Eu);
  EXPECT_EQ(crc32c_bytes("123456789", 9), 0xE3069283u);
}

TEST(Crc32cBytes, SensitiveToEveryByte) {
  Rng rng{0xC0FFEE06};
  std::vector<unsigned char> data(100);
  for (auto& b : data) b = static_cast<unsigned char>(rng.below(256));
  const u32 clean = crc32c_bytes(data.data(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] ^= 0x40;
    EXPECT_NE(crc32c_bytes(data.data(), data.size()), clean) << i;
    data[i] ^= 0x40;
  }
}

}  // namespace
}  // namespace prcost
