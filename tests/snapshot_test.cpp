// Snapshot container + persistent-cache round trips.
//
// Three layers under test: the framed container itself (magic / version /
// endianness / truncation / checksum rejection), the plan- and
// bitstream-cache save/load pairs (restored entries must be byte-identical
// and corrupt files must leave the caches unchanged), and the Engine
// warm-start contract (a snapshot-loaded Engine answers byte-identically
// to a cold one, and a corrupt snapshot degrades to a clean cold start).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "bitstream/bitstream_cache.hpp"
#include "bitstream/crc.hpp"
#include "cost/plan_cache.hpp"
#include "device/device_db.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/snapshot.hpp"

namespace prcost {
namespace {

namespace fs = std::filesystem;

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test-case directory: ctest runs each case as its own process
    // in parallel, so a shared fixed path would let two cases remove
    // each other's files mid-test.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::path{::testing::TempDir()} /
           (std::string{"prcost_snapshot_test_"} + info->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    plan_cache_clear();
    bitstream_cache_clear();
  }
  void TearDown() override {
    fs::remove_all(dir_);
    plan_cache_clear();
    bitstream_cache_clear();
  }

  std::string path(const char* name) const { return (dir_ / name).string(); }

  static std::vector<unsigned char> read_file(const std::string& path) {
    std::ifstream in{path, std::ios::binary};
    return {std::istreambuf_iterator<char>{in},
            std::istreambuf_iterator<char>{}};
  }

  static void write_file(const std::string& path,
                         const std::vector<unsigned char>& bytes) {
    std::ofstream out{path, std::ios::binary | std::ios::trunc};
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  fs::path dir_;
};

TEST_F(SnapshotTest, RoundTripsEveryPrimitive) {
  SnapshotWriter writer;
  writer.put_u32(0xDEADBEEFu);
  writer.put_u64(0x0123456789ABCDEFull);
  writer.put_f64(-1234.5678);
  writer.put_string("partial region");
  writer.put_string("");  // empty strings survive
  const unsigned char raw[5] = {1, 2, 3, 4, 5};
  writer.put_bytes(raw, sizeof raw);
  writer.write(path("round.snap"), 7);

  SnapshotReader reader{path("round.snap"), 7};
  EXPECT_EQ(reader.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.get_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(reader.get_f64(), -1234.5678);
  EXPECT_EQ(reader.get_string(), "partial region");
  EXPECT_EQ(reader.get_string(), "");
  unsigned char back[5] = {};
  reader.get_bytes(back, sizeof back);
  EXPECT_EQ(std::vector<unsigned char>(back, back + 5),
            std::vector<unsigned char>(raw, raw + 5));
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST_F(SnapshotTest, ChecksumMatchesDispatchedCrc32c) {
  // The container's local CRC-32C must stay bit-identical to the
  // hardware-dispatched crc32c_bytes in bitstream/crc.
  const char* vector = "123456789";
  EXPECT_EQ(snapshot_checksum(vector, 9), 0xE3069283u);
  EXPECT_EQ(snapshot_checksum(vector, 9), crc32c_bytes(vector, 9));
  Rng rng{0xC5C5u};
  std::vector<unsigned char> bytes(4093);
  for (auto& b : bytes) b = static_cast<unsigned char>(rng());
  EXPECT_EQ(snapshot_checksum(bytes.data(), bytes.size()),
            crc32c_bytes(bytes.data(), bytes.size()));
}

TEST_F(SnapshotTest, ReadingPastThePayloadThrows) {
  SnapshotWriter writer;
  writer.put_u32(1);
  writer.write(path("short.snap"), 1);
  SnapshotReader reader{path("short.snap"), 1};
  EXPECT_EQ(reader.get_u32(), 1u);
  EXPECT_THROW(reader.get_u32(), ParseError);
}

TEST_F(SnapshotTest, MissingFileIsIoErrorNotParseError) {
  EXPECT_THROW(SnapshotReader(path("absent.snap"), 1), IoError);
}

TEST_F(SnapshotTest, RejectsBadMagic) {
  SnapshotWriter writer;
  writer.put_u64(42);
  writer.write(path("magic.snap"), 1);
  auto bytes = read_file(path("magic.snap"));
  bytes[0] ^= 0xFFu;
  write_file(path("magic.snap"), bytes);
  EXPECT_THROW(SnapshotReader(path("magic.snap"), 1), ParseError);
}

TEST_F(SnapshotTest, RejectsWrongVersion) {
  SnapshotWriter writer;
  writer.put_u64(42);
  writer.write(path("version.snap"), 3);
  EXPECT_NO_THROW(SnapshotReader(path("version.snap"), 3));
  EXPECT_THROW(SnapshotReader(path("version.snap"), 4), ParseError);
}

TEST_F(SnapshotTest, RejectsForeignEndianness) {
  SnapshotWriter writer;
  writer.put_u64(42);
  writer.write(path("endian.snap"), 1);
  auto bytes = read_file(path("endian.snap"));
  std::swap(bytes[8], bytes[11]);  // byte-swap the endianness marker
  std::swap(bytes[9], bytes[10]);
  write_file(path("endian.snap"), bytes);
  EXPECT_THROW(SnapshotReader(path("endian.snap"), 1), ParseError);
}

TEST_F(SnapshotTest, RejectsTruncationAtEveryBoundary) {
  SnapshotWriter writer;
  writer.put_u64(42);
  writer.put_string("payload");
  writer.write(path("trunc.snap"), 1);
  const auto bytes = read_file(path("trunc.snap"));
  // Chop at: inside the header, exactly the header, mid-payload, and
  // inside the CRC trailer.
  for (const std::size_t keep :
       {std::size_t{3}, std::size_t{20}, bytes.size() - 10, bytes.size() - 1}) {
    ASSERT_LT(keep, bytes.size());
    write_file(path("trunc.snap"),
               {bytes.begin(), bytes.begin() + static_cast<long>(keep)});
    EXPECT_THROW(SnapshotReader(path("trunc.snap"), 1), ParseError) << keep;
  }
}

TEST_F(SnapshotTest, RejectsPayloadCorruption) {
  SnapshotWriter writer;
  for (u64 i = 0; i < 64; ++i) writer.put_u64(i);
  writer.write(path("crc.snap"), 1);
  const auto pristine = read_file(path("crc.snap"));
  // Flip one bit in several payload positions: the checksum catches all.
  for (const std::size_t at : {std::size_t{20}, std::size_t{100},
                               pristine.size() - 5}) {
    auto bytes = pristine;
    bytes[at] ^= 0x10u;
    write_file(path("crc.snap"), bytes);
    EXPECT_THROW(SnapshotReader(path("crc.snap"), 1), ParseError) << at;
  }
}

TEST_F(SnapshotTest, PlanCacheRoundTrips) {
  const Device& device = DeviceDb::instance().get("xc5vlx110t");
  PrmRequirements req;
  req.lut_ff_pairs = 2000;
  req.luts = 1800;
  req.ffs = 1500;
  req.dsps = 4;
  req.brams = 2;
  const auto before = find_prr_cached(req, device.fabric, {});
  ASSERT_TRUE(before.has_value());
  const auto widened =
      widened_candidates(req, device.fabric, SearchObjective::kMinArea);
  ASSERT_FALSE(widened->empty());
  const u64 entries = plan_cache_stats().entries;
  ASSERT_GE(entries, 2u);

  EXPECT_EQ(plan_cache_save(path("plan.snap")), entries);
  plan_cache_clear();
  ASSERT_EQ(plan_cache_stats().entries, 0u);
  EXPECT_EQ(plan_cache_load(path("plan.snap")), entries);
  EXPECT_EQ(plan_cache_stats().entries, entries);

  // Restored entries are hits and byte-identical to the originals.
  const u64 hits_before = plan_cache_stats().hits;
  const auto after = find_prr_cached(req, device.fabric, {});
  EXPECT_EQ(plan_cache_stats().hits, hits_before + 1);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->organization.h, before->organization.h);
  EXPECT_EQ(after->window.first_col, before->window.first_col);
  EXPECT_EQ(after->first_row, before->first_row);
  EXPECT_EQ(after->available.luts, before->available.luts);
  EXPECT_EQ(after->ru.clb, before->ru.clb);
  EXPECT_EQ(after->bitstream.total_bytes, before->bitstream.total_bytes);
  const auto widened_after =
      widened_candidates(req, device.fabric, SearchObjective::kMinArea);
  ASSERT_EQ(widened_after->size(), widened->size());
  for (std::size_t i = 0; i < widened->size(); ++i) {
    EXPECT_EQ((*widened_after)[i].bitstream.total_words,
              (*widened)[i].bitstream.total_words);
    EXPECT_EQ((*widened_after)[i].window.first_col,
              (*widened)[i].window.first_col);
  }
}

TEST_F(SnapshotTest, PlanCacheLoadRejectsCorruptionAndStaysCold) {
  const Device& device = DeviceDb::instance().get("xc6vlx75t");
  PrmRequirements req;
  req.lut_ff_pairs = 900;
  req.luts = 800;
  req.ffs = 700;
  find_prr_cached(req, device.fabric, {});
  plan_cache_save(path("plan.snap"));
  plan_cache_clear();

  auto bytes = read_file(path("plan.snap"));
  bytes[bytes.size() / 2] ^= 0x01u;
  write_file(path("plan.snap"), bytes);
  EXPECT_THROW(plan_cache_load(path("plan.snap")), ParseError);
  EXPECT_EQ(plan_cache_stats().entries, 0u);  // unchanged: still cold
}

TEST_F(SnapshotTest, BitstreamCacheRoundTrips) {
  const Device& device = DeviceDb::instance().get("xc5vlx110t");
  PrmRequirements req;
  req.lut_ff_pairs = 1200;
  req.luts = 1000;
  req.ffs = 900;
  const auto plan = find_prr_cached(req, device.fabric, {});
  ASSERT_TRUE(plan.has_value());
  const auto before = generate_bitstream_cached(*plan, device.fabric.family());
  ASSERT_FALSE(before->empty());

  EXPECT_EQ(bitstream_cache_save(path("bits.snap")), 1u);
  bitstream_cache_clear();
  ASSERT_EQ(bitstream_cache_stats().entries, 0u);
  EXPECT_EQ(bitstream_cache_load(path("bits.snap")), 1u);
  EXPECT_EQ(bitstream_cache_stats().entries, 1u);
  EXPECT_EQ(bitstream_cache_stats().resident_words, before->size());

  const u64 hits_before = bitstream_cache_stats().hits;
  const auto after = generate_bitstream_cached(*plan, device.fabric.family());
  EXPECT_EQ(bitstream_cache_stats().hits, hits_before + 1);
  EXPECT_EQ(*after, *before);  // byte-identical words
}

TEST_F(SnapshotTest, BitstreamCacheLoadRejectsWrappingWordCount) {
  // A checksum-valid entry whose word count times sizeof(u32) wraps u64.
  const Device& device = DeviceDb::instance().get("xc5vlx110t");
  PrmRequirements req;
  req.lut_ff_pairs = 1200;
  req.luts = 1000;
  req.ffs = 900;
  const auto plan = find_prr_cached(req, device.fabric, {});
  ASSERT_TRUE(plan.has_value());
  const auto resident =
      generate_bitstream_cached(*plan, device.fabric.family());

  const fs::path cache_dir = dir_ / "engine_cache";
  fs::create_directories(cache_dir);
  const std::string file = (cache_dir / "bitstream_cache.snap").string();
  SnapshotWriter writer;
  writer.put_u64(1);                              // entry count
  for (int i = 0; i < 7; ++i) writer.put_u32(0);  // family .. first_row
  writer.put_u64(0);                              // payload_seed
  writer.put_u32(0);                              // idcode
  writer.put_u32(0);                              // payload_kind
  writer.put_u64(0);                              // density_bits
  writer.put_u64(u64{1} << 62);                   // word_count
  writer.put_u32(0);
  writer.write(file, 1);

  EXPECT_THROW(bitstream_cache_load(file), ParseError);
  EXPECT_EQ(bitstream_cache_stats().entries, 1u);  // unchanged
  EXPECT_EQ(bitstream_cache_stats().resident_words, resident->size());

  // An Engine warm-starting from that directory cold-starts cleanly.
  plan_cache_clear();
  bitstream_cache_clear();
  api::Engine::Options options;
  options.cache_dir = cache_dir.string();
  api::BitstreamRequest request;
  request.device = "xc5vlx110t";
  request.source.prm = "uart";
  const api::BitstreamResponse from_corrupt =
      api::Engine{options}.bitstream(request);
  plan_cache_clear();
  bitstream_cache_clear();
  const api::BitstreamResponse from_plain = api::Engine{}.bitstream(request);
  ASSERT_TRUE(from_corrupt.words != nullptr);
  EXPECT_EQ(*from_corrupt.words, *from_plain.words);
}

TEST_F(SnapshotTest, EngineWarmStartIsByteIdentical) {
  api::Engine::Options options;
  options.cache_dir = (dir_ / "engine_cache").string();

  api::PlanRequest plan_request;
  plan_request.device = "xc5vlx110t";
  plan_request.source.prm = "fir";
  plan_request.cross_check = false;
  api::BitstreamRequest bits_request;
  bits_request.device = "xc5vlx110t";
  bits_request.source.prm = "uart";

  const api::Engine cold{options};
  const api::PlanResponse cold_plan = cold.plan(plan_request);
  const api::BitstreamResponse cold_bits = cold.bitstream(bits_request);
  cold.save_caches();
  ASSERT_TRUE(fs::exists(fs::path{options.cache_dir} / "plan_cache.snap"));
  ASSERT_TRUE(
      fs::exists(fs::path{options.cache_dir} / "bitstream_cache.snap"));

  plan_cache_clear();
  bitstream_cache_clear();

  api::Engine::Options warm_options = options;
  warm_options.collect_stats = true;
  const api::Engine warm{warm_options};
  api::PlanRequest stats_plan = plan_request;
  const api::PlanResponse warm_plan = warm.plan(stats_plan);
  const api::BitstreamResponse warm_bits = warm.bitstream(bits_request);

  // Warm answers are byte-identical to cold ones...
  EXPECT_EQ(warm_plan.plan.organization.h, cold_plan.plan.organization.h);
  EXPECT_EQ(warm_plan.plan.window.first_col, cold_plan.plan.window.first_col);
  EXPECT_EQ(warm_plan.plan.bitstream.total_bytes,
            cold_plan.plan.bitstream.total_bytes);
  ASSERT_TRUE(warm_bits.words != nullptr);
  EXPECT_EQ(*warm_bits.words, *cold_bits.words);
  EXPECT_EQ(warm_bits.total_bytes, cold_bits.total_bytes);
  // ...and the very first post-restart requests are cache hits.
  ASSERT_TRUE(warm_plan.stats.has_value());
  EXPECT_GE(warm_plan.stats->plan_cache_hits, 1u);
  EXPECT_EQ(warm_plan.stats->plan_cache_misses, 0u);
  ASSERT_TRUE(warm_bits.stats.has_value());
  EXPECT_GE(warm_bits.stats->bitstream_cache_hits, 1u);
}

TEST_F(SnapshotTest, EngineColdStartsCleanlyOnCorruptSnapshots) {
  api::Engine::Options options;
  options.cache_dir = (dir_ / "engine_cache").string();
  fs::create_directories(options.cache_dir);
  // Both snapshots are garbage: construction must not throw, and requests
  // must produce the same answers as a cache-less engine.
  write_file((fs::path{options.cache_dir} / "plan_cache.snap").string(),
             {'g', 'a', 'r', 'b', 'a', 'g', 'e'});
  write_file((fs::path{options.cache_dir} / "bitstream_cache.snap").string(),
             {'P', 'R', 'C', 'S', 0, 0, 0, 0});

  const api::Engine engine{options};
  api::BitstreamRequest request;
  request.device = "xc6vlx75t";
  request.source.prm = "mips";
  const api::BitstreamResponse from_corrupt = engine.bitstream(request);

  plan_cache_clear();
  bitstream_cache_clear();
  const api::Engine plain{};
  const api::BitstreamResponse from_plain = plain.bitstream(request);
  ASSERT_TRUE(from_corrupt.words != nullptr);
  EXPECT_EQ(*from_corrupt.words, *from_plain.words);
}

}  // namespace
}  // namespace prcost
