#include <gtest/gtest.h>

#include "bitstream/generator.hpp"
#include "bitstream/parser.hpp"
#include "device/device_db.hpp"
#include "reconfig/baselines.hpp"
#include "reconfig/controllers.hpp"
#include "reconfig/full_bitstream.hpp"
#include "reconfig/icap.hpp"
#include "reconfig/media.hpp"
#include "tests/support/bitstreams.hpp"
#include "util/error.hpp"

namespace prcost {
namespace {

constexpr u64 kFirBytes = 83064;  // FIR/LX110T partial bitstream

// ----------------------------------------------------------------- media ---

TEST(Media, BandwidthOrdering) {
  // The Papadimitriou survey's central observation: CF << flash << DDR <=
  // BRAM.
  EXPECT_LT(media_model(StorageMedia::kCompactFlash).bandwidth_bytes_per_s,
            media_model(StorageMedia::kFlash).bandwidth_bytes_per_s);
  EXPECT_LT(media_model(StorageMedia::kFlash).bandwidth_bytes_per_s,
            media_model(StorageMedia::kDdrSdram).bandwidth_bytes_per_s);
  EXPECT_LE(media_model(StorageMedia::kDdrSdram).bandwidth_bytes_per_s,
            media_model(StorageMedia::kBram).bandwidth_bytes_per_s);
}

TEST(Media, FetchMonotonicInSize) {
  for (const StorageMedia media : kAllMedia) {
    EXPECT_LT(fetch_seconds(media, 1000), fetch_seconds(media, 100000));
  }
}

TEST(Media, CompactFlashIsMilliseconds) {
  // ~83KB over ~500KB/s => > 100 ms: the reason CF-based reconfiguration
  // dominates measured times in the survey.
  EXPECT_GT(fetch_seconds(StorageMedia::kCompactFlash, kFirBytes), 0.1);
  EXPECT_LT(fetch_seconds(StorageMedia::kDdrSdram, kFirBytes), 0.001);
}

// ------------------------------------------------------------------ icap ---

TEST(Icap, PeakThroughput) {
  const IcapModel icap = default_icap(Family::kVirtex5);
  EXPECT_DOUBLE_EQ(icap.peak_bytes_per_s(), 400.0e6);
}

TEST(Icap, WriteTimeLinear) {
  const IcapModel icap = default_icap(Family::kVirtex5);
  EXPECT_NEAR(icap_write_seconds(icap, kFirBytes), 83064.0 / 400e6, 1e-9);
}

TEST(Icap, BusyFactorStretches) {
  const IcapModel icap = default_icap(Family::kVirtex5);
  const double idle = icap_write_seconds(icap, kFirBytes, 0.0);
  const double busy = icap_write_seconds(icap, kFirBytes, 0.5);
  EXPECT_NEAR(busy, 2.0 * idle, 1e-12);
  EXPECT_THROW(icap_write_seconds(icap, 100, 1.0), ContractError);
  EXPECT_THROW(icap_write_seconds(icap, 100, -0.1), ContractError);
}

// ----------------------------------------------------------- controllers ---

TEST(Controllers, DmaBeatsCpuOnFastMedia) {
  const IcapModel icap = default_icap(Family::kVirtex5);
  const CpuIcapController cpu{icap};
  const DmaIcapController dma{icap};
  const double cpu_t =
      cpu.estimate(kFirBytes, StorageMedia::kDdrSdram).total_s;
  const double dma_t =
      dma.estimate(kFirBytes, StorageMedia::kDdrSdram).total_s;
  EXPECT_LT(dma_t, cpu_t);
}

TEST(Controllers, FarmBeatsDmaViaCompressionAndOverclock) {
  const IcapModel icap = default_icap(Family::kVirtex5);
  const DmaIcapController dma{icap};
  const FarmController farm{icap};
  EXPECT_LT(farm.estimate(kFirBytes, StorageMedia::kDdrSdram).total_s,
            dma.estimate(kFirBytes, StorageMedia::kDdrSdram).total_s);
}

TEST(Controllers, SlowMediaDominatesEverything) {
  // On CompactFlash the fetch phase dwarfs controller differences.
  const IcapModel icap = default_icap(Family::kVirtex5);
  const CpuIcapController cpu{icap};
  const DmaIcapController dma{icap};
  const double cpu_t =
      cpu.estimate(kFirBytes, StorageMedia::kCompactFlash).total_s;
  const double dma_t =
      dma.estimate(kFirBytes, StorageMedia::kCompactFlash).total_s;
  EXPECT_NEAR(cpu_t / dma_t, 1.0, 0.05);
}

TEST(Controllers, BusyFactorWrapper) {
  const IcapModel icap = default_icap(Family::kVirtex5);
  auto dma = std::make_shared<DmaIcapController>(icap);
  const BusyFactorController busy{dma, 0.5};
  EXPECT_EQ(busy.name(), "DMA-ICAP+busy");
  const auto plain = dma->estimate(kFirBytes, StorageMedia::kBram);
  const auto contended = busy.estimate(kFirBytes, StorageMedia::kBram);
  EXPECT_GT(contended.total_s, plain.total_s);
  EXPECT_NEAR(contended.write_s, 2.0 * plain.write_s, 1e-12);
  EXPECT_THROW(BusyFactorController(nullptr, 0.1), ContractError);
  EXPECT_THROW(BusyFactorController(dma, 1.0), ContractError);
}

TEST(Controllers, StandardSetHasThree) {
  const auto controllers = standard_controllers(Family::kVirtex5);
  ASSERT_EQ(controllers.size(), 3u);
  EXPECT_EQ(controllers[0]->name(), "CPU-ICAP");
  EXPECT_EQ(controllers[1]->name(), "DMA-ICAP");
  EXPECT_EQ(controllers[2]->name(), "FaRM");
}

TEST(Controllers, FarmParameterValidation) {
  const IcapModel icap = default_icap(Family::kVirtex5);
  EXPECT_THROW(FarmController(icap, 0.0), ContractError);
  EXPECT_THROW(FarmController(icap, 1.2), ContractError);
  EXPECT_THROW(FarmController(icap, 0.5, 0.9), ContractError);
}

// -------------------------------------------------------------- baselines ---

TEST(Baselines, PapadimitriouErrorBand) {
  const auto e = papadimitriou_model(kFirBytes, StorageMedia::kDdrSdram);
  EXPECT_NEAR(e.low_s, e.nominal_s * 0.7, 1e-12);
  EXPECT_NEAR(e.high_s, e.nominal_s * 1.6, 1e-12);
  EXPECT_GT(e.nominal_s, 0.0);
}

TEST(Baselines, ClausPreconditionDependsOnMedia) {
  // The Claus model "is only valid if the ICAP is the limiting factor".
  const auto fast = claus_model(kFirBytes, Family::kVirtex5, 0.0,
                                StorageMedia::kBram);
  EXPECT_TRUE(fast.icap_is_bottleneck);
  const auto slow = claus_model(kFirBytes, Family::kVirtex5, 0.0,
                                StorageMedia::kCompactFlash);
  EXPECT_FALSE(slow.icap_is_bottleneck);
}

TEST(Baselines, ClausBusyFactorScales) {
  const auto idle =
      claus_model(kFirBytes, Family::kVirtex5, 0.0, StorageMedia::kBram);
  const auto busy =
      claus_model(kFirBytes, Family::kVirtex5, 0.75, StorageMedia::kBram);
  EXPECT_NEAR(busy.seconds, 4.0 * idle.seconds, 1e-12);
}

TEST(Baselines, DuhemFasterThanPlainIcap) {
  const IcapModel icap = default_icap(Family::kVirtex5);
  EXPECT_LT(duhem_model(kFirBytes, Family::kVirtex5),
            icap_write_seconds(icap, kFirBytes));
  EXPECT_THROW(duhem_model(100, Family::kVirtex5, 0.0), ContractError);
}

// ---------------------------------------------------------- full bitstream ---

TEST(FullBitstream, DwarfsEveryPartial) {
  for (const Device& dev : DeviceDb::instance().all()) {
    const u64 full = full_bitstream_bytes(dev.fabric);
    EXPECT_GT(full, 10u * kFirBytes) << dev.name;
  }
}

TEST(FullBitstream, ModelMatchesGeneratedArtifactForEveryDevice) {
  // Same model-vs-artifact loop as Eq. (18): the full-device bitstream
  // model must match a generated full bitstream byte-for-byte.
  for (const Device& dev : DeviceDb::instance().all()) {
    const auto words = generate_full_bitstream(dev.fabric);
    const auto bytes = to_bytes(words, dev.fabric.family());
    EXPECT_EQ(bytes.size(), full_bitstream_bytes(dev.fabric)) << dev.name;
    // The artifact is well-formed: parses, CRC checks, desyncs.
    const auto layout = parse_bitstream(words, dev.fabric.family());
    EXPECT_TRUE(layout.crc_ok) << dev.name;
    EXPECT_TRUE(layout.desync_seen) << dev.name;
    EXPECT_EQ(layout.config_burst_count(), dev.fabric.rows()) << dev.name;
  }
}

TEST(FullBitstream, Lx110tMagnitude) {
  // The real XC5VLX110T full bitstream is ~3.9 MB; the model must land in
  // the same magnitude.
  const u64 full = full_bitstream_bytes(
      DeviceDb::instance().get("xc5vlx110t").fabric);
  EXPECT_GT(full, 2u * 1024 * 1024);
  EXPECT_LT(full, 8u * 1024 * 1024);
}

}  // namespace
}  // namespace prcost
