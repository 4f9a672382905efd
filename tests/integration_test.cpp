// End-to-end integration: design entry -> synthesis -> PRR sizing ->
// floorplan -> implementation -> bitstream generation -> reconfiguration
// estimate -> multitasking schedule, with cross-checks at every joint.
#include <gtest/gtest.h>

#include "bitstream/generator.hpp"
#include "bitstream/parser.hpp"
#include "cost/floorplan.hpp"
#include "cost/prr_search.hpp"
#include "device/device_db.hpp"
#include "dse/explorer.hpp"
#include "multitask/simulator.hpp"
#include "netlist/generators.hpp"
#include "par/par.hpp"
#include "reconfig/full_bitstream.hpp"
#include "synth/synthesizer.hpp"
#include "tests/support/satisfies.hpp"

namespace prcost {
namespace {

struct FlowCase {
  const char* device;
  Family family;
};

class FullFlow : public ::testing::TestWithParam<FlowCase> {};

TEST_P(FullFlow, FirThroughEverything) {
  const auto [device_name, family] = GetParam();
  const Fabric& fabric = DeviceDb::instance().get(device_name).fabric;

  // 1. design entry + synthesis (the XST stand-in).
  auto synth = synthesize(make_fir(), SynthOptions{family});
  ASSERT_TRUE(synth.report.consistent());

  // 2. PRR sizing from the synthesis report (the paper's core use case).
  const PrmRequirements req = PrmRequirements::from_report(synth.report);
  const auto plan = find_prr(req, fabric);
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(satisfies(plan->organization, req, fabric.traits()));

  // 3. implementation inside the PRR.
  ParOptions par_options;
  par_options.place.anneal_moves = 1000;
  const ParResult par =
      place_and_route(std::move(synth.netlist), *plan, fabric, par_options);
  ASSERT_TRUE(par.routed) << par.failure_reason;
  EXPECT_LE(par.post_par.lut_ff_pairs, synth.report.lut_ff_pairs);

  // 4. bitstream generation matches the Eq. (18)-(23) prediction exactly.
  const auto words = generate_bitstream(*plan, family);
  EXPECT_EQ(to_bytes(words, family).size(), plan->bitstream.total_bytes);
  const auto layout = parse_bitstream(words, family);
  EXPECT_TRUE(layout.crc_ok);

  // 5. reconfiguration estimate feeds scheduling.
  const DmaIcapController dma{default_icap(family)};
  const double reconfig_s =
      dma.estimate(plan->bitstream.total_bytes, StorageMedia::kDdrSdram)
          .total_s;
  EXPECT_GT(reconfig_s, 0.0);
  EXPECT_LT(reconfig_s, 0.1);
}

INSTANTIATE_TEST_SUITE_P(
    Devices, FullFlow,
    ::testing::Values(FlowCase{"xc5vlx110t", Family::kVirtex5},
                      FlowCase{"xc6vlx75t", Family::kVirtex6},
                      FlowCase{"xc7k325t", Family::kSeries7}),
    [](const ::testing::TestParamInfo<FlowCase>& tp_info) {
      return std::string{tp_info.param.device};
    });

TEST(Integration, ThreePrmSystemOnLx110t) {
  // Synthesize all three paper PRMs, size a shared-pool system, place all
  // PRRs, and run the multitasking comparison against full reconfiguration.
  const Fabric& fabric = DeviceDb::instance().get("xc5vlx110t").fabric;

  std::vector<PrmInfo> prms;
  Floorplanner floorplanner{fabric};
  for (int which = 0; which < 3; ++which) {
    auto synth = synthesize(which == 0   ? make_mips5()
                            : which == 1 ? make_fir()
                                         : make_sdram_ctrl(),
                            SynthOptions{Family::kVirtex5});
    const PrmRequirements req = PrmRequirements::from_report(synth.report);
    const auto placed = floorplanner.place(synth.report.module_name, req);
    ASSERT_TRUE(placed.has_value()) << synth.report.module_name;
    prms.push_back(PrmInfo{synth.report.module_name, req,
                           placed->plan.bitstream.total_bytes});
  }
  EXPECT_EQ(floorplanner.placements().size(), 3u);

  WorkloadParams wp;
  wp.count = 60;
  const auto tasks = make_workload(wp);
  SimConfig config;
  config.prr_count = 3;
  const SimResult pr = simulate(prms, tasks, config);
  const SimResult nonpr = simulate_full_reconfig(
      prms, tasks, full_bitstream_bytes(fabric), StorageMedia::kDdrSdram);
  EXPECT_LT(pr.makespan_s, nonpr.makespan_s);
  EXPECT_EQ(pr.tasks.size(), tasks.size());
}

TEST(Integration, DseOverSynthesizedPrms) {
  // The DSE path consumes real synthesized requirements, not paper data.
  const Fabric& fabric = DeviceDb::instance().get("xc6vlx240t").fabric;
  std::vector<PrmInfo> prms;
  const auto add = [&](Netlist nl) {
    auto synth = synthesize(std::move(nl), SynthOptions{Family::kVirtex6});
    prms.push_back(PrmInfo{synth.report.module_name,
                           PrmRequirements::from_report(synth.report), 0});
  };
  add(make_fir());
  add(make_sdram_ctrl());
  add(make_uart());
  add(make_crc32());

  WorkloadParams wp;
  wp.count = 40;
  wp.prm_count = 4;
  const auto workload = make_workload(wp);
  const auto points = explore(prms, fabric, workload);
  EXPECT_EQ(points.size(), 15u);  // Bell(4) partitionings
  const auto front = pareto_front(points);
  ASSERT_FALSE(front.empty());
  // The front's cheapest point uses fewer PRR cells than the most
  // parallel point.
  EXPECT_LE(front.front().total_prr_area, front.back().total_prr_area);
}

TEST(Integration, ReportRoundTripFeedsSearchIdentically) {
  // Serializing the synthesis report to text and re-parsing must not
  // change the PRR the model picks.
  auto synth = synthesize(make_mips5(), SynthOptions{Family::kVirtex5});
  const SynthesisReport parsed = parse_report(report_to_text(synth.report));
  const Fabric& fabric = DeviceDb::instance().get("xc5vlx110t").fabric;
  const auto a = find_prr(PrmRequirements::from_report(synth.report), fabric);
  const auto b = find_prr(PrmRequirements::from_report(parsed), fabric);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->organization.size(), b->organization.size());
  EXPECT_EQ(a->bitstream.total_bytes, b->bitstream.total_bytes);
}

}  // namespace
}  // namespace prcost
