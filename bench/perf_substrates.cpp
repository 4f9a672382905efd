// Substrate performance characterization (google-benchmark): throughput
// of the simulators the reproduction is built on, plus the parallel
// scaling of the DSE sweep. Not a paper table - this is the engineering
// budget behind the "evaluate whole design spaces in milliseconds" claim.
//
// Note on the DSE scaling numbers: per-partition cost is heavy-tailed
// (the near-infeasible partitionings pay the full superset floorplanning
// scan), so wall time is pinned at the slowest single partition while the
// measured main-thread CPU drops with the worker count - a textbook
// Amdahl tail, visible here on purpose.
#include <benchmark/benchmark.h>

#include "bitstream/config_memory.hpp"
#include "bitstream/generator.hpp"
#include "cost/prr_search.hpp"
#include "device/device_db.hpp"
#include "dse/explorer.hpp"
#include "netlist/generators.hpp"
#include "netlist/serialize.hpp"
#include "paperdata/paper_dataset.hpp"
#include "par/par.hpp"
#include "synth/synthesizer.hpp"

namespace {

using namespace prcost;

void BM_Synthesize(benchmark::State& state) {
  const int which = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto result = synthesize(which == 0   ? make_fir()
                             : which == 1 ? make_mips5()
                                          : make_sdram_ctrl(),
                             SynthOptions{Family::kVirtex5});
    benchmark::DoNotOptimize(result.report.lut_ff_pairs);
  }
  state.SetLabel(which == 0 ? "fir" : which == 1 ? "mips" : "sdram");
}
BENCHMARK(BM_Synthesize)->DenseRange(0, 2);

/// The six netlist kinds perfbench's design_cold writes to disk and plans
/// from (at its smallest jitter step).
Netlist design_cold_netlist(int which) {
  switch (which) {
    case 0: {
      FirParams p;
      p.taps = 10;
      p.symmetric_pairs = 2;
      return make_fir(p);
    }
    case 1: return make_crc32(24);
    case 2: {
      SdramParams p;
      p.data_width = 16;
      return make_sdram_ctrl(p);
    }
    case 3: return make_uart(12);
    case 4: return make_sobel(128, 8);
    default: return make_fft_stage(32, 12);
  }
}

constexpr const char* kDesignColdKinds[] = {"fir",  "crc32", "sdram",
                                            "uart", "sobel", "fft_stage"};

void BM_NetlistToText(benchmark::State& state) {
  const int which = static_cast<int>(state.range(0));
  const Netlist nl = design_cold_netlist(which);
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string text = netlist_to_text(nl);
    benchmark::DoNotOptimize(text.data());
    bytes += text.size();
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
  state.SetLabel(kDesignColdKinds[which]);
}
BENCHMARK(BM_NetlistToText)->DenseRange(0, 5);

void BM_NetlistFromText(benchmark::State& state) {
  const int which = static_cast<int>(state.range(0));
  const std::string text = netlist_to_text(design_cold_netlist(which));
  for (auto _ : state) {
    const Netlist nl = netlist_from_text(text);
    benchmark::DoNotOptimize(nl.cell_count());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(text.size()));
  state.SetLabel(std::string{kDesignColdKinds[which]} + " " +
                 std::to_string(text.size()) + " B");
}
BENCHMARK(BM_NetlistFromText)->DenseRange(0, 5);

void BM_GenerateBitstream(benchmark::State& state) {
  const auto& rec = paperdata::table5_record("MIPS", "xc5vlx110t");
  const Fabric& fabric = DeviceDb::instance().get(rec.device).fabric;
  const auto plan = find_prr(rec.req, fabric);
  u64 bytes = 0;
  for (auto _ : state) {
    const auto words = generate_bitstream(*plan, rec.family);
    benchmark::DoNotOptimize(words.data());
    bytes += words.size() * 4;
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
}
BENCHMARK(BM_GenerateBitstream);

void BM_ApplyToConfigMemory(benchmark::State& state) {
  const auto& rec = paperdata::table5_record("MIPS", "xc5vlx110t");
  const Fabric& fabric = DeviceDb::instance().get(rec.device).fabric;
  const auto plan = find_prr(rec.req, fabric);
  const auto words = generate_bitstream(*plan, rec.family);
  u64 bytes = 0;
  for (auto _ : state) {
    ConfigMemory cm{fabric};
    benchmark::DoNotOptimize(cm.apply_bitstream(words));
    bytes += words.size() * 4;
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
}
BENCHMARK(BM_ApplyToConfigMemory);

void BM_PlaceAndRoute(benchmark::State& state) {
  auto synth = synthesize(make_sdram_ctrl(), SynthOptions{Family::kVirtex5});
  const Fabric& fabric = DeviceDb::instance().get("xc5vlx110t").fabric;
  const auto plan =
      find_prr(PrmRequirements::from_report(synth.report), fabric);
  for (auto _ : state) {
    state.PauseTiming();
    Netlist copy = synth.netlist;  // P&R mutates
    state.ResumeTiming();
    ParOptions options;
    options.place.anneal_moves = static_cast<u32>(state.range(0));
    benchmark::DoNotOptimize(
        place_and_route(std::move(copy), *plan, fabric, options).routed);
  }
  state.SetLabel("anneal_moves=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_PlaceAndRoute)->Arg(1)->Arg(2000)->Arg(20000);

void BM_ExploreParallelScaling(benchmark::State& state) {
  std::vector<PrmInfo> prms;
  for (const char* name : {"FIR", "MIPS", "SDRAM"}) {
    const auto& rec = paperdata::table5_record(name, "xc5vlx110t");
    prms.push_back(PrmInfo{name, rec.req, 0});
  }
  // 4 distinct workloads stand in for 4 PRMs' worth of partitions; use a
  // larger PRM set to give the pool work.
  prms.push_back(prms[0]);
  prms.back().name = "FIR2";
  prms.push_back(prms[2]);
  prms.back().name = "SDRAM2";
  prms.push_back(prms[1]);
  prms.back().name = "MIPS2";
  prms.push_back(prms[0]);
  prms.back().name = "FIR3";  // 7 PRMs -> Bell(7) = 877 partitionings
  const Fabric& fabric = DeviceDb::instance().get("xc6vlx240t").fabric;
  WorkloadParams wp;
  wp.count = 60;
  wp.prm_count = narrow<u32>(prms.size());
  const auto workload = make_workload(wp);
  ExploreOptions options;
  options.workers = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(explore(prms, fabric, workload, options).size());
  }
  state.SetLabel("workers=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_ExploreParallelScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

}  // namespace
