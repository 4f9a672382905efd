#include <gtest/gtest.h>

#include <string>

#include "netlist/generators.hpp"
#include "netlist/logic.hpp"
#include "synth/mapper.hpp"
#include "synth/passes.hpp"
#include "synth/report.hpp"
#include "synth/synthesizer.hpp"
#include "util/error.hpp"

namespace prcost {
namespace {

// ---------------------------------------------------------------- report ---

TEST(Report, TextRoundTrips) {
  SynthesisReport report;
  report.module_name = "fir";
  report.family = Family::kVirtex6;
  report.slice_luts = 1316;
  report.slice_ffs = 394;
  report.lut_ff_pairs = 1467;
  report.dsps = 27;
  report.brams = 0;
  report.bonded_iobs = 99;
  const SynthesisReport parsed = parse_report(report_to_text(report));
  EXPECT_EQ(parsed.module_name, "fir");
  EXPECT_EQ(parsed.family, Family::kVirtex6);
  EXPECT_EQ(parsed.slice_luts, 1316u);
  EXPECT_EQ(parsed.slice_ffs, 394u);
  EXPECT_EQ(parsed.lut_ff_pairs, 1467u);
  EXPECT_EQ(parsed.dsps, 27u);
  EXPECT_EQ(parsed.brams, 0u);
  EXPECT_EQ(parsed.bonded_iobs, 99u);
}

TEST(Report, ParseMissingFieldsThrows) {
  EXPECT_THROW(parse_report("Module Name : x\n"), ParseError);
}

TEST(Report, BadNumericFieldNamesKeyAndToken) {
  SynthesisReport report;
  report.module_name = "fir";
  std::string text = report_to_text(report);
  const std::string needle = "Number of Slice LUTs              : 0";
  const auto pos = text.find(needle);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, needle.size(), "Number of Slice LUTs              : 12x3");
  try {
    parse_report(text);
    FAIL() << "corrupt count accepted";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("number of slice luts"), std::string::npos) << what;
    EXPECT_NE(what.find("'12x3'"), std::string::npos) << what;
  }
}

TEST(Report, BadFamilyIsParseErrorNamingToken) {
  SynthesisReport report;
  report.module_name = "fir";
  std::string text = report_to_text(report);
  const std::string needle = "Target Family                      : Virtex-5";
  const auto pos = text.find(needle);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, needle.size(), "Target Family : spartan9");
  try {
    parse_report(text);
    FAIL() << "unknown family accepted";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string{e.what()}.find("spartan9"), std::string::npos);
  }
}

TEST(Report, ConsistencyInvariant) {
  SynthesisReport report;
  report.slice_luts = 100;
  report.slice_ffs = 60;
  report.lut_ff_pairs = 120;  // between max(100,60) and 160
  EXPECT_TRUE(report.consistent());
  report.lut_ff_pairs = 90;  // below max -> impossible
  EXPECT_FALSE(report.consistent());
  report.lut_ff_pairs = 161;  // above sum -> impossible
  EXPECT_FALSE(report.consistent());
}

// ---------------------------------------------------------------- passes ---

TEST(Passes, ConstPropFoldsConstantLut) {
  Netlist nl{"t"};
  LogicBuilder lb{nl};
  const NetId a = nl.input("a");
  const NetId y = lb.land(a, nl.const_net(false));  // a & 0 == 0
  nl.output("y", y);
  propagate_constants(nl);
  eliminate_dead_cells(nl);
  EXPECT_EQ(nl.stats().luts, 0u);
  // The output port must now read constant 0.
  const CellId port = [&] {
    for (const CellId id : nl.live_cells()) {
      if (nl.cell(id).kind == CellKind::kOutput) return id;
    }
    return kNoCell;
  }();
  ASSERT_NE(port, kNoCell);
  EXPECT_EQ(nl.cell(nl.net(nl.cell(port).inputs[0]).driver).kind,
            CellKind::kConst0);
}

TEST(Passes, ConstPropSpecializesPartially) {
  Netlist nl{"t"};
  LogicBuilder lb{nl};
  const NetId a = nl.input("a");
  const NetId y = lb.lor(a, nl.const_net(false));  // a | 0 == a (buffer)
  nl.output("y", y);
  propagate_constants(nl);
  // The OR collapses to a buffer which is then bypassed entirely.
  EXPECT_EQ(nl.stats().luts, 0u);
}

TEST(Passes, DceRemovesUnusedLogicKeepsMemories) {
  Netlist nl{"t"};
  LogicBuilder lb{nl};
  const NetId a = nl.input("a");
  lb.lnot(a);  // dangling inverter
  const Bus addr = nl.input_bus("addr", 4);
  nl.ram(16, 8, addr, lb.constant(8, 0), nl.const_net(false));  // dangling RAM
  const u64 removed = eliminate_dead_cells(nl);
  EXPECT_GE(removed, 1u);
  EXPECT_EQ(nl.stats().luts, 0u);
  EXPECT_EQ(nl.stats().rams, 1u);  // memories survive
}

TEST(Passes, DceCascades) {
  Netlist nl{"t"};
  LogicBuilder lb{nl};
  const NetId a = nl.input("a");
  const NetId mid = lb.lnot(a);
  lb.lnot(mid);  // chain with no consumer
  eliminate_dead_cells(nl);
  EXPECT_EQ(nl.stats().luts, 0u);
}

TEST(Passes, MergeDuplicateLuts) {
  Netlist nl{"t"};
  LogicBuilder lb{nl};
  const NetId a = nl.input("a");
  const NetId b = nl.input("b");
  const NetId x = lb.land(a, b);
  const NetId y = lb.land(a, b);  // identical
  nl.output("x", x);
  nl.output("y", y);
  EXPECT_EQ(merge_duplicate_luts(nl), 1u);
  EXPECT_EQ(nl.stats().luts, 1u);
  nl.validate();
}

TEST(Passes, MergeLeavesDifferentInputsAlone) {
  Netlist nl{"t"};
  LogicBuilder lb{nl};
  const NetId a = nl.input("a");
  const NetId b = nl.input("b");
  nl.output("x", lb.land(a, b));
  nl.output("y", lb.land(b, a));  // same function, different pin order
  EXPECT_EQ(merge_duplicate_luts(nl), 0u);
}

TEST(Passes, AbsorbCeMuxes) {
  Netlist nl{"t"};
  LogicBuilder lb{nl};
  const Bus d = nl.input_bus("d", 4);
  const NetId ce = nl.input("ce");
  lb.register_bus_ce(d, ce, "r");
  const u64 before = nl.stats().luts;
  const u64 absorbed = absorb_ce_muxes(nl);
  EXPECT_EQ(absorbed, 4u);
  EXPECT_EQ(nl.stats().luts, before - 4);
  EXPECT_EQ(nl.stats().ffs, 4u);
  nl.validate();
}

TEST(Passes, FoldInverters) {
  Netlist nl{"t"};
  LogicBuilder lb{nl};
  const NetId a = nl.input("a");
  const NetId b = nl.input("b");
  const NetId na = lb.lnot(a);
  nl.output("y", lb.land(na, b));  // ~a & b foldable into one LUT
  EXPECT_EQ(fold_inverters(nl), 1u);
  EXPECT_EQ(nl.stats().luts, 1u);
  nl.validate();
}

TEST(Passes, SynthesisPipelineReachesFixpoint) {
  Netlist nl = make_sdram_ctrl();
  run_synthesis_passes(nl);
  // Running again must change nothing.
  EXPECT_EQ(run_synthesis_passes(nl), 0u);
}

// ---------------------------------------------------------------- mapper ---

TEST(Mapper, DspArchPerFamily) {
  EXPECT_FALSE(dsp_arch(Family::kVirtex5).has_preadder);
  EXPECT_TRUE(dsp_arch(Family::kVirtex6).has_preadder);
  EXPECT_EQ(dsp_arch(Family::kVirtex4).a_width, 18u);
  EXPECT_EQ(dsp_arch(Family::kVirtex5).a_width, 25u);
}

TEST(Mapper, DspCountForMul) {
  const DspArch v5 = dsp_arch(Family::kVirtex5);
  EXPECT_EQ(dsp_count_for_mul(12, 12, v5), 1u);
  EXPECT_EQ(dsp_count_for_mul(25, 18, v5), 1u);
  EXPECT_EQ(dsp_count_for_mul(32, 32, v5), 4u);  // the MIPS multiply unit
  EXPECT_EQ(dsp_count_for_mul(26, 18, v5), 2u);
  EXPECT_THROW(dsp_count_for_mul(0, 8, v5), ContractError);
}

TEST(Mapper, BramCountForRam) {
  EXPECT_EQ(bram_count_for_ram(256, 8).bram18, 1u);    // AES S-box
  EXPECT_EQ(bram_count_for_ram(2048, 32).bram36, 2u);  // MIPS I-mem
  EXPECT_EQ(bram_count_for_ram(4096, 32).bram36, 4u);  // MIPS D-mem
  EXPECT_EQ(bram_count_for_ram(1024, 72).bram36, 2u);  // wide RAM tiles
  EXPECT_THROW(bram_count_for_ram(0, 8), ContractError);
}

TEST(Mapper, MapsMulsToDsps) {
  Netlist nl{"t"};
  const Bus a = nl.input_bus("a", 12);
  const Bus b = nl.input_bus("b", 12);
  const Bus p = nl.mul(a, b);
  nl.output_bus("p", p);
  const MapStats stats = map_netlist(nl, Family::kVirtex5);
  EXPECT_EQ(stats.muls_mapped, 1u);
  EXPECT_EQ(stats.dsps_emitted, 1u);
  EXPECT_EQ(nl.stats().dsp48s, 1u);
  EXPECT_EQ(nl.stats().muls, 0u);
}

TEST(Mapper, TilesWideMultipliers) {
  Netlist nl{"t"};
  const Bus a = nl.input_bus("a", 32);
  const Bus b = nl.input_bus("b", 32);
  nl.output_bus("p", nl.mul(a, b));
  map_netlist(nl, Family::kVirtex5);
  EXPECT_EQ(nl.stats().dsp48s, 4u);
}

TEST(Mapper, PreadderFusesSharedCoefficientPairs) {
  // Two multipliers sharing the same B bus fuse on Virtex-6, not Virtex-5.
  const auto build = [] {
    Netlist nl{"t"};
    const Bus x1 = nl.input_bus("x1", 12);
    const Bus x2 = nl.input_bus("x2", 12);
    const Bus c = nl.input_bus("c", 12);
    nl.output_bus("p1", nl.mul(x1, c));
    nl.output_bus("p2", nl.mul(x2, c));
    return nl;
  };
  Netlist v5 = build();
  map_netlist(v5, Family::kVirtex5);
  EXPECT_EQ(v5.stats().dsp48s, 2u);
  Netlist v6 = build();
  const MapStats stats = map_netlist(v6, Family::kVirtex6);
  EXPECT_EQ(stats.muls_fused, 1u);
  EXPECT_EQ(v6.stats().dsp48s, 1u);
}

TEST(Mapper, RamExpansionCounts) {
  Netlist nl{"t"};
  LogicBuilder lb{nl};
  const Bus addr = nl.input_bus("addr", 12);
  nl.output_bus("q", nl.ram(4096, 32, addr, lb.constant(32, 0),
                            nl.const_net(false)));
  map_netlist(nl, Family::kVirtex5);
  EXPECT_EQ(nl.stats().bram36s, 4u);
}

/// The ParseError message mapping `nl` throws ("" if it maps).
std::string map_error(Netlist nl, Family family = Family::kVirtex6) {
  try {
    map_netlist(nl, family);
  } catch (const ParseError& error) {
    return error.what();
  }
  return "";
}

TEST(Mapper, RefusesMacrosPastThePrimitiveCeiling) {
  // Widths like these come from netlist text ("cell MUL m 99999999999
  // 99999999999 | | p"); unchecked, the MUL expands for minutes and the
  // RAM's bit count overflows u64.
  Netlist mul{"t"};
  mul.add_cell(CellKind::kMul, "m", {}, 1, 99999999999, 99999999999);
  EXPECT_EQ(map_error(mul),
            "netlist: macros expand past 16384 DSP48/BRAM primitives at "
            "cell 'm'");
  EXPECT_THROW(synthesize(std::move(mul), SynthOptions{Family::kVirtex6}),
               ParseError);

  Netlist ram{"t"};
  ram.add_cell(CellKind::kRam, "r", {}, 1, 99999999999, 99999999999);
  EXPECT_NE(map_error(ram).find("cell 'r'"), std::string::npos);

  Netlist widest{"t"};
  widest.add_cell(CellKind::kMulAcc, "acc", {}, 1, ~u64{0}, ~u64{0});
  widest.add_cell(CellKind::kRam, "deep", {}, 1, ~u64{0}, 1);
  EXPECT_NE(map_error(widest).find("cell 'acc'"), std::string::npos);
}

TEST(Mapper, CeilingCountsEveryMacroInTheNetlist) {
  // 16384 DSP48s from one MUL map; one more primitive anywhere does not,
  // and the error names the cell that crosses the ceiling.
  const u64 a_width = 25 * kMaxMacroPrimitives;
  Netlist at{"t"};
  at.add_cell(CellKind::kMul, "m", {}, 1, a_width, 18);
  EXPECT_EQ(map_error(at, Family::kVirtex5), "");

  Netlist over{"t"};
  over.add_cell(CellKind::kMul, "m", {}, 1, a_width, 18);
  over.add_cell(CellKind::kRam, "r", {}, 1, 16, 8);
  EXPECT_NE(map_error(over, Family::kVirtex5).find("cell 'r'"),
            std::string::npos);
}

// ------------------------------------------------------------ synthesize ---

TEST(Synthesize, FirVirtex5Profile) {
  const SynthesisResult result =
      synthesize(make_fir(), SynthOptions{Family::kVirtex5});
  EXPECT_EQ(result.report.dsps, 32u);
  EXPECT_EQ(result.report.brams, 0u);
  EXPECT_TRUE(result.report.consistent());
  // Same regime as the paper's FIR (1300 pairs / 1150 LUTs / 394 FFs).
  EXPECT_GT(result.report.lut_ff_pairs, 800u);
  EXPECT_LT(result.report.lut_ff_pairs, 2000u);
}

TEST(Synthesize, FirVirtex6UsesPreadder) {
  const SynthesisResult result =
      synthesize(make_fir(), SynthOptions{Family::kVirtex6});
  // 32 taps with 5 symmetric pairs fused: 27 DSPs, the paper's Table V
  // value for FIR on the LX75T.
  EXPECT_EQ(result.report.dsps, 27u);
}

TEST(Synthesize, MipsProfile) {
  const SynthesisResult result =
      synthesize(make_mips5(), SynthOptions{Family::kVirtex5});
  EXPECT_EQ(result.report.dsps, 4u);   // 32x32 multiply tiles to 4 DSP48s
  EXPECT_EQ(result.report.brams, 6u);  // 2 + 4 BRAM36 memories
  EXPECT_GT(result.report.slice_ffs, 1000u);
}

TEST(Synthesize, SdramProfile) {
  const SynthesisResult result =
      synthesize(make_sdram_ctrl(), SynthOptions{Family::kVirtex5});
  EXPECT_EQ(result.report.dsps, 0u);
  EXPECT_EQ(result.report.brams, 0u);
  EXPECT_TRUE(result.report.consistent());
}

TEST(Synthesize, Deterministic) {
  const auto a = synthesize(make_fir(), SynthOptions{Family::kVirtex5});
  const auto b = synthesize(make_fir(), SynthOptions{Family::kVirtex5});
  EXPECT_EQ(a.report.lut_ff_pairs, b.report.lut_ff_pairs);
  EXPECT_EQ(a.report.slice_luts, b.report.slice_luts);
}

TEST(Synthesize, ImplementationPassesNeverIncreaseLuts) {
  for (int which = 0; which < 3; ++which) {
    const auto make = [&] {
      return which == 0 ? make_fir() : which == 1 ? make_mips5()
                                                  : make_sdram_ctrl();
    };
    // PAR runs the implementation passes on the synthesized netlist.
    const auto synth = synthesize(make(), SynthOptions{Family::kVirtex5});
    Netlist impl = synth.netlist;
    run_implementation_passes(impl);
    const NetlistStats before = synth.netlist.stats();
    const NetlistStats after = impl.stats();
    EXPECT_LE(after.luts, before.luts) << which;
    // DSP/BRAM counts are untouched by logic optimization (Table VI).
    EXPECT_EQ(after.dsp48s, before.dsp48s) << which;
    EXPECT_EQ(after.bram36s, before.bram36s) << which;
    EXPECT_EQ(after.bram18s, before.bram18s) << which;
  }
}

TEST(Synthesize, AesUsesBramPairs) {
  const SynthesisResult result =
      synthesize(make_aes_round(), SynthOptions{Family::kVirtex5});
  // 16 S-boxes as 18Kb halves -> 8 BRAM36 equivalents.
  EXPECT_EQ(result.report.brams, 8u);
}

}  // namespace
}  // namespace prcost
