#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "netlist/generators.hpp"
#include "netlist/serialize.hpp"
#include "synth/synthesizer.hpp"
#include "tests/netlist_sim.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace prcost {
namespace {

using prcost::testing::NetlistSim;

TEST(Serialize, RoundTripPreservesStats) {
  for (int which = 0; which < 3; ++which) {
    const Netlist original = which == 0   ? make_fir()
                             : which == 1 ? make_sdram_ctrl()
                                          : make_uart();
    const Netlist reloaded = netlist_from_text(netlist_to_text(original));
    const NetlistStats a = original.stats();
    const NetlistStats b = reloaded.stats();
    EXPECT_EQ(a.luts, b.luts) << which;
    EXPECT_EQ(a.ffs, b.ffs);
    EXPECT_EQ(a.carries, b.carries);
    EXPECT_EQ(a.muls, b.muls);
    EXPECT_EQ(a.rams, b.rams);
    EXPECT_EQ(a.inputs, b.inputs);
    EXPECT_EQ(a.outputs, b.outputs);
    EXPECT_EQ(reloaded.name(), original.name());
  }
}

TEST(Serialize, RoundTripPreservesBehaviour) {
  // A small combinational design must compute the same function after a
  // save/load cycle (checked by exhaustive simulation over the inputs).
  Netlist original{"adder4"};
  {
    LogicBuilder lb{original};
    const Bus a = original.input_bus("a", 4);
    const Bus b = original.input_bus("b", 4);
    original.output_bus("s", lb.add(a, b));
  }
  const Netlist reloaded = netlist_from_text(netlist_to_text(original));

  const auto find_ports = [](const Netlist& nl) {
    Bus a(4, kNoNet), b(4, kNoNet), s(5, kNoNet);
    for (u32 c = 0; c < nl.cell_count(); ++c) {
      const Cell& cell = nl.cell(CellId{c});
      if (cell.dead) continue;
      if (cell.kind == CellKind::kInput) {
        const auto bit =
            static_cast<std::size_t>(cell.name[2] - '0');
        (cell.name[0] == 'a' ? a : b)[bit] = cell.outputs[0];
      }
      if (cell.kind == CellKind::kOutput) {
        const auto bit =
            static_cast<std::size_t>(cell.name[2] - '0');
        s[bit] = cell.inputs[0];
      }
    }
    return std::tuple{a, b, s};
  };
  const auto [oa, ob, os_] = find_ports(original);
  const auto [ra, rb, rs] = find_ports(reloaded);
  for (u64 va = 0; va < 16; va += 3) {
    for (u64 vb = 0; vb < 16; vb += 5) {
      NetlistSim sim_o{original};
      sim_o.set_bus(oa, va);
      sim_o.set_bus(ob, vb);
      NetlistSim sim_r{reloaded};
      sim_r.set_bus(ra, va);
      sim_r.set_bus(rb, vb);
      EXPECT_EQ(sim_r.eval_bus(rs), sim_o.eval_bus(os_)) << va << "+" << vb;
    }
  }
}

TEST(Serialize, ReloadedDesignSynthesizesIdentically) {
  Netlist original = make_fir();
  Netlist reloaded = netlist_from_text(netlist_to_text(original));
  const auto a =
      synthesize(std::move(original), SynthOptions{Family::kVirtex5});
  const auto b =
      synthesize(std::move(reloaded), SynthOptions{Family::kVirtex5});
  EXPECT_EQ(a.report.lut_ff_pairs, b.report.lut_ff_pairs);
  EXPECT_EQ(a.report.slice_luts, b.report.slice_luts);
  EXPECT_EQ(a.report.slice_ffs, b.report.slice_ffs);
  EXPECT_EQ(a.report.dsps, b.report.dsps);
  EXPECT_EQ(a.report.brams, b.report.brams);
}

TEST(Serialize, RejectsMalformedInput) {
  EXPECT_THROW(netlist_from_text(""), ParseError);
  EXPECT_THROW(netlist_from_text("cell LUT x 0 0 | a | y"), ParseError);
  EXPECT_THROW(netlist_from_text("netlist t\nbogus line"), ParseError);
  EXPECT_THROW(netlist_from_text("netlist t\ncell WAT x 0 0 | | y"),
               ParseError);
  EXPECT_THROW(netlist_from_text("netlist t\ncell LUT x 0 0 no-bar"),
               ParseError);
}

TEST(Serialize, CommentsAndBlankLinesIgnored) {
  const Netlist nl = netlist_from_text(
      "# a comment\n"
      "netlist t\n"
      "\n"
      "cell INPUT a 0 0 | | a_o\n"
      "cell LUT inv 1 0 | a_o | y\n"
      "# trailing comment\n");
  EXPECT_EQ(nl.stats().luts, 1u);
  EXPECT_EQ(nl.stats().inputs, 1u);
}

TEST(Serialize, ForwardReferencesResolve) {
  // A cell may read a net whose driver appears later in the file.
  const Netlist nl = netlist_from_text(
      "netlist t\n"
      "cell LUT inv 1 0 | late | y\n"
      "cell INPUT a 0 0 | | late\n");
  nl.validate();
  const NetlistStats stats = nl.stats();
  EXPECT_EQ(stats.luts, 1u);
  EXPECT_EQ(stats.inputs, 1u);
}

/// The ParseError message `text` is refused with ("" if it parses).
std::string parse_error(std::string_view text) {
  try {
    (void)netlist_from_text(text);
  } catch (const ParseError& error) {
    return error.what();
  }
  return "";
}

/// The input net of the OUTPUT cell named `port`.
NetId output_net(const Netlist& nl, std::string_view port) {
  for (u32 c = 0; c < nl.cell_count(); ++c) {
    const Cell& cell = nl.cell(CellId{c});
    if (cell.kind == CellKind::kOutput && cell.name == port) {
      return cell.inputs.at(0);
    }
  }
  ADD_FAILURE() << "no output port " << port;
  return kNoNet;
}

TEST(Serialize, CrlfAndTabsSeparateTokensLikeSpaces) {
  const std::string lf =
      "netlist t\n"
      "cell INPUT a 0 0 | | a_o\n"
      "cell LUT inv 1 0 | a_o | y\n"
      "cell OUTPUT o 0 0 | y |\n";
  const std::string crlf_tabs =
      "netlist\tt\r\n"
      "cell\tINPUT a 0 0 | |\ta_o\r\n"
      "\tcell LUT\t\tinv 1 0 |\ta_o | y \r\n"
      "cell OUTPUT o 0 0 | y |\r\n"
      "\r\n";
  const std::string expected = netlist_to_text(netlist_from_text(lf));
  EXPECT_EQ(netlist_to_text(netlist_from_text(crlf_tabs)), expected);
  EXPECT_EQ(netlist_from_text(crlf_tabs).name(), "t");
}

TEST(Serialize, OnlyALeadingHashStartsAComment) {
  const Netlist nl = netlist_from_text(
      "   # indented comment\n"
      "#cell LUT skipped 1 0 | nowhere | z\n"
      "netlist t\n"
      "cell INPUT a 0 0 | | #a\n"
      "cell OUTPUT o 0 0 | #a |\n");
  EXPECT_EQ(nl.stats().total_cells(), 2u);
  EXPECT_EQ(nl.net(output_net(nl, "o")).driver, CellId{0});
}

TEST(Serialize, DashIsAnUnconnectedPin) {
  const Netlist nl = netlist_from_text(
      "netlist t\n"
      "cell INPUT a 0 0 | | x\n"
      "cell FF f 0 0 | x - | q\n"
      "cell OUTPUT o 0 0 | q |\n");
  const Cell& ff = nl.cell(CellId{1});
  ASSERT_EQ(ff.inputs.size(), 2u);
  EXPECT_NE(ff.inputs[0], kNoNet);
  EXPECT_EQ(ff.inputs[1], kNoNet);
}

TEST(Serialize, ForwardReferenceMergesIntoTheLaterDriver) {
  // The placeholder for `late` is net 0; the INPUT's output replaces it.
  const Netlist nl = netlist_from_text(
      "netlist t\n"
      "cell OUTPUT o 0 0 | late |\n"
      "cell INPUT a 0 0 | | late\n");
  EXPECT_EQ(nl.net_count(), 2u);
  EXPECT_EQ(nl.net(NetId{0}).sinks.size(), 0u);
  EXPECT_EQ(output_net(nl, "o"), NetId{1});
  EXPECT_EQ(nl.net(NetId{1}).driver, CellId{1});
}

TEST(Serialize, DuplicateOutputNameRebindsLaterReaders) {
  // A second driver of `x` takes over the earlier one's readers; the first
  // INPUT keeps its (now unread) net.
  const Netlist nl = netlist_from_text(
      "netlist t\n"
      "cell INPUT a 0 0 | | x\n"
      "cell OUTPUT o 0 0 | x |\n"
      "cell INPUT b 0 0 | | x\n"
      "cell OUTPUT p 0 0 | x |\n");
  const NetId b_out = nl.cell(CellId{2}).outputs[0];
  EXPECT_EQ(output_net(nl, "o"), b_out);
  EXPECT_EQ(output_net(nl, "p"), b_out);
  EXPECT_TRUE(nl.net(nl.cell(CellId{0}).outputs[0]).sinks.empty());
}

TEST(Serialize, HeaderTakesOneNameAndAppearsOnce) {
  EXPECT_EQ(netlist_from_text("netlist t extra tokens here\n").name(), "t");
  EXPECT_EQ(parse_error("netlist\n"), "netlist: missing design name");
  EXPECT_EQ(parse_error("netlist a\nnetlist b\n"),
            "netlist: duplicate header");
  EXPECT_EQ(parse_error("cell INPUT a 0 0 | | x\n"),
            "netlist: cell before header");
  EXPECT_EQ(parse_error("# only a comment\n"), "netlist: empty input");
}

TEST(Serialize, ParamsAreWholeTokenDecimalU64) {
  const auto lut_with = [](std::string_view p0, std::string_view p1) {
    return "netlist t\ncell INPUT a 0 0 | | x\ncell LUT l " +
           std::string{p0} + " " + std::string{p1} + " | x | y\n";
  };
  const Netlist max =
      netlist_from_text(lut_with("18446744073709551615", "007"));
  EXPECT_EQ(max.cell(CellId{1}).param0, ~u64{0});
  EXPECT_EQ(max.cell(CellId{1}).param1, 7u);
  for (const std::string_view bad :
       {"+5", "-1", "12abc", "18446744073709551616", "0x10", "1.5"}) {
    EXPECT_EQ(parse_error(lut_with(bad, "0")), "netlist: malformed cell line")
        << bad;
    EXPECT_EQ(parse_error(lut_with("0", bad)), "netlist: malformed cell line")
        << bad;
  }
  // A param glued to the bar is one token, not a param and a bar.
  EXPECT_EQ(parse_error("netlist t\ncell LUT l 1 5| x | y\n"),
            "netlist: malformed cell line");
  EXPECT_EQ(parse_error("netlist t\ncell LUT l 1\n"),
            "netlist: malformed cell line");
  EXPECT_EQ(parse_error("netlist t\ncell LUT\n"),
            "netlist: malformed cell line");
}

TEST(Serialize, CellLineErrorsKeepTheirOrder) {
  EXPECT_EQ(parse_error("netlist t\nwire a b\n"),
            "netlist: unexpected keyword 'wire'");
  // Params are checked before the bar, the bar before the kind.
  EXPECT_EQ(parse_error("netlist t\ncell WAT x 0 z | | y\n"),
            "netlist: malformed cell line");
  EXPECT_EQ(parse_error("netlist t\ncell WAT x 0 0 y\n"),
            "netlist: expected '|' before inputs");
  EXPECT_EQ(parse_error("netlist t\ncell WAT x 0 0 | | y\n"),
            "netlist: unknown cell kind 'WAT'");
  // Every '|' after the first switches to outputs, so extra bars are
  // ignored. (CARRY has no fixed pin counts; an INPUT must have one
  // output.)
  const Netlist nl =
      netlist_from_text("netlist t\ncell CARRY a 0 0 | | | x | y\n");
  EXPECT_EQ(nl.cell(CellId{0}).outputs.size(), 2u);
}

TEST(Serialize, PinCountsAreCheckedPerKind) {
  const std::string head = "netlist t\ncell INPUT a 0 0 | | x\n";
  EXPECT_EQ(parse_error(head + "cell FF f 0 0 | | q\n"),
            "netlist: cell 'f' (FF) takes 1..2 inputs and 1 outputs, not 0 "
            "and 1");
  EXPECT_EQ(parse_error(head + "cell FF f 0 0 | x x x | q\n"),
            "netlist: cell 'f' (FF) takes 1..2 inputs and 1 outputs, not 3 "
            "and 1");
  EXPECT_EQ(parse_error(head + "cell OUTPUT o 0 0 | |\n"),
            "netlist: cell 'o' (OUTPUT) takes 1 inputs and 0 outputs, not 0 "
            "and 0");
  EXPECT_EQ(parse_error(head + "cell OUTPUT o 0 0 | x | y\n"),
            "netlist: cell 'o' (OUTPUT) takes 1 inputs and 0 outputs, not 1 "
            "and 1");
  EXPECT_EQ(parse_error(head + "cell INPUT b 0 0 | x | y\n"),
            "netlist: cell 'b' (INPUT) takes 0 inputs and 1 outputs, not 1 "
            "and 1");
  EXPECT_EQ(parse_error(head + "cell CONST0 c 0 0 | |\n"),
            "netlist: cell 'c' (CONST0) takes 0 inputs and 1 outputs, not 0 "
            "and 0");
  EXPECT_EQ(parse_error(head + "cell LUT l 2 0 | | y\n"),
            "netlist: cell 'l' (LUT) takes 1..6 inputs and 1 outputs, not 0 "
            "and 1");
  EXPECT_EQ(parse_error(head + "cell LUT l 2 0 | x x x x x x x | y\n"),
            "netlist: cell 'l' (LUT) takes 1..6 inputs and 1 outputs, not 7 "
            "and 1");
  EXPECT_EQ(parse_error(head + "cell LUT l 2 0 | x | y z\n"),
            "netlist: cell 'l' (LUT) takes 1..6 inputs and 1 outputs, not 1 "
            "and 2");
  // Each bound reads, unconnected pins included; kinds without a rule
  // take any pins.
  for (const char* line :
       {"cell LUT l 2 0 | x x x x x x | y\n", "cell FF f 0 1 | x - | q\n",
        "cell FF f 0 0 | - | q\n", "cell CARRY k 0 0 | | \n",
        "cell DSP48 d 1 0 | x x x | p\n", "cell BRAM18 r 16 8 | | \n"}) {
    EXPECT_EQ(parse_error(head + line), "") << line;
  }
}

TEST(Serialize, MacroWidthsAndRamSizesAreChecked) {
  const std::string head = "netlist t\ncell INPUT a 0 0 | | x\n";
  const std::string widths = "needs operand widths in 1..2^63-1";
  EXPECT_EQ(parse_error(head + "cell MUL m 0 5 | | q\n"),
            "netlist: cell 'm' (MUL) " + widths);
  EXPECT_EQ(parse_error(head + "cell MUL m 5 0 | x | q\n"),
            "netlist: cell 'm' (MUL) " + widths);
  EXPECT_EQ(parse_error(head + "cell MULACC m 0 3 | x | q\n"),
            "netlist: cell 'm' (MULACC) " + widths);
  // The top width bit is the mapper's pre-adder mark.
  EXPECT_EQ(parse_error(head + "cell MUL m 9223372036854775808 1 | | q\n"),
            "netlist: cell 'm' (MUL) " + widths);
  EXPECT_EQ(parse_error(head + "cell RAM r 0 8 | x | q\n"),
            "netlist: cell 'r' (RAM) needs a nonzero depth and width");
  EXPECT_EQ(parse_error(head + "cell RAM r 16 0 | x | q\n"),
            "netlist: cell 'r' (RAM) needs a nonzero depth and width");
  // Widths past the mapper's primitive ceiling still read; the mapper
  // refuses them by name.
  EXPECT_EQ(parse_error(head + "cell MUL m 9223372036854775807 1 | | q\n"),
            "");
  EXPECT_EQ(parse_error(head + "cell RAM r 1 1 | x x x | q\n"), "");
}

/// One deterministic damage of `text`: truncate, flip a byte, splice a run
/// of lines elsewhere, or duplicate a line.
std::string mutate(const std::string& text, Rng& rng) {
  std::vector<std::string_view> lines;
  for (std::size_t at = 0; at < text.size();) {
    const std::size_t eol = std::min(text.find('\n', at), text.size());
    lines.emplace_back(text.data() + at, eol + 1 - at - (eol == text.size()));
    at = eol + 1;
  }
  const auto join = [](const std::vector<std::string_view>& parts) {
    std::string out;
    for (const std::string_view part : parts) out += part;
    return out;
  };
  std::string out = text;
  switch (rng.below(4)) {
    case 0: out.resize(rng.below(text.size())); break;
    case 1: {
      out[rng.below(out.size())] ^= static_cast<char>(1 + rng.below(255));
      break;
    }
    case 2: {
      const auto at = [&](std::size_t i) {
        return lines.begin() + static_cast<long>(std::min(i, lines.size()));
      };
      const std::size_t from = rng.below(lines.size());
      const std::vector<std::string_view> run(at(from),
                                              at(from + 1 + rng.below(4)));
      lines.insert(at(rng.below(lines.size() + 1)), run.begin(), run.end());
      out = join(lines);
      break;
    }
    default: {
      const std::size_t at = rng.below(lines.size());
      lines.insert(lines.begin() + static_cast<long>(at), lines[at]);
      out = join(lines);
      break;
    }
  }
  return out;
}

TEST(Serialize, MutatedTextParsesValidOrThrowsParseError) {
  const std::string clean = netlist_to_text(make_uart(12));
  Rng rng{21};
  u64 parsed = 0, refused = 0;
  constexpr int kIterations = 2000;
  for (int i = 0; i < kIterations; ++i) {
    std::string text = clean;
    // 1-3 stacked mutations.
    for (int hit = 0, hits = 1 + i % 3; hit < hits && !text.empty(); ++hit) {
      text = mutate(text, rng);
    }
    try {
      netlist_from_text(text).validate();
      ++parsed;
    } catch (const ParseError&) {
      ++refused;
    } catch (const std::exception& error) {
      ADD_FAILURE() << "iteration " << i << ": " << error.what();
    }
  }
  // Both outcomes occur: splices and duplicates mostly survive, flips and
  // truncations mostly break the grammar.
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(refused, 0u);
}

}  // namespace
}  // namespace prcost
