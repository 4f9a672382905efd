#include <gtest/gtest.h>

#include "netlist/netlist.hpp"
#include "tests/netlist_sim.hpp"
#include "util/error.hpp"

namespace prcost {
namespace {

using testing_sim = prcost::testing::NetlistSim;

TEST(Netlist, AddNetAndCell) {
  Netlist nl{"t"};
  const NetId a = nl.add_net("a");
  const NetId b = nl.add_net("b");
  const NetId ins[] = {a, b};
  const CellId lut = nl.add_cell(CellKind::kLut, "and1", ins, 1, tt::kAnd2);
  EXPECT_EQ(nl.cell(lut).inputs.size(), 2u);
  EXPECT_EQ(nl.cell(lut).outputs.size(), 1u);
  EXPECT_EQ(nl.net(a).sinks.size(), 1u);
  EXPECT_EQ(nl.net(nl.cell(lut).outputs[0]).driver, lut);
  nl.validate();
}

TEST(Netlist, AutoNamesAreUnique) {
  Netlist nl{"t"};
  const NetId a = nl.add_net();
  const NetId b = nl.add_net();
  EXPECT_NE(nl.net(a).name, nl.net(b).name);
}

TEST(Netlist, ConstNetsAreShared) {
  Netlist nl{"t"};
  EXPECT_EQ(nl.const_net(true), nl.const_net(true));
  EXPECT_EQ(nl.const_net(false), nl.const_net(false));
  EXPECT_NE(nl.const_net(true), nl.const_net(false));
  EXPECT_EQ(nl.stats().constants, 2u);
}

TEST(Netlist, LutInputArityChecked) {
  Netlist nl{"t"};
  EXPECT_THROW(nl.lut(1, {}), ContractError);
  std::vector<NetId> seven(7, nl.add_net());
  EXPECT_THROW(nl.lut(1, seven), ContractError);
}

TEST(Netlist, KillCellDetaches) {
  Netlist nl{"t"};
  const NetId a = nl.input("a");
  const NetId ins[] = {a};
  const CellId lut = nl.add_cell(CellKind::kLut, "buf", ins, 1, tt::kBuf);
  nl.kill_cell(lut);
  EXPECT_TRUE(nl.cell(lut).dead);
  EXPECT_TRUE(nl.net(a).sinks.empty());
  nl.validate();
}

TEST(Netlist, KillCellIdempotent) {
  Netlist nl{"t"};
  const NetId a = nl.input("a");
  const NetId ins[] = {a};
  const CellId lut = nl.add_cell(CellKind::kLut, "buf", ins, 1, tt::kBuf);
  nl.kill_cell(lut);
  EXPECT_NO_THROW(nl.kill_cell(lut));
}

TEST(Netlist, ReplaceNetMovesSinks) {
  Netlist nl{"t"};
  const NetId a = nl.input("a");
  const NetId b = nl.input("b");
  const NetId ins[] = {a};
  const CellId lut = nl.add_cell(CellKind::kLut, "buf", ins, 1, tt::kBuf);
  nl.replace_net(a, b);
  EXPECT_EQ(nl.cell(lut).inputs[0], b);
  EXPECT_TRUE(nl.net(a).sinks.empty());
  EXPECT_EQ(nl.net(b).sinks.size(), 1u);
  nl.validate();
}

TEST(Netlist, RewireInputSingular) {
  Netlist nl{"t"};
  const NetId a = nl.input("a");
  const NetId b = nl.input("b");
  const NetId q = nl.ff(a, "r");
  const CellId ff = nl.net(q).driver;
  nl.rewire_input(ff, 0, b);
  EXPECT_EQ(nl.cell(ff).inputs[0], b);
  EXPECT_TRUE(nl.net(a).sinks.empty());
  nl.validate();
  EXPECT_THROW(nl.rewire_input(ff, 5, a), ContractError);
}

TEST(Netlist, StatsCountsByKind) {
  Netlist nl{"t"};
  const NetId a = nl.input("a");
  const NetId ins[] = {a};
  nl.lut(tt::kBuf, ins);
  nl.ff(a);
  const NetlistStats stats = nl.stats();
  EXPECT_EQ(stats.inputs, 1u);
  EXPECT_EQ(stats.luts, 1u);
  EXPECT_EQ(stats.ffs, 1u);
}

TEST(Netlist, MulCreatesWideOutput) {
  Netlist nl{"t"};
  const Bus a = nl.input_bus("a", 4);
  const Bus b = nl.input_bus("b", 3);
  const Bus p = nl.mul(a, b);
  EXPECT_EQ(p.size(), 7u);
  EXPECT_EQ(nl.stats().muls, 1u);
}

TEST(Netlist, RamChecksWidth) {
  Netlist nl{"t"};
  const Bus addr = nl.input_bus("addr", 4);
  const Bus wdata = nl.input_bus("wd", 8);
  EXPECT_THROW(nl.ram(16, 9, addr, wdata, nl.const_net(false)),
               ContractError);
  const Bus rdata = nl.ram(16, 8, addr, wdata, nl.const_net(false));
  EXPECT_EQ(rdata.size(), 8u);
}

TEST(Netlist, ValidateCatchesCorruption) {
  Netlist nl{"t"};
  const NetId a = nl.input("a");
  const NetId ins[] = {a};
  const CellId lut = nl.add_cell(CellKind::kLut, "buf", ins, 1, tt::kBuf);
  // Corrupt: point the cell at another net without updating sink lists.
  nl.cell_mut(lut).inputs[0] = nl.add_net("rogue");
  EXPECT_THROW(nl.validate(), ContractError);
}

TEST(Netlist, OutputBusCreatesPorts) {
  Netlist nl{"t"};
  const Bus a = nl.input_bus("a", 3);
  nl.output_bus("y", a);
  EXPECT_EQ(nl.stats().outputs, 3u);
}

// Functional checks through the interpreter.

TEST(NetlistSim, MulComputesProduct) {
  Netlist nl{"t"};
  const Bus a = nl.input_bus("a", 6);
  const Bus b = nl.input_bus("b", 6);
  const Bus p = nl.mul(a, b);
  testing_sim sim{nl};
  sim.set_bus(a, 23);
  sim.set_bus(b, 41);
  EXPECT_EQ(sim.eval_bus(p), 23u * 41u);
}

TEST(NetlistSim, FfStepCaptures) {
  Netlist nl{"t"};
  const NetId d = nl.input("d");
  const NetId q = nl.ff(d, "r");
  const CellId ff = nl.net(q).driver;
  testing_sim sim{nl};
  sim.set_input(d, true);
  EXPECT_FALSE(sim.ff_state(ff));
  sim.step();
  EXPECT_TRUE(sim.ff_state(ff));
  EXPECT_TRUE(sim.eval(q));
}

}  // namespace
}  // namespace prcost
