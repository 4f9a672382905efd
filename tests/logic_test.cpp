// Functional verification of the LogicBuilder word-level constructions via
// the test interpreter: the builders must compute what they claim, not
// just instantiate the right number of cells.
#include <gtest/gtest.h>

#include "netlist/logic.hpp"
#include "tests/netlist_sim.hpp"

namespace prcost {
namespace {

using prcost::testing::NetlistSim;

class LogicFixture : public ::testing::Test {
 protected:
  Netlist nl{"logic"};
  LogicBuilder lb{nl};
};

TEST_F(LogicFixture, Gates) {
  const NetId a = nl.input("a");
  const NetId b = nl.input("b");
  const NetId and_o = lb.land(a, b);
  const NetId or_o = lb.lor(a, b);
  const NetId xor_o = lb.lxor(a, b);
  const NetId not_o = lb.lnot(a);
  for (int va = 0; va < 2; ++va) {
    for (int vb = 0; vb < 2; ++vb) {
      NetlistSim sim{nl};
      sim.set_input(a, va != 0);
      sim.set_input(b, vb != 0);
      EXPECT_EQ(sim.eval(and_o), (va && vb)) << va << vb;
      EXPECT_EQ(sim.eval(or_o), (va || vb)) << va << vb;
      EXPECT_EQ(sim.eval(xor_o), (va != vb)) << va << vb;
      EXPECT_EQ(sim.eval(not_o), !va) << va;
    }
  }
}

TEST_F(LogicFixture, Mux2SelectsCorrectLeg) {
  const NetId s = nl.input("s");
  const NetId a = nl.input("a");
  const NetId b = nl.input("b");
  const NetId y = lb.mux2(s, a, b);
  NetlistSim sim{nl};
  sim.set_input(a, true);
  sim.set_input(b, false);
  sim.set_input(s, false);
  EXPECT_TRUE(sim.eval(y));  // sel=0 -> a
  sim.set_input(s, true);
  EXPECT_FALSE(sim.eval(y));  // sel=1 -> b
}

TEST_F(LogicFixture, ConstantBus) {
  const Bus c = lb.constant(8, 0xA5);
  NetlistSim sim{nl};
  EXPECT_EQ(sim.eval_bus(c), 0xA5u);
}

TEST_F(LogicFixture, WideConstantAndEqConstReadZeroAbove64) {
  // A u64 value carries no bits >= 64: wider buses read them as 0.
  const Bus c = lb.constant(100, ~0ull);
  const Bus a = nl.input_bus("a", 70);
  const NetId hit = lb.eq_const(a, ~0ull);
  NetlistSim sim{nl};
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ(sim.eval(c[i]), i < 64) << i;
  }
  for (std::size_t i = 0; i < a.size(); ++i) sim.set_input(a[i], i < 64);
  EXPECT_TRUE(sim.eval(hit));
  sim.set_input(a[64], true);
  EXPECT_FALSE(sim.eval(hit));
}

// Parameterized adder sweep: LUT+CARRY4 construction must add correctly.
class AdderSweep : public ::testing::TestWithParam<std::tuple<u64, u64>> {};

TEST_P(AdderSweep, AddsCorrectly) {
  const auto [va, vb] = GetParam();
  Netlist nl{"adder"};
  LogicBuilder lb{nl};
  const Bus a = nl.input_bus("a", 10);
  const Bus b = nl.input_bus("b", 10);
  const Bus sum = lb.add(a, b);
  ASSERT_EQ(sum.size(), 11u);
  NetlistSim sim{nl};
  sim.set_bus(a, va);
  sim.set_bus(b, vb);
  EXPECT_EQ(sim.eval_bus(sum), va + vb);
}

INSTANTIATE_TEST_SUITE_P(
    Values, AdderSweep,
    ::testing::Values(std::tuple<u64, u64>{0, 0}, std::tuple<u64, u64>{1, 1},
                      std::tuple<u64, u64>{511, 1},
                      std::tuple<u64, u64>{1023, 1023},
                      std::tuple<u64, u64>{765, 432},
                      std::tuple<u64, u64>{3, 1020}));

TEST_F(LogicFixture, AddUsesCarryChains) {
  const Bus a = nl.input_bus("a", 8);
  const Bus b = nl.input_bus("b", 8);
  lb.add(a, b);
  const NetlistStats stats = nl.stats();
  EXPECT_EQ(stats.carries, 2u);  // 8 bits / 4 per CARRY4
  EXPECT_EQ(stats.luts, 8u);     // one propagate LUT per bit
}

TEST_F(LogicFixture, SubComputesDifference) {
  const Bus a = nl.input_bus("a", 8);
  const Bus b = nl.input_bus("b", 8);
  const Bus diff = lb.sub(a, b);
  NetlistSim sim{nl};
  sim.set_bus(a, 200);
  sim.set_bus(b, 55);
  EXPECT_EQ(sim.eval_bus(diff) & 0xFFu, 145u);
}

TEST_F(LogicFixture, IncrementWraps) {
  const Bus a = nl.input_bus("a", 4);
  const Bus inc = lb.increment(a);
  NetlistSim sim{nl};
  sim.set_bus(a, 15);
  EXPECT_EQ(sim.eval_bus(inc), 0u);
  sim.set_bus(a, 7);
  EXPECT_EQ(sim.eval_bus(inc), 8u);
}

TEST_F(LogicFixture, EqConst) {
  const Bus a = nl.input_bus("a", 6);
  const NetId hit = lb.eq_const(a, 42);
  NetlistSim sim{nl};
  sim.set_bus(a, 42);
  EXPECT_TRUE(sim.eval(hit));
  sim.set_bus(a, 41);
  EXPECT_FALSE(sim.eval(hit));
}

TEST_F(LogicFixture, Reductions) {
  const Bus a = nl.input_bus("a", 5);
  const NetId any = lb.reduce_or(a);
  const NetId all = lb.reduce_and(a);
  const NetId parity = lb.reduce_xor(a);
  NetlistSim sim{nl};
  sim.set_bus(a, 0);
  EXPECT_FALSE(sim.eval(any));
  EXPECT_FALSE(sim.eval(all));
  EXPECT_FALSE(sim.eval(parity));
  sim.set_bus(a, 0b10110);
  EXPECT_TRUE(sim.eval(any));
  EXPECT_FALSE(sim.eval(all));
  EXPECT_TRUE(sim.eval(parity));
  sim.set_bus(a, 0b11111);
  EXPECT_TRUE(sim.eval(all));
}

TEST_F(LogicFixture, MuxNSelectsBank) {
  std::vector<Bus> banks;
  for (u64 v = 0; v < 8; ++v) banks.push_back(lb.constant(8, 10 * v + 5));
  const Bus sel = nl.input_bus("sel", 3);
  const Bus y = lb.mux_n(banks, sel);
  for (u64 s = 0; s < 8; ++s) {
    NetlistSim sim{nl};
    sim.set_bus(sel, s);
    EXPECT_EQ(sim.eval_bus(y), 10 * s + 5) << "sel=" << s;
  }
}

TEST_F(LogicFixture, DecodeOneHot) {
  const Bus a = nl.input_bus("a", 3);
  const Bus onehot = lb.decode(a);
  ASSERT_EQ(onehot.size(), 8u);
  NetlistSim sim{nl};
  sim.set_bus(a, 5);
  EXPECT_EQ(sim.eval_bus(onehot), 1ull << 5);
}

TEST_F(LogicFixture, RegisterBusCapturesOnStep) {
  const Bus d = nl.input_bus("d", 4);
  const Bus q = lb.register_bus(d, "r");
  NetlistSim sim{nl};
  sim.set_bus(d, 9);
  EXPECT_EQ(sim.eval_bus(q), 0u);
  sim.step();
  EXPECT_EQ(sim.eval_bus(q), 9u);
}

TEST_F(LogicFixture, RegisterBusCeHoldsWithoutEnable) {
  const Bus d = nl.input_bus("d", 4);
  const NetId ce = nl.input("ce");
  const Bus q = lb.register_bus_ce(d, ce, "r");
  NetlistSim sim{nl};
  sim.set_bus(d, 5);
  sim.set_input(ce, false);
  sim.step();
  EXPECT_EQ(sim.eval_bus(q), 0u);  // held reset value
  sim.set_input(ce, true);
  sim.step();
  EXPECT_EQ(sim.eval_bus(q), 5u);  // captured
  sim.set_bus(d, 12);
  sim.set_input(ce, false);
  sim.step();
  EXPECT_EQ(sim.eval_bus(q), 5u);  // held
}

TEST_F(LogicFixture, CounterCounts) {
  const Bus count = lb.counter(4, "cnt");
  NetlistSim sim{nl};
  EXPECT_EQ(sim.eval_bus(count), 0u);
  for (u64 i = 1; i <= 17; ++i) {
    sim.step();
    EXPECT_EQ(sim.eval_bus(count), i % 16) << "cycle " << i;
  }
}

TEST_F(LogicFixture, CounterCeClr) {
  const NetId ce = nl.input("ce");
  const NetId clr = nl.input("clr");
  const Bus count = lb.counter_ce_clr(4, ce, clr, "cnt");
  NetlistSim sim{nl};
  sim.set_input(ce, true);
  sim.set_input(clr, false);
  sim.step();
  sim.step();
  EXPECT_EQ(sim.eval_bus(count), 2u);
  sim.set_input(ce, false);  // hold
  sim.step();
  EXPECT_EQ(sim.eval_bus(count), 2u);
  sim.set_input(clr, true);  // synchronous clear
  sim.step();
  EXPECT_EQ(sim.eval_bus(count), 0u);
}

TEST_F(LogicFixture, DelayLineShifts) {
  const Bus in = nl.input_bus("x", 4);
  const auto taps = lb.delay_line(in, 3, "dl");
  ASSERT_EQ(taps.size(), 3u);
  NetlistSim sim{nl};
  sim.set_bus(in, 7);
  sim.step();
  sim.set_bus(in, 2);
  sim.step();
  EXPECT_EQ(sim.eval_bus(taps[0]), 2u);
  EXPECT_EQ(sim.eval_bus(taps[1]), 7u);
  EXPECT_EQ(sim.eval_bus(taps[2]), 0u);
}

TEST_F(LogicFixture, WidthMismatchThrows) {
  const Bus a = nl.input_bus("a", 3);
  const Bus b = nl.input_bus("b", 4);
  EXPECT_THROW(lb.and_bus(a, b), ContractError);
  EXPECT_THROW(lb.mux2_bus(nl.input("s"), a, b), ContractError);
}

TEST_F(LogicFixture, MuxNChecksSelectWidth) {
  std::vector<Bus> banks{lb.constant(4, 1), lb.constant(4, 2),
                         lb.constant(4, 3)};
  const Bus narrow_sel = nl.input_bus("s", 1);
  EXPECT_THROW(lb.mux_n(banks, narrow_sel), ContractError);
}

}  // namespace
}  // namespace prcost
