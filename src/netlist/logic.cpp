#include "netlist/logic.hpp"

#include <algorithm>

namespace prcost {
namespace {

Bus pad_to(Netlist& nl, const Bus& a, std::size_t width) {
  Bus out = a;
  while (out.size() < width) out.push_back(nl.const_net(false));
  return out;
}

/// Bit `i` of `value`; bits at and above 64 read 0.
bool bit_of(u64 value, std::size_t i) {
  return i < 64 && ((value >> i) & 1) != 0;
}

}  // namespace

NetId LogicBuilder::lnot(NetId a) {
  const NetId ins[] = {a};
  return nl_.lut(tt::kNot, ins);
}

NetId LogicBuilder::land(NetId a, NetId b) {
  const NetId ins[] = {a, b};
  return nl_.lut(tt::kAnd2, ins);
}

NetId LogicBuilder::lor(NetId a, NetId b) {
  const NetId ins[] = {a, b};
  return nl_.lut(tt::kOr2, ins);
}

NetId LogicBuilder::lxor(NetId a, NetId b) {
  const NetId ins[] = {a, b};
  return nl_.lut(tt::kXor2, ins);
}

NetId LogicBuilder::lor3(NetId a, NetId b, NetId c) {
  const NetId ins[] = {a, b, c};
  return nl_.lut(tt::kOr3, ins);
}

NetId LogicBuilder::mux2(NetId sel, NetId a, NetId b) {
  const NetId ins[] = {sel, a, b};
  return nl_.lut(tt::kMux2, ins);
}

Bus LogicBuilder::constant(u32 width, u64 value) {
  Bus out;
  out.reserve(width);
  for (u32 i = 0; i < width; ++i) {
    out.push_back(nl_.const_net(bit_of(value, i)));
  }
  return out;
}

Bus LogicBuilder::and_bus(const Bus& a, const Bus& b) {
  if (a.size() != b.size()) throw ContractError{"and_bus: width mismatch"};
  Bus out;
  out.reserve(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out.push_back(land(a[i], b[i]));
  return out;
}

Bus LogicBuilder::or_bus(const Bus& a, const Bus& b) {
  if (a.size() != b.size()) throw ContractError{"or_bus: width mismatch"};
  Bus out;
  out.reserve(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out.push_back(lor(a[i], b[i]));
  return out;
}

Bus LogicBuilder::xor_bus(const Bus& a, const Bus& b) {
  if (a.size() != b.size()) throw ContractError{"xor_bus: width mismatch"};
  Bus out;
  out.reserve(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out.push_back(lxor(a[i], b[i]));
  return out;
}

Bus LogicBuilder::not_bus(const Bus& a) {
  Bus out;
  out.reserve(a.size());
  for (const NetId bit : a) out.push_back(lnot(bit));
  return out;
}

Bus LogicBuilder::mux2_bus(NetId sel, const Bus& a, const Bus& b) {
  if (a.size() != b.size()) throw ContractError{"mux2_bus: width mismatch"};
  Bus out;
  out.reserve(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    out.push_back(mux2(sel, a[i], b[i]));
  }
  return out;
}

Bus LogicBuilder::resize(const Bus& a, u32 width) {
  Bus out = a;
  out.resize(width, nl_.const_net(false));
  return out;
}

Bus LogicBuilder::add(const Bus& a, const Bus& b) {
  const std::size_t width = std::max(a.size(), b.size());
  const Bus aa = pad_to(nl_, a, width);
  const Bus bb = pad_to(nl_, b, width);
  Bus sum;
  sum.reserve(width + 1);
  NetId carry = nl_.const_net(false);
  // One propagate/generate LUT per bit; a kCarry chain cell per 4 bits
  // provides the sum/carry-out nets (mirrors the LUT+CARRY4 structure XST
  // emits, so LUT counts stay realistic at ~1 LUT/bit).
  for (std::size_t base = 0; base < width; base += 4) {
    const std::size_t chunk = std::min<std::size_t>(4, width - base);
    std::vector<NetId> carry_ins;
    carry_ins.push_back(carry);
    for (std::size_t i = 0; i < chunk; ++i) {
      const NetId ins[] = {aa[base + i], bb[base + i]};
      carry_ins.push_back(nl_.lut(tt::kXor2, ins));  // propagate
      carry_ins.push_back(aa[base + i]);             // generate source
    }
    const CellId chain = nl_.add_cell(CellKind::kCarry, {}, carry_ins,
                                      narrow<u32>(chunk + 1));
    const auto& outs = nl_.cell(chain).outputs;
    for (std::size_t i = 0; i < chunk; ++i) sum.push_back(outs[i]);
    carry = outs[chunk];
  }
  sum.push_back(carry);
  return sum;
}

Bus LogicBuilder::sub(const Bus& a, const Bus& b) {
  const std::size_t width = std::max(a.size(), b.size());
  const Bus bb = not_bus(pad_to(nl_, b, width));
  // a + ~b + 1: fold the +1 in by adding a constant-1 LSB through add().
  Bus sum = add(pad_to(nl_, a, width), bb);
  // Ripple in the +1 with an increment over the low bits.
  return increment(sum);
}

Bus LogicBuilder::increment(const Bus& a) {
  Bus out;
  out.reserve(a.size());
  NetId carry = nl_.const_net(true);
  for (const NetId bit : a) {
    out.push_back(lxor(bit, carry));
    carry = land(bit, carry);
  }
  return out;
}

NetId LogicBuilder::eq_const(const Bus& a, u64 value) {
  // Per-bit match, then AND-reduce.
  Bus matches;
  matches.reserve(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    matches.push_back(bit_of(value, i) ? a[i] : lnot(a[i]));
  }
  return reduce_and(matches);
}

namespace {

NetId reduce_tree(LogicBuilder& lb, Bus bus, u64 table2) {
  Netlist& nl = lb.netlist();
  if (bus.empty()) return nl.const_net(false);
  while (bus.size() > 1) {
    Bus next;
    next.reserve((bus.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < bus.size(); i += 2) {
      const NetId ins[] = {bus[i], bus[i + 1]};
      next.push_back(nl.lut(table2, ins));
    }
    if (bus.size() % 2 == 1) next.push_back(bus.back());
    bus = std::move(next);
  }
  return bus[0];
}

}  // namespace

NetId LogicBuilder::reduce_or(const Bus& a) {
  return reduce_tree(*this, a, tt::kOr2);
}

NetId LogicBuilder::reduce_and(const Bus& a) {
  return reduce_tree(*this, a, tt::kAnd2);
}

NetId LogicBuilder::reduce_xor(const Bus& a) {
  return reduce_tree(*this, a, tt::kXor2);
}

Bus LogicBuilder::register_bus(const Bus& d, const std::string& name) {
  Bus q;
  q.reserve(d.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    q.push_back(nl_.ff(
        d[i], name.empty() ? std::string{} : name + "[" + std::to_string(i) + "]"));
  }
  return q;
}

Bus LogicBuilder::register_bus_ce(const Bus& d, NetId ce,
                                  const std::string& name) {
  // q <= ce ? d : q, built as a mux feeding the FF. Create each FF on a
  // placeholder net first, then point the placeholder at the feedback mux
  // (same append-only pattern as counter()).
  Bus q;
  q.reserve(d.size());
  std::vector<NetId> placeholders;
  placeholders.reserve(d.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    const NetId ph = nl_.add_net();
    placeholders.push_back(ph);
    q.push_back(nl_.ff(
        ph, name.empty() ? std::string{} : name + "[" + std::to_string(i) + "]"));
  }
  for (std::size_t i = 0; i < d.size(); ++i) {
    nl_.replace_net(placeholders[i], mux2(ce, q[i], d[i]));
  }
  return q;
}

Bus LogicBuilder::counter(u32 width, const std::string& name) {
  // q <= q + 1: create FFs on placeholder nets, then wire increment of the
  // outputs back. The IR forbids rewiring FF inputs after creation, so use
  // an explicit feedback net per bit: FF reads a fresh net that the
  // increment logic later drives... Simplest construction that stays within
  // the append-only IR: build increment over FF outputs and let the FFs
  // read it through replace_net.
  Bus q;
  q.reserve(width);
  std::vector<NetId> placeholders;
  placeholders.reserve(width);
  for (u32 i = 0; i < width; ++i) {
    const NetId d = nl_.add_net();
    placeholders.push_back(d);
    q.push_back(
        nl_.ff(d, name.empty() ? std::string{} : name + "[" + std::to_string(i) + "]"));
  }
  const Bus next = increment(q);
  for (u32 i = 0; i < width; ++i) nl_.replace_net(placeholders[i], next[i]);
  return q;
}

Bus LogicBuilder::counter_ce_clr(u32 width, NetId ce, NetId clr,
                                 const std::string& name) {
  Bus q;
  q.reserve(width);
  std::vector<NetId> placeholders;
  placeholders.reserve(width);
  for (u32 i = 0; i < width; ++i) {
    const NetId d = nl_.add_net();
    placeholders.push_back(d);
    q.push_back(
        nl_.ff(d, name.empty() ? std::string{} : name + "[" + std::to_string(i) + "]"));
  }
  const Bus incremented = increment(q);
  const Bus gated = mux2_bus(ce, q, incremented);
  const NetId nclr = lnot(clr);
  Bus next;
  next.reserve(width);
  for (u32 i = 0; i < width; ++i) next.push_back(land(gated[i], nclr));
  for (u32 i = 0; i < width; ++i) nl_.replace_net(placeholders[i], next[i]);
  return q;
}

std::vector<Bus> LogicBuilder::delay_line(const Bus& in, u32 stages,
                                          const std::string& name) {
  std::vector<Bus> taps;
  taps.reserve(stages);
  Bus current = in;
  for (u32 s = 0; s < stages; ++s) {
    current = register_bus(
        current, name.empty() ? std::string{} : name + "_s" + std::to_string(s));
    taps.push_back(current);
  }
  return taps;
}

Bus LogicBuilder::mux_n(const std::vector<Bus>& inputs, const Bus& select) {
  if (inputs.empty()) throw ContractError{"mux_n: no inputs"};
  const std::size_t width = inputs[0].size();
  for (const Bus& b : inputs) {
    if (b.size() != width) throw ContractError{"mux_n: ragged input widths"};
  }
  std::vector<Bus> level = inputs;
  std::size_t sel_bit = 0;
  while (level.size() > 1) {
    if (sel_bit >= select.size()) {
      throw ContractError{"mux_n: select bus too narrow"};
    }
    std::vector<Bus> next;
    next.reserve((level.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      next.push_back(mux2_bus(select[sel_bit], level[i], level[i + 1]));
    }
    if (level.size() % 2 == 1) next.push_back(level.back());
    level = std::move(next);
    ++sel_bit;
  }
  return level[0];
}

Bus LogicBuilder::decode(const Bus& a) {
  const u64 outputs = 1ull << a.size();
  Bus out;
  out.reserve(outputs);
  for (u64 v = 0; v < outputs; ++v) out.push_back(eq_const(a, v));
  return out;
}

}  // namespace prcost
