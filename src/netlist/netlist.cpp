#include "netlist/netlist.hpp"

#include <algorithm>

namespace prcost {

std::string_view cell_kind_name(CellKind kind) {
  switch (kind) {
    case CellKind::kConst0: return "CONST0";
    case CellKind::kConst1: return "CONST1";
    case CellKind::kInput: return "INPUT";
    case CellKind::kOutput: return "OUTPUT";
    case CellKind::kLut: return "LUT";
    case CellKind::kFf: return "FF";
    case CellKind::kCarry: return "CARRY";
    case CellKind::kMul: return "MUL";
    case CellKind::kMulAcc: return "MULACC";
    case CellKind::kRam: return "RAM";
    case CellKind::kDsp48: return "DSP48";
    case CellKind::kBram36: return "BRAM36";
    case CellKind::kBram18: return "BRAM18";
  }
  return "?";
}

std::string Netlist::next_auto_name(std::string_view prefix) {
  return std::string{prefix} + "_" + std::to_string(auto_name_counter_++);
}

NetId Netlist::add_net(std::string name) {
  if (name.empty()) name = next_auto_name("net");
  nets_.push_back(Net{std::move(name), kNoCell, {}});
  return NetId{narrow<u32>(nets_.size() - 1)};
}

void Netlist::reserve(std::size_t cells, std::size_t nets) {
  cells_.reserve(cells);
  nets_.reserve(nets);
}

CellId Netlist::add_cell(CellKind kind, std::string name,
                         std::span<const NetId> ins, u32 output_count,
                         u64 param0, u64 param1) {
  if (name.empty()) name = next_auto_name(std::string{cell_kind_name(kind)});
  const CellId id{narrow<u32>(cells_.size())};
  Cell cell;
  cell.kind = kind;
  cell.name = std::move(name);
  cell.param0 = param0;
  cell.param1 = param1;
  cell.inputs.assign(ins.begin(), ins.end());
  for (const NetId in : cell.inputs) {
    if (in != kNoNet) nets_.at(index(in)).sinks.push_back(id);
  }
  cell.outputs.reserve(output_count);
  for (u32 i = 0; i < output_count; ++i) {
    const NetId out = add_net(cell.name + "_o" + std::to_string(i));
    nets_.at(index(out)).driver = id;
    cell.outputs.push_back(out);
  }
  cells_.push_back(std::move(cell));
  return id;
}

NetId Netlist::input(std::string name) {
  const CellId id = add_cell(CellKind::kInput, std::move(name), {}, 1);
  return cells_[index(id)].outputs[0];
}

Bus Netlist::input_bus(const std::string& name, u32 width) {
  Bus bus;
  bus.reserve(width);
  for (u32 i = 0; i < width; ++i) {
    bus.push_back(input(name + "[" + std::to_string(i) + "]"));
  }
  return bus;
}

CellId Netlist::output(std::string name, NetId net) {
  const NetId ins[] = {net};
  return add_cell(CellKind::kOutput, std::move(name), ins, 0);
}

void Netlist::output_bus(const std::string& name, const Bus& bus) {
  for (std::size_t i = 0; i < bus.size(); ++i) {
    output(name + "[" + std::to_string(i) + "]", bus[i]);
  }
}

NetId Netlist::const_net(bool value) {
  NetId& cached = value ? const1_ : const0_;
  if (cached == kNoNet) {
    const CellId id = add_cell(value ? CellKind::kConst1 : CellKind::kConst0,
                               value ? "const1" : "const0", {}, 1);
    cached = cells_[index(id)].outputs[0];
  }
  return cached;
}

NetId Netlist::lut(u64 truth_table, std::span<const NetId> ins,
                   std::string name) {
  if (ins.empty() || ins.size() > 6) {
    throw ContractError{"Netlist::lut: LUT must have 1..6 inputs"};
  }
  const CellId id =
      add_cell(CellKind::kLut, std::move(name), ins, 1, truth_table);
  return cells_[index(id)].outputs[0];
}

NetId Netlist::ff(NetId d, std::string name, bool init) {
  const NetId ins[] = {d};
  const CellId id =
      add_cell(CellKind::kFf, std::move(name), ins, 1, init ? 1 : 0);
  return cells_[index(id)].outputs[0];
}

Bus Netlist::mul(const Bus& a, const Bus& b, std::string name) {
  std::vector<NetId> ins;
  ins.reserve(a.size() + b.size());
  ins.insert(ins.end(), a.begin(), a.end());
  ins.insert(ins.end(), b.begin(), b.end());
  const u32 out_width = narrow<u32>(a.size() + b.size());
  const CellId id = add_cell(CellKind::kMul, std::move(name), ins, out_width,
                             a.size(), b.size());
  return cells_[index(id)].outputs;
}

Bus Netlist::mul_acc(const Bus& a, const Bus& b, u32 acc_width,
                     std::string name) {
  std::vector<NetId> ins;
  ins.reserve(a.size() + b.size());
  ins.insert(ins.end(), a.begin(), a.end());
  ins.insert(ins.end(), b.begin(), b.end());
  const CellId id = add_cell(CellKind::kMulAcc, std::move(name), ins,
                             acc_width, a.size(), b.size());
  return cells_[index(id)].outputs;
}

Bus Netlist::ram(u32 depth, u32 width, const Bus& addr, const Bus& write_data,
                 NetId write_enable, std::string name) {
  if (write_data.size() != width) {
    throw ContractError{"Netlist::ram: write_data width mismatch"};
  }
  std::vector<NetId> ins;
  ins.reserve(addr.size() + write_data.size() + 1);
  ins.insert(ins.end(), addr.begin(), addr.end());
  ins.insert(ins.end(), write_data.begin(), write_data.end());
  ins.push_back(write_enable);
  const CellId id =
      add_cell(CellKind::kRam, std::move(name), ins, width, depth, width);
  return cells_[index(id)].outputs;
}

std::vector<CellId> Netlist::live_cells() const {
  std::vector<CellId> out;
  out.reserve(cells_.size());
  for (u32 i = 0; i < cells_.size(); ++i) {
    if (!cells_[i].dead) out.push_back(CellId{i});
  }
  return out;
}

NetlistStats Netlist::stats() const {
  NetlistStats s;
  for (const auto& cell : cells_) {
    if (cell.dead) continue;
    switch (cell.kind) {
      case CellKind::kLut: ++s.luts; break;
      case CellKind::kFf: ++s.ffs; break;
      case CellKind::kCarry: ++s.carries; break;
      case CellKind::kMul:
      case CellKind::kMulAcc: ++s.muls; break;
      case CellKind::kRam: ++s.rams; break;
      case CellKind::kDsp48: ++s.dsp48s; break;
      case CellKind::kBram36: ++s.bram36s; break;
      case CellKind::kBram18: ++s.bram18s; break;
      case CellKind::kInput: ++s.inputs; break;
      case CellKind::kOutput: ++s.outputs; break;
      case CellKind::kConst0:
      case CellKind::kConst1: ++s.constants; break;
    }
  }
  return s;
}

void Netlist::kill_cell(CellId id) {
  Cell& cell = cells_.at(index(id));
  if (cell.dead) return;
  for (const NetId in : cell.inputs) {
    if (in == kNoNet) continue;
    auto& sinks = nets_.at(index(in)).sinks;
    const auto it = std::find(sinks.begin(), sinks.end(), id);
    if (it != sinks.end()) sinks.erase(it);
  }
  for (const NetId out : cell.outputs) {
    nets_.at(index(out)).driver = kNoCell;
  }
  cell.dead = true;
}

void Netlist::replace_net(NetId from, NetId to) {
  if (from == to) return;
  Net& src = nets_.at(index(from));
  Net& dst = nets_.at(index(to));
  for (const CellId sink_id : src.sinks) {
    Cell& sink = cells_.at(index(sink_id));
    for (NetId& in : sink.inputs) {
      if (in == from) in = to;
    }
    dst.sinks.push_back(sink_id);
  }
  src.sinks.clear();
}

void Netlist::rewire_input(CellId cell_id, u32 pin, NetId to) {
  Cell& cell = cells_.at(index(cell_id));
  if (pin >= cell.inputs.size()) {
    throw ContractError{"rewire_input: pin out of range"};
  }
  const NetId from = cell.inputs[pin];
  if (from == to) return;
  if (from != kNoNet) {
    auto& sinks = nets_.at(index(from)).sinks;
    const auto it = std::find(sinks.begin(), sinks.end(), cell_id);
    if (it != sinks.end()) sinks.erase(it);
  }
  cell.inputs[pin] = to;
  if (to != kNoNet) nets_.at(index(to)).sinks.push_back(cell_id);
}

void Netlist::add_input_pin(CellId cell_id, NetId net) {
  Cell& cell = cells_.at(index(cell_id));
  cell.inputs.push_back(net);
  if (net != kNoNet) nets_.at(index(net)).sinks.push_back(cell_id);
}

void Netlist::validate() const {
  for (u32 n = 0; n < nets_.size(); ++n) {
    const Net& net = nets_[n];
    if (net.driver != kNoCell) {
      const Cell& driver = cells_.at(index(net.driver));
      if (driver.dead) {
        throw ContractError{"validate: net '" + net.name +
                            "' driven by dead cell"};
      }
      const bool listed = std::any_of(
          driver.outputs.begin(), driver.outputs.end(),
          [&](NetId out) { return index(out) == n; });
      if (!listed) {
        throw ContractError{"validate: net '" + net.name +
                            "' driver does not list it as output"};
      }
    }
    for (const CellId sink_id : net.sinks) {
      const Cell& sink = cells_.at(index(sink_id));
      if (sink.dead) {
        throw ContractError{"validate: net '" + net.name +
                            "' has dead sink"};
      }
      const bool listed =
          std::any_of(sink.inputs.begin(), sink.inputs.end(),
                      [&](NetId in) { return index(in) == n; });
      if (!listed) {
        throw ContractError{"validate: net '" + net.name +
                            "' sink does not list it as input"};
      }
    }
  }
  for (u32 c = 0; c < cells_.size(); ++c) {
    const Cell& cell = cells_[c];
    if (cell.dead) continue;
    for (const NetId in : cell.inputs) {
      if (in == kNoNet) continue;
      const auto& sinks = nets_.at(index(in)).sinks;
      if (std::find(sinks.begin(), sinks.end(), CellId{c}) == sinks.end()) {
        throw ContractError{"validate: cell '" + cell.name +
                            "' input net does not list it as sink"};
      }
    }
    for (const NetId out : cell.outputs) {
      if (nets_.at(index(out)).driver != CellId{c}) {
        throw ContractError{"validate: cell '" + cell.name +
                            "' output net has wrong driver"};
      }
    }
  }
}

}  // namespace prcost
