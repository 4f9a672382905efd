#include "netlist/generators.hpp"

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "netlist/logic.hpp"

namespace prcost {
namespace {

/// Saturate a bus to `width` bits with an overflow flag: |width| LUTs for
/// the clamp muxes plus an OR-reduce over the truncated high bits.
Bus saturate(LogicBuilder& lb, const Bus& value, u32 width) {
  if (value.size() <= width) return lb.resize(value, width);
  Bus high(value.begin() + width, value.end());
  const NetId overflow = lb.reduce_or(high);
  Bus low(value.begin(), value.begin() + width);
  // All ones at any width: the mask (1 << width) - 1 is undefined from 64.
  const Bus max_value(width, lb.netlist().const_net(true));
  return lb.mux2_bus(overflow, low, max_value);
}

}  // namespace

Netlist make_fir(const FirParams& params) {
  if (params.taps == 0 || params.data_width == 0 || params.coeff_width == 0) {
    throw ContractError{"make_fir: zero-sized parameter"};
  }
  if (params.symmetric_pairs * 2 > params.taps) {
    throw ContractError{"make_fir: more symmetric pairs than tap pairs"};
  }
  Netlist nl{"fir"};
  LogicBuilder lb{nl};

  const Bus x = nl.input_bus("x", params.data_width);
  const NetId valid_in = nl.input("valid_in");

  // Tap delay line: taps * data_width FFs.
  const std::vector<Bus> taps = lb.delay_line(x, params.taps, "dline");

  // Coefficient input buses. Symmetric outer pairs share one bus: tap i and
  // tap (taps-1-i) read the same coefficient nets, which family-aware
  // mapping can fuse into a pre-adder DSP (see src/synth).
  std::vector<Bus> coeffs(params.taps);
  for (u32 i = 0; i < params.taps; ++i) {
    const u32 mirror = params.taps - 1 - i;
    if (i > mirror) {
      if (params.taps - params.symmetric_pairs <= i) {
        coeffs[i] = coeffs[mirror];  // shared coefficient bus
        continue;
      }
    }
    coeffs[i] = nl.input_bus("coeff" + std::to_string(i), params.coeff_width);
  }

  // One generic multiplier per tap (the mapper decides DSP packing).
  std::vector<Bus> products;
  products.reserve(params.taps);
  for (u32 i = 0; i < params.taps; ++i) {
    products.push_back(nl.mul(taps[i], coeffs[i], "tapmul" + std::to_string(i)));
  }

  // LUT/carry adder tree over the products.
  std::vector<Bus> level = products;
  while (level.size() > 1) {
    std::vector<Bus> next;
    next.reserve((level.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      next.push_back(lb.add(level[i], level[i + 1]));
    }
    if (level.size() % 2 == 1) next.push_back(level.back());
    level = std::move(next);
  }
  const Bus acc = level[0];

  // Round/saturate back to the sample width, register, and hand out.
  const Bus y = lb.register_bus(saturate(lb, acc, params.data_width), "y_reg");
  nl.output_bus("y", y);

  // Small control block: sample counter + valid pipeline.
  const Bus sample_count = lb.counter(10, "sample_cnt");
  NetId valid = valid_in;
  for (u32 s = 0; s < 4; ++s) valid = nl.ff(valid, "valid_d" + std::to_string(s));
  nl.output("valid_out", valid);
  nl.output("window_done", lb.eq_const(sample_count, params.taps - 1));

  nl.validate();
  return nl;
}

Netlist make_mips5(const MipsParams& params) {
  if (params.xlen < 8) throw ContractError{"make_mips5: xlen too small"};
  Netlist nl{"mips5"};
  LogicBuilder lb{nl};
  const u32 xlen = params.xlen;

  // ---------------- IF: program counter + instruction memory -------------
  const NetId stall = nl.input("stall");
  const Bus pc = lb.counter_ce_clr(xlen, stall, nl.input("reset"), "pc");
  const Bus imem_addr(
      pc.begin(),
      pc.begin() + static_cast<std::ptrdiff_t>(std::min<std::size_t>(pc.size(), 11)));
  const Bus instr = nl.ram(params.icache_depth, 32, imem_addr,
                           lb.constant(32, 0), nl.const_net(false), "imem");
  // IF/ID pipeline register.
  const Bus ifid_instr = lb.register_bus(instr, "ifid_instr");
  const Bus ifid_pc = lb.register_bus(pc, "ifid_pc");

  // ---------------- ID: decode + FF register file -------------------------
  const Bus rs(ifid_instr.begin() + 21, ifid_instr.begin() + 26);
  const Bus rt(ifid_instr.begin() + 16, ifid_instr.begin() + 21);
  const Bus rd(ifid_instr.begin() + 11, ifid_instr.begin() + 16);
  const Bus imm(ifid_instr.begin(), ifid_instr.begin() + 16);
  const Bus opcode(ifid_instr.begin() + 26, ifid_instr.end());

  // Register file: 32 x xlen FFs with a write decoder and two read-port
  // mux trees. XST maps this exact structure to FFs when no LUT-RAM is
  // inferred, which is what the paper's MIPS FF count (~1.6k) indicates.
  const Bus wb_data_placeholder = [&] {
    Bus b;
    for (u32 i = 0; i < xlen; ++i) b.push_back(nl.add_net());
    return b;
  }();
  const Bus wb_reg_placeholder = [&] {
    Bus b;
    for (u32 i = 0; i < 5; ++i) b.push_back(nl.add_net());
    return b;
  }();
  const Bus write_sel = lb.decode(wb_reg_placeholder);
  std::vector<Bus> regs;
  regs.reserve(32);
  for (u32 r = 0; r < 32; ++r) {
    regs.push_back(lb.register_bus_ce(wb_data_placeholder, write_sel[r],
                                      "rf" + std::to_string(r)));
  }
  const Bus rs_value = lb.mux_n(regs, rs);
  const Bus rt_value = lb.mux_n(regs, rt);

  // ID/EX pipeline registers.
  const Bus idex_rs = lb.register_bus(rs_value, "idex_rs");
  const Bus idex_rt = lb.register_bus(rt_value, "idex_rt");
  const Bus idex_imm = lb.register_bus(lb.resize(imm, xlen), "idex_imm");
  const Bus idex_rd = lb.register_bus(rd, "idex_rd");
  const Bus idex_op = lb.register_bus(opcode, "idex_op");
  const Bus idex_pc = lb.register_bus(ifid_pc, "idex_pc");

  // ---------------- EX: ALU + barrel shifter + branch compare -----------
  const NetId use_imm = lb.reduce_or(idex_op);
  const Bus operand_b = lb.mux2_bus(use_imm, idex_rt, idex_imm);
  const Bus alu_add = lb.add(idex_rs, operand_b);
  const Bus alu_sub = lb.sub(idex_rs, operand_b);
  const Bus alu_and = lb.and_bus(idex_rs, operand_b);
  const Bus alu_or = lb.or_bus(idex_rs, operand_b);
  const Bus alu_xor = lb.xor_bus(idex_rs, operand_b);

  // Barrel shifter: log2(xlen) mux stages.
  Bus shifted = idex_rs;
  const Bus shamt(idex_imm.begin(), idex_imm.begin() + 5);
  for (u32 stage = 0; stage < 5; ++stage) {
    const u32 dist = 1u << stage;
    Bus moved;
    moved.reserve(xlen);
    for (u32 i = 0; i < xlen; ++i) {
      moved.push_back(i + dist < xlen ? shifted[i + dist]
                                      : nl.const_net(false));
    }
    shifted = lb.mux2_bus(shamt[stage], shifted, moved);
  }

  // Multiply unit: one generic xlen x xlen multiplier (tiles to 4 DSP48s
  // at 32 bits on Virtex-5, matching the paper's MIPS DSP count).
  const Bus alu_mul = nl.mul(idex_rs, idex_rt, "alu_mul");

  const Bus func(idex_op.begin(), idex_op.begin() + 3);
  const Bus alu_result = lb.mux_n(
      {lb.resize(alu_add, xlen), lb.resize(alu_sub, xlen), alu_and, alu_or,
       alu_xor, shifted, lb.resize(alu_mul, xlen), idex_pc},
      func);
  const NetId take_branch = lb.land(lb.reduce_or(lb.xor_bus(idex_rs, idex_rt)),
                                    lb.reduce_and(func));

  // EX/MEM pipeline registers.
  const Bus exmem_alu = lb.register_bus(alu_result, "exmem_alu");
  const Bus exmem_store = lb.register_bus(idex_rt, "exmem_store");
  const Bus exmem_rd = lb.register_bus(idex_rd, "exmem_rd");
  const NetId exmem_branch = nl.ff(take_branch, "exmem_branch");

  // ---------------- MEM: data memory -------------------------------------
  const Bus dmem_addr(
      exmem_alu.begin(),
      exmem_alu.begin() + static_cast<std::ptrdiff_t>(std::min<u32>(12, xlen)));
  const Bus load_data = nl.ram(params.dcache_depth, 32, dmem_addr,
                               lb.resize(exmem_store, 32), exmem_branch,
                               "dmem");

  // MEM/WB pipeline registers + write-back mux.
  const Bus memwb_load = lb.register_bus(load_data, "memwb_load");
  const Bus memwb_alu = lb.register_bus(exmem_alu, "memwb_alu");
  const Bus memwb_rd = lb.register_bus(exmem_rd, "memwb_rd");
  const NetId memwb_is_load = nl.ff(exmem_branch, "memwb_is_load");
  const Bus wb_data =
      lb.mux2_bus(memwb_is_load, lb.resize(memwb_alu, xlen),
                  lb.resize(memwb_load, xlen));

  // Close the write-back loop into the register file placeholders.
  for (u32 i = 0; i < xlen; ++i) {
    nl.replace_net(wb_data_placeholder[i], wb_data[i]);
  }
  for (u32 i = 0; i < 5; ++i) {
    nl.replace_net(wb_reg_placeholder[i], memwb_rd[i]);
  }

  nl.output_bus("debug_wb", wb_data);
  nl.output("branch_taken", exmem_branch);
  nl.validate();
  return nl;
}

Netlist make_sdram_ctrl(const SdramParams& params) {
  Netlist nl{"sdram_ctrl"};
  LogicBuilder lb{nl};
  const u32 dw = params.data_width;

  const NetId req = nl.input("req");
  const NetId we = nl.input("we");
  const Bus addr = nl.input_bus("addr",
                                params.row_bits + params.col_bits + 2);
  const Bus wdata = nl.input_bus("wdata", dw);

  // One-hot command FSM over ~20 states (INIT, PRECHARGE, MODE, IDLE,
  // ACTIVATE, READ, WRITE, REFRESH and wait states).
  constexpr u32 kStates = 20;
  std::vector<NetId> state_placeholders;
  Bus state;
  for (u32 s = 0; s < kStates; ++s) {
    const NetId ph = nl.add_net();
    state_placeholders.push_back(ph);
    state.push_back(nl.ff(ph, "state" + std::to_string(s), s == 0));
  }

  // Timing counters.
  const NetId tick = lb.reduce_or(Bus(state.begin(), state.begin() + 4));
  const Bus init_cnt = lb.counter_ce_clr(16, tick, state[0], "init_cnt");
  const Bus refresh_cnt = lb.counter(12, "refresh_cnt");
  const NetId refresh_due = lb.eq_const(refresh_cnt, 0x700);
  const Bus trc_cnt = lb.counter_ce_clr(6, state[4], state[5], "trc_cnt");
  const Bus trp_cnt = lb.counter_ce_clr(6, state[6], state[7], "trp_cnt");
  const Bus trcd_cnt = lb.counter_ce_clr(6, state[8], state[9], "trcd_cnt");
  const Bus burst_cnt = lb.counter_ce_clr(4, state[10], state[11], "burst");

  // Next-state logic: each state's successor depends on its timer/flags.
  const NetId init_done = lb.eq_const(init_cnt, 0xC350 & 0xFFFF);
  const NetId trc_done = lb.eq_const(trc_cnt, 7);
  const NetId trp_done = lb.eq_const(trp_cnt, 3);
  const NetId trcd_done = lb.eq_const(trcd_cnt, 3);
  const NetId burst_done = lb.eq_const(burst_cnt, 7);
  const NetId go = lb.land(req, state[3]);
  for (u32 s = 0; s < kStates; ++s) {
    const NetId hold = lb.land(state[s], lb.lnot(s == 0 ? init_done
                                                 : s == 4 ? trc_done
                                                 : s == 6 ? trp_done
                                                 : s == 8 ? trcd_done
                                                 : s == 10 ? burst_done
                                                           : go));
    const NetId enter = s == 0
                            ? nl.const_net(false)
                            : lb.land(state[s - 1],
                                      s == 1   ? init_done
                                      : s == 5 ? trc_done
                                      : s == 7 ? trp_done
                                      : s == 9 ? trcd_done
                                      : s == 11 ? burst_done
                                      : s == 12 ? refresh_due
                                                : go);
    nl.replace_net(state_placeholders[s], lb.lor(hold, enter));
  }

  // Address path: registered row/col/bank with output mux.
  const Bus row(addr.begin() + params.col_bits,
                addr.begin() + params.col_bits + params.row_bits);
  const Bus col(addr.begin(), addr.begin() + params.col_bits);
  const Bus bank(addr.end() - 2, addr.end());
  const Bus row_reg = lb.register_bus_ce(row, go, "row_reg");
  const Bus col_reg = lb.register_bus_ce(col, go, "col_reg");
  const Bus bank_reg = lb.register_bus_ce(bank, go, "bank_reg");
  const Bus sdram_addr =
      lb.mux2_bus(state[8], lb.resize(col_reg, params.row_bits), row_reg);
  nl.output_bus("sdram_a", sdram_addr);
  nl.output_bus("sdram_ba", bank_reg);

  // Data path: registered in/out with write-enable gating.
  const Bus wdata_reg = lb.register_bus_ce(wdata, lb.land(go, we), "wdata_reg");
  const Bus dq_in = nl.input_bus("dq_in", dw);
  const Bus rdata_reg = lb.register_bus_ce(dq_in, state[11], "rdata_reg");
  nl.output_bus("dq_out", wdata_reg);
  nl.output_bus("rdata", rdata_reg);

  // Command pins decoded from state.
  nl.output("cs_n", lb.lnot(lb.reduce_or(state)));
  nl.output("ras_n", lb.lnot(lb.lor3(state[4], state[6], state[12])));
  nl.output("cas_n", lb.lnot(lb.lor(state[10], state[12])));
  nl.output("we_n", lb.lnot(lb.lor(state[6], lb.land(state[10], we))));
  nl.output("ready", state[3]);

  nl.validate();
  return nl;
}

Netlist make_aes_round() {
  Netlist nl{"aes_round"};
  LogicBuilder lb{nl};

  const Bus state_in = nl.input_bus("state", 128);
  const Bus round_key = nl.input_bus("round_key", 128);

  // SubBytes: 16 S-boxes as 256x8 RAM macros (the mapper packs pairs of
  // them into BRAM primitives).
  std::vector<Bus> sboxed;
  sboxed.reserve(16);
  for (u32 b = 0; b < 16; ++b) {
    const Bus byte_in(state_in.begin() + b * 8, state_in.begin() + b * 8 + 8);
    sboxed.push_back(nl.ram(256, 8, byte_in, lb.constant(8, 0),
                            nl.const_net(false), "sbox" + std::to_string(b)));
  }

  // ShiftRows is free (wiring); MixColumns: GF(2^8) xtime + XOR network.
  Bus mixed;
  mixed.reserve(128);
  for (u32 col = 0; col < 4; ++col) {
    for (u32 row = 0; row < 4; ++row) {
      const Bus& a = sboxed[(col * 4 + row) % 16];
      const Bus& b = sboxed[(col * 4 + (row + 1) % 4) % 16];
      const Bus& c = sboxed[(col * 4 + (row + 2) % 4) % 16];
      const Bus& d = sboxed[(col * 4 + (row + 3) % 4) % 16];
      const Bus ab = lb.xor_bus(a, b);
      const Bus cd = lb.xor_bus(c, d);
      const Bus mixed_byte = lb.xor_bus(ab, cd);
      mixed.insert(mixed.end(), mixed_byte.begin(), mixed_byte.end());
    }
  }

  // AddRoundKey + output register.
  const Bus out = lb.register_bus(lb.xor_bus(mixed, round_key), "state_out");
  nl.output_bus("state_out", out);
  nl.validate();
  return nl;
}

Netlist make_crc32(u32 data_width) {
  if (data_width == 0) throw ContractError{"make_crc32: zero data width"};
  Netlist nl{"crc32"};
  LogicBuilder lb{nl};

  const Bus data = nl.input_bus("data", data_width);
  std::vector<NetId> crc_placeholders;
  Bus crc;
  for (u32 i = 0; i < 32; ++i) {
    const NetId ph = nl.add_net();
    crc_placeholders.push_back(ph);
    crc.push_back(nl.ff(ph, "crc" + std::to_string(i), true));
  }

  // Unrolled LFSR: next state is an XOR combination of state and data bits
  // given by the CRC-32 (0x04C11DB7) polynomial, computed symbolically.
  std::array<std::vector<u32>, 32> state_terms;  // indices into crc
  std::array<std::vector<u32>, 32> data_terms;   // indices into data
  std::array<std::vector<u32>, 32> cur_state;
  for (u32 i = 0; i < 32; ++i) cur_state[i] = {i};
  std::array<std::vector<u32>, 32> cur = cur_state;
  std::array<std::vector<u32>, 32> cur_data{};
  const auto toggle = [](std::vector<u32>& v, u32 x) {
    const auto it = std::find(v.begin(), v.end(), x);
    if (it == v.end()) v.push_back(x); else v.erase(it);
  };
  for (u32 step = 0; step < data_width; ++step) {
    // feedback = crc[31] ^ data[step]
    std::vector<u32> fb_state = cur[31];
    std::vector<u32> fb_data = cur_data[31];
    toggle(fb_data, step);
    std::array<std::vector<u32>, 32> next{};
    std::array<std::vector<u32>, 32> next_data{};
    for (u32 i = 31; i >= 1; --i) {
      next[i] = cur[i - 1];
      next_data[i] = cur_data[i - 1];
      constexpr u64 kPoly = 0x04C11DB7ull;
      if ((kPoly >> i) & 1) {
        for (const u32 t : fb_state) toggle(next[i], t);
        for (const u32 t : fb_data) toggle(next_data[i], t);
      }
    }
    next[0] = fb_state;
    next_data[0] = fb_data;
    cur = std::move(next);
    cur_data = std::move(next_data);
  }
  state_terms = cur;
  data_terms = cur_data;

  for (u32 i = 0; i < 32; ++i) {
    Bus terms;
    for (const u32 s : state_terms[i]) terms.push_back(crc[s]);
    for (const u32 d : data_terms[i]) terms.push_back(data[d]);
    nl.replace_net(crc_placeholders[i],
                   terms.empty() ? nl.const_net(false) : lb.reduce_xor(terms));
  }

  nl.output_bus("crc", crc);
  nl.validate();
  return nl;
}

Netlist make_uart(u32 divisor_bits) {
  Netlist nl{"uart"};
  LogicBuilder lb{nl};

  const NetId rx = nl.input("rx");
  const Bus tx_data = nl.input_bus("tx_data", 8);
  const NetId tx_start = nl.input("tx_start");

  const Bus baud_cnt = lb.counter(divisor_bits, "baud_cnt");
  const NetId baud_tick = lb.eq_const(baud_cnt, (1ull << divisor_bits) - 1);

  // TX: 10-bit shift register (start + 8 data + stop) + bit counter.
  const Bus tx_shift = lb.register_bus_ce(
      lb.mux2_bus(tx_start, lb.resize(tx_data, 10), lb.resize(tx_data, 10)),
      baud_tick, "tx_shift");
  const Bus tx_bit_cnt = lb.counter_ce_clr(4, baud_tick, tx_start, "tx_bits");
  nl.output("tx", tx_shift[0]);
  nl.output("tx_busy", lb.lnot(lb.eq_const(tx_bit_cnt, 10)));

  // RX: 2-FF synchronizer, sample counter, 8-bit shift register.
  const NetId rx_sync = nl.ff(nl.ff(rx, "rx_meta"), "rx_sync");
  const Bus rx_shift = lb.register_bus_ce(
      [&] {
        Bus shifted{rx_sync};
        return lb.resize(shifted, 8);
      }(),
      baud_tick, "rx_shift");
  const Bus rx_bit_cnt = lb.counter_ce_clr(4, baud_tick, rx_sync, "rx_bits");
  nl.output_bus("rx_data", rx_shift);
  nl.output("rx_done", lb.eq_const(rx_bit_cnt, 9));

  nl.validate();
  return nl;
}

Netlist make_sobel(u32 line_width, u32 pixel_bits) {
  if (line_width < 3 || pixel_bits == 0) {
    throw ContractError{"make_sobel: degenerate parameters"};
  }
  Netlist nl{"sobel"};
  LogicBuilder lb{nl};

  const Bus pixel_in = nl.input_bus("pixel", pixel_bits);
  const NetId pixel_valid = nl.input("pixel_valid");

  // Column counter addresses the two line buffers (previous two rows).
  const u32 addr_bits = [&] {
    u32 bits = 1;
    while ((1u << bits) < line_width) ++bits;
    return bits;
  }();
  const Bus col = lb.counter_ce_clr(addr_bits, pixel_valid,
                                    nl.input("line_start"), "col");
  const Bus line1 = nl.ram(1u << addr_bits, pixel_bits, col, pixel_in,
                           pixel_valid, "linebuf1");
  const Bus line2 = nl.ram(1u << addr_bits, pixel_bits, col, line1,
                           pixel_valid, "linebuf2");

  // 3x3 window: three shift chains of 3 pixels each.
  const auto window_row = [&](const Bus& source, const char* name) {
    std::vector<Bus> taps = lb.delay_line(source, 3, name);
    return taps;
  };
  const auto r0 = window_row(line2, "w0");
  const auto r1 = window_row(line1, "w1");
  const auto r2 = window_row(pixel_in, "w2");

  // Gx = (r0[0]+2*r1[0]+r2[0]) - (r0[2]+2*r1[2]+r2[2]);
  // Gy analogous across rows. Shifts are free; adds are LUT/carry.
  const auto weighted = [&](const Bus& a, const Bus& b2, const Bus& c) {
    Bus doubled = b2;
    doubled.insert(doubled.begin(), nl.const_net(false));  // b*2
    return lb.add(lb.add(a, doubled), c);
  };
  const Bus gx_pos = weighted(r0[0], r1[0], r2[0]);
  const Bus gx_neg = weighted(r0[2], r1[2], r2[2]);
  const Bus gy_pos = weighted(r0[0], r0[1], r0[2]);
  const Bus gy_neg = weighted(r2[0], r2[1], r2[2]);
  const Bus gx = lb.sub(gx_pos, gx_neg);
  const Bus gy = lb.sub(gy_pos, gy_neg);

  // |Gx| + |Gy| approximated by conditional negate + add.
  const auto magnitude = [&](const Bus& g) {
    const NetId sign = g.back();
    const Bus negated = lb.increment(lb.not_bus(g));
    return lb.mux2_bus(sign, g, negated);
  };
  const Bus mag = lb.add(magnitude(gx), magnitude(gy));

  // Threshold compare + registered outputs.
  const Bus threshold = nl.input_bus("threshold", pixel_bits);
  const Bus diff = lb.sub(mag, lb.resize(threshold, narrow<u32>(mag.size())));
  const NetId edge = lb.lnot(diff.back());
  nl.output("edge", nl.ff(edge, "edge_reg"));
  nl.output_bus("magnitude",
                lb.register_bus(lb.resize(mag, pixel_bits), "mag_reg"));

  nl.validate();
  return nl;
}

Netlist make_fft_stage(u32 points, u32 sample_bits) {
  if (points < 4 || sample_bits == 0) {
    throw ContractError{"make_fft_stage: degenerate parameters"};
  }
  Netlist nl{"fft_stage"};
  LogicBuilder lb{nl};

  const Bus a_re = nl.input_bus("a_re", sample_bits);
  const Bus a_im = nl.input_bus("a_im", sample_bits);
  const Bus b_re = nl.input_bus("b_re", sample_bits);
  const Bus b_im = nl.input_bus("b_im", sample_bits);

  // Twiddle factor ROM: points/2 complex coefficients from a BRAM macro.
  u32 index_bits = 1;
  while ((1u << index_bits) < points / 2) ++index_bits;
  const Bus k = lb.counter(index_bits, "k");
  const Bus twiddle = nl.ram(points / 2, 2 * sample_bits, k,
                             lb.constant(2 * sample_bits, 0),
                             nl.const_net(false), "twiddle_rom");
  const Bus w_re(twiddle.begin(),
                 twiddle.begin() + static_cast<std::ptrdiff_t>(sample_bits));
  const Bus w_im(twiddle.begin() + static_cast<std::ptrdiff_t>(sample_bits),
                 twiddle.end());

  // Complex multiply b * w: four real multipliers (DSP48s after mapping).
  const Bus re_re = nl.mul(b_re, w_re, "m_rr");
  const Bus im_im = nl.mul(b_im, w_im, "m_ii");
  const Bus re_im = nl.mul(b_re, w_im, "m_ri");
  const Bus im_re = nl.mul(b_im, w_re, "m_ir");
  const Bus prod_re = lb.sub(re_re, im_im);
  const Bus prod_im = lb.add(re_im, im_re);

  // Butterfly outputs: a +/- b*w, truncated and registered.
  const auto out_pair = [&](const Bus& a, const Bus& p, const char* name) {
    const Bus wide_a = lb.resize(a, narrow<u32>(p.size()));
    nl.output_bus(std::string{name} + "_sum",
                  lb.register_bus(lb.resize(lb.add(wide_a, p), sample_bits)));
    nl.output_bus(std::string{name} + "_diff",
                  lb.register_bus(lb.resize(lb.sub(wide_a, p), sample_bits)));
  };
  out_pair(a_re, prod_re, "re");
  out_pair(a_im, prod_im, "im");

  nl.validate();
  return nl;
}

Netlist make_matmul(u32 mac_units, u32 data_width) {
  if (mac_units == 0) throw ContractError{"make_matmul: zero MAC units"};
  Netlist nl{"matmul"};
  LogicBuilder lb{nl};

  const Bus k_index = lb.counter(10, "k_index");
  const NetId accumulate = nl.input("accumulate");

  // Operand memories: A is mac_units-wide rows, B is a column vector.
  const Bus a_row = nl.ram(1024, mac_units * data_width, k_index,
                           lb.constant(mac_units * data_width, 0),
                           nl.const_net(false), "a_mem");
  const Bus b_col = nl.ram(1024, data_width, k_index,
                           lb.constant(data_width, 0), nl.const_net(false),
                           "b_mem");

  // MAC units: generic multiply-accumulate cells -> one DSP each.
  for (u32 m = 0; m < mac_units; ++m) {
    const Bus a_slice(a_row.begin() + m * data_width,
                      a_row.begin() + (m + 1) * data_width);
    const Bus acc = nl.mul_acc(a_slice, b_col, 2 * data_width + 8,
                               "mac" + std::to_string(m));
    const Bus out = lb.register_bus_ce(acc, accumulate,
                                       "c_reg" + std::to_string(m));
    nl.output_bus("c" + std::to_string(m), out);
  }

  nl.validate();
  return nl;
}

}  // namespace prcost
