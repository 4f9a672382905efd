#include "netlist/serialize.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace prcost {
namespace {

/// The C locale's isspace set.
constexpr bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

/// Whitespace-separated tokens of one line, as views into it.
class Tokens {
 public:
  explicit Tokens(std::string_view line) : rest_(line) {}

  /// The next token; empty at the end of the line.
  std::string_view next() {
    std::size_t begin = 0;
    while (begin < rest_.size() && is_space(rest_[begin])) ++begin;
    std::size_t end = begin;
    while (end < rest_.size() && !is_space(rest_[end])) ++end;
    const std::string_view token = rest_.substr(begin, end - begin);
    rest_.remove_prefix(end);
    return token;
  }

 private:
  std::string_view rest_;
};

/// A whole-token decimal u64: digits only, no sign, no overflow.
bool parse_param(std::string_view token, u64& value) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  return ec == std::errc{} && ptr == end;
}

/// Open-addressing map from net names (views into the netlist text) to
/// nets. A name maps to kNoNet until the reader binds it.
class NetTable {
 public:
  explicit NetTable(std::size_t expected)
      : slots_(std::bit_ceil(std::max<std::size_t>(16, expected * 2))) {}

  /// The net bound to non-empty `name`, inserting it unbound (kNoNet) when
  /// absent. The reference is valid until the next call.
  NetId& operator[](std::string_view name) {
    if ((used_ + 1) * 2 > slots_.size()) grow();
    Slot& slot = probe(name);
    if (slot.name.empty()) {
      slot.name = name;
      ++used_;
    }
    return slot.net;
  }

 private:
  struct Slot {
    std::string_view name;  // empty: free
    NetId net = kNoNet;
  };

  /// The slot holding `name`, or the free slot where it belongs.
  Slot& probe(std::string_view name) {
    u64 hash = 0xCBF29CE484222325ull;  // FNV-1a
    for (const char c : name) {
      hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001B3ull;
    }
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
      if (slots_[i].name.empty() || slots_[i].name == name) return slots_[i];
    }
  }

  void grow() {
    const std::vector<Slot> old =
        std::exchange(slots_, std::vector<Slot>(slots_.size() * 2));
    for (const Slot& slot : old) {
      if (!slot.name.empty()) probe(slot.name) = slot;
    }
  }

  std::vector<Slot> slots_;
  std::size_t used_ = 0;
};

CellKind parse_cell_kind(std::string_view name) {
  for (const CellKind kind :
       {CellKind::kConst0, CellKind::kConst1, CellKind::kInput,
        CellKind::kOutput, CellKind::kLut, CellKind::kFf, CellKind::kCarry,
        CellKind::kMul, CellKind::kMulAcc, CellKind::kRam, CellKind::kDsp48,
        CellKind::kBram36, CellKind::kBram18}) {
    if (cell_kind_name(kind) == name) return kind;
  }
  throw ParseError{"netlist: unknown cell kind '" + std::string{name} + "'"};
}

/// Reject a cell line whose pins or params synthesis cannot take: it
/// reads FF, LUT and port pins by position and sizes MUL and RAM macros
/// from their params, and the mapper keeps a pre-adder mark in a MUL's top
/// width bit. CARRY and the mapped primitives take whatever pins they are
/// given.
void check_cell(CellKind kind, std::string_view name, std::size_t inputs,
                std::size_t outputs, u64 param0, u64 param1) {
  const auto fail = [&](const std::string& what) {
    throw ParseError{"netlist: cell '" + std::string{name} + "' (" +
                     std::string{cell_kind_name(kind)} + ") " + what};
  };
  const auto pins = [&](std::size_t min_inputs, std::size_t max_inputs,
                        std::size_t want_outputs) {
    if (inputs >= min_inputs && inputs <= max_inputs &&
        outputs == want_outputs) {
      return;
    }
    const std::string want_inputs =
        min_inputs == max_inputs ? std::to_string(min_inputs)
                                 : std::to_string(min_inputs) + ".." +
                                       std::to_string(max_inputs);
    fail("takes " + want_inputs + " inputs and " +
         std::to_string(want_outputs) + " outputs, not " +
         std::to_string(inputs) + " and " + std::to_string(outputs));
  };
  constexpr u64 kMaxWidth = (u64{1} << 63) - 1;
  switch (kind) {
    case CellKind::kConst0:
    case CellKind::kConst1:
    case CellKind::kInput: return pins(0, 0, 1);
    case CellKind::kOutput: return pins(1, 1, 0);
    case CellKind::kLut: return pins(1, 6, 1);
    // D, then the CE pin clock-enable absorption attaches.
    case CellKind::kFf: return pins(1, 2, 1);
    case CellKind::kMul:
    case CellKind::kMulAcc:
      if (param0 == 0 || param1 == 0 || param0 > kMaxWidth ||
          param1 > kMaxWidth) {
        fail("needs operand widths in 1..2^63-1");
      }
      return;
    case CellKind::kRam:
      if (param0 == 0 || param1 == 0) fail("needs a nonzero depth and width");
      return;
    default: return;
  }
}

void append_u64(std::string& out, u64 value) {
  char buf[20];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  out.append(buf, end);
}

}  // namespace

std::string netlist_to_text(const Netlist& nl) {
  std::string out;
  // Built-in designs take 55-85 bytes per cell line.
  out.reserve(16 + std::size_t{nl.cell_count()} * 64);
  out += "netlist ";
  out += nl.name();
  out += '\n';
  for (u32 c = 0; c < nl.cell_count(); ++c) {
    const Cell& cell = nl.cell(CellId{c});
    if (cell.dead) continue;
    out += "cell ";
    out += cell_kind_name(cell.kind);
    out += ' ';
    out += cell.name;
    out += ' ';
    append_u64(out, cell.param0);
    out += ' ';
    append_u64(out, cell.param1);
    out += " |";
    for (const NetId in : cell.inputs) {
      out += ' ';
      if (in == kNoNet) {
        out += '-';
      } else {
        out += nl.net(in).name;
      }
    }
    out += " |";
    for (const NetId o : cell.outputs) {
      out += ' ';
      out += nl.net(o).name;
    }
    out += '\n';
  }
  return out;
}

Netlist netlist_from_text(std::string_view text) {
  std::optional<Netlist> nl;
  NetTable nets{text.size() / 32};
  std::vector<NetId> inputs;
  std::vector<std::string_view> output_names;

  const auto net_for = [&](std::string_view name) {
    if (name == "-") return kNoNet;
    NetId& net = nets[name];
    if (net == kNoNet) net = nl->add_net(std::string{name});
    return net;
  };

  while (!text.empty()) {
    const std::size_t eol = text.find('\n');
    const std::string_view line = text.substr(0, eol);
    text.remove_prefix(eol == std::string_view::npos ? text.size() : eol + 1);

    Tokens tokens{line};
    const std::string_view keyword = tokens.next();
    if (keyword.empty() || keyword.front() == '#') continue;
    if (keyword == "netlist") {
      const std::string_view name = tokens.next();
      if (name.empty()) throw ParseError{"netlist: missing design name"};
      if (nl) throw ParseError{"netlist: duplicate header"};
      nl.emplace(std::string{name});
      // Built-in designs take 55-85 bytes per cell line and 45-60 per
      // net; sizing from bytes keeps the estimate proportional to input.
      nl->reserve(text.size() / 48, text.size() / 32);
      continue;
    }
    if (keyword != "cell") {
      throw ParseError{"netlist: unexpected keyword '" + std::string{keyword} +
                       "'"};
    }
    if (!nl) throw ParseError{"netlist: cell before header"};
    const std::string_view kind_name = tokens.next();
    const std::string_view cell_name = tokens.next();
    u64 param0 = 0, param1 = 0;
    if (cell_name.empty() || !parse_param(tokens.next(), param0) ||
        !parse_param(tokens.next(), param1)) {
      throw ParseError{"netlist: malformed cell line"};
    }
    if (tokens.next() != "|") {
      throw ParseError{"netlist: expected '|' before inputs"};
    }
    inputs.clear();
    output_names.clear();
    bool in_outputs = false;
    for (std::string_view token = tokens.next(); !token.empty();
         token = tokens.next()) {
      if (token == "|") {
        in_outputs = true;
      } else if (in_outputs) {
        output_names.push_back(token);
      } else {
        inputs.push_back(net_for(token));
      }
    }
    const CellKind kind = parse_cell_kind(kind_name);
    check_cell(kind, cell_name, inputs.size(), output_names.size(), param0,
               param1);
    const CellId id =
        nl->add_cell(kind, std::string{cell_name}, inputs,
                     narrow<u32>(output_names.size()), param0, param1);
    // Bind the freshly created output nets to the serialized names so
    // later cells can reference them.
    const Cell& cell = nl->cell(id);
    for (std::size_t o = 0; o < output_names.size(); ++o) {
      NetId& net = nets[output_names[o]];
      // The name was referenced (or declared) before its driver: merge
      // the placeholder net into the real output.
      if (net != kNoNet) nl->replace_net(net, cell.outputs[o]);
      net = cell.outputs[o];
    }
  }
  if (!nl) throw ParseError{"netlist: empty input"};
  nl->validate();
  return std::move(*nl);
}

}  // namespace prcost
