// Plain-text netlist serialization (a minimal EDIF-like interchange
// format) so designs can be saved, diffed and reloaded - e.g. by the CLI
// or by users bringing their own PRMs instead of the built-in generators.
//
// Format (line oriented, '#' comments):
//   netlist <name>
//   cell <kind> <name> <param0> <param1> | <in-net>... | <out-net>...
//
// Token grammar, as the reader applies it:
//  - Lines end at '\n'. A token is a maximal run of bytes outside the C
//    locale's whitespace set (' ', '\t', '\n', '\v', '\f', '\r'), so a
//    trailing '\r' (CRLF files) and tabs separate tokens like spaces.
//  - A line with no tokens, or whose first token starts with '#', is
//    skipped. '#' elsewhere is an ordinary name character.
//  - `netlist <name>` must come before any cell and appear once; tokens
//    after <name> are ignored.
//  - <kind> is a cell_kind_name() ("LUT", "FF", "MUL", ...). <param0> and
//    <param1> are whole-token decimal u64s: digits only, no sign, at most
//    2^64-1 ("+5", "-1", "12abc", "5|" and "0x10" are malformed).
//  - The first '|' must be the token after <param1>; later '|' tokens
//    switch to outputs. '-' as an input is an unconnected pin.
//  - An input may name a net whose driver appears later (a forward
//    reference). A name bound to a second output moves the first net's
//    sinks onto the second.
//
// A netlist can describe generic MUL/MULACC/RAM macros of any size; the
// mapper (synth/mapper.hpp) refuses a design whose macros expand to more
// than kMaxMacroPrimitives DSP48/BRAM primitives, with a ParseError naming
// the cell.
//
// Nets are referenced by stable string names; pin order is positional.
// Dead cells are dropped on save; net identities are regenerated on load,
// so the round trip is an isomorphism, not an identity (tested as such).
#pragma once

#include <string>
#include <string_view>

#include "netlist/netlist.hpp"

namespace prcost {

/// Render the live cells of `nl`.
std::string netlist_to_text(const Netlist& nl);

/// Parse a netlist back; throws ParseError on malformed input. The result
/// has passed Netlist::validate().
Netlist netlist_from_text(std::string_view text);

}  // namespace prcost
