// Fabric column types and per-type accessors into FamilyTraits.
#pragma once

#include <string_view>

#include "device/family_traits.hpp"
#include "util/error.hpp"

namespace prcost {

/// Resource type of one fabric column. The paper's PRR model only allows
/// CLB/DSP/BRAM columns inside a PRR; IOB and CLK columns terminate any
/// candidate column window (Section III.A).
enum class ColumnType { kClb, kDsp, kBram, kIob, kClk };

/// True for column types permitted inside a PRR.
constexpr bool prr_capable(ColumnType type) {
  return type == ColumnType::kClb || type == ColumnType::kDsp ||
         type == ColumnType::kBram;
}

/// Column type of a one-letter fabric pattern code ('C','D','B','I','K');
/// throws ContractError on an unknown code.
constexpr ColumnType parse_column_code(char code) {
  switch (code) {
    case 'C': return ColumnType::kClb;
    case 'D': return ColumnType::kDsp;
    case 'B': return ColumnType::kBram;
    case 'I': return ColumnType::kIob;
    case 'K': return ColumnType::kClk;
    default: throw ContractError{"parse_column_code: unknown code"};
  }
}

/// Long name ("CLB", "DSP", ...).
constexpr std::string_view column_name(ColumnType type) {
  switch (type) {
    case ColumnType::kClb: return "CLB";
    case ColumnType::kDsp: return "DSP";
    case ColumnType::kBram: return "BRAM";
    case ColumnType::kIob: return "IOB";
    case ColumnType::kClk: return "CLK";
  }
  return "?";
}

/// Primitive resources one column contributes per fabric row
/// (CLBs/DSPs/BRAMs; IOB and CLK columns report 0).
constexpr u32 resources_per_row(ColumnType type, const FamilyTraits& t) {
  switch (type) {
    case ColumnType::kClb: return t.clb_col;
    case ColumnType::kDsp: return t.dsp_col;
    case ColumnType::kBram: return t.bram_col;
    case ColumnType::kIob:
    case ColumnType::kClk: return 0;
  }
  return 0;
}

/// Configuration frames for one column (per fabric row), Table IV.
constexpr u32 config_frames(ColumnType type, const FamilyTraits& t) {
  switch (type) {
    case ColumnType::kClb: return t.cf_clb;
    case ColumnType::kDsp: return t.cf_dsp;
    case ColumnType::kBram: return t.cf_bram;
    case ColumnType::kIob: return t.cf_iob;
    case ColumnType::kClk: return t.cf_clk;
  }
  return 0;
}

}  // namespace prcost
