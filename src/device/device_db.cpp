#include "device/device_db.hpp"

#include <algorithm>
#include <cctype>
#include <numeric>
#include <utility>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace prcost {
namespace {

std::string repeat(char code, u32 count) { return std::string(count, code); }

// Hand-crafted XC5VLX110T-like layout (Virtex-5, 8 rows).
//
// Published part: 8 clock-region rows, 69,120 LUTs (= 8,640 CLBs = 54 CLB
// columns x 8 rows x 20), 64 DSP48Es (exactly one DSP column: 1 x 8 x 8,
// which is why the paper applies Eq. (4) instead of Eq. (3) on this part),
// and ~148 BRAM36 (we use 5 BRAM columns = 160, the nearest regular
// layout). Three IOB columns and the center clock column break the fabric
// into contiguous PR-capable stretches; the stretch around the DSP column
// is >= 20 columns wide with two BRAM columns, matching the windows the
// paper's PRMs occupy (Table V).
std::string lx110t_pattern() {
  std::string p;
  p += repeat('C', 6) + "B" + repeat('C', 6) + "I";               // left bank
  p += repeat('C', 3) + "B" + repeat('C', 9) + "D" +              // center:
       repeat('C', 8) + "B" + repeat('C', 3);                     //  DSP bank
  p += "K";                                                       // clock col
  p += repeat('C', 5) + "B" + repeat('C', 4) + "B" +              // right bank
       repeat('C', 3) + "I" + repeat('C', 7) + "I";
  return p;
}

// Hand-crafted XC6VLX75T-like layout (Virtex-6, 3 rows).
//
// Published part: 3 clock-region rows, 46,560 LUTs (~48 CLB columns x 3
// rows x 40 CLBs), 288 DSP48E1s (6 DSP columns x 3 x 16) and ~156 BRAM36
// (6 BRAM columns = 144, nearest regular layout). Virtex-6 devices pair
// DSP columns, so the layout includes an adjacent "DD" pair - the 7-column
// window (5 CLB + 2 DSP) the paper's FIR PRM occupies on this part.
std::string lx75t_pattern() {
  std::string p;
  p += repeat('C', 5) + "B" + repeat('C', 5) + "D" + repeat('C', 6) + "B";
  p += "I";
  p += repeat('C', 4) + "DD" + repeat('C', 5) + "B" + repeat('C', 3);
  p += "K";
  p += repeat('C', 5) + "B" + repeat('C', 4) + "D" + repeat('C', 5);
  p += "I";
  p += repeat('C', 3) + "B" + "D" + "C" + "D" + "B" + repeat('C', 2);
  return p;
}

void check_counts(const Fabric& fabric, u32 clb, u32 dsp, u32 bram, u32 iob,
                  u32 clk, std::string_view name) {
  const bool ok = fabric.column_count(ColumnType::kClb) == clb &&
                  fabric.column_count(ColumnType::kDsp) == dsp &&
                  fabric.column_count(ColumnType::kBram) == bram &&
                  fabric.column_count(ColumnType::kIob) == iob &&
                  fabric.column_count(ColumnType::kClk) == clk;
  if (!ok) {
    throw ContractError{"DeviceDb: column counts for " + std::string{name} +
                        " do not match the catalog specification"};
  }
}

}  // namespace

std::string make_regular_pattern(u32 clb_cols, u32 dsp_cols, u32 bram_cols,
                                 u32 iob_cols, u32 clk_cols) {
  if (clb_cols == 0) {
    throw ContractError{"make_regular_pattern: need at least one CLB column"};
  }
  // Distribute DSP and BRAM columns over `slots` gaps between CLB runs.
  const u32 special = dsp_cols + bram_cols;
  std::vector<char> body;
  body.reserve(clb_cols + special);
  u32 placed_special = 0;
  u32 placed_clb = 0;
  // Walk CLB columns; after every chunk of CLBs insert the next special
  // column (alternating BRAM/DSP to spread both kinds).
  u32 next_bram = bram_cols;
  u32 next_dsp = dsp_cols;
  const u32 chunk = special == 0 ? clb_cols : std::max<u32>(1, clb_cols / (special + 1));
  while (placed_clb < clb_cols || placed_special < special) {
    for (u32 i = 0; i < chunk && placed_clb < clb_cols; ++i) {
      body.push_back('C');
      ++placed_clb;
    }
    if (placed_special < special) {
      // Alternate, preferring whichever kind has more remaining.
      if (next_bram >= next_dsp && next_bram > 0) {
        body.push_back('B');
        --next_bram;
      } else if (next_dsp > 0) {
        body.push_back('D');
        --next_dsp;
      }
      ++placed_special;
    }
  }
  // Insert IOB columns at the edges and a CLK column in the middle. The
  // middle insertion keeps the two halves contiguous and PR-capable.
  std::string pattern;
  if (iob_cols > 0) pattern += 'I';
  const std::size_t mid = body.size() / 2;
  for (std::size_t i = 0; i < body.size(); ++i) {
    if (clk_cols > 0 && i == mid) pattern += repeat('K', clk_cols);
    pattern += body[i];
  }
  if (iob_cols > 1) pattern += repeat('I', iob_cols - 1);
  return pattern;
}

DeviceDb::DeviceDb() {
  {
    Fabric fabric{Family::kVirtex5, lx110t_pattern(), 8};
    check_counts(fabric, 54, 1, 5, 3, 1, "xc5vlx110t");
    devices_.push_back(Device{"xc5vlx110t", std::move(fabric)});
  }
  {
    Fabric fabric{Family::kVirtex6, lx75t_pattern(), 3};
    check_counts(fabric, 48, 6, 6, 2, 1, "xc6vlx75t");
    devices_.push_back(Device{"xc6vlx75t", std::move(fabric)});
  }
  {
    // XC4VLX60-like: 8 rows of 16 CLBs, one DSP column, 64 DSP48s.
    Fabric fabric{Family::kVirtex4, make_regular_pattern(40, 1, 4, 3, 1), 8};
    check_counts(fabric, 40, 1, 4, 3, 1, "xc4vlx60");
    devices_.push_back(Device{"xc4vlx60", std::move(fabric)});
  }
  {
    // XC5VLX50T-like: smaller 6-row Virtex-5 with a single DSP column.
    Fabric fabric{Family::kVirtex5, make_regular_pattern(36, 1, 4, 2, 1), 6};
    check_counts(fabric, 36, 1, 4, 2, 1, "xc5vlx50t");
    devices_.push_back(Device{"xc5vlx50t", std::move(fabric)});
  }
  {
    // XC6VLX240T-like: 6-row Virtex-6.
    Fabric fabric{Family::kVirtex6, make_regular_pattern(64, 8, 8, 2, 1), 6};
    check_counts(fabric, 64, 8, 8, 2, 1, "xc6vlx240t");
    devices_.push_back(Device{"xc6vlx240t", std::move(fabric)});
  }
  {
    // XC7K325T-like: 6-row Kintex-7 used for the family-portability
    // extension (the paper claims the models port by swapping constants).
    Fabric fabric{Family::kSeries7, make_regular_pattern(50, 8, 8, 2, 1), 6};
    check_counts(fabric, 50, 8, 8, 2, 1, "xc7k325t");
    devices_.push_back(Device{"xc7k325t", std::move(fabric)});
  }
  {
    // XC6SLX45-like: the paper's Bytes_word = 2 (16-bit word) case.
    Fabric fabric{Family::kSpartan6, make_regular_pattern(27, 2, 4, 2, 1), 8};
    check_counts(fabric, 27, 2, 4, 2, 1, "xc6slx45");
    devices_.push_back(Device{"xc6slx45", std::move(fabric)});
  }
}

const DeviceDb& DeviceDb::instance() {
  static const DeviceDb db;
  return db;
}

namespace {

/// Catalog names carry the "xc" vendor prefix and put the generation digit
/// before the family letter ("xc5vlx110t"); users often write the
/// family-first shorthand ("v5lx110t") or just drop the prefix
/// ("5vlx110t"), so lookup tolerates both.
std::string canonical_device_name(std::string_view name) {
  std::string lower = to_lower(name);
  if (lower.size() >= 2 &&
      (lower[0] == 'v' || lower[0] == 's' || lower[0] == 'k') &&
      std::isdigit(static_cast<unsigned char>(lower[1])) != 0) {
    std::swap(lower[0], lower[1]);  // v5lx110t -> 5vlx110t
  }
  if (lower.rfind("xc", 0) != 0) lower.insert(0, "xc");
  return lower;
}

}  // namespace

const Device& DeviceDb::get(std::string_view name) const {
  const std::string lower = to_lower(name);
  const std::string canonical = canonical_device_name(name);
  const auto it = std::find_if(
      devices_.begin(), devices_.end(),
      [&](const Device& d) { return d.name == lower || d.name == canonical; });
  if (it == devices_.end()) {
    throw NotFoundError{"DeviceDb: unknown device '" + std::string{name} +
                        "'"};
  }
  return *it;
}

}  // namespace prcost
