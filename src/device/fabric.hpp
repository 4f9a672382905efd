// Two-dimensional FPGA fabric model.
//
// Following the Virtex-5-and-newer layout described in Section III.A of the
// paper, the fabric is a grid of `rows` clock-region rows by a left-to-right
// sequence of resource columns; every column spans the full device height
// and contributes `resources_per_row(type)` primitives in each row. PRRs
// are rectangles: H contiguous rows by W contiguous columns, with no
// IOB/CLK column inside.
//
// The fabric is immutable, so expensive derived data is computed once in
// the constructor (per-type column counts, per-position prefix sums) and
// pure window queries are memoized per demand in a thread-safe window
// index shared by copies. The Fig. 1 height sweep asks for the same
// column-demand windows thousands of times during DSE; each distinct
// demand pays for one sliding-window pass, every repeat is a hash lookup.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "device/column.hpp"
#include "device/family_traits.hpp"

namespace prcost {

/// Count of columns a window needs per PRR-capable type; the "organization"
/// half of the paper's PRR size/organization (W_CLB, W_DSP, W_BRAM).
struct ColumnDemand {
  u32 clb_cols = 0;   ///< W_CLB
  u32 dsp_cols = 0;   ///< W_DSP
  u32 bram_cols = 0;  ///< W_BRAM

  /// Total window width W = W_CLB + W_DSP + W_BRAM (Eq. 6).
  constexpr u32 width() const { return clb_cols + dsp_cols + bram_cols; }
};

/// A placed column window: `first_col` is the left-most fabric column index
/// (0-based) of a W-wide window satisfying some ColumnDemand.
struct ColumnWindow {
  u32 first_col = 0;
  u32 width = 0;
};

/// Immutable device fabric: family traits + column sequence + row count.
class Fabric {
 public:
  /// Build from a pattern string of column codes, e.g. "CCBCCDCC...".
  /// Throws ContractError on empty pattern, zero rows, or unknown codes.
  Fabric(Family family, std::string_view column_pattern, u32 rows);

  Family family() const { return family_; }
  const FamilyTraits& traits() const { return *traits_; }

  /// Stable process-wide identity: fabrics constructed from the same
  /// (family, pattern, rows) triple share one id, distinct contents get
  /// distinct ids (interned, no hash collisions). Cache keys (the plan
  /// cache in src/cost) use this instead of hashing the whole layout.
  u64 identity() const { return identity_; }

  /// Number of clock-region rows R (the paper: "the target device has R
  /// rows"; LX110T has 8, LX75T has 3).
  u32 rows() const { return rows_; }
  u32 num_columns() const { return narrow<u32>(columns_.size()); }
  ColumnType column(u32 index) const { return columns_.at(index); }
  const std::vector<ColumnType>& columns() const { return columns_; }

  /// Number of columns of `type` on the whole device (precomputed).
  u32 column_count(ColumnType type) const {
    return type_counts_[static_cast<std::size_t>(type)];
  }

  /// Total primitives of a resource column type on the device
  /// (columns x rows x per-row density).
  u64 total_resources(ColumnType type) const;

  /// Find the left-most W-wide contiguous window whose column-type
  /// composition EXACTLY matches `demand` (the paper's Fig. 1: "distribute
  /// the CLB, DSP, and BRAM columns in any order", no IOB/CLK columns).
  /// Windows of width 0 are rejected. Returns nullopt when no such window
  /// exists anywhere on the fabric.
  std::optional<ColumnWindow> find_window(const ColumnDemand& demand) const;

  /// All windows matching `demand` exactly (left-most first); the
  /// multi-PRR floorplanner tries them in order. Memoized: one scan per
  /// distinct demand, then a hash hit. The list is immutable and shared;
  /// hold the pointer while iterating.
  std::shared_ptr<const std::vector<ColumnWindow>> exact_windows(
      const ColumnDemand& demand) const;

  /// Relaxed search: all windows of exactly `width` columns (left-most
  /// first) that contain AT LEAST the demanded number of columns per type
  /// and no IOB/CLK columns. Surplus PR-capable columns become internal
  /// fragmentation the PRM never uses but the bitstream must still carry;
  /// real PR floorplans accept this when no exact-composition span exists.
  /// Memoized and shared like exact_windows.
  std::shared_ptr<const std::vector<ColumnWindow>> superset_windows(
      const ColumnDemand& demand, u32 width) const;

  /// The column-type composition of a window as a ColumnDemand. O(1) via
  /// the per-position prefix sums.
  ColumnDemand window_composition(const ColumnWindow& window) const;

 private:
  /// Running totals over columns_[0, i); prefix_[i] holds the counts for
  /// the first i columns, so any window aggregate is one subtraction.
  struct ColumnPrefix {
    u32 clb = 0;
    u32 dsp = 0;
    u32 bram = 0;
    u32 blocked = 0;  ///< IOB/CLK columns
  };

  struct WindowIndex;  // thread-safe memo, shared between copies

  /// Uncached sliding-window scans backing the memoized queries.
  std::vector<ColumnWindow> scan_windows_exact(const ColumnDemand& demand) const;
  std::vector<ColumnWindow> scan_windows_superset(const ColumnDemand& demand,
                                                  u32 width) const;

  Family family_;
  const FamilyTraits* traits_;
  std::vector<ColumnType> columns_;
  u32 rows_;
  u64 identity_ = 0;
  std::array<u32, 5> type_counts_{};
  std::vector<ColumnPrefix> prefix_;  ///< size num_columns() + 1
  std::shared_ptr<WindowIndex> index_;
};

/// One interned fabric identity: the (family, pattern, rows) triple behind
/// a Fabric::identity() value. Snapshots of identity-keyed caches persist
/// these records so a restarted process can re-intern and translate ids.
struct FabricIdentityRecord {
  u64 id = 0;
  Family family = Family::kVirtex5;
  u32 rows = 0;
  std::string pattern;
};

/// Intern a (family, pattern, rows) triple and return its process-wide
/// identity (the same value Fabric::identity() reports for a fabric built
/// from the triple). Idempotent; used by cache-snapshot restore.
u64 intern_fabric_identity(Family family, std::string_view pattern, u32 rows);

/// Every identity interned so far, in id order.
std::vector<FabricIdentityRecord> interned_fabric_identities();

}  // namespace prcost
