#include "device/fabric.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <shared_mutex>
#include <tuple>
#include <unordered_map>

#include "util/error.hpp"

namespace prcost {
namespace {

/// Process-wide fabric interning: identical (family, pattern, rows) triples
/// map to one id, so cache keys can carry a u64 instead of the layout and
/// still never collide across distinct fabrics.
struct InternTable {
  std::mutex mu;
  std::map<std::tuple<int, u32, std::string>, u64> ids;
};

InternTable& intern_table() {
  static InternTable table;
  return table;
}

/// Packs a (demand, width) query into one map key. Component counts are
/// bounded by the column count (narrow<u32> of a string length), far below
/// 2^16 for any real device pattern.
constexpr u64 pack_query(const ColumnDemand& demand, u32 width) {
  return (u64{demand.clb_cols} << 0) | (u64{demand.dsp_cols} << 16) |
         (u64{demand.bram_cols} << 32) | (u64{width} << 48);
}

constexpr bool packable(const ColumnDemand& demand, u32 width) {
  return demand.clb_cols < (1u << 16) && demand.dsp_cols < (1u << 16) &&
         demand.bram_cols < (1u << 16) && width < (1u << 16);
}

}  // namespace

/// Thread-safe per-demand window memo. Queries are pure functions of the
/// immutable column sequence, so memoization is exact; the map is capped to
/// keep pathological demand streams from growing it without bound (past the
/// cap, queries simply fall back to the scan).
struct Fabric::WindowIndex {
  static constexpr std::size_t kMaxEntries = 1u << 15;
  mutable std::shared_mutex mu;
  std::unordered_map<u64, std::shared_ptr<const std::vector<ColumnWindow>>>
      exact;
  std::unordered_map<u64, std::shared_ptr<const std::vector<ColumnWindow>>>
      superset;
};

Fabric::Fabric(Family family, std::string_view column_pattern, u32 rows)
    : family_(family),
      traits_(&prcost::traits(family)),
      rows_(rows),
      index_(std::make_shared<WindowIndex>()) {
  if (column_pattern.empty()) {
    throw ContractError{"Fabric: empty column pattern"};
  }
  if (rows == 0) throw ContractError{"Fabric: zero rows"};
  columns_.reserve(column_pattern.size());
  for (const char code : column_pattern) {
    columns_.push_back(parse_column_code(code));
  }
  identity_ = intern_fabric_identity(family, column_pattern, rows);

  prefix_.resize(columns_.size() + 1);
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    const ColumnType type = columns_[i];
    ++type_counts_[static_cast<std::size_t>(type)];
    ColumnPrefix next = prefix_[i];
    switch (type) {
      case ColumnType::kClb: ++next.clb; break;
      case ColumnType::kDsp: ++next.dsp; break;
      case ColumnType::kBram: ++next.bram; break;
      case ColumnType::kIob:
      case ColumnType::kClk: ++next.blocked; break;
    }
    next.frames = checked_add(next.frames, config_frames(type, *traits_));
    prefix_[i + 1] = next;
  }
}

std::string Fabric::pattern() const {
  std::string out;
  out.reserve(columns_.size());
  for (const auto type : columns_) out += column_code(type);
  return out;
}

u64 Fabric::total_resources(ColumnType type) const {
  return checked_mul(checked_mul(column_count(type), rows_),
                     resources_per_row(type, *traits_));
}

u64 Fabric::total_luts() const {
  return checked_mul(total_resources(ColumnType::kClb), traits_->lut_clb);
}

u64 Fabric::total_ffs() const {
  return checked_mul(total_resources(ColumnType::kClb), traits_->ff_clb);
}

std::vector<ColumnWindow> Fabric::scan_windows_exact(
    const ColumnDemand& demand) const {
  std::vector<ColumnWindow> out;
  const u32 width = demand.width();
  if (width == 0 || width > num_columns()) return out;
  for (u32 start = 0; start + width <= num_columns(); ++start) {
    const ColumnPrefix& lo = prefix_[start];
    const ColumnPrefix& hi = prefix_[start + width];
    if (hi.blocked == lo.blocked && hi.clb - lo.clb == demand.clb_cols &&
        hi.dsp - lo.dsp == demand.dsp_cols &&
        hi.bram - lo.bram == demand.bram_cols) {
      out.push_back(ColumnWindow{start, width});
    }
  }
  return out;
}

std::vector<ColumnWindow> Fabric::scan_windows_superset(
    const ColumnDemand& demand, u32 width) const {
  std::vector<ColumnWindow> out;
  if (width < demand.width() || width == 0 || width > num_columns()) {
    return out;
  }
  for (u32 start = 0; start + width <= num_columns(); ++start) {
    const ColumnPrefix& lo = prefix_[start];
    const ColumnPrefix& hi = prefix_[start + width];
    if (hi.blocked == lo.blocked && hi.clb - lo.clb >= demand.clb_cols &&
        hi.dsp - lo.dsp >= demand.dsp_cols &&
        hi.bram - lo.bram >= demand.bram_cols) {
      out.push_back(ColumnWindow{start, width});
    }
  }
  return out;
}

std::shared_ptr<const std::vector<ColumnWindow>> Fabric::exact_windows(
    const ColumnDemand& demand) const {
  if (!packable(demand, 0)) {
    return std::make_shared<const std::vector<ColumnWindow>>(
        scan_windows_exact(demand));
  }
  const u64 key = pack_query(demand, 0);
  {
    const std::shared_lock lock{index_->mu};
    const auto it = index_->exact.find(key);
    if (it != index_->exact.end()) return it->second;
  }
  auto windows = std::make_shared<const std::vector<ColumnWindow>>(
      scan_windows_exact(demand));
  {
    const std::unique_lock lock{index_->mu};
    if (index_->exact.size() < WindowIndex::kMaxEntries) {
      return index_->exact.try_emplace(key, std::move(windows)).first->second;
    }
  }
  return windows;
}

std::shared_ptr<const std::vector<ColumnWindow>> Fabric::superset_windows(
    const ColumnDemand& demand, u32 width) const {
  if (!packable(demand, width)) {
    return std::make_shared<const std::vector<ColumnWindow>>(
        scan_windows_superset(demand, width));
  }
  const u64 key = pack_query(demand, width);
  {
    const std::shared_lock lock{index_->mu};
    const auto it = index_->superset.find(key);
    if (it != index_->superset.end()) return it->second;
  }
  auto windows = std::make_shared<const std::vector<ColumnWindow>>(
      scan_windows_superset(demand, width));
  {
    const std::unique_lock lock{index_->mu};
    if (index_->superset.size() < WindowIndex::kMaxEntries) {
      return index_->superset.try_emplace(key, std::move(windows))
          .first->second;
    }
  }
  return windows;
}

std::optional<ColumnWindow> Fabric::find_window(
    const ColumnDemand& demand) const {
  const auto windows = exact_windows(demand);
  if (windows->empty()) return std::nullopt;
  return windows->front();
}

ColumnDemand Fabric::window_composition(const ColumnWindow& window) const {
  if (window.first_col + window.width > num_columns()) {
    throw ContractError{"window_composition: window out of range"};
  }
  const ColumnPrefix& lo = prefix_[window.first_col];
  const ColumnPrefix& hi = prefix_[window.first_col + window.width];
  return ColumnDemand{hi.clb - lo.clb, hi.dsp - lo.dsp, hi.bram - lo.bram};
}

u64 Fabric::window_config_frames(const ColumnWindow& window) const {
  if (window.first_col + window.width > num_columns()) {
    throw ContractError{"window_config_frames: window out of range"};
  }
  return prefix_[window.first_col + window.width].frames -
         prefix_[window.first_col].frames;
}

u64 intern_fabric_identity(Family family, std::string_view pattern,
                           u32 rows) {
  InternTable& table = intern_table();
  const std::scoped_lock lock{table.mu};
  const auto [it, inserted] = table.ids.try_emplace(
      std::tuple{static_cast<int>(family), rows, std::string{pattern}},
      table.ids.size() + 1);
  return it->second;
}

std::vector<FabricIdentityRecord> interned_fabric_identities() {
  InternTable& table = intern_table();
  std::vector<FabricIdentityRecord> records;
  const std::scoped_lock lock{table.mu};
  records.reserve(table.ids.size());
  for (const auto& [key, id] : table.ids) {
    FabricIdentityRecord record;
    record.id = id;
    record.family = static_cast<Family>(std::get<0>(key));
    record.rows = std::get<1>(key);
    record.pattern = std::get<2>(key);
    records.push_back(std::move(record));
  }
  std::sort(records.begin(), records.end(),
            [](const FabricIdentityRecord& a, const FabricIdentityRecord& b) {
              return a.id < b.id;
            });
  return records;
}

}  // namespace prcost
