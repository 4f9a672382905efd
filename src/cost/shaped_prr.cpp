#include "cost/shaped_prr.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace prcost {

u64 ShapedPrr::size() const {
  u64 total = 0;
  for (const PrrBand& band : bands) {
    total = checked_add(total, band.organization.size());
  }
  return total;
}

u32 ShapedPrr::height() const {
  u32 total = 0;
  for (const PrrBand& band : bands) total += band.organization.h;
  return total;
}

PrrAvailability shaped_availability(const ShapedPrr& prr,
                                    const FamilyTraits& t) {
  PrrAvailability total;
  for (const PrrBand& band : prr.bands) {
    const PrrAvailability a = availability(band.organization, t);
    total.clbs += a.clbs;
    total.ffs += a.ffs;
    total.luts += a.luts;
    total.dsps += a.dsps;
    total.brams += a.brams;
  }
  return total;
}

BitstreamEstimate estimate_shaped_bitstream(const ShapedPrr& prr,
                                            const FamilyTraits& t) {
  if (prr.bands.empty()) {
    throw ContractError{"estimate_shaped_bitstream: no bands"};
  }
  BitstreamEstimate total;
  total.initial_words = t.iw;
  total.final_words = t.fw;
  u64 body_words = 0;
  for (const PrrBand& band : prr.bands) {
    const BitstreamEstimate e = estimate_bitstream(band.organization, t);
    body_words = checked_add(
        body_words, checked_mul(band.organization.h,
                                e.config_words_per_row + e.bram_words_per_row));
    total.rows += band.organization.h;
    // Report the widest band's per-row quantities for inspection.
    if (e.config_words_per_row > total.config_words_per_row) {
      total.config_words_per_row = e.config_words_per_row;
      total.config_frames_per_row = e.config_frames_per_row;
      total.bram_words_per_row = e.bram_words_per_row;
    }
  }
  total.total_words = checked_add(t.iw, checked_add(body_words, t.fw));
  total.total_bytes = checked_mul(total.total_words, t.bytes_word);
  return total;
}

namespace {

bool windows_overlap(const ColumnWindow& a, const ColumnWindow& b) {
  return a.first_col < b.first_col + b.width &&
         b.first_col < a.first_col + a.width;
}

/// First pair of (window for a, window for b) that overlap in columns.
std::optional<std::pair<ColumnWindow, ColumnWindow>> overlapping_pair(
    const Fabric& fabric, const ColumnDemand& a, const ColumnDemand& b) {
  const auto windows_a = fabric.exact_windows(a);
  if (windows_a->empty()) return std::nullopt;
  const auto windows_b = fabric.exact_windows(b);
  for (const ColumnWindow& wa : *windows_a) {
    for (const ColumnWindow& wb : *windows_b) {
      if (windows_overlap(wa, wb)) return std::make_pair(wa, wb);
    }
  }
  return std::nullopt;
}

}  // namespace

std::optional<ShapedPrrPlan> find_l_shaped_prr(const PrmRequirements& req,
                                               const Fabric& fabric) {
  const FamilyTraits& t = fabric.traits();
  const bool single_dsp = fabric.column_count(ColumnType::kDsp) == 1;
  const u64 clbs_needed = clb_req(req, t);
  if (clbs_needed == 0 && req.dsps == 0 && req.brams == 0) {
    return std::nullopt;
  }

  std::optional<ShapedPrrPlan> best;
  const auto consider = [&](ShapedPrr shape) {
    ShapedPrrPlan plan;
    plan.shape = std::move(shape);
    plan.available = shaped_availability(plan.shape, t);
    if (plan.available.clbs < clbs_needed || plan.available.dsps < req.dsps ||
        plan.available.brams < req.brams) {
      return;
    }
    plan.ru = utilization(req, plan.available, t);
    plan.bitstream = estimate_shaped_bitstream(plan.shape, t);
    const bool better =
        !best || plan.shape.size() < best->shape.size() ||
        (plan.shape.size() == best->shape.size() &&
         plan.bitstream.total_bytes < best->bitstream.total_bytes);
    if (better) best = std::move(plan);
  };

  for (u32 h1 = 1; h1 <= fabric.rows(); ++h1) {
    // Band 1 carries all DSPs (Eq. 3/4 semantics at height h1).
    u32 dsp_cols1 = 0;
    if (req.dsps > 0) {
      if (single_dsp) {
        if (ceil_div(req.dsps, t.dsp_col) > h1) continue;  // cannot reach
        dsp_cols1 = 1;
      } else {
        dsp_cols1 = narrow<u32>(ceil_div(req.dsps, u64{h1} * t.dsp_col));
      }
    }
    for (u32 h2 = 1; h1 + h2 <= fabric.rows(); ++h2) {
      // Band 2 carries all BRAMs.
      const u32 bram_cols2 =
          req.brams > 0
              ? narrow<u32>(ceil_div(req.brams, u64{h2} * t.bram_col))
              : 0;
      // Split CLB columns: band 1 takes clb1 columns, band 2 the rest.
      const u32 max_clb1 = narrow<u32>(
          clbs_needed == 0 ? 0 : ceil_div(clbs_needed, u64{h1} * t.clb_col));
      for (u32 clb1 = 0; clb1 <= max_clb1; ++clb1) {
        const u64 covered = u64{clb1} * h1 * t.clb_col;
        const u64 remaining = covered >= clbs_needed ? 0 : clbs_needed - covered;
        const u32 clb2 =
            remaining == 0
                ? 0
                : narrow<u32>(ceil_div(remaining, u64{h2} * t.clb_col));
        const ColumnDemand demand1{clb1, dsp_cols1, 0};
        const ColumnDemand demand2{clb2, 0, bram_cols2};
        if (demand1.width() == 0 || demand2.width() == 0) continue;
        const auto windows = overlapping_pair(fabric, demand1, demand2);
        if (!windows) continue;
        ShapedPrr shape;
        shape.bands.push_back(
            PrrBand{PrrOrganization{h1, demand1}, windows->first, 0});
        shape.bands.push_back(
            PrrBand{PrrOrganization{h2, demand2}, windows->second, h1});
        consider(std::move(shape));
      }
    }
  }
  return best;
}

}  // namespace prcost
