#include "tests/support/readback.hpp"

#include "bitstream/words.hpp"
#include "util/error.hpp"

namespace prcost {

ReadbackRequest make_readback_request(const PrrPlan& plan, Family family) {
  const FamilyTraits& t = traits(family);
  const PrrOrganization& org = plan.organization;
  if (org.h == 0 || org.width() == 0) {
    throw ContractError{"make_readback_request: empty plan"};
  }
  ReadbackRequest request;
  auto& out = request.command_words;

  // Short sync header (readback shares the configuration interface).
  out.push_back(cfg::kDummy);
  out.push_back(cfg::kSync);
  out.push_back(cfg::kNoop);
  out.push_back(type1(PacketOp::kWrite, ConfigReg::kCmd, 1));
  out.push_back(static_cast<u32>(ConfigCmd::kRcfg));

  const u64 cfg_frames = u64{org.columns.clb_cols} * t.cf_clb +
                         u64{org.columns.dsp_cols} * t.cf_dsp +
                         u64{org.columns.bram_cols} * t.cf_bram;
  const u64 bram_frames = org.columns.bram_cols > 0
                              ? u64{org.columns.bram_cols} * t.df_bram
                              : 0;

  const auto add_burst = [&](FrameBlock block, u32 row, u64 frames) {
    if (frames == 0) return;
    const FrameAddress far{block, row, plan.window.first_col, 0};
    out.push_back(type1(PacketOp::kWrite, ConfigReg::kFar, 1));
    out.push_back(encode_far(far));
    out.push_back(type1(PacketOp::kRead, ConfigReg::kFdro, 0));
    // +1 pipeline pad frame leads every FDRO response.
    out.push_back(type2(PacketOp::kRead,
                        narrow<u32>((frames + 1) * t.frame_size)));
    request.bursts.push_back(ReadbackBurst{far, frames});
    request.response_words += (frames + 1) * t.frame_size;
  };
  for (u32 row = 0; row < org.h; ++row) {
    add_burst(FrameBlock::kInterconnect, plan.first_row + row, cfg_frames);
    add_burst(FrameBlock::kBramContent, plan.first_row + row, bram_frames);
  }

  out.push_back(type1(PacketOp::kWrite, ConfigReg::kCmd, 1));
  out.push_back(static_cast<u32>(ConfigCmd::kDesync));
  return request;
}

std::vector<u32> serve_readback(const ConfigMemory& cm,
                                const ReadbackRequest& request) {
  const u32 frame_size = cm.fabric().traits().frame_size;
  std::vector<u32> response;
  response.reserve(request.response_words);
  for (const ReadbackBurst& burst : request.bursts) {
    response.insert(response.end(), frame_size, 0u);  // pipeline pad frame
    const std::vector<u32> frames = cm.read_burst(burst.far, burst.frames);
    response.insert(response.end(), frames.begin(), frames.end());
  }
  if (response.size() != request.response_words) {
    throw ContractError{"serve_readback: response size mismatch"};
  }
  return response;
}

std::vector<std::vector<u32>> split_readback_response(
    const ReadbackRequest& request, std::span<const u32> response,
    u32 frame_size) {
  if (response.size() != request.response_words) {
    throw ContractError{"split_readback_response: word count mismatch"};
  }
  std::vector<std::vector<u32>> out;
  std::size_t pos = 0;
  for (const ReadbackBurst& burst : request.bursts) {
    pos += frame_size;  // drop the pipeline pad frame
    const std::size_t words = burst.frames * frame_size;
    out.emplace_back(response.begin() + static_cast<std::ptrdiff_t>(pos),
                     response.begin() + static_cast<std::ptrdiff_t>(pos + words));
    pos += words;
  }
  return out;
}

}  // namespace prcost
