// Configuration readback (FDRO path).
//
// Context save (FCCM'13 [5]) reads a PRR's frames back out of the
// configuration memory through the ICAP: for each PRR row, write the FAR,
// issue the RCFG command and read (frames + 1 pipeline pad) frames from
// FDRO. This module generates the request command stream, serves it
// against a ConfigMemory, and re-assembles the returned frames - closing
// the save half of the HTR save/restore loop at the word level.
//
// Test oracle: the response word count is what readback_test holds
// htr/relocation's context_cost save bytes to.
#pragma once

#include <vector>

#include "bitstream/config_memory.hpp"
#include "cost/prr_search.hpp"

namespace prcost {

/// One row's readback exchange.
struct ReadbackBurst {
  FrameAddress far;
  u64 frames = 0;  ///< frames requested (excluding the pipeline pad)
};

/// The full request: command words to push into the ICAP plus the bursts
/// they describe (for the responder).
struct ReadbackRequest {
  std::vector<u32> command_words;
  std::vector<ReadbackBurst> bursts;
  u64 response_words = 0;  ///< total words FDRO will return
};

/// Build the readback request covering every row (config frames; plus
/// BRAM-content frames when the PRR has BRAM columns).
ReadbackRequest make_readback_request(const PrrPlan& plan, Family family);

/// Serve a request against `cm`: returns the FDRO word stream - for each
/// burst one pipeline pad frame of zeroes followed by the stored frames.
std::vector<u32> serve_readback(const ConfigMemory& cm,
                                const ReadbackRequest& request);

/// Split a served response back into per-burst frame payloads (pad frames
/// removed). Throws ContractError if the word count mismatches.
std::vector<std::vector<u32>> split_readback_response(
    const ReadbackRequest& request, std::span<const u32> response,
    u32 frame_size);

}  // namespace prcost
