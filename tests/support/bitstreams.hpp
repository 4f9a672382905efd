// Reference bitstreams no product emits: the partial bitstream of a
// stacked multi-band PRR and the whole fabric's full configuration
// bitstream. Both are band lists over generate_stream_into, the writer
// behind every product bitstream, so tests can hold the shaped-PRR and
// full-device size models to concrete streams the way Eq. (18) is held to
// generate_bitstream.
#pragma once

#include <vector>

#include "bitstream/generator.hpp"
#include "cost/shaped_prr.hpp"
#include "device/fabric.hpp"

namespace prcost {

/// Partial bitstream of a non-rectangular (multi-band) PRR: one FAR/FDRI
/// burst group per band row, single sync header and trailer. Throws
/// ContractError on a shape without bands, or when the size differs from
/// estimate_shaped_bitstream().
std::vector<u32> generate_shaped_bitstream(const ShapedPrr& shape,
                                           Family family,
                                           const GeneratorOptions& options = {});

/// FULL configuration bitstream for the whole fabric: every column of
/// every row, IOB and clock columns included, plus all BRAM
/// initialization - the non-PR baseline artifact behind
/// full_bitstream_bytes(fabric).
std::vector<u32> generate_full_bitstream(const Fabric& fabric,
                                         const GeneratorOptions& options = {});

}  // namespace prcost
