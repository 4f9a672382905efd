// Partial bitstream generator.
//
// Produces a concrete, parseable partial bitstream for a placed PRR with
// exactly the structure of the paper's Fig. 2: initial (sync/header)
// words; for each PRR row a FAR/FDRI packet pair followed by the row's
// configuration frames (plus the pipeline flush frame); a BRAM
// initialization burst per row when the PRR contains BRAM columns; and the
// final CRC/desync words.
//
// This is the validation artifact for the Eq. (18)-(23) size model: for
// every (device, organization) the generated word count must equal the
// model's prediction exactly - a property the test suite sweeps.
#pragma once

#include <cstdint>
#include <vector>

#include "bitstream/frame_address.hpp"
#include "bitstream/words.hpp"
#include "cost/prr_search.hpp"
#include "cost/shaped_prr.hpp"
#include "device/family_traits.hpp"

namespace prcost {

/// What the synthetic frame payload looks like. Real post-PAR frames are
/// sparse (most interconnect bits are 0); kSparse is the default so the
/// compression ablation measures realistic ratios.
enum class PayloadKind {
  kSparse,  ///< ~`sparse_density` of words non-zero, rest zero
  kRandom,  ///< fully random words (incompressible worst case)
  kZeros,   ///< all-zero frames (blank PRR / best case)
};

/// Generation options.
///
/// The FDRI payload of a stream depends only on (payload, payload_seed,
/// sparse_density): every stream reads the same word sequence from its
/// start, in burst order, so a shorter stream's payload is a prefix of a
/// longer one's. The generator memoizes that sequence per option set in
/// a process-wide, read-only payload tape; the bytes are the same as
/// drawing each word fresh.
struct GeneratorOptions {
  /// Seed for the deterministic frame payload filler (stands in for the
  /// placed-and-routed design's actual configuration bits).
  u64 payload_seed = 0x5EED;
  /// Device IDCODE written to the IDCODE register; 0 selects a per-family
  /// default.
  u32 idcode = 0;
  PayloadKind payload = PayloadKind::kSparse;
  /// Fraction of non-zero payload words under kSparse.
  double sparse_density = 0.15;
};

/// Initial words for `family` (the paper's IW). The sequence length equals
/// traits(family).iw by construction - tested.
std::vector<u32> header_words(Family family, u32 idcode);

/// Append the header words to `out` (allocation-free when `out` has
/// capacity).
void append_header_words(std::vector<u32>& out, Family family, u32 idcode);

/// Final words for `family` (the paper's FW), carrying the accumulated
/// CRC. Length equals traits(family).fw.
std::vector<u32> trailer_words(Family family, u32 crc);

/// Append the trailer words to `out`.
void append_trailer_words(std::vector<u32>& out, Family family, u32 crc);

/// Generate the full partial bitstream for `plan` as 32-bit configuration
/// words (for 16-bit families each entry still holds one configuration
/// word; byte serialization honours traits.bytes_word).
std::vector<u32> generate_bitstream(const PrrPlan& plan, Family family,
                                    const GeneratorOptions& options = {});

/// Same, writing into a caller-owned buffer (cleared first). Hot callers
/// pass a reused (e.g. thread-local) scratch vector so steady-state
/// generation performs no allocation at all: the word count is known
/// exactly up front from Eq. (18), so the buffer is reserved once and its
/// capacity is reused across calls.
void generate_bitstream_into(std::vector<u32>& out, const PrrPlan& plan,
                             Family family,
                             const GeneratorOptions& options = {});

/// Serialize to wire bytes (big-endian, traits.bytes_word bytes per word).
/// The result size is the quantity Table VII reports.
std::vector<std::uint8_t> to_bytes(const std::vector<u32>& words,
                                   Family family);

/// Generate the partial bitstream of a non-rectangular (multi-band) PRR:
/// one FAR/FDRI burst group per band row, single sync header and trailer.
/// Byte size equals estimate_shaped_bitstream() exactly (tested).
std::vector<u32> generate_shaped_bitstream(const ShapedPrr& shape,
                                           Family family,
                                           const GeneratorOptions& options = {});

/// Generate a FULL configuration bitstream for the whole fabric (every
/// column of every row, including IOB and clock columns, plus all BRAM
/// initialization) - the non-PR baseline artifact. Its byte size equals
/// full_bitstream_bytes(fabric) exactly (tested), closing the same
/// model-vs-artifact loop Eq. (18) has for partial bitstreams.
std::vector<u32> generate_full_bitstream(const Fabric& fabric,
                                         const GeneratorOptions& options = {});

/// Default IDCODE per family (synthetic but stable).
u32 default_idcode(Family family);

}  // namespace prcost
