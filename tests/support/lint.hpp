// Configuration command-stream linter.
//
// An independent rule checker for the configuration protocol, distinct
// from the parser (which recovers structure): the linter verifies ORDER
// and STATE rules the configuration logic enforces on silicon, so the
// generator is validated by a second, independently written model:
//
//   R1  nothing but dummy/bus-width words before SYNC
//   R2  exactly one SYNC
//   R3  RCRC precedes the first register write that feeds the CRC
//   R4  WCFG is issued before the first FDRI write
//   R5  every FDRI write is preceded by a FAR write (per burst)
//   R6  FDRI payloads are frame-aligned and non-empty
//   R7  the CRC register is written exactly once, after all FDRI data
//   R8  DESYNC is the last command; only pad words may follow
//
// Violations carry the word offset so a bad generator change is easy to
// localize. Test oracle: only lint_test and crosscut_property_test use it.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "device/family_traits.hpp"
#include "util/ints.hpp"

namespace prcost {

/// One rule violation.
struct LintIssue {
  std::string rule;     ///< "R1".."R8"
  u64 word_offset = 0;  ///< position in the stream
  std::string message;
};

/// Check `words` against the protocol rules for `family`. Empty result =
/// clean stream.
std::vector<LintIssue> lint_bitstream(std::span<const u32> words,
                                      Family family);

}  // namespace prcost
