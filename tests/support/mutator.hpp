// Deterministic word-stream mutator.
//
// Applies the corruptions a faulty transfer delivers (reconfig/faults.hpp's
// FaultKind: bit flips, dropped or duplicated words, truncation, spliced
// garbage) to concrete bitstream buffers, so tests can fuzz
// parse_bitstream with them. A mutator draws kinds in kCorruptionKinds
// order from its own seeded Rng, so a seed fixes the whole sequence.
#pragma once

#include <string_view>
#include <vector>

#include "reconfig/faults.hpp"
#include "util/rng.hpp"

namespace prcost {

class WordMutator {
 public:
  explicit WordMutator(u64 seed) : rng_{seed} {}

  /// Corrupt `words` with a randomly chosen kind; returns the kind applied
  /// (kNone only for an empty buffer).
  FaultKind corrupt(std::vector<u32>& words);

  /// Apply one specific corruption to `words` using `rng` for positions.
  static void apply(std::vector<u32>& words, FaultKind kind, Rng& rng);

 private:
  Rng rng_;
};

/// Stable short name ("bit-flip", "word-drop", ...).
std::string_view fault_kind_name(FaultKind kind);

}  // namespace prcost
