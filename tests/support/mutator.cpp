#include "tests/support/mutator.hpp"

#include <algorithm>
#include <cstddef>
#include <iterator>

namespace prcost {

FaultKind WordMutator::corrupt(std::vector<u32>& words) {
  if (words.empty()) return FaultKind::kNone;
  const FaultKind kind =
      kCorruptionKinds[rng_.below(std::size(kCorruptionKinds))];
  apply(words, kind, rng_);
  return kind;
}

void WordMutator::apply(std::vector<u32>& words, FaultKind kind, Rng& rng) {
  if (words.empty()) return;
  switch (kind) {
    case FaultKind::kNone:
      break;
    case FaultKind::kBitFlip: {
      const std::size_t pos = rng.below(words.size());
      words[pos] ^= 1u << rng.below(32);
      break;
    }
    case FaultKind::kWordDrop:
      words.erase(words.begin() +
                  static_cast<std::ptrdiff_t>(rng.below(words.size())));
      break;
    case FaultKind::kWordDup: {
      const std::size_t pos = rng.below(words.size());
      words.insert(words.begin() + static_cast<std::ptrdiff_t>(pos),
                   words[pos]);
      break;
    }
    case FaultKind::kTruncate:
      words.resize(rng.below(words.size()));
      break;
    case FaultKind::kSplice: {
      // Overwrite a short run with garbage words (length 1..8, clipped).
      const std::size_t start = rng.below(words.size());
      const std::size_t len =
          std::min<std::size_t>(1 + rng.below(8), words.size() - start);
      for (std::size_t i = 0; i < len; ++i) {
        words[start + i] = static_cast<u32>(rng());
      }
      break;
    }
  }
}

std::string_view fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "none";
    case FaultKind::kBitFlip: return "bit-flip";
    case FaultKind::kWordDrop: return "word-drop";
    case FaultKind::kWordDup: return "word-dup";
    case FaultKind::kTruncate: return "truncate";
    case FaultKind::kSplice: return "splice";
  }
  return "?";
}

}  // namespace prcost
