// Set-partition enumeration for PR design-space exploration.
//
// A PR partitioning assigns each PRM to a PRR group; PRMs in one group
// time-multiplex one PRR. Section I calls this space "exponentially
// large"; for the handfuls of PRMs evaluated here exact enumeration
// (restricted growth strings, Bell-number many) is tractable and lets the
// explorer be exhaustive rather than heuristic.
#pragma once

#include <vector>

#include "util/ints.hpp"

namespace prcost {

/// One partition: groups[g] lists the item indices in group g.
using Partition = std::vector<std::vector<u32>>;

/// All partitions of {0..n-1} into at most `max_groups` non-empty groups
/// (0 = no limit). n must be <= 12 (Bell(12) ~ 4.2M).
std::vector<Partition> enumerate_partitions(u32 n, u32 max_groups = 0);

}  // namespace prcost
