#include "dse/partition.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace prcost {

std::vector<Partition> enumerate_partitions(u32 n, u32 max_groups) {
  if (n == 0) return {Partition{}};
  if (n > 12) throw ContractError{"enumerate_partitions: n > 12"};
  if (max_groups == 0) max_groups = n;

  // Restricted growth strings: a[i] <= max(a[0..i-1]) + 1.
  std::vector<Partition> out;
  std::vector<u32> a(n, 0);
  while (true) {
    u32 groups = 0;
    for (const u32 g : a) groups = std::max(groups, g + 1);
    if (groups <= max_groups) {
      Partition partition(groups);
      for (u32 i = 0; i < n; ++i) partition[a[i]].push_back(i);
      out.push_back(std::move(partition));
    }
    // Next restricted growth string: increment the right-most digit that
    // may grow (a[i] <= max of its prefix), zeroing everything after it.
    bool advanced = false;
    for (u32 i = n - 1; i >= 1; --i) {
      u32 prefix_max = 0;
      for (u32 j = 0; j < i; ++j) prefix_max = std::max(prefix_max, a[j]);
      if (a[i] <= prefix_max) {
        ++a[i];
        for (u32 j = i + 1; j < n; ++j) a[j] = 0;
        advanced = true;
        break;
      }
    }
    if (!advanced) return out;
  }
}

}  // namespace prcost
