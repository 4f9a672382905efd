#include <gtest/gtest.h>

#include <set>

#include "device/device_db.hpp"
#include "dse/explorer.hpp"
#include "dse/partition.hpp"
#include "paperdata/paper_dataset.hpp"
#include "util/error.hpp"

namespace prcost {
namespace {

// -------------------------------------------------------------- partitions ---

TEST(Partitions, EnumerationCountMatchesBell) {
  // Bell numbers B(0)..B(6): the partitions of an n-element set.
  constexpr u64 kBell[] = {1, 1, 2, 5, 15, 52, 203};
  for (u32 n = 0; n <= 6; ++n) {
    EXPECT_EQ(enumerate_partitions(n).size(), kBell[n]) << n;
  }
}

TEST(Partitions, BellNumbers) {
  // B(7)..B(9), past the small cases above.
  EXPECT_EQ(enumerate_partitions(7).size(), 877u);
  EXPECT_EQ(enumerate_partitions(8).size(), 4140u);
  EXPECT_EQ(enumerate_partitions(9).size(), 21147u);
}

TEST(Partitions, EveryItemExactlyOnce) {
  for (const Partition& partition : enumerate_partitions(4)) {
    std::set<u32> seen;
    for (const auto& group : partition) {
      EXPECT_FALSE(group.empty());
      for (const u32 item : group) {
        EXPECT_TRUE(seen.insert(item).second) << "duplicate item";
      }
    }
    EXPECT_EQ(seen.size(), 4u);
  }
}

TEST(Partitions, MaxGroupsFilter) {
  // Partitions of 4 into <= 2 groups: S(4,1) + S(4,2) = 1 + 7 = 8.
  EXPECT_EQ(enumerate_partitions(4, 2).size(), 8u);
  // Into exactly 1 group.
  EXPECT_EQ(enumerate_partitions(4, 1).size(), 1u);
}

TEST(Partitions, NoDuplicates) {
  const auto partitions = enumerate_partitions(5);
  std::set<std::string> keys;
  for (const Partition& partition : partitions) {
    std::string key;
    for (const auto& group : partition) {
      key += "|";
      for (const u32 item : group) key += static_cast<char>('0' + item);
    }
    EXPECT_TRUE(keys.insert(key).second);
  }
}

TEST(Partitions, TooLargeThrows) {
  EXPECT_THROW(enumerate_partitions(13), ContractError);
}

// ---------------------------------------------------------------- explore ---

std::vector<PrmInfo> paper_prms(std::string_view device) {
  std::vector<PrmInfo> prms;
  for (const char* name : {"FIR", "MIPS", "SDRAM"}) {
    const auto& rec = paperdata::table5_record(name, device);
    prms.push_back(PrmInfo{name, rec.req, 0});
  }
  return prms;
}

TEST(Explore, EvaluatesEveryPartition) {
  const auto prms = paper_prms("xc5vlx110t");
  const Fabric& fabric = DeviceDb::instance().get("xc5vlx110t").fabric;
  WorkloadParams wp;
  wp.count = 30;
  const auto workload = make_workload(wp);
  const auto points = explore(prms, fabric, workload);
  EXPECT_EQ(points.size(), 5u);  // Bell(3) partitionings
  u32 feasible = 0;
  for (const DesignPoint& point : points) {
    if (point.feasible) {
      ++feasible;
      EXPECT_EQ(point.prr_plans.size(), point.partition.size());
      EXPECT_GT(point.total_prr_area, 0u);
      EXPECT_GT(point.makespan_s, 0.0);
      EXPECT_GT(point.total_bitstream_bytes, 0u);
    } else {
      EXPECT_FALSE(point.infeasible_reason.empty());
    }
  }
  EXPECT_GT(feasible, 0u);
}

TEST(Explore, DeterministicAcrossWorkerCounts) {
  const auto prms = paper_prms("xc5vlx110t");
  const Fabric& fabric = DeviceDb::instance().get("xc5vlx110t").fabric;
  WorkloadParams wp;
  wp.count = 20;
  const auto workload = make_workload(wp);
  ExploreOptions seq;
  seq.workers = 1;
  ExploreOptions par;
  par.workers = 4;
  const auto a = explore(prms, fabric, workload, seq);
  const auto b = explore(prms, fabric, workload, par);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].feasible, b[i].feasible);
    EXPECT_EQ(a[i].total_prr_area, b[i].total_prr_area);
    EXPECT_DOUBLE_EQ(a[i].makespan_s, b[i].makespan_s);
  }
}

TEST(Explore, MaxGroupsRestricts) {
  const auto prms = paper_prms("xc5vlx110t");
  const Fabric& fabric = DeviceDb::instance().get("xc5vlx110t").fabric;
  WorkloadParams wp;
  wp.count = 10;
  const auto workload = make_workload(wp);
  ExploreOptions options;
  options.max_groups = 1;
  const auto points = explore(prms, fabric, workload, options);
  EXPECT_EQ(points.size(), 1u);  // only the all-in-one-PRR partitioning
}

// ------------------------------------------------------------ pareto front ---

TEST(Pareto, FrontIsMinimalAndSorted) {
  const auto prms = paper_prms("xc5vlx110t");
  const Fabric& fabric = DeviceDb::instance().get("xc5vlx110t").fabric;
  WorkloadParams wp;
  wp.count = 40;
  const auto workload = make_workload(wp);
  const auto points = explore(prms, fabric, workload);
  const auto front = pareto_front(points);
  ASSERT_FALSE(front.empty());
  // Sorted by area; no point dominates another.
  for (std::size_t i = 1; i < front.size(); ++i) {
    EXPECT_LE(front[i - 1].total_prr_area, front[i].total_prr_area);
    EXPECT_GT(front[i - 1].makespan_s, front[i].makespan_s);
  }
  // Every front member is feasible and not dominated by any point.
  for (const DesignPoint& f : front) {
    EXPECT_TRUE(f.feasible);
    for (const DesignPoint& p : points) {
      if (!p.feasible) continue;
      const bool dominates = p.total_prr_area <= f.total_prr_area &&
                             p.makespan_s <= f.makespan_s &&
                             (p.total_prr_area < f.total_prr_area ||
                              p.makespan_s < f.makespan_s);
      EXPECT_FALSE(dominates);
    }
  }
}

TEST(Pareto, EmptyInputGivesEmptyFront) {
  EXPECT_TRUE(pareto_front({}).empty());
}

}  // namespace
}  // namespace prcost
