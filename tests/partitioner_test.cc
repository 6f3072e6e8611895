// Property tests for column partitioners: the (Owner, LocalIndex) mapping
// must be a bijection onto dense local slot ranges, for every partitioner
// and every (m, K) combination.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>

#include "storage/partitioner.h"

namespace colsgd {
namespace {

using PartitionerCase = std::tuple<std::string, uint64_t, int>;

class PartitionerPropertyTest
    : public ::testing::TestWithParam<PartitionerCase> {};

TEST_P(PartitionerPropertyTest, BijectionOntoDenseLocalSlots) {
  const auto& [name, m, k] = GetParam();
  auto partitioner = MakePartitioner(name, m, k);
  // Each (owner, local) pair must be hit exactly once, local indices must be
  // dense in [0, LocalDim(owner)), and GlobalIndex must invert the mapping.
  std::map<std::pair<int, uint64_t>, uint64_t> seen;
  for (uint64_t f = 0; f < m; ++f) {
    const int owner = partitioner->Owner(f);
    ASSERT_GE(owner, 0);
    ASSERT_LT(owner, k);
    const uint64_t local = partitioner->LocalIndex(f);
    ASSERT_LT(local, partitioner->LocalDim(owner))
        << name << " m=" << m << " k=" << k << " f=" << f;
    ASSERT_TRUE(seen.emplace(std::make_pair(owner, local), f).second)
        << "collision at worker " << owner << " slot " << local;
    ASSERT_EQ(partitioner->GlobalIndex(owner, local), f);
  }
  // LocalDims sum to m (all slots are used).
  uint64_t total = 0;
  for (int w = 0; w < k; ++w) total += partitioner->LocalDim(w);
  EXPECT_EQ(total, m);
}

INSTANTIATE_TEST_SUITE_P(
    AllPartitioners, PartitionerPropertyTest,
    ::testing::Combine(
        ::testing::Values("round_robin", "range", "block_cyclic_1",
                          "block_cyclic_3", "block_cyclic_64"),
        ::testing::Values<uint64_t>(1, 7, 64, 100, 1000, 1023),
        ::testing::Values(1, 2, 3, 8)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_m" +
             std::to_string(std::get<1>(info.param)) + "_k" +
             std::to_string(std::get<2>(info.param));
    });

TEST(PartitionerTest, RoundRobinLayout) {
  RoundRobinPartitioner p(10, 3);
  EXPECT_EQ(p.Owner(0), 0);
  EXPECT_EQ(p.Owner(4), 1);
  EXPECT_EQ(p.LocalIndex(7), 2u);
  // 10 features over 3 workers: worker 0 gets 4 (0,3,6,9), others 3.
  EXPECT_EQ(p.LocalDim(0), 4u);
  EXPECT_EQ(p.LocalDim(1), 3u);
  EXPECT_EQ(p.LocalDim(2), 3u);
}

TEST(PartitionerTest, RangeLayout) {
  RangePartitioner p(10, 3);  // stride ceil(10/3)=4
  EXPECT_EQ(p.Owner(0), 0);
  EXPECT_EQ(p.Owner(4), 1);
  EXPECT_EQ(p.Owner(9), 2);
  EXPECT_EQ(p.LocalDim(0), 4u);
  EXPECT_EQ(p.LocalDim(2), 2u);  // 8,9
}

TEST(PartitionerTest, BlockCyclicDegeneratesToRoundRobin) {
  BlockCyclicPartitioner cyclic(100, 4, 1);
  RoundRobinPartitioner rr(100, 4);
  for (uint64_t f = 0; f < 100; ++f) {
    EXPECT_EQ(cyclic.Owner(f), rr.Owner(f));
    EXPECT_EQ(cyclic.LocalIndex(f), rr.LocalIndex(f));
  }
}

TEST(PartitionerTest, FactoryRejectsUnknownName) {
  EXPECT_DEATH(MakePartitioner("bogus", 10, 2), "unknown partitioner");
}

TEST(PartitionerTest, CreateRefusesBadNamesWithoutDying) {
  for (const char* name :
       {"bogus", "", "Range", "block_cyclic_", "block_cyclic_0",
        "block_cyclic_x", "block_cyclic_3x", "block_cyclic_-1",
        "block_cyclic_+3", "block_cyclic_ 3",
        "block_cyclic_18446744073709551616",
        "block_cyclic_99999999999999999999999"}) {
    Result<std::unique_ptr<ColumnPartitioner>> partitioner =
        CreatePartitioner(name, 10, 2);
    ASSERT_FALSE(partitioner.ok()) << name;
    EXPECT_TRUE(partitioner.status().IsInvalidArgument()) << name;
  }
  // The largest chunk is a valid name: all ten features fall in worker 0's
  // first chunk.
  Result<std::unique_ptr<ColumnPartitioner>> widest =
      CreatePartitioner("block_cyclic_18446744073709551615", 10, 2);
  ASSERT_TRUE(widest.ok()) << widest.status().ToString();
  EXPECT_EQ((*widest)->LocalDim(0), 10u);
  EXPECT_EQ((*widest)->LocalDim(1), 0u);
  EXPECT_EQ((*widest)->GlobalIndex(0, 9), 9u);
}

TEST(PartitionerTest, FactoryNamesRoundTrip) {
  EXPECT_EQ(MakePartitioner("round_robin", 10, 2)->name(), "round_robin");
  EXPECT_EQ(MakePartitioner("range", 10, 2)->name(), "range");
  EXPECT_EQ(MakePartitioner("block_cyclic_16", 100, 2)->name(),
            "block_cyclic_16");
}

// Load-balance property motivating round-robin over range for skewed data:
// with popularity concentrated on low feature ids, round-robin spreads hot
// features evenly while range piles them on worker 0.
TEST(PartitionerTest, RoundRobinBalancesSkewedPopularity) {
  const uint64_t m = 1000;
  const int k = 4;
  RoundRobinPartitioner rr(m, k);
  RangePartitioner range(m, k);
  // Popularity weight of feature f: ~1/(f+1) (Zipf-ish).
  std::vector<double> rr_load(k, 0.0), range_load(k, 0.0);
  for (uint64_t f = 0; f < m; ++f) {
    const double w = 1.0 / static_cast<double>(f + 1);
    rr_load[rr.Owner(f)] += w;
    range_load[range.Owner(f)] += w;
  }
  auto imbalance = [&](const std::vector<double>& load) {
    double max = 0, sum = 0;
    for (double l : load) {
      max = std::max(max, l);
      sum += l;
    }
    return max / (sum / load.size());
  };
  EXPECT_LT(imbalance(rr_load), 1.5);
  EXPECT_GT(imbalance(range_load), 2.0);
}

}  // namespace
}  // namespace colsgd
