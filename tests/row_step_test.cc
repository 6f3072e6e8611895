// Tests for engine/row_step.h's worker step: the distinct-key counts per
// shard that RowWorkerStep::Draw takes for the PS engines' key sets and
// MLlib's sparse push, against sort + unique + % num_shards over the drawn
// rows' indices. (RowScheduleTest in engine_equivalence_test.cc covers the
// forward, the filing and ShardedUpdate.)
#include "engine/row_step.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "engine/row_sampling.h"
#include "gtest/gtest.h"

namespace colsgd {
namespace {

/// Blocks of `sizes` rows, each row 1-30 distinct ascending feature ids. Like
/// kdd12-sim's, the ids are skewed low: three in four come from the first
/// `hot` ids, so rows repeat them; the rest from [0, num_features).
std::vector<RowBlock> SkewedBlocks(const std::vector<size_t>& sizes,
                                   uint32_t num_features, uint32_t hot,
                                   uint64_t seed) {
  Rng rng(seed);
  std::vector<RowBlock> blocks;
  for (size_t size : sizes) {
    RowBlock block;
    block.block_id = blocks.size();
    for (size_t r = 0; r < size; ++r) {
      const size_t nnz = 1 + rng.NextBounded(30);
      std::vector<uint32_t> ids;
      while (ids.size() < nnz) {
        const uint32_t f = static_cast<uint32_t>(
            rng.NextBounded(4) != 0 ? rng.NextBounded(hot)
                                    : rng.NextBounded(num_features));
        if (std::find(ids.begin(), ids.end(), f) == ids.end()) ids.push_back(f);
      }
      std::sort(ids.begin(), ids.end());
      const std::vector<float> values(ids.size(), 1.0f);
      block.rows.AppendRow(ids.data(), values.data(), ids.size());
      block.labels.push_back(r % 2 == 0 ? 1.0f : -1.0f);
    }
    blocks.push_back(std::move(block));
  }
  return blocks;
}

uint64_t TotalRows(const std::vector<RowBlock>& blocks) {
  uint64_t total = 0;
  for (const RowBlock& block : blocks) total += block.num_rows();
  return total;
}

/// The reference: every index of the batch, sorted, deduplicated, and
/// counted per shard f % num_shards.
std::vector<uint64_t> SortedCounts(const BatchView& batch, int num_shards) {
  std::vector<uint32_t> features;
  for (const SparseVectorView& row : batch.rows) {
    features.insert(features.end(), row.indices, row.indices + row.nnz);
  }
  std::sort(features.begin(), features.end());
  features.erase(std::unique(features.begin(), features.end()),
                 features.end());
  std::vector<uint64_t> counts(static_cast<size_t>(num_shards), 0);
  for (uint32_t f : features) ++counts[f % static_cast<uint32_t>(num_shards)];
  return counts;
}

TEST(RowWorkerStepTest, DistinctKeyCountsMatchSortAndUnique) {
  for (const int shards : {1, 3, 4, 8}) {
    for (const uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE("shards " + std::to_string(shards) + " seed " +
                   std::to_string(seed));
      const std::vector<RowBlock> blocks =
          SkewedBlocks({40, 25, 60}, 5000, 64, seed);
      const uint64_t total = TotalRows(blocks);
      RowWorkerStep step(1);
      // One step across iterations, as the engines keep it, with batches
      // from one row to more than the partition holds.
      int64_t iteration = 0;
      for (const size_t local_batch : {1u, 7u, 50u, 200u, 3u}) {
        step.Draw(blocks, total, local_batch,
                  WorkerIterationRng(seed, iteration++, 0), shards);
        ASSERT_EQ(step.batch.size(), local_batch);
        EXPECT_EQ(step.keys.counts(), SortedCounts(step.batch, shards))
            << "batch of " << local_batch;
        EXPECT_EQ(step.flops.flops(), kSampleFlops * local_batch);
      }
    }
  }
}

TEST(RowWorkerStepTest, EmptyBatchCountsZeroPerShard) {
  const std::vector<RowBlock> blocks = SkewedBlocks({10}, 100, 8, 4);
  const uint64_t total = TotalRows(blocks);
  RowWorkerStep step(1);
  step.Draw(blocks, total, 0, WorkerIterationRng(4, 0, 0), 3);
  EXPECT_EQ(step.batch.size(), 0u);
  EXPECT_EQ(step.keys.counts(), std::vector<uint64_t>(3, 0));
  // After a full batch too: the previous batch's keys are forgotten.
  step.Draw(blocks, total, 20, WorkerIterationRng(4, 1, 0), 3);
  EXPECT_EQ(step.keys.counts(), SortedCounts(step.batch, 3));
  step.Draw(blocks, total, 0, WorkerIterationRng(4, 2, 0), 3);
  EXPECT_EQ(step.keys.counts(), std::vector<uint64_t>(3, 0));
  // No shards: nothing counted.
  step.Draw(blocks, total, 20, WorkerIterationRng(4, 3, 0), 0);
  EXPECT_TRUE(step.keys.counts().empty());
}

TEST(RowWorkerStepTest, LaterBatchOutgrowsTheTableAndReusesIt) {
  // A small batch sizes the table; a later one with thousands of distinct
  // keys grows it several times over; smaller ones then reuse the grown
  // table, whose entries from earlier batches must not count.
  const std::vector<RowBlock> blocks =
      SkewedBlocks({500, 700}, 200000, 32, 9);
  const uint64_t total = TotalRows(blocks);
  RowWorkerStep step(1);
  int64_t iteration = 0;
  for (const size_t local_batch : {2u, 1200u, 5u, 1200u, 40u}) {
    for (const int shards : {4, 8}) {
      step.Draw(blocks, total, local_batch,
                WorkerIterationRng(9, iteration++, 2), shards);
      EXPECT_EQ(step.keys.counts(), SortedCounts(step.batch, shards))
          << "batch of " << local_batch << ", " << shards << " shards";
    }
  }
}

TEST(ShardKeyCounterTest, CountsEachFeatureOncePerReset) {
  ShardKeyCounter counter;
  counter.Reset(2);
  const uint32_t top = std::numeric_limits<uint32_t>::max();  // shard 1
  for (uint32_t f : {0u, top, 0u, 2u, top, 3u, 0u}) counter.Insert(f);
  EXPECT_EQ(counter.counts(), (std::vector<uint64_t>{2, 2}));
  counter.Reset(2);
  counter.Insert(top);
  EXPECT_EQ(counter.counts(), (std::vector<uint64_t>{0, 1}));
}

}  // namespace
}  // namespace colsgd
