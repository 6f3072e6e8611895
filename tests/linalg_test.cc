// Unit tests for linalg/: sparse views, CSR batches, dense helpers.
#include <gtest/gtest.h>

#include "linalg/dense.h"
#include "linalg/sparse.h"

namespace colsgd {
namespace {

TEST(SparseVectorViewTest, DotAgainstDense) {
  const uint32_t idx[] = {0, 2, 4};
  const float val[] = {1.0f, 2.0f, 3.0f};
  SparseVectorView v{idx, val, 3};
  std::vector<double> dense = {10, 0, 20, 0, 30};
  EXPECT_DOUBLE_EQ(v.Dot(dense), 10 + 40 + 90);
}

TEST(SparseVectorViewTest, EmptyRowDotIsZero) {
  SparseVectorView v{nullptr, nullptr, 0};
  std::vector<double> dense = {1, 2, 3};
  EXPECT_DOUBLE_EQ(v.Dot(dense), 0.0);
}

TEST(SparseVectorViewTest, AxpyInto) {
  const uint32_t idx[] = {1, 3};
  const float val[] = {2.0f, -1.0f};
  SparseVectorView v{idx, val, 2};
  std::vector<double> dense(4, 1.0);
  v.AxpyInto(0.5, &dense);
  EXPECT_DOUBLE_EQ(dense[0], 1.0);
  EXPECT_DOUBLE_EQ(dense[1], 2.0);
  EXPECT_DOUBLE_EQ(dense[2], 1.0);
  EXPECT_DOUBLE_EQ(dense[3], 0.5);
}

TEST(SparseVectorViewTest, SquaredNorm) {
  const uint32_t idx[] = {0, 1};
  const float val[] = {3.0f, 4.0f};
  SparseVectorView v{idx, val, 2};
  EXPECT_DOUBLE_EQ(v.SquaredNorm(), 25.0);
}

TEST(CsrBatchTest, AppendAndReadBack) {
  CsrBatch batch;
  SparseRow r1;
  r1.Push(0, 1.0f);
  r1.Push(5, 2.0f);
  batch.AppendRow(r1);
  batch.AppendEmptyRow();
  SparseRow r2;
  r2.Push(3, -1.0f);
  batch.AppendRow(r2);

  ASSERT_EQ(batch.num_rows(), 3u);
  EXPECT_EQ(batch.nnz(), 3u);
  EXPECT_EQ(batch.Row(0).nnz, 2u);
  EXPECT_EQ(batch.Row(1).nnz, 0u);
  EXPECT_EQ(batch.Row(2).nnz, 1u);
  EXPECT_EQ(batch.Row(0).indices[1], 5u);
  EXPECT_EQ(batch.Row(2).values[0], -1.0f);
}

TEST(CsrBatchTest, ByteSizeMatchesLayout) {
  CsrBatch batch;
  SparseRow r;
  r.Push(1, 1.0f);
  r.Push(2, 2.0f);
  batch.AppendRow(r);
  // 2 indices (4B) + 2 values (4B) + 2 offsets (8B).
  EXPECT_EQ(batch.ByteSize(), 2 * 4 + 2 * 4 + 2 * 8u);
}

TEST(CsrBatchTest, AdoptValidatesConsistency) {
  CsrBatch batch;
  batch.Adopt({1, 2}, {1.0f, 2.0f}, {0, 1, 2});
  EXPECT_EQ(batch.num_rows(), 2u);
  EXPECT_EQ(batch.Row(1).indices[0], 2u);
}

TEST(CsrBatchTest, AdoptRejectsMismatchedArrays) {
  CsrBatch batch;
  EXPECT_DEATH(batch.Adopt({1, 2}, {1.0f}, {0, 2}), "CHECK failed");
}

TEST(CsrBatchTest, RowOutOfRangeDies) {
  CsrBatch batch;
  EXPECT_DEATH(batch.Row(0), "CHECK failed");
}

TEST(DenseTest, AddInto) {
  std::vector<double> out = {21, 42};
  AddInto({1, 1}, &out);
  EXPECT_EQ(out, (std::vector<double>{22, 43}));
}

TEST(DenseTest, DotAndNorms) {
  EXPECT_DOUBLE_EQ(Dot({1, 2, 3}, {4, 5, 6}), 32.0);
  EXPECT_DOUBLE_EQ(SquaredNorm({3, 4}), 25.0);
}

TEST(DenseTest, MismatchedSizesDie) {
  std::vector<double> out = {1.0};
  EXPECT_DEATH(AddInto({1, 2}, &out), "CHECK failed");
}

}  // namespace
}  // namespace colsgd
