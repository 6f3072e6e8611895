// Tests for the synthetic data generators.
#include <gtest/gtest.h>

#include "datagen/synthetic.h"

namespace colsgd {
namespace {

TEST(SyntheticTest, DeterministicInSeed) {
  SyntheticSpec spec = TinySpec();
  Dataset a = GenerateSynthetic(spec);
  Dataset b = GenerateSynthetic(spec);
  ASSERT_EQ(a.num_rows(), b.num_rows());
  EXPECT_EQ(a.rows.indices(), b.rows.indices());
  EXPECT_EQ(a.rows.values(), b.rows.values());
  EXPECT_EQ(a.labels, b.labels);
  spec.seed += 1;
  Dataset c = GenerateSynthetic(spec);
  EXPECT_NE(a.rows.indices(), c.rows.indices());
}

TEST(SyntheticTest, MatchesSpecShape) {
  SyntheticSpec spec;
  spec.num_rows = 5000;
  spec.num_features = 2000;
  spec.avg_nnz_per_row = 10;
  spec.skew = 0.5;
  Dataset d = GenerateSynthetic(spec);
  EXPECT_EQ(d.num_rows(), 5000u);
  EXPECT_EQ(d.num_features, 2000u);
  // Dedup trims a little; allow slack.
  EXPECT_NEAR(d.AvgNnzPerRow(), 10.0, 2.5);
  for (size_t i = 0; i < d.num_rows(); ++i) {
    const SparseVectorView row = d.rows.Row(i);
    ASSERT_GE(row.nnz, 1u);
    for (size_t j = 0; j < row.nnz; ++j) {
      ASSERT_LT(row.indices[j], d.num_features);
      if (j > 0) {
        ASSERT_LT(row.indices[j - 1], row.indices[j]);  // sorted uniq
      }
    }
  }
}

TEST(SyntheticTest, BinaryLabelsAreSigns) {
  Dataset d = GenerateSynthetic(TinySpec());
  int positives = 0;
  for (float label : d.labels) {
    ASSERT_TRUE(label == 1.0f || label == -1.0f);
    if (label > 0) ++positives;
  }
  // Planted-model labels should be reasonably balanced, not constant.
  EXPECT_GT(positives, static_cast<int>(d.num_rows() / 5));
  EXPECT_LT(positives, static_cast<int>(4 * d.num_rows() / 5));
}

TEST(SyntheticTest, LabelsAreLearnable) {
  // The planted model itself should separate the data far better than
  // chance: check sign agreement of the planted scores.
  SyntheticSpec spec = TinySpec();
  spec.label_noise = 4.0;  // low temperature -> clean labels
  Dataset d = GenerateSynthetic(spec);
  int agree = 0;
  for (size_t i = 0; i < d.num_rows(); ++i) {
    const SparseVectorView row = d.rows.Row(i);
    double score = 0.0;
    for (size_t j = 0; j < row.nnz; ++j) {
      score += PlantedWeight(row.indices[j], spec.seed) * row.values[j];
    }
    if ((score > 0) == (d.labels[i] > 0)) ++agree;
  }
  EXPECT_GT(static_cast<double>(agree) / d.num_rows(), 0.75);
}

TEST(SyntheticTest, MulticlassLabelsInRange) {
  SyntheticSpec spec = TinySpec();
  spec.num_classes = 5;
  Dataset d = GenerateSynthetic(spec);
  std::vector<int> counts(5, 0);
  for (float label : d.labels) {
    const int c = static_cast<int>(label);
    ASSERT_GE(c, 0);
    ASSERT_LT(c, 5);
    counts[c]++;
  }
  for (int c = 0; c < 5; ++c) EXPECT_GT(counts[c], 0) << "class " << c;
}

TEST(SyntheticTest, SkewConcentratesOnLowIds) {
  SyntheticSpec spec;
  spec.num_rows = 3000;
  spec.num_features = 10000;
  spec.avg_nnz_per_row = 20;
  spec.skew = 0.3;
  Dataset d = GenerateSynthetic(spec);
  uint64_t low = 0;
  for (size_t j = 0; j < d.rows.indices().size(); ++j) {
    if (d.rows.indices()[j] < d.num_features / 10) ++low;
  }
  // With skew=0.3, far more than 10% of mass falls in the lowest decile.
  EXPECT_GT(static_cast<double>(low) / d.nnz(), 0.4);
}

TEST(SyntheticTest, PresetSpecsMatchDesignDoc) {
  EXPECT_EQ(AvazuSimSpec().num_features, 1000000u);
  EXPECT_EQ(KddbSimSpec().num_features, 3000000u);
  EXPECT_EQ(Kdd12SimSpec().num_features, 5400000u);
  EXPECT_EQ(WxSimSpec().num_features, 4000000u);
  EXPECT_EQ(CriteoSimSpec(123).num_features, 123u);
  // Dimension ordering matches the paper: avazu << kddb < kdd12.
  EXPECT_LT(AvazuSimSpec().num_features, KddbSimSpec().num_features);
  EXPECT_LT(KddbSimSpec().num_features, Kdd12SimSpec().num_features);
}

TEST(SyntheticTest, TinyDimensionsClampNnz) {
  SyntheticSpec spec = CriteoSimSpec(3);
  spec.num_rows = 100;
  Dataset d = GenerateSynthetic(spec);
  for (size_t i = 0; i < d.num_rows(); ++i) {
    ASSERT_LE(d.rows.Row(i).nnz, 3u);
  }
}

}  // namespace
}  // namespace colsgd
