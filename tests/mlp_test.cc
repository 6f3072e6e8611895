// Tests for the column-partitioned MLP (Section III-C): finite-difference
// checks of both the partitioned input layer and the shared output layer,
// exactness across cluster sizes, and end-to-end convergence on a nonlinear
// (XOR-like) task that no linear model can fit.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "datagen/synthetic.h"
#include "engine/columnsgd.h"
#include "model/mlp.h"
#include "storage/partitioner.h"

namespace colsgd {
namespace {

constexpr uint64_t kFeatures = 17;
constexpr int kHidden = 5;

struct TestCase {
  CsrBatch rows;
  std::vector<float> labels;
  std::vector<double> weights;  // global layout, kFeatures * kHidden
  std::vector<double> shared;

  BatchView View() const {
    BatchView view;
    for (size_t i = 0; i < rows.num_rows(); ++i) {
      view.rows.push_back(rows.Row(i));
      view.labels.push_back(labels[i]);
    }
    return view;
  }
};

TestCase MakeCase(const MlpModel& mlp, size_t batch, uint64_t seed) {
  Rng rng(seed);
  TestCase tc;
  for (size_t i = 0; i < batch; ++i) {
    SparseRow row;
    for (uint64_t f = 0; f < kFeatures; ++f) {
      if (rng.NextBernoulli(0.5)) {
        row.Push(static_cast<uint32_t>(f),
                 static_cast<float>(rng.NextUniform(-1.0, 1.0)));
      }
    }
    if (row.nnz() == 0) row.Push(0, 1.0f);
    tc.rows.AppendRow(row);
    tc.labels.push_back(rng.NextBernoulli(0.5) ? 1.0f : -1.0f);
  }
  tc.weights.resize(kFeatures * kHidden);
  for (size_t i = 0; i < tc.weights.size(); ++i) {
    tc.weights[i] = 0.4 * GaussianFromHash(i, seed + 1);
  }
  tc.shared.resize(mlp.num_shared_params());
  for (size_t i = 0; i < tc.shared.size(); ++i) {
    tc.shared[i] = 0.3 * GaussianFromHash(1000 + i, seed + 2);
  }
  return tc;
}

double BatchLoss(const MlpModel& mlp, const TestCase& tc) {
  std::vector<double> stats(tc.labels.size() * kHidden, 0.0);
  BatchView view = tc.View();
  mlp.ComputePartialStats(view, tc.weights, &stats, nullptr);
  return mlp.BatchLossFromStatsShared(stats, tc.labels, tc.shared);
}

TEST(MlpTest, InterfaceShape) {
  MlpModel mlp(kHidden);
  EXPECT_EQ(mlp.name(), "mlp5");
  EXPECT_EQ(mlp.weights_per_feature(), kHidden);
  EXPECT_EQ(mlp.stats_per_point(), kHidden);
  EXPECT_EQ(mlp.num_shared_params(), 2 * kHidden + 1u);
  // w2 initialized nonzero, biases zero.
  EXPECT_NE(mlp.InitSharedParam(0, 7), 0.0);
  EXPECT_EQ(mlp.InitSharedParam(kHidden, 7), 0.0);
  EXPECT_EQ(mlp.InitSharedParam(kHidden + 1, 7), 0.0);
  EXPECT_NE(mlp.InitWeight(3, 2, 7), 0.0);
}

TEST(MlpTest, FiniteDifferenceInputLayerGradient) {
  MlpModel mlp(kHidden);
  TestCase tc = MakeCase(mlp, 5, 11);
  BatchView view = tc.View();

  std::vector<double> stats(tc.labels.size() * kHidden, 0.0);
  mlp.ComputePartialStats(view, tc.weights, &stats, nullptr);
  GradAccumulator grad(tc.weights.size(), kHidden);
  std::vector<double> shared_grad(mlp.num_shared_params(), 0.0);
  mlp.AccumulateGradFromStatsShared(view, stats, tc.weights, tc.shared, &grad,
                                    &shared_grad, nullptr);

  const double h = 1e-6;
  for (uint64_t slot = 0; slot < tc.weights.size(); slot += 7) {
    TestCase perturbed = tc;
    perturbed.weights[slot] += h;
    const double up = BatchLoss(mlp, perturbed);
    perturbed.weights[slot] -= 2 * h;
    const double down = BatchLoss(mlp, perturbed);
    const double numeric = (up - down) / (2 * h);
    EXPECT_NEAR(grad.value(slot), numeric,
                1e-4 * std::max(1.0, std::fabs(numeric)))
        << "W1 slot " << slot;
  }
}

TEST(MlpTest, FiniteDifferenceSharedLayerGradient) {
  MlpModel mlp(kHidden);
  TestCase tc = MakeCase(mlp, 5, 13);
  BatchView view = tc.View();

  std::vector<double> stats(tc.labels.size() * kHidden, 0.0);
  mlp.ComputePartialStats(view, tc.weights, &stats, nullptr);
  GradAccumulator grad(tc.weights.size(), kHidden);
  std::vector<double> shared_grad(mlp.num_shared_params(), 0.0);
  mlp.AccumulateGradFromStatsShared(view, stats, tc.weights, tc.shared, &grad,
                                    &shared_grad, nullptr);

  const double h = 1e-6;
  for (size_t i = 0; i < mlp.num_shared_params(); ++i) {
    TestCase perturbed = tc;
    perturbed.shared[i] += h;
    const double up = BatchLoss(mlp, perturbed);
    perturbed.shared[i] -= 2 * h;
    const double down = BatchLoss(mlp, perturbed);
    const double numeric = (up - down) / (2 * h);
    EXPECT_NEAR(shared_grad[i], numeric,
                1e-4 * std::max(1.0, std::fabs(numeric)))
        << "shared slot " << i;
  }
}

TEST(MlpTest, StatsAreAdditiveAcrossColumnPartitions) {
  MlpModel mlp(kHidden);
  TestCase tc = MakeCase(mlp, 8, 17);
  BatchView view = tc.View();
  std::vector<double> full(tc.labels.size() * kHidden, 0.0);
  mlp.ComputePartialStats(view, tc.weights, &full, nullptr);

  for (int k : {2, 3}) {
    RoundRobinPartitioner partitioner(kFeatures, k);
    std::vector<double> sum(full.size(), 0.0);
    for (int w = 0; w < k; ++w) {
      std::vector<double> local(partitioner.LocalDim(w) * kHidden, 0.0);
      for (uint64_t lf = 0; lf < partitioner.LocalDim(w); ++lf) {
        const uint64_t f = partitioner.GlobalIndex(w, lf);
        for (int c = 0; c < kHidden; ++c) {
          local[lf * kHidden + c] = tc.weights[f * kHidden + c];
        }
      }
      CsrBatch shard;
      for (size_t i = 0; i < tc.rows.num_rows(); ++i) {
        SparseRow shard_row;
        const SparseVectorView row = tc.rows.Row(i);
        for (size_t j = 0; j < row.nnz; ++j) {
          if (partitioner.Owner(row.indices[j]) == w) {
            shard_row.Push(
                static_cast<uint32_t>(partitioner.LocalIndex(row.indices[j])),
                row.values[j]);
          }
        }
        shard.AppendRow(shard_row);
      }
      BatchView shard_view;
      for (size_t i = 0; i < shard.num_rows(); ++i) {
        shard_view.rows.push_back(shard.Row(i));
      }
      shard_view.labels = tc.labels;
      std::vector<double> partial(full.size(), 0.0);
      mlp.ComputePartialStats(shard_view, local, &partial, nullptr);
      for (size_t i = 0; i < partial.size(); ++i) sum[i] += partial[i];
    }
    for (size_t i = 0; i < full.size(); ++i) {
      ASSERT_NEAR(sum[i], full[i], 1e-9) << "k=" << k;
    }
  }
}

TEST(MlpTest, RowPathIsUnsupported) {
  MlpModel mlp(kHidden);
  TestCase tc = MakeCase(mlp, 1, 19);
  GradAccumulator grad(tc.weights.size(), kHidden);
  EXPECT_DEATH(mlp.AccumulateRowGradient(tc.rows.Row(0), 1.0f, tc.weights,
                                         &grad, nullptr),
               "column framework");
  EXPECT_DEATH(mlp.RowLoss(tc.rows.Row(0), 1.0f, tc.weights, nullptr),
               "column framework");
}

TEST(MlpEngineTest, ExactAcrossClusterSizes) {
  SyntheticSpec spec = TinySpec();
  spec.num_rows = 1500;
  spec.num_features = 120;
  Dataset d = GenerateSynthetic(spec);
  TrainConfig config;
  config.model = "mlp4";
  config.learning_rate = 0.5;
  config.batch_size = 64;
  config.block_rows = 256;

  std::vector<std::vector<double>> models;
  std::vector<std::vector<double>> shareds;
  for (int workers : {1, 4}) {
    ClusterSpec cluster = ClusterSpec::Cluster1();
    cluster.num_workers = workers;
    ColumnSgdEngine engine(cluster, config);
    ASSERT_TRUE(engine.Setup(d).ok());
    for (int i = 0; i < 8; ++i) ASSERT_TRUE(engine.RunIteration(i).ok());
    models.push_back(engine.FullModel());
    shareds.push_back(engine.shared_params());
  }
  ASSERT_EQ(models[0].size(), models[1].size());
  for (size_t i = 0; i < models[0].size(); ++i) {
    ASSERT_NEAR(models[0][i], models[1][i], 1e-9);
  }
  for (size_t i = 0; i < shareds[0].size(); ++i) {
    ASSERT_NEAR(shareds[0][i], shareds[1][i], 1e-9);
  }
}

TEST(MlpEngineTest, LearnsANonlinearConcept) {
  // XOR of two indicator features: impossible for any linear model, easy
  // for an MLP.
  Dataset d;
  d.num_features = 2;
  Rng rng(33);
  for (int i = 0; i < 4000; ++i) {
    SparseRow row;
    const bool a = rng.NextBernoulli(0.5);
    const bool b = rng.NextBernoulli(0.5);
    // Encode as +-1-valued dense pair so XOR is balanced.
    row.Push(0, a ? 1.0f : -1.0f);
    row.Push(1, b ? 1.0f : -1.0f);
    d.rows.AppendRow(row);
    d.labels.push_back((a ^ b) ? 1.0f : -1.0f);
  }

  TrainConfig config;
  config.model = "mlp8";
  config.learning_rate = 0.5;
  config.batch_size = 256;
  config.block_rows = 512;
  ClusterSpec cluster = ClusterSpec::Cluster1();
  cluster.num_workers = 2;
  ColumnSgdEngine engine(cluster, config);
  ASSERT_TRUE(engine.Setup(d).ok());
  double loss = 0.0;
  for (int i = 0; i < 800; ++i) {
    ASSERT_TRUE(engine.RunIteration(i).ok());
    loss = engine.last_batch_loss();
  }
  EXPECT_LT(loss, 0.25) << "MLP failed to fit XOR";
}

TEST(MlpEngineTest, WorksWithAdamAndBackup) {
  SyntheticSpec spec = TinySpec();
  spec.num_rows = 1200;
  spec.num_features = 90;
  Dataset d = GenerateSynthetic(spec);
  TrainConfig config;
  config.model = "mlp4";
  config.optimizer = "adam";
  config.learning_rate = 0.01;
  config.batch_size = 64;
  config.block_rows = 128;
  ClusterSpec cluster = ClusterSpec::Cluster1();
  cluster.num_workers = 4;
  ColumnSgdOptions options;
  options.backup = 1;
  ColumnSgdEngine engine(cluster, config, std::move(options));
  ASSERT_TRUE(engine.Setup(d).ok());
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(engine.RunIteration(i).ok());
  EXPECT_GT(engine.last_batch_loss(), 0.0);
  EXPECT_LT(engine.last_batch_loss(), std::log(2.0) + 0.1);
}

}  // namespace
}  // namespace colsgd
