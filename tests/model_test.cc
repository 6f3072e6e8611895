// Model math tests: finite-difference gradient checks, equivalence of the
// column (statistics) path and the row path, statistics additivity across
// column partitions, and closed-form spot checks (including FM's Equation 10
// rewrite against the direct pairwise Equation 9).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "model/factory.h"
#include "model/fm.h"
#include "model/glm.h"
#include "model/mlr.h"
#include "storage/partitioner.h"

namespace colsgd {
namespace {

constexpr uint64_t kNumFeatures = 23;
constexpr uint64_t kSeed = 77;

struct TestBatch {
  CsrBatch rows;
  std::vector<float> labels;

  BatchView View() const {
    BatchView view;
    for (size_t i = 0; i < rows.num_rows(); ++i) {
      view.rows.push_back(rows.Row(i));
      view.labels.push_back(labels[i]);
    }
    return view;
  }
};

TestBatch MakeBatch(const ModelSpec& model, size_t batch, uint64_t seed) {
  Rng rng(seed);
  TestBatch out;
  const bool multiclass = model.name().rfind("mlr", 0) == 0;
  const int classes = multiclass ? model.stats_per_point() : 2;
  for (size_t i = 0; i < batch; ++i) {
    SparseRow row;
    for (uint64_t f = 0; f < kNumFeatures; ++f) {
      if (rng.NextBernoulli(0.4)) {
        row.Push(static_cast<uint32_t>(f),
                 static_cast<float>(rng.NextUniform(-1.0, 1.0)));
      }
    }
    if (row.nnz() == 0) row.Push(0, 1.0f);
    out.rows.AppendRow(row);
    if (multiclass) {
      out.labels.push_back(
          static_cast<float>(rng.NextBounded(static_cast<uint64_t>(classes))));
    } else {
      out.labels.push_back(rng.NextBernoulli(0.5) ? 1.0f : -1.0f);
    }
  }
  return out;
}

std::vector<double> MakeModelWeights(const ModelSpec& model, uint64_t seed) {
  std::vector<double> weights(kNumFeatures * model.weights_per_feature());
  for (size_t i = 0; i < weights.size(); ++i) {
    weights[i] = 0.3 * GaussianFromHash(i, seed);
  }
  return weights;
}

class ModelMathTest : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<ModelSpec> model_ = MakeModel(GetParam());
};

TEST_P(ModelMathTest, FiniteDifferenceGradientCheck) {
  const ModelSpec& model = *model_;
  TestBatch batch = MakeBatch(model, 6, 1);
  std::vector<double> weights = MakeModelWeights(model, 2);
  GradAccumulator grad(weights.size(), model.weights_per_feature());

  for (size_t i = 0; i < batch.rows.num_rows(); ++i) {
    const SparseVectorView row = batch.rows.Row(i);
    const float label = batch.labels[i];
    // Hinge loss is non-differentiable at margin 0; nudge away from the kink
    // by scaling weights if this sample sits near it.
    if (model.name() == "svm") {
      const double s = row.Dot(weights);
      if (std::fabs(1.0 - label * s) < 0.05) continue;
    }
    grad.Reset();
    model.AccumulateRowGradient(row, label, weights, &grad, nullptr);
    const double h = 1e-6;
    for (size_t j = 0; j < row.nnz; ++j) {
      for (int c = 0; c < model.weights_per_feature(); ++c) {
        const uint64_t slot =
            static_cast<uint64_t>(row.indices[j]) *
                model.weights_per_feature() +
            c;
        const double saved = weights[slot];
        weights[slot] = saved + h;
        const double up = model.RowLoss(row, label, weights, nullptr);
        weights[slot] = saved - h;
        const double down = model.RowLoss(row, label, weights, nullptr);
        weights[slot] = saved;
        const double numeric = (up - down) / (2 * h);
        EXPECT_NEAR(grad.value(slot), numeric,
                    1e-4 * std::max(1.0, std::fabs(numeric)))
            << model.name() << " row " << i << " slot " << slot;
      }
    }
  }
}

TEST_P(ModelMathTest, ColumnPathEqualsRowPath) {
  const ModelSpec& model = *model_;
  const int wpf = model.weights_per_feature();
  const int spp = model.stats_per_point();
  const size_t B = 16;
  TestBatch batch = MakeBatch(model, B, 3);
  std::vector<double> global = MakeModelWeights(model, 4);

  // Row path: gradient over the full batch against the full model.
  GradAccumulator row_grad(global.size(), wpf);
  for (size_t i = 0; i < B; ++i) {
    model.AccumulateRowGradient(batch.rows.Row(i), batch.labels[i], global,
                                &row_grad, nullptr);
  }
  double row_loss = 0.0;
  for (size_t i = 0; i < B; ++i) {
    row_loss += model.RowLoss(batch.rows.Row(i), batch.labels[i], global,
                              nullptr);
  }

  for (int k : {1, 2, 3, 5}) {
    auto partitioner = MakePartitioner("round_robin", kNumFeatures, k);
    // Build per-worker shards (local indices) and model partitions.
    std::vector<double> agg_stats(B * spp, 0.0);
    std::vector<CsrBatch> shards(k);
    std::vector<std::vector<double>> locals(k);
    for (int w = 0; w < k; ++w) {
      locals[w].assign(partitioner->LocalDim(w) * wpf, 0.0);
      for (uint64_t lf = 0; lf < partitioner->LocalDim(w); ++lf) {
        const uint64_t f = partitioner->GlobalIndex(w, lf);
        for (int c = 0; c < wpf; ++c) {
          locals[w][lf * wpf + c] = global[f * wpf + c];
        }
      }
      for (size_t i = 0; i < B; ++i) {
        const SparseVectorView row = batch.rows.Row(i);
        SparseRow shard_row;
        for (size_t j = 0; j < row.nnz; ++j) {
          if (partitioner->Owner(row.indices[j]) == w) {
            shard_row.Push(
                static_cast<uint32_t>(partitioner->LocalIndex(row.indices[j])),
                row.values[j]);
          }
        }
        shards[w].AppendRow(shard_row);
      }
    }
    // computeStat on every worker; reduceStat = element-wise sum.
    std::vector<BatchView> views(k);
    for (int w = 0; w < k; ++w) {
      for (size_t i = 0; i < B; ++i) views[w].rows.push_back(shards[w].Row(i));
      views[w].labels = batch.labels;
      std::vector<double> partial(B * spp, 0.0);
      model.ComputePartialStats(views[w], locals[w], &partial, nullptr);
      for (size_t i = 0; i < partial.size(); ++i) agg_stats[i] += partial[i];
    }
    // Loss from the aggregated statistics matches the row path.
    EXPECT_NEAR(model.BatchLossFromStats(agg_stats, batch.labels), row_loss,
                1e-9 * std::max(1.0, std::fabs(row_loss)))
        << model.name() << " k=" << k;
    // updateModel: per-worker gradients mapped back to global slots must
    // match the row-path gradient.
    for (int w = 0; w < k; ++w) {
      GradAccumulator local_grad(locals[w].size(), wpf);
      model.AccumulateGradFromStats(views[w], agg_stats, locals[w],
                                    &local_grad, nullptr);
      for (uint64_t first : local_grad.touched()) {
        const uint64_t lf = first / wpf;
        for (int c = 0; c < wpf; ++c) {
          const uint64_t global_slot =
              partitioner->GlobalIndex(w, lf) * wpf + c;
          EXPECT_NEAR(local_grad.value(first + c),
                      row_grad.value(global_slot), 1e-9)
              << model.name() << " k=" << k << " slot " << global_slot;
        }
      }
    }
  }
}

TEST_P(ModelMathTest, StatsSizesMatchInterface) {
  const ModelSpec& model = *model_;
  TestBatch batch = MakeBatch(model, 4, 9);
  std::vector<double> weights = MakeModelWeights(model, 10);
  std::vector<double> stats(4 * model.stats_per_point(), 0.0);
  BatchView view = batch.View();
  model.ComputePartialStats(view, weights, &stats, nullptr);
  // Mis-sized stats buffers must be rejected.
  std::vector<double> wrong(stats.size() + 1, 0.0);
  EXPECT_DEATH(model.ComputePartialStats(view, weights, &wrong, nullptr),
               "CHECK failed");
}

TEST_P(ModelMathTest, FlopsAreCounted) {
  const ModelSpec& model = *model_;
  TestBatch batch = MakeBatch(model, 4, 11);
  std::vector<double> weights = MakeModelWeights(model, 12);
  std::vector<double> stats(4 * model.stats_per_point(), 0.0);
  BatchView view = batch.View();
  FlopCounter flops;
  model.ComputePartialStats(view, weights, &stats, &flops);
  EXPECT_GT(flops.flops(), 0u);
  FlopCounter grad_flops;
  GradAccumulator grad(weights.size(), model.weights_per_feature());
  model.AccumulateGradFromStats(view, stats, weights, &grad, &grad_flops);
  EXPECT_GT(grad_flops.flops(), 0u);
}

TEST_P(ModelMathTest, FusedRowPathRecordsThePerRowSequence) {
  // RowBatchForwardGrad's contract (model_spec.h): its terms are, in order,
  // the Add calls of AccumulateRowGradient row by row, row_losses[i] is
  // RowLoss of row i, and the FLOP charge is the per-row sequence's, with
  // and without the loss pass.
  const ModelSpec& model = *model_;
  TestBatch batch = MakeBatch(model, 12, 21);
  const std::vector<double> weights = MakeModelWeights(model, 22);
  const BatchView view = batch.View();
  const int wpf = model.weights_per_feature();
  GradAccumulator per_row(weights.size(), wpf);
  std::vector<double> losses;
  FlopCounter loss_flops;
  FlopCounter grad_flops;
  for (size_t i = 0; i < view.size(); ++i) {
    losses.push_back(
        model.RowLoss(view.rows[i], view.labels[i], weights, &loss_flops));
    model.AccumulateRowGradient(view.rows[i], view.labels[i], weights,
                                &per_row, &grad_flops);
  }
  for (bool with_loss : {true, false}) {
    SCOPED_TRACE(with_loss ? "with loss" : "without loss");
    GradTerms terms(wpf);
    std::vector<double> row_losses(view.size(), 0.0);
    FlopCounter flops;
    model.RowBatchForwardGrad(view, weights, &terms,
                              with_loss ? row_losses.data() : nullptr, &flops);
    GradAccumulator fused(weights.size(), wpf);
    for (size_t i = 0; i < terms.size(); ++i) {
      fused.Add(terms.first_slot(i), terms.values(i));
    }
    EXPECT_EQ(fused.touched(), per_row.touched());
    EXPECT_EQ(fused.sums().size(), per_row.sums().size());
    for (size_t i = 0; i < per_row.sums().size(); ++i) {
      EXPECT_EQ(std::bit_cast<uint64_t>(fused.sums()[i]),
                std::bit_cast<uint64_t>(per_row.sums()[i]))
          << "index " << i;
    }
    EXPECT_EQ(flops.flops(),
              grad_flops.flops() + (with_loss ? loss_flops.flops() : 0));
    for (size_t i = 0; with_loss && i < view.size(); ++i) {
      EXPECT_EQ(std::bit_cast<uint64_t>(row_losses[i]),
                std::bit_cast<uint64_t>(losses[i]))
          << "row " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, ModelMathTest,
                         ::testing::Values("lr", "svm", "lsq", "mlr4", "fm5"),
                         [](const auto& info) { return info.param; });

/// The whole-block contract that makes a feature's block of
/// weights_per_feature() slots an exact unit of gradient bookkeeping: on both
/// paths, every model adds all slots [f * wpf, f * wpf + wpf) of feature f,
/// in ascending order, once for each occurrence of f in a row that
/// contributes a gradient, rows and nnz in order.
class WholeBlockContractTest : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<ModelSpec> model_ = MakeModel(GetParam());
};
/// The same, for the models with a row path.
class WholeBlockRowPathTest : public WholeBlockContractTest {};

/// The slots a model recorded into `terms`, one entry per slot added.
std::vector<uint64_t> RecordedSlots(const GradTerms& terms) {
  std::vector<uint64_t> slots;
  for (size_t i = 0; i < terms.size(); ++i) {
    for (int j = 0; j < terms.width(); ++j) {
      slots.push_back(terms.first_slot(i) + j);
    }
  }
  return slots;
}

/// The slots of grad.touched(), in order, one entry per slot.
std::vector<uint64_t> TouchedSlots(const GradAccumulator& grad) {
  std::vector<uint64_t> slots;
  for (uint64_t first : grad.touched()) {
    for (int j = 0; j < grad.width(); ++j) slots.push_back(first + j);
  }
  return slots;
}

/// The whole blocks of `features`, in order; with `first_only`, a feature
/// seen before is skipped, as in a first-touch order.
std::vector<uint64_t> WholeBlocks(const std::vector<uint32_t>& features,
                                  int wpf, bool first_only) {
  std::vector<uint64_t> slots;
  std::vector<uint8_t> seen(kNumFeatures, 0);
  for (uint32_t f : features) {
    if (first_only && seen[f]) continue;
    seen[f] = 1;
    for (int j = 0; j < wpf; ++j) {
      slots.push_back(static_cast<uint64_t>(f) * wpf + j);
    }
  }
  return slots;
}

/// The nnz features of the rows for which `contributes(i)` holds, in order.
template <class Contributes>
std::vector<uint32_t> FeatureOccurrences(const BatchView& view,
                                         Contributes contributes) {
  std::vector<uint32_t> features;
  for (size_t i = 0; i < view.size(); ++i) {
    if (!contributes(i)) continue;
    const SparseVectorView& row = view.rows[i];
    features.insert(features.end(), row.indices, row.indices + row.nnz);
  }
  return features;
}

BatchView RowOf(const BatchView& view, size_t i) {
  BatchView one;
  one.rows = {view.rows[i]};
  one.labels = {view.labels[i]};
  return one;
}

TEST_P(WholeBlockRowPathTest, RecordsWholeBlocks) {
  const ModelSpec& model = *model_;
  const int wpf = model.weights_per_feature();
  const TestBatch batch = MakeBatch(model, 12, 31);
  const std::vector<double> weights = MakeModelWeights(model, 32);
  const BatchView view = batch.View();
  GradTerms terms(wpf);
  model.RowBatchForwardGrad(view, weights, &terms, nullptr, nullptr);
  // A row contributes when it records terms on its own (a hinge outside the
  // margin records none).
  const std::vector<uint32_t> occurrences =
      FeatureOccurrences(view, [&](size_t i) {
        GradTerms one(wpf);
        model.RowBatchForwardGrad(RowOf(view, i), weights, &one, nullptr,
                                  nullptr);
        return one.size() != 0;
      });
  ASSERT_FALSE(occurrences.empty());
  EXPECT_EQ(RecordedSlots(terms),
            WholeBlocks(occurrences, wpf, /*first_only=*/false));
}

TEST_P(WholeBlockContractTest, ColumnPathTouchesWholeBlocks) {
  const ModelSpec& model = *model_;
  const int wpf = model.weights_per_feature();
  const int spp = model.stats_per_point();
  const TestBatch batch = MakeBatch(model, 12, 33);
  const std::vector<double> weights = MakeModelWeights(model, 34);
  std::vector<double> shared(model.num_shared_params());
  for (size_t i = 0; i < shared.size(); ++i) {
    shared[i] = model.InitSharedParam(i, kSeed);
  }
  const BatchView view = batch.View();
  std::vector<double> stats(view.size() * spp, 0.0);
  model.ComputePartialStats(view, weights, &stats, nullptr);
  // One partition holding the whole model: the statistics are the
  // aggregated ones. The MLP goes through the Shared overload.
  auto accumulate = [&](const BatchView& rows, const std::vector<double>& agg,
                        GradAccumulator* grad) {
    std::vector<double> shared_grad(shared.size(), 0.0);
    model.AccumulateGradFromStatsShared(rows, agg, weights, shared, grad,
                                        &shared_grad, nullptr);
  };
  GradAccumulator grad(weights.size(), wpf);
  accumulate(view, stats, &grad);
  const std::vector<uint32_t> occurrences =
      FeatureOccurrences(view, [&](size_t i) {
        GradAccumulator one(weights.size(), wpf);
        accumulate(RowOf(view, i),
                   std::vector<double>(stats.begin() + i * spp,
                                       stats.begin() + (i + 1) * spp),
                   &one);
        return !one.touched().empty();
      });
  ASSERT_FALSE(occurrences.empty());
  EXPECT_EQ(TouchedSlots(grad),
            WholeBlocks(occurrences, wpf, /*first_only=*/true));
}

INSTANTIATE_TEST_SUITE_P(AllModels, WholeBlockRowPathTest,
                         ::testing::Values("lr", "svm", "lsq", "mlr3", "fm4"),
                         [](const auto& info) { return info.param; });
INSTANTIATE_TEST_SUITE_P(AllModels, WholeBlockContractTest,
                         ::testing::Values("lr", "svm", "lsq", "mlr3", "fm4",
                                           "mlp8"),
                         [](const auto& info) { return info.param; });

TEST(LeastSquaresTest, QuadraticLossAndResidualCoeff) {
  LeastSquares lsq;
  EXPECT_DOUBLE_EQ(lsq.PointLoss(2.0, 5.0), 4.5);  // (5-2)^2/2
  EXPECT_DOUBLE_EQ(lsq.PointCoeff(2.0, 5.0), 3.0);
  EXPECT_DOUBLE_EQ(lsq.PointCoeff(2.0, 2.0), 0.0);
}

TEST(LrTest, CoeffAndLossClosedForm) {
  LogisticRegression lr;
  // At s=0: loss = log 2, coeff = -y/2.
  EXPECT_NEAR(lr.PointLoss(1.0, 0.0), std::log(2.0), 1e-12);
  EXPECT_NEAR(lr.PointCoeff(1.0, 0.0), -0.5, 1e-12);
  EXPECT_NEAR(lr.PointCoeff(-1.0, 0.0), 0.5, 1e-12);
  // Saturated cases stay finite.
  EXPECT_NEAR(lr.PointLoss(1.0, 100.0), 0.0, 1e-12);
  EXPECT_NEAR(lr.PointLoss(1.0, -100.0), 100.0, 1e-9);
  EXPECT_NEAR(lr.PointCoeff(1.0, 100.0), 0.0, 1e-12);
  EXPECT_NEAR(lr.PointCoeff(1.0, -100.0), -1.0, 1e-9);
}

TEST(SvmTest, HingeCoeffAndLoss) {
  LinearSvm svm;
  EXPECT_DOUBLE_EQ(svm.PointLoss(1.0, 2.0), 0.0);   // outside margin
  EXPECT_DOUBLE_EQ(svm.PointCoeff(1.0, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(svm.PointLoss(1.0, 0.5), 0.5);   // inside margin
  EXPECT_DOUBLE_EQ(svm.PointCoeff(1.0, 0.5), -1.0);
  EXPECT_DOUBLE_EQ(svm.PointLoss(-1.0, 0.5), 1.5);
  EXPECT_DOUBLE_EQ(svm.PointCoeff(-1.0, 0.5), 1.0);
}

TEST(MlrTest, GradientSumsToZeroAcrossClasses) {
  // sum_c (softmax_c - t_c) = 0, so per feature the class gradients cancel.
  MultinomialLogisticRegression mlr(4);
  TestBatch batch = MakeBatch(mlr, 8, 5);
  std::vector<double> weights = MakeModelWeights(mlr, 6);
  GradAccumulator grad(weights.size(), 4);
  for (size_t i = 0; i < batch.rows.num_rows(); ++i) {
    grad.Reset();
    mlr.AccumulateRowGradient(batch.rows.Row(i), batch.labels[i], weights,
                              &grad, nullptr);
    const SparseVectorView row = batch.rows.Row(i);
    for (size_t j = 0; j < row.nnz; ++j) {
      double sum = 0.0;
      for (int c = 0; c < 4; ++c) {
        sum += grad.value(static_cast<uint64_t>(row.indices[j]) * 4 + c);
      }
      EXPECT_NEAR(sum, 0.0, 1e-9);
    }
  }
}

TEST(FmTest, Equation10MatchesPairwiseEquation9) {
  // ScoreFromStats (the additive rewrite) must equal the direct
  // y(x) = <w,x> + sum_{i<j} <v_i, v_j> x_i x_j.
  const int F = 3;
  FactorizationMachine fm(F);
  const int wpf = 1 + F;
  TestBatch batch = MakeBatch(fm, 5, 21);
  std::vector<double> weights = MakeModelWeights(fm, 22);

  for (size_t i = 0; i < batch.rows.num_rows(); ++i) {
    const SparseVectorView row = batch.rows.Row(i);
    BatchView view;
    view.rows = {row};
    view.labels = {batch.labels[i]};
    std::vector<double> stats(wpf, 0.0);
    fm.ComputePartialStats(view, weights, &stats, nullptr);
    const double via_stats =
        stats[0] + 0.5 * (stats[1] * stats[1] + stats[2] * stats[2] +
                          stats[3] * stats[3]);

    double direct = 0.0;
    for (size_t a = 0; a < row.nnz; ++a) {
      direct += weights[static_cast<uint64_t>(row.indices[a]) * wpf] *
                row.values[a];
      for (size_t b = a + 1; b < row.nnz; ++b) {
        double vv = 0.0;
        for (int c = 1; c <= F; ++c) {
          vv += weights[static_cast<uint64_t>(row.indices[a]) * wpf + c] *
                weights[static_cast<uint64_t>(row.indices[b]) * wpf + c];
        }
        direct += vv * row.values[a] * row.values[b];
      }
    }
    EXPECT_NEAR(via_stats, direct, 1e-9) << "row " << i;
  }
}

TEST(FmTest, InitWeightsZeroLinearRandomFactors) {
  FactorizationMachine fm(4);
  EXPECT_DOUBLE_EQ(fm.InitWeight(13, 0, 9), 0.0);
  const double v = fm.InitWeight(13, 2, 9);
  EXPECT_NE(v, 0.0);
  EXPECT_LT(std::fabs(v), 0.1);  // small init
  EXPECT_EQ(fm.InitWeight(13, 2, 9), v);                // deterministic
  EXPECT_NE(fm.InitWeight(14, 2, 9), v);                // per-feature
  EXPECT_NE(fm.InitWeight(13, 3, 9), v);                // per-factor
}

TEST(GlmTest, InitWeightsAreZero) {
  LogisticRegression lr;
  EXPECT_DOUBLE_EQ(lr.InitWeight(5, 0, 3), 0.0);
}

TEST(FactoryTest, BuildsAllModels) {
  EXPECT_EQ(MakeModel("lr")->name(), "lr");
  EXPECT_EQ(MakeModel("svm")->name(), "svm");
  EXPECT_EQ(MakeModel("mlr7")->weights_per_feature(), 7);
  EXPECT_EQ(MakeModel("fm10")->stats_per_point(), 11);
  EXPECT_DEATH(MakeModel("resnet"), "unknown model");
}

TEST(FactoryTest, CreateModelRejectsBadNamesWithoutAborting) {
  EXPECT_EQ((*CreateModel("mlp16"))->name(), MakeModel("mlp16")->name());
  for (const char* bad :
       {"resnet", "", "mlp", "mlpx", "mlp0", "mlr1", "fm", "fm-3", "fm 3",
        "mlr9999999"}) {
    Result<std::unique_ptr<ModelSpec>> model = CreateModel(bad);
    EXPECT_EQ(model.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

// ---- InitialWeights: the pool fill equals the serial loop bitwise ---------

/// The serial loop InitialWeights replaced: local feature lf holds feature
/// global_index(lf).
template <typename GlobalIndexFn>
std::vector<double> SerialInitialWeights(const ModelSpec& model, uint64_t dim,
                                         uint64_t seed,
                                         GlobalIndexFn global_index) {
  const int wpf = model.weights_per_feature();
  std::vector<double> weights(dim * wpf, 0.0);
  for (uint64_t lf = 0; lf < dim; ++lf) {
    for (int j = 0; j < wpf; ++j) {
      weights[lf * wpf + j] = model.InitWeight(global_index(lf), j, seed);
    }
  }
  return weights;
}

void ExpectBytesEqual(const std::vector<double>& actual,
                      const std::vector<double>& expected,
                      const std::string& what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  if (actual.empty()) return;  // memcmp needs non-null pointers
  EXPECT_EQ(std::memcmp(actual.data(), expected.data(),
                        actual.size() * sizeof(double)),
            0)
      << what;
}

class InitialWeightsTest : public ::testing::TestWithParam<std::string> {};

TEST_P(InitialWeightsTest, PoolFillMatchesSerialLoopBitwise) {
  std::unique_ptr<ModelSpec> model = MakeModel(GetParam());
  constexpr uint64_t kChunk = kInitChunkFeatures;
  constexpr uint64_t seed = 31;
  for (uint64_t m :
       {uint64_t{0}, uint64_t{1}, kChunk - 1, kChunk, kChunk + 1,
        3 * kChunk + 7}) {
    ExpectBytesEqual(
        InitialWeights(*model, m, seed),
        SerialInitialWeights(*model, m, seed, [](uint64_t f) { return f; }),
        "global m=" + std::to_string(m));
    // Three partitions of 3m features: each local layout is about m
    // features long, so it meets the same chunk boundaries as the global one.
    for (const char* name : {"round_robin", "range", "block_cyclic_4"}) {
      std::unique_ptr<ColumnPartitioner> partitioner =
          MakePartitioner(name, 3 * m, 3);
      for (int part = 0; part < 3; ++part) {
        ExpectBytesEqual(
            InitialWeights(*model, *partitioner, part, seed),
            SerialInitialWeights(*model, partitioner->LocalDim(part), seed,
                                 [&](uint64_t lf) {
                                   return partitioner->GlobalIndex(part, lf);
                                 }),
            std::string(name) + " m=" + std::to_string(m) + " part " +
                std::to_string(part));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, InitialWeightsTest,
                         ::testing::Values("fm10", "mlp16", "mlr4", "lr"),
                         [](const auto& info) { return info.param; });

/// Adds g to `slot` of a width-1 accumulator.
void AddSlot(GradAccumulator* grad, uint64_t slot, double g) {
  grad->Add(slot, &g);
}

TEST(GradAccumulatorTest, TracksTouchedSlotsAndResets) {
  GradAccumulator grad(10, 1);
  AddSlot(&grad, 3, 1.0);
  AddSlot(&grad, 3, 2.0);
  AddSlot(&grad, 7, -1.0);
  EXPECT_EQ(grad.touched().size(), 2u);
  EXPECT_DOUBLE_EQ(grad.value(3), 3.0);
  EXPECT_DOUBLE_EQ(grad.value(7), -1.0);
  EXPECT_DOUBLE_EQ(grad.value(0), 0.0);
  grad.Reset();
  EXPECT_TRUE(grad.touched().empty());
  EXPECT_DOUBLE_EQ(grad.value(3), 0.0);
  AddSlot(&grad, 3, 5.0);  // accumulates cleanly after reset
  EXPECT_DOUBLE_EQ(grad.value(3), 5.0);
}

/// The accumulator's contract written out over a dense slot space: every
/// slot's sum starts at +0.0 and takes its additions in call order, and
/// touched() lists the slots in the order of their first Add.
struct DenseGradReference {
  explicit DenseGradReference(size_t num_slots)
      : sum(num_slots, 0.0), seen(num_slots, 0) {}

  void Add(uint64_t slot, double g) {
    if (!seen[slot]) {
      seen[slot] = 1;
      touched.push_back(slot);
    }
    sum[slot] += g;
  }

  void Reset() {
    for (uint64_t slot : touched) {
      sum[slot] = 0.0;
      seen[slot] = 0;
    }
    touched.clear();
  }

  std::vector<double> sum;
  std::vector<uint8_t> seen;
  std::vector<uint64_t> touched;
};

/// A gradient term value: mostly ordinary, often a signed zero or a
/// subnormal, whose first add tells +0.0 + g apart from g.
double DrawGradValue(Rng* rng) {
  switch (rng->NextBounded(8)) {
    case 0:
      return -0.0;
    case 1:
      return 0.0;
    case 2:
      return std::numeric_limits<double>::denorm_min() *
             static_cast<double>(1 + rng->NextBounded(1000)) *
             (rng->NextBounded(2) == 0 ? 1.0 : -1.0);
    default:
      return rng->NextUniform(-4.0, 4.0);
  }
}

TEST(GradAccumulatorTest, MatchesADenseReferenceBitForBit) {
  constexpr uint64_t kSlots = 1 << 15;
  // Distinct slots drawn per Reset round: growing well past any small
  // table, then shrinking back, then growing again.
  const std::vector<uint64_t> pool_sizes = {1,  3, 17,    200, 4000, 20000, 900,
                                            40, 0, 6, 12000, 300, 2};
  for (uint64_t seed : {1, 2, 3}) {
    Rng rng(seed);
    GradAccumulator grad(kSlots, 1);
    DenseGradReference ref(kSlots);
    for (size_t round = 0; round < pool_sizes.size(); ++round) {
      // Half the rounds draw runs of consecutive slots, the way a model adds
      // a feature's weights one after another; the others draw any slot.
      std::vector<uint64_t> pool;
      const bool runs = round % 2 == 0;
      while (pool.size() < pool_sizes[round]) {
        const uint64_t base = rng.NextBounded(kSlots);
        const uint64_t len = runs ? 1 + rng.NextBounded(11) : 1;
        for (uint64_t j = 0; j < len && base + j < kSlots; ++j) {
          pool.push_back(base + j);
        }
      }
      const size_t adds = 3 * pool.size();
      for (size_t i = 0; i < adds; ++i) {
        const uint64_t slot = pool[rng.NextBounded(pool.size())];
        const double g = DrawGradValue(&rng);
        grad.Add(slot, &g);
        ref.Add(slot, g);
      }
      ASSERT_EQ(grad.touched(), ref.touched)
          << "seed " << seed << " round " << round;
      ASSERT_EQ(grad.sums().size(), ref.touched.size());
      for (size_t i = 0; i < ref.touched.size(); ++i) {
        ASSERT_EQ(std::bit_cast<uint64_t>(grad.sums()[i]),
                  std::bit_cast<uint64_t>(ref.sum[ref.touched[i]]))
            << "seed " << seed << " round " << round << " index " << i;
      }
      for (uint64_t slot = 0; slot < kSlots; ++slot) {
        ASSERT_EQ(std::bit_cast<uint64_t>(grad.value(slot)),
                  std::bit_cast<uint64_t>(ref.sum[slot]))
            << "seed " << seed << " round " << round << " slot " << slot;
      }
      grad.Reset();
      ref.Reset();
      ASSERT_TRUE(grad.touched().empty());
    }
    for (uint64_t slot = 0; slot < kSlots; ++slot) {
      ASSERT_EQ(std::bit_cast<uint64_t>(grad.value(slot)),
                std::bit_cast<uint64_t>(0.0))
          << "seed " << seed << " slot " << slot << " after the last Reset";
    }
  }
}

TEST(GradAccumulatorTest, StoresOnlyTouchedSlotsOfAHugeSpace) {
  // 2^40 slots: eight terabytes as a dense store.
  constexpr uint64_t kSlots = uint64_t{1} << 40;
  GradAccumulator grad(kSlots, 1);
  AddSlot(&grad, kSlots - 1, 1.5);
  AddSlot(&grad, 0, -2.0);
  AddSlot(&grad, kSlots - 1, 0.25);
  EXPECT_EQ(grad.touched(), (std::vector<uint64_t>{kSlots - 1, 0}));
  EXPECT_EQ(grad.value(kSlots - 1), 1.75);
  EXPECT_EQ(grad.value(0), -2.0);
  EXPECT_EQ(grad.value(kSlots / 2), 0.0);
  EXPECT_DEATH(AddSlot(&grad, kSlots, 1.0), "CHECK failed");
}

TEST(GradAccumulatorTest, OutOfRangeSlotDies) {
  GradAccumulator grad(4, 1);
  EXPECT_DEATH(AddSlot(&grad, 4, 1.0), "CHECK failed");
}

TEST(GradAccumulatorTest, MatchesADenseReferenceInWholeBlocks) {
  // The contract at the block widths of real models (mlr3, fm10): seeded
  // whole-block adds, spelled out slot by slot for the dense reference.
  constexpr uint64_t kBlocks = 1 << 15;
  // Distinct blocks drawn per Reset round: growing well past any small
  // table, then shrinking back, then growing again.
  const std::vector<uint64_t> pool_sizes = {1,  3, 17,    200, 4000, 20000, 900,
                                            40, 0, 6, 12000, 300, 2};
  for (int width : {3, 11}) {
    const uint64_t slots = kBlocks * width;
    for (uint64_t seed : {1, 2}) {
      SCOPED_TRACE("width " + std::to_string(width) + " seed " +
                   std::to_string(seed));
      Rng rng(seed);
      GradAccumulator grad(slots, width);
      DenseGradReference ref(slots);
      std::vector<double> g(width);
      for (size_t round = 0; round < pool_sizes.size(); ++round) {
        std::vector<uint64_t> pool;
        while (pool.size() < pool_sizes[round]) {
          pool.push_back(rng.NextBounded(kBlocks) * width);
        }
        const size_t adds = 3 * pool.size();
        for (size_t i = 0; i < adds; ++i) {
          const uint64_t first = pool[rng.NextBounded(pool.size())];
          for (double& v : g) v = DrawGradValue(&rng);
          grad.Add(first, g.data());
          for (int j = 0; j < width; ++j) ref.Add(first + j, g[j]);
        }
        ASSERT_EQ(TouchedSlots(grad), ref.touched) << "round " << round;
        ASSERT_EQ(grad.sums().size(), ref.touched.size());
        for (size_t i = 0; i < ref.touched.size(); ++i) {
          ASSERT_EQ(std::bit_cast<uint64_t>(grad.sums()[i]),
                    std::bit_cast<uint64_t>(ref.sum[ref.touched[i]]))
              << "round " << round << " index " << i;
        }
        for (uint64_t slot = 0; slot < slots; ++slot) {
          ASSERT_EQ(std::bit_cast<uint64_t>(grad.value(slot)),
                    std::bit_cast<uint64_t>(ref.sum[slot]))
              << "round " << round << " slot " << slot;
        }
        grad.Reset();
        ref.Reset();
        ASSERT_TRUE(grad.touched().empty());
        ASSERT_TRUE(grad.sums().empty());
      }
      for (uint64_t slot = 0; slot < slots; ++slot) {
        ASSERT_EQ(std::bit_cast<uint64_t>(grad.value(slot)),
                  std::bit_cast<uint64_t>(0.0))
            << "slot " << slot << " after the last Reset";
      }
    }
  }
}

TEST(GradAccumulatorTest, AcceptsABlockAtTheTopOfAHugeSpace) {
  constexpr uint64_t kSlots = uint64_t{1} << 40;
  constexpr int kWidth = 11;
  // The last whole block; 2^40 is no multiple of 11, so the next aligned
  // block starts inside the space and runs past its end.
  const uint64_t top = (kSlots / kWidth - 1) * kWidth;
  GradAccumulator grad(kSlots, kWidth);
  std::vector<double> g(kWidth);
  for (int j = 0; j < kWidth; ++j) g[j] = 0.5 + j;
  grad.Add(top, g.data());
  grad.Add(0, g.data());
  grad.Add(top, g.data());
  EXPECT_EQ(grad.touched(), (std::vector<uint64_t>{top, 0}));
  EXPECT_EQ(grad.sums().size(), 2u * kWidth);
  EXPECT_EQ(grad.value(top), 1.0);
  EXPECT_EQ(grad.value(top + kWidth - 1), 21.0);
  EXPECT_EQ(grad.value(kWidth - 1), 10.5);
  EXPECT_EQ(grad.value(kSlots / 2), 0.0);
  EXPECT_DEATH(grad.Add(top + kWidth, g.data()), "CHECK failed");
}

TEST(GradAccumulatorTest, MisalignedOrOutOfRangeBlockDies) {
  const double g[3] = {1.0, 2.0, 3.0};
  GradAccumulator grad(12, 3);
  grad.Add(9, g);  // the last block
  EXPECT_EQ(grad.value(11), 3.0);
  EXPECT_DEATH(grad.Add(1, g), "CHECK failed");
  EXPECT_DEATH(grad.Add(5, g), "CHECK failed");
  EXPECT_DEATH(grad.Add(12, g), "CHECK failed");
  EXPECT_DEATH(grad.Add(uint64_t{1} << 62, g), "CHECK failed");
  GradAccumulator ragged(10, 3);  // slot 9 starts a block that cannot fit
  EXPECT_DEATH(ragged.Add(9, g), "CHECK failed");
  // Even widths too (the check splits a width into odd << shift): every
  // aligned block that fits is taken, its neighbours' first slots die.
  std::vector<double> v(16, 1.0);
  for (int width : {2, 6, 8, 12, 16}) {
    SCOPED_TRACE("width " + std::to_string(width));
    const uint64_t slots = 5 * width + width / 2;
    GradAccumulator even(slots, width);
    for (uint64_t first = 0; first + width <= slots; first += width) {
      even.Add(first, v.data());
    }
    EXPECT_EQ(even.touched().size(), 5u);
    EXPECT_DEATH(even.Add(width / 2, v.data()), "CHECK failed");
    EXPECT_DEATH(even.Add(2 * width - 1, v.data()), "CHECK failed");
    EXPECT_DEATH(even.Add(5 * width, v.data()), "CHECK failed");
  }
}

}  // namespace
}  // namespace colsgd
