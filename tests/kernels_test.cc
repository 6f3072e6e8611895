// The executed kernel layer (DESIGN.md §18) and its calibration loop
// (DESIGN.md §12):
//  * scalar / simd / threaded modes are BITWISE-identical — on the raw
//    kernels (including empty rows, single-nnz rows, and dense columns) and
//    on end-to-end trained weights for every engine x model pair, under SSP
//    slack, and through the sharded serving path.
//  * the thread pool covers every index exactly once, also with concurrent
//    and nested callers.
//  * calibration profiles round-trip through JSON and reject garbage.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "datagen/synthetic.h"
#include "engine/trainer.h"
#include "linalg/kernels/calibrate.h"
#include "linalg/kernels/kernels.h"
#include "linalg/kernels/thread_pool.h"
#include "model/factory.h"
#include "serve/inference.h"

namespace colsgd {
namespace {

using kernels::KernelMode;
using kernels::ScopedKernelMode;

constexpr KernelMode kAllModes[] = {KernelMode::kScalar, KernelMode::kSimd,
                                    KernelMode::kThreaded};

// ---- Mode plumbing -------------------------------------------------------

TEST(KernelModeTest, ParseRoundTripsEveryMode) {
  for (KernelMode mode : kAllModes) {
    KernelMode parsed = KernelMode::kScalar;
    EXPECT_TRUE(kernels::ParseKernelMode(kernels::KernelModeName(mode),
                                         &parsed));
    EXPECT_EQ(parsed, mode);
  }
}

TEST(KernelModeTest, ParseRejectsUnknownNamesUntouched) {
  KernelMode mode = KernelMode::kSimd;
  EXPECT_FALSE(kernels::ParseKernelMode("avx512", &mode));
  EXPECT_FALSE(kernels::ParseKernelMode("", &mode));
  EXPECT_FALSE(kernels::ParseKernelMode("Scalar", &mode));
  EXPECT_EQ(mode, KernelMode::kSimd);
}

TEST(KernelModeTest, ScopedModeRestores) {
  kernels::SetMode(KernelMode::kScalar);
  {
    ScopedKernelMode scoped(KernelMode::kThreaded);
    EXPECT_EQ(kernels::CurrentMode(), KernelMode::kThreaded);
  }
  EXPECT_EQ(kernels::CurrentMode(), KernelMode::kScalar);
}

// ---- Raw kernel equivalence ----------------------------------------------

/// A batch exercising the shapes column partitioning produces: empty rows,
/// single-nnz rows, runs of short rows, and one fully dense column/row.
CsrBatch EdgeCaseBatch(uint64_t dim, uint64_t seed) {
  Rng rng(seed);
  CsrBatch batch;
  batch.AppendEmptyRow();  // empty shard slice
  {
    const uint32_t idx = static_cast<uint32_t>(dim / 2);
    const float val = 2.5f;
    batch.AppendRow(&idx, &val, 1);  // single-nnz row
  }
  {
    std::vector<uint32_t> idx(dim);  // dense row: every column occupied
    std::vector<float> val(dim);
    for (uint64_t f = 0; f < dim; ++f) {
      idx[f] = static_cast<uint32_t>(f);
      val[f] = static_cast<float>(rng.NextDouble() * 2.0 - 1.0);
    }
    batch.AppendRow(idx.data(), val.data(), idx.size());
  }
  for (int i = 0; i < 61; ++i) {  // odd count: partial thread-pool chunks
    std::vector<uint32_t> idx;
    std::vector<float> val;
    const int nnz = 1 + static_cast<int>(rng.NextDouble() * 9.0);
    uint32_t f = static_cast<uint32_t>(rng.NextDouble() * 7.0);
    for (int j = 0; j < nnz && f < dim; ++j) {
      idx.push_back(f);
      val.push_back(static_cast<float>(rng.NextDouble() * 2.0 - 1.0));
      f += 1 + static_cast<uint32_t>(rng.NextDouble() * (dim / nnz));
    }
    batch.AppendRow(idx.data(), val.data(), idx.size());
  }
  batch.AppendEmptyRow();
  return batch;
}

std::vector<SparseVectorView> Views(const CsrBatch& batch) {
  std::vector<SparseVectorView> rows;
  for (size_t i = 0; i < batch.num_rows(); ++i) rows.push_back(batch.Row(i));
  return rows;
}

std::vector<double> DenseModel(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> model(n);
  for (double& w : model) w = rng.NextDouble() * 2.0 - 1.0;
  return model;
}

TEST(KernelEquivalenceTest, SpmvRowsBitwiseAcrossModes) {
  const uint64_t dim = 257;
  const CsrBatch batch = EdgeCaseBatch(dim, 11);
  const std::vector<SparseVectorView> rows = Views(batch);
  const std::vector<double> model = DenseModel(dim, 5);

  std::vector<double> scalar_out(rows.size(), 0.125);
  {
    ScopedKernelMode scoped(KernelMode::kScalar);
    kernels::SpmvRows(rows.data(), rows.size(), model.data(),
                      scalar_out.data());
  }
  for (KernelMode mode : {KernelMode::kSimd, KernelMode::kThreaded}) {
    std::vector<double> out(rows.size(), 0.125);
    ScopedKernelMode scoped(mode);
    kernels::SpmvRows(rows.data(), rows.size(), model.data(), out.data());
    EXPECT_EQ(out, scalar_out) << kernels::KernelModeName(mode);
  }
  // Empty rows add exactly nothing, preserving the accumulator seed.
  EXPECT_EQ(scalar_out.front(), 0.125);
  EXPECT_EQ(scalar_out.back(), 0.125);
}

TEST(KernelEquivalenceTest, SpmvRowsMultiBitwiseAcrossModes) {
  const uint64_t dim = 97;
  const int C = 5;
  const CsrBatch batch = EdgeCaseBatch(dim, 23);
  const std::vector<SparseVectorView> rows = Views(batch);
  const std::vector<double> model = DenseModel(dim * C, 7);

  std::vector<double> scalar_out(rows.size() * C, 0.0);
  {
    ScopedKernelMode scoped(KernelMode::kScalar);
    kernels::SpmvRowsMulti(rows.data(), rows.size(), C, model.data(),
                           scalar_out.data());
  }
  for (KernelMode mode : {KernelMode::kSimd, KernelMode::kThreaded}) {
    std::vector<double> out(rows.size() * C, 0.0);
    ScopedKernelMode scoped(mode);
    kernels::SpmvRowsMulti(rows.data(), rows.size(), C, model.data(),
                           out.data());
    EXPECT_EQ(out, scalar_out) << kernels::KernelModeName(mode);
  }
}

TEST(KernelEquivalenceTest, FmForwardRowsBitwiseAcrossModes) {
  const uint64_t dim = 67;
  const int F = 4;
  const int wpf = 1 + F;
  const CsrBatch batch = EdgeCaseBatch(dim, 31);
  const std::vector<SparseVectorView> rows = Views(batch);
  const std::vector<double> model = DenseModel(dim * wpf, 9);

  std::vector<double> scalar_out(rows.size() * wpf, 0.0);
  {
    ScopedKernelMode scoped(KernelMode::kScalar);
    kernels::FmForwardRows(rows.data(), rows.size(), F, model.data(),
                           scalar_out.data());
  }
  for (KernelMode mode : {KernelMode::kSimd, KernelMode::kThreaded}) {
    std::vector<double> out(rows.size() * wpf, 0.0);
    ScopedKernelMode scoped(mode);
    kernels::FmForwardRows(rows.data(), rows.size(), F, model.data(),
                           out.data());
    EXPECT_EQ(out, scalar_out) << kernels::KernelModeName(mode);
  }
}

TEST(KernelEquivalenceTest, SparseDotMatchesOrderedReference) {
  const uint64_t dim = 129;
  const CsrBatch batch = EdgeCaseBatch(dim, 41);
  const std::vector<double> model = DenseModel(dim, 3);
  for (size_t i = 0; i < batch.num_rows(); ++i) {
    const SparseVectorView row = batch.Row(i);
    double reference = 0.0;  // the ascending-index chain every mode must hit
    for (size_t j = 0; j < row.nnz; ++j) {
      reference += model[row.indices[j]] * static_cast<double>(row.values[j]);
    }
    for (KernelMode mode : kAllModes) {
      ScopedKernelMode scoped(mode);
      EXPECT_EQ(kernels::SparseDot(row.indices, row.values, row.nnz,
                                   model.data()),
                reference);
    }
  }
}

TEST(KernelEquivalenceTest, DenseKernelsBitwiseAcrossModes) {
  const size_t n = 10001;  // odd: exercises partial simd/threaded tails
  const std::vector<double> in = DenseModel(n, 13);
  std::vector<double> scalar_add = DenseModel(n, 17);
  std::vector<double> scalar_axpy = scalar_add;
  double scalar_dot;
  {
    ScopedKernelMode scoped(KernelMode::kScalar);
    kernels::DenseAdd(in.data(), scalar_add.data(), n);
    kernels::DenseAxpy(-0.75, in.data(), scalar_axpy.data(), n);
    scalar_dot = kernels::DenseDot(in.data(), scalar_axpy.data(), n);
  }
  for (KernelMode mode : {KernelMode::kSimd, KernelMode::kThreaded}) {
    ScopedKernelMode scoped(mode);
    std::vector<double> add = DenseModel(n, 17);
    std::vector<double> axpy = add;
    kernels::DenseAdd(in.data(), add.data(), n);
    kernels::DenseAxpy(-0.75, in.data(), axpy.data(), n);
    EXPECT_EQ(add, scalar_add) << kernels::KernelModeName(mode);
    EXPECT_EQ(axpy, scalar_axpy) << kernels::KernelModeName(mode);
    EXPECT_EQ(kernels::DenseDot(in.data(), axpy.data(), n), scalar_dot);
  }
}

TEST(KernelEquivalenceTest, ScatterRowPreservesTouchOrder) {
  // GradAccumulator's observable state includes first-touch order, so the
  // scatter must visit indices in ascending nnz order in every mode.
  struct OrderLoggingAcc {
    int block_width = 1;
    std::vector<std::pair<uint64_t, double>> touches;
    int width() const { return block_width; }
    void Add(uint64_t first_slot, const double* g) {
      for (int j = 0; j < block_width; ++j) {
        touches.emplace_back(first_slot + j, g[j]);
      }
    }
  };
  const uint32_t idx[] = {7, 3, 9, 3};  // duplicates stay in appearance order
  const float val[] = {1.0f, 2.0f, 3.0f, 4.0f};
  SparseVectorView row{idx, val, 4};
  OrderLoggingAcc reference;
  kernels::ScatterRow(row, 0.5, &reference);
  ASSERT_EQ(reference.touches.size(), 4u);
  EXPECT_EQ(reference.touches[0].first, 7u);
  EXPECT_EQ(reference.touches[3].second, 2.0);
  for (KernelMode mode : kAllModes) {
    ScopedKernelMode scoped(mode);
    OrderLoggingAcc acc;
    kernels::ScatterRow(row, 0.5, &acc);
    EXPECT_EQ(acc.touches, reference.touches);
    const double coeffs[] = {0.5, -1.5};
    double block[2];
    OrderLoggingAcc multi{2, {}};
    kernels::ScatterRowMulti(row, coeffs, 2, block, &multi);
    ASSERT_EQ(multi.touches.size(), 8u);
    EXPECT_EQ(multi.touches[0].first, 14u);  // idx 7 * C + class 0
    EXPECT_EQ(multi.touches[1].first, 15u);
  }
}

// ---- Thread pool ----------------------------------------------------------

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  kernels::ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3);
  for (size_t n : {0ul, 1ul, 7ul, 64ul, 1000ul}) {
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    pool.ParallelFor(n, 16, [&](size_t begin, size_t end) {
      ASSERT_LE(begin, end);
      ASSERT_LE(end, n);
      for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
    });
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPoolTest, GrainBelowOneIsClamped) {
  kernels::ThreadPool pool(2);
  std::atomic<size_t> total{0};
  pool.ParallelFor(37, 0, [&](size_t begin, size_t end) {
    total.fetch_add(end - begin);
  });
  EXPECT_EQ(total.load(), 37u);
}

TEST(ThreadPoolTest, ReusableAcrossJobs) {
  kernels::ThreadPool pool(2);
  for (int job = 0; job < 50; ++job) {
    std::atomic<size_t> total{0};
    pool.ParallelFor(100 + job, 8, [&](size_t begin, size_t end) {
      total.fetch_add(end - begin);
    });
    ASSERT_EQ(total.load(), static_cast<size_t>(100 + job));
  }
}

TEST(ThreadPoolTest, ConcurrentCallersEachRunEveryIndexOnce) {
  // Two threads share one pool; every job of each must still cover each of
  // its indices exactly once (the pool holds one job at a time, so the
  // second caller waits instead of overwriting the first one's job).
  kernels::ThreadPool pool(3);
  constexpr size_t kN = 1000;
  constexpr int kJobs = 200;
  std::atomic<int> bad_jobs{0};
  auto caller = [&] {
    std::vector<std::atomic<int>> hits(kN);
    for (int job = 0; job < kJobs; ++job) {
      for (auto& h : hits) h.store(0);
      pool.ParallelFor(kN, 16, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      });
      for (const auto& h : hits) {
        if (h.load() != 1) {
          bad_jobs.fetch_add(1);
          break;
        }
      }
    }
  };
  std::thread first(caller);
  std::thread second(caller);
  first.join();
  second.join();
  EXPECT_EQ(bad_jobs.load(), 0);
}

TEST(ThreadPoolTest, NestedCallRunsInlineAndCoversEveryIndexOnce) {
  kernels::ThreadPool pool(3);
  constexpr size_t kOuter = 64;
  constexpr size_t kInner = 100;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(kOuter, 4, [&](size_t begin, size_t end) {
    for (size_t o = begin; o < end; ++o) {
      pool.ParallelFor(kInner, 8, [&](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i) hits[o * kInner + i].fetch_add(1);
      });
    }
  });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  // The pool is still usable from the top level afterwards.
  std::atomic<size_t> total{0};
  pool.ParallelFor(500, 8, [&](size_t begin, size_t end) {
    total.fetch_add(end - begin);
  });
  EXPECT_EQ(total.load(), 500u);
}

// ---- End-to-end: trained weights across modes -----------------------------

Dataset TrainData(const std::string& model_name) {
  SyntheticSpec spec = TinySpec();
  spec.num_rows = 1200;
  spec.num_features = 203;
  if (model_name.rfind("mlr", 0) == 0) {
    spec.num_classes = std::stoi(model_name.substr(3));
  }
  return GenerateSynthetic(spec);
}

struct TrainOutcome {
  std::vector<double> weights;
  double last_loss = 0.0;
};

TrainOutcome TrainUnderMode(const std::string& engine_name,
                            const std::string& model_name, KernelMode mode,
                            int ssp_slack) {
  ScopedKernelMode scoped(mode);
  Dataset d = TrainData(model_name);
  ClusterSpec cluster = ClusterSpec::Cluster1();
  cluster.num_workers = 4;
  TrainConfig config;
  config.model = model_name;
  config.learning_rate = 0.3;
  config.batch_size = 48;
  config.block_rows = 64;
  if (ssp_slack >= 0) {
    config.ssp.enabled = true;
    config.ssp.slack = ssp_slack;
    config.ssp.compute_jitter = 0.3;
  }
  std::unique_ptr<Engine> engine = MakeEngine(engine_name, cluster, config);
  EXPECT_TRUE(engine->Setup(d).ok());
  for (int i = 0; i < 6; ++i) EXPECT_TRUE(engine->RunIteration(i).ok());
  EXPECT_TRUE(engine->FinishTraining().ok());
  return TrainOutcome{engine->FullModel(), engine->last_batch_loss()};
}

class KernelModeTrainingTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(KernelModeTrainingTest, TrainedWeightsBitwiseIdenticalAcrossModes) {
  const auto& [engine_name, model_name] = GetParam();
  const TrainOutcome scalar =
      TrainUnderMode(engine_name, model_name, KernelMode::kScalar, -1);
  ASSERT_FALSE(scalar.weights.empty());
  for (KernelMode mode : {KernelMode::kSimd, KernelMode::kThreaded}) {
    const TrainOutcome other =
        TrainUnderMode(engine_name, model_name, mode, -1);
    EXPECT_EQ(other.weights, scalar.weights)
        << engine_name << "/" << model_name << " under "
        << kernels::KernelModeName(mode);
    EXPECT_EQ(other.last_loss, scalar.last_loss);
  }
}

INSTANTIATE_TEST_SUITE_P(
    EnginesAndModels, KernelModeTrainingTest,
    ::testing::Values(std::make_tuple("columnsgd", "lr"),
                      std::make_tuple("columnsgd", "svm"),
                      std::make_tuple("columnsgd", "lsq"),
                      std::make_tuple("columnsgd", "mlr3"),
                      std::make_tuple("columnsgd", "fm4"),
                      std::make_tuple("mllib", "lr"),
                      std::make_tuple("mllib", "mlr3"),
                      std::make_tuple("mllib_star", "lr"),
                      std::make_tuple("mllib_star", "fm4"),
                      std::make_tuple("petuum", "lr"),
                      std::make_tuple("petuum", "fm4"),
                      std::make_tuple("mxnet", "lr"),
                      std::make_tuple("mxnet", "mlr3")),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param);
    });

class KernelModeSspTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(KernelModeSspTest, SspScheduleUnchangedAcrossModes) {
  // Kernel modes change wall-clock execution only; the SSP schedule runs on
  // simulated time, so slack > 0 runs stay bitwise-stable too.
  const auto& [engine_name, slack] = GetParam();
  const TrainOutcome scalar =
      TrainUnderMode(engine_name, "lr", KernelMode::kScalar, slack);
  for (KernelMode mode : {KernelMode::kSimd, KernelMode::kThreaded}) {
    const TrainOutcome other =
        TrainUnderMode(engine_name, "lr", mode, slack);
    EXPECT_EQ(other.weights, scalar.weights)
        << engine_name << " slack=" << slack << " under "
        << kernels::KernelModeName(mode);
  }
}

INSTANTIATE_TEST_SUITE_P(
    EnginesAndSlack, KernelModeSspTest,
    ::testing::Values(std::make_tuple("columnsgd", 0),
                      std::make_tuple("columnsgd", 2),
                      std::make_tuple("petuum", 2),
                      std::make_tuple("mxnet", 1)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_s" +
             std::to_string(std::get<1>(info.param));
    });

// ---- Serving path ---------------------------------------------------------

TEST(KernelModeServingTest, ShardedScoresBitwiseIdenticalAcrossModes) {
  Dataset queries = TrainData("lr");
  SavedModel model;
  model.model_name = "lr";
  model.num_features = queries.num_features;
  model.weights = DenseModel(queries.num_features, 19);

  Result<DatasetScores> scalar = [&] {
    ScopedKernelMode scoped(KernelMode::kScalar);
    return ScoreDatasetSharded(model, "round_robin", 4, queries, 600);
  }();
  ASSERT_TRUE(scalar.ok());
  for (KernelMode mode : {KernelMode::kSimd, KernelMode::kThreaded}) {
    ScopedKernelMode scoped(mode);
    Result<DatasetScores> other =
        ScoreDatasetSharded(model, "round_robin", 4, queries, 600);
    ASSERT_TRUE(other.ok());
    EXPECT_EQ(other->scores, scalar->scores)
        << kernels::KernelModeName(mode);
    EXPECT_EQ(other->avg_loss, scalar->avg_loss);
  }
}

TEST(KernelModeServingTest, RangeShardsWithEmptySlicesStillMatch) {
  // Range partitioning a low-dimensional model over many shards leaves some
  // shards with nearly-empty slices — the empty-shard serving edge case.
  SyntheticSpec spec = TinySpec();
  spec.num_rows = 300;
  spec.num_features = 13;
  Dataset queries = GenerateSynthetic(spec);
  SavedModel model;
  model.model_name = "svm";
  model.num_features = queries.num_features;
  model.weights = DenseModel(queries.num_features, 29);

  Result<DatasetScores> scalar = [&] {
    ScopedKernelMode scoped(KernelMode::kScalar);
    return ScoreDatasetSharded(model, "range", 8, queries, 300);
  }();
  ASSERT_TRUE(scalar.ok());
  for (KernelMode mode : {KernelMode::kSimd, KernelMode::kThreaded}) {
    ScopedKernelMode scoped(mode);
    Result<DatasetScores> other =
        ScoreDatasetSharded(model, "range", 8, queries, 300);
    ASSERT_TRUE(other.ok());
    EXPECT_EQ(other->scores, scalar->scores);
  }
}

// ---- Calibration ----------------------------------------------------------

kernels::CalibrationProfile SampleProfile() {
  kernels::CalibrationProfile p;
  p.kernel_mode = "simd";
  p.ns_per_nnz_fwd = 1.25;
  p.ns_per_nnz_grad = 2.5;
  p.ns_per_element_dense = 0.5;
  p.ns_per_element_update = 0.75;
  p.flops_per_second = 3.2e9;
  p.mem_bandwidth_bytes_per_s = 2.1e10;
  return p;
}

TEST(CalibrationProfileTest, JsonRoundTripIsExact) {
  const kernels::CalibrationProfile p = SampleProfile();
  const std::string text = kernels::SerializeCalibrationProfile(p);
  Result<kernels::CalibrationProfile> parsed =
      kernels::ParseCalibrationProfile(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->schema, p.schema);
  EXPECT_EQ(parsed->kernel_mode, p.kernel_mode);
  EXPECT_EQ(parsed->ns_per_nnz_fwd, p.ns_per_nnz_fwd);
  EXPECT_EQ(parsed->ns_per_nnz_grad, p.ns_per_nnz_grad);
  EXPECT_EQ(parsed->ns_per_element_dense, p.ns_per_element_dense);
  EXPECT_EQ(parsed->ns_per_element_update, p.ns_per_element_update);
  EXPECT_EQ(parsed->flops_per_second, p.flops_per_second);
  EXPECT_EQ(parsed->mem_bandwidth_bytes_per_s, p.mem_bandwidth_bytes_per_s);
  // Serialization is deterministic: same profile, same bytes.
  EXPECT_EQ(kernels::SerializeCalibrationProfile(*parsed), text);
}

TEST(CalibrationProfileTest, RejectsWrongSchemaAndBadRates) {
  kernels::CalibrationProfile p = SampleProfile();
  p.schema = "colsgd.kernelcal/v0";
  EXPECT_FALSE(
      kernels::ParseCalibrationProfile(kernels::SerializeCalibrationProfile(p))
          .ok());
  p = SampleProfile();
  p.flops_per_second = 0.0;
  EXPECT_FALSE(p.Valid());
  EXPECT_FALSE(
      kernels::ParseCalibrationProfile(kernels::SerializeCalibrationProfile(p))
          .ok());
  EXPECT_FALSE(kernels::ParseCalibrationProfile("not json").ok());
  EXPECT_FALSE(kernels::ParseCalibrationProfile("{}").ok());
}

TEST(CalibrationProfileTest, FileRoundTripAndMissingFile) {
  const std::string path = ::testing::TempDir() + "/kernelcal.json";
  const kernels::CalibrationProfile p = SampleProfile();
  ASSERT_TRUE(kernels::SaveCalibrationProfile(p, path).ok());
  Result<kernels::CalibrationProfile> loaded =
      kernels::LoadCalibrationProfile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->flops_per_second, p.flops_per_second);
  std::remove(path.c_str());
  EXPECT_FALSE(kernels::LoadCalibrationProfile(path).ok());
}

TEST(CalibrationProfileTest, ComputeModelChargesAtCalibratedRate) {
  const kernels::CalibrationProfile p = SampleProfile();
  const ComputeModel model = kernels::ComputeModelFromCalibration(p);
  EXPECT_EQ(model.flops_per_second, p.flops_per_second);
  EXPECT_DOUBLE_EQ(model.SecondsFor(3'200'000'000ull), 1.0);
}

TEST(KernelCalibratorTest, TinyRunProducesValidProfile) {
  kernels::CalibratorOptions options;
  options.rows = 64;
  options.features = 512;
  options.nnz_per_row = 8;
  options.dense_elements = 4096;
  options.repeats = 1;
  options.inner_iters = 1;
  const kernels::KernelCalibrator calibrator(options);
  for (KernelMode mode : kAllModes) {
    const kernels::CalibrationProfile profile = calibrator.Run(mode);
    EXPECT_TRUE(profile.Valid()) << kernels::KernelModeName(mode);
    EXPECT_EQ(profile.kernel_mode, kernels::KernelModeName(mode));
  }
  // The counted-FLOP convention: 4 per nnz of the fused GLM iteration.
  EXPECT_EQ(calibrator.FusedIterationFlops(), 64u * 8u * 4u);
  EXPECT_EQ(calibrator.FusedIterationFlopsFor(128), 128u * 8u * 4u);
  EXPECT_GT(calibrator.MeasureFusedIterationSeconds(KernelMode::kScalar, 64),
            0.0);
}

}  // namespace
}  // namespace colsgd
