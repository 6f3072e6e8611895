// Cross-engine equivalence properties:
//  * ColumnSGD is exact distributed mini-batch SGD: with the same batch
//    draws, K workers produce the same model as a sequential reference and
//    as ColumnSGD with any other K.
//  * MLlib and the PS engines share sampling and update rules, so their
//    models coincide exactly.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>

#include "datagen/synthetic.h"
#include "engine/columnsgd.h"
#include "engine/ps.h"
#include "engine/row_sampling.h"
#include "engine/rowsgd.h"
#include "engine/trainer.h"
#include "obs/bench/timeseries.h"
#include "storage/sampler.h"

namespace colsgd {
namespace {

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

Dataset TestData(const std::string& model_name = "lr") {
  SyntheticSpec spec = TinySpec();
  spec.num_rows = 2000;
  spec.num_features = 403;  // awkward: not divisible by any worker count
  if (model_name.rfind("mlr", 0) == 0) {
    spec.num_classes = std::stoi(model_name.substr(3));
  }
  return GenerateSynthetic(spec);
}

ClusterSpec Cluster(int workers) {
  ClusterSpec spec = ClusterSpec::Cluster1();
  spec.num_workers = workers;
  return spec;
}

TrainConfig Config(const std::string& model) {
  TrainConfig config;
  config.model = model;
  config.learning_rate = 0.3;
  config.batch_size = 50;
  config.block_rows = 128;
  return config;
}

/// Sequential reference: plain mini-batch SGD over the full model, using the
/// same two-phase sampler draws as ColumnSGD.
std::vector<double> SequentialReference(const Dataset& d,
                                        const TrainConfig& config,
                                        int iterations) {
  auto model = MakeModel(config.model);
  const int wpf = model->weights_per_feature();
  std::vector<double> weights(d.num_features * wpf);
  for (uint64_t f = 0; f < d.num_features; ++f) {
    for (int j = 0; j < wpf; ++j) {
      weights[f * wpf + j] = model->InitWeight(f, j, config.seed);
    }
  }
  auto optimizer = MakeOptimizer(config.optimizer, config.learning_rate);
  std::vector<double> opt_state(weights.size() * optimizer->state_per_slot(),
                                0.0);
  GradAccumulator grad(weights.size(), wpf);

  std::vector<RowBlock> blocks = MakeRowBlocks(d, config.block_rows);
  BlockDirectory directory = MakeDirectory(blocks);
  BatchSampler sampler(&directory, config.seed);

  for (int iter = 0; iter < iterations; ++iter) {
    const std::vector<RowRef> batch =
        sampler.Sample(iter, config.batch_size);
    for (const RowRef& ref : batch) {
      const RowBlock& block = blocks[ref.block_id];
      model->AccumulateRowGradient(block.rows.Row(ref.offset),
                                   block.labels[ref.offset], weights, &grad,
                                   nullptr);
    }
    ApplySparseUpdate(&grad, config.batch_size, config.reg, optimizer.get(),
                      &weights, &opt_state, nullptr);
  }
  return weights;
}

class ColumnSgdExactnessTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(ColumnSgdExactnessTest, MatchesSequentialMinibatchSgd) {
  const auto& [model_name, workers] = GetParam();
  Dataset d = TestData(model_name);
  TrainConfig config = Config(model_name);
  const int iterations = 8;

  ColumnSgdEngine engine(Cluster(workers), config);
  ASSERT_TRUE(engine.Setup(d).ok());
  for (int i = 0; i < iterations; ++i) {
    ASSERT_TRUE(engine.RunIteration(i).ok());
  }
  const std::vector<double> distributed = engine.FullModel();
  const std::vector<double> reference =
      SequentialReference(d, config, iterations);
  ASSERT_EQ(distributed.size(), reference.size());
  double max_diff = 0.0;
  for (size_t i = 0; i < reference.size(); ++i) {
    max_diff = std::max(max_diff, std::fabs(distributed[i] - reference[i]));
  }
  // Only floating-point summation order differs between K partitions and
  // the sequential pass.
  EXPECT_LT(max_diff, 1e-9) << model_name << " K=" << workers;
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndClusterSizes, ColumnSgdExactnessTest,
    ::testing::Combine(::testing::Values("lr", "svm", "mlr3", "fm4"),
                       ::testing::Values(1, 2, 4, 8)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_k" +
             std::to_string(std::get<1>(info.param));
    });

TEST(ColumnSgdExactnessTest, IndependentOfPartitioner) {
  Dataset d = TestData();
  TrainConfig a_config = Config("lr");
  a_config.partitioner = "round_robin";
  TrainConfig b_config = Config("lr");
  b_config.partitioner = "range";
  ColumnSgdEngine a(Cluster(4), a_config), b(Cluster(4), b_config);
  ASSERT_TRUE(a.Setup(d).ok());
  ASSERT_TRUE(b.Setup(d).ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(a.RunIteration(i).ok());
    ASSERT_TRUE(b.RunIteration(i).ok());
  }
  const auto model_a = a.FullModel();
  const auto model_b = b.FullModel();
  for (size_t i = 0; i < model_a.size(); ++i) {
    ASSERT_NEAR(model_a[i], model_b[i], 1e-9);
  }
}

TEST(ColumnSgdExactnessTest, AdaptiveOptimizersAlsoExact) {
  // AdaGrad/Adam state is per-slot and partitions with the model, so the
  // distributed run stays exactly equivalent (Section III-A remark).
  Dataset d = TestData();
  for (const char* opt : {"adagrad", "adam"}) {
    TrainConfig config = Config("lr");
    config.optimizer = opt;
    config.learning_rate = 0.05;
    ColumnSgdEngine engine(Cluster(4), config);
    ASSERT_TRUE(engine.Setup(d).ok());
    for (int i = 0; i < 6; ++i) ASSERT_TRUE(engine.RunIteration(i).ok());
    const auto distributed = engine.FullModel();
    const auto reference = SequentialReference(d, config, 6);
    for (size_t i = 0; i < reference.size(); ++i) {
      ASSERT_NEAR(distributed[i], reference[i], 1e-9) << opt;
    }
  }
}

TEST(RowEngineEquivalenceTest, MllibAndPsComputeTheSameModel) {
  // Identical sampling streams and update rules; only the communication
  // topology differs, which must not change the math.
  Dataset d = TestData();
  TrainConfig config = Config("lr");
  MllibEngine mllib(Cluster(4), config);
  PsEngine petuum(Cluster(4), config, PsOptions{});
  ASSERT_TRUE(mllib.Setup(d).ok());
  ASSERT_TRUE(petuum.Setup(d).ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(mllib.RunIteration(i).ok());
    ASSERT_TRUE(petuum.RunIteration(i).ok());
  }
  EXPECT_EQ(mllib.FullModel(), petuum.FullModel());
  EXPECT_EQ(Bits(mllib.last_batch_loss()), Bits(petuum.last_batch_loss()));
}

// --- The row engines' iteration schedule (DESIGN.md §18) ------------------
//
// However the host spreads an iteration over threads, MLlib and the PS
// engines (BSP, elastic, SSP at slack 0) must train exactly like one serial
// loop over the workers: same weights, batch losses and gradient norms, bit
// for bit.

struct SerialRowRun {
  std::vector<double> weights;
  std::vector<double> batch_loss;  // one entry per iteration
  std::vector<double> grad_norm;
};

/// The serial schedule: block i belongs to worker i % K; worker w draws its
/// share of the batch with WorkerIterationRng; each worker's
/// RowBatchForwardGrad terms go, slot by slot, into one per-slot (width 1)
/// GradAccumulator in worker order; one ApplySparseUpdate closes the
/// iteration.
SerialRowRun SerialRowSchedule(const Dataset& d, const TrainConfig& config,
                               int workers, int iterations) {
  auto model = MakeModel(config.model);
  const int wpf = model->weights_per_feature();
  SerialRowRun run;
  run.weights.resize(d.num_features * wpf);
  for (uint64_t f = 0; f < d.num_features; ++f) {
    for (int j = 0; j < wpf; ++j) {
      run.weights[f * wpf + j] = model->InitWeight(f, j, config.seed);
    }
  }
  auto optimizer = MakeOptimizer(config.optimizer, config.learning_rate);
  std::vector<double> opt_state(
      run.weights.size() * optimizer->state_per_slot(), 0.0);
  GradAccumulator grad(run.weights.size(), 1);

  const std::vector<RowBlock> blocks = MakeRowBlocks(d, config.block_rows);
  std::vector<std::vector<RowBlock>> partitions(workers);
  std::vector<uint64_t> partition_rows(workers, 0);
  for (size_t i = 0; i < blocks.size(); ++i) {
    partitions[i % workers].push_back(blocks[i]);
    partition_rows[i % workers] += blocks[i].num_rows();
  }
  const size_t K = static_cast<size_t>(workers);
  for (int it = 0; it < iterations; ++it) {
    double loss_sum = 0.0;
    size_t batch_total = 0;
    for (int w = 0; w < workers; ++w) {
      Rng rng = WorkerIterationRng(config.seed, it, w);
      const size_t local_batch =
          config.batch_size / K +
          (static_cast<size_t>(w) < config.batch_size % K ? 1 : 0);
      BatchView batch;
      for (size_t i = 0; i < local_batch; ++i) {
        const LocalRowSample sample =
            DrawLocalRow(partitions[w], partition_rows[w], &rng);
        batch.rows.push_back(sample.row);
        batch.labels.push_back(sample.label);
      }
      GradTerms terms(wpf);
      std::vector<double> row_losses(local_batch);
      model->RowBatchForwardGrad(batch, run.weights, &terms,
                                 row_losses.data(), nullptr);
      for (size_t i = 0; i < terms.size(); ++i) {
        for (int j = 0; j < wpf; ++j) {
          grad.Add(terms.first_slot(i) + j, terms.values(i) + j);
        }
      }
      for (double loss : row_losses) loss_sum += loss;
      batch_total += local_batch;
    }
    double grad_sq = 0.0;
    ApplySparseUpdate(&grad, batch_total, config.reg, optimizer.get(),
                      &run.weights, &opt_state, nullptr, &grad_sq);
    run.batch_loss.push_back(loss_sum / static_cast<double>(batch_total));
    run.grad_norm.push_back(std::sqrt(grad_sq));
  }
  return run;
}

/// "petuum", "mxnet" and "mllib" run their BSP bodies; a "_elastic" suffix
/// turns on elastic membership (replication 1), "_ssp0" SSP at slack 0.
std::unique_ptr<Engine> MakeRowPathEngine(const std::string& path,
                                          int workers, TrainConfig config) {
  const size_t cut = path.find('_');
  const std::string suffix =
      cut == std::string::npos ? "" : path.substr(cut + 1);
  if (suffix == "elastic") {
    config.elastic.enabled = true;
    config.elastic.replication = 1;
  } else if (suffix == "ssp0") {
    config.ssp.enabled = true;
    config.ssp.slack = 0;
  }
  return MakeEngine(path.substr(0, cut), Cluster(workers), config);
}

/// Trains `path` for `iterations` and checks every trained bit, batch loss
/// and gradient norm against SerialRowSchedule. An unrecorded twin, whose
/// apply skips the norm (Engine::grad_sq_accum), must train the same bits.
void ExpectSerialSchedule(const std::string& path,
                          const std::string& model_name,
                          const std::string& optimizer, int workers) {
  SCOPED_TRACE(path + " " + model_name + " " + optimizer + " K=" +
               std::to_string(workers));
  const Dataset d = TestData(model_name);
  TrainConfig config = Config(model_name);
  config.optimizer = optimizer;
  if (optimizer != "sgd") config.learning_rate = 0.05;
  const int iterations = 5;

  auto engine = MakeRowPathEngine(path, workers, config);
  auto twin = MakeRowPathEngine(path, workers, config);
  TimeSeriesRecorder recorder;
  engine->set_recorder(&recorder);
  for (Engine* run : {engine.get(), twin.get()}) {
    ASSERT_TRUE(run->Setup(d).ok());
    for (int i = 0; i < iterations; ++i) {
      ASSERT_TRUE(run->RunIteration(i).ok());
    }
    ASSERT_TRUE(run->FinishTraining().ok());
  }
  const std::vector<double> unrecorded = twin->FullModel();
  const SerialRowRun reference =
      SerialRowSchedule(d, config, workers, iterations);

  const std::vector<double> weights = engine->FullModel();
  ASSERT_EQ(weights.size(), reference.weights.size());
  EXPECT_EQ(std::memcmp(weights.data(), reference.weights.data(),
                        weights.size() * sizeof(double)),
            0);
  EXPECT_EQ(Bits(engine->last_batch_loss()),
            Bits(reference.batch_loss.back()));
  ASSERT_EQ(unrecorded.size(), weights.size());
  EXPECT_EQ(std::memcmp(unrecorded.data(), weights.data(),
                        weights.size() * sizeof(double)),
            0);
  EXPECT_EQ(Bits(twin->last_batch_loss()), Bits(engine->last_batch_loss()));
  ASSERT_EQ(recorder.samples().size(), static_cast<size_t>(iterations));
  for (int i = 0; i < iterations; ++i) {
    const TimeSeriesSample& sample = recorder.samples()[i];
    EXPECT_EQ(Bits(sample.batch_loss), Bits(reference.batch_loss[i]))
        << "iteration " << i;
    EXPECT_EQ(Bits(sample.grad_norm), Bits(reference.grad_norm[i]))
        << "iteration " << i;
  }
}

class RowScheduleTest
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::string, std::string, int>> {};

TEST_P(RowScheduleTest, BitwiseEqualToSerialSchedule) {
  const auto& [path, model_name, optimizer, workers] = GetParam();
  ExpectSerialSchedule(path, model_name, optimizer, workers);
}

INSTANTIATE_TEST_SUITE_P(
    PathsModelsOptimizers, RowScheduleTest,
    ::testing::Combine(::testing::Values("petuum", "mxnet", "mllib",
                                         "petuum_elastic", "mxnet_elastic",
                                         "petuum_ssp0", "mxnet_ssp0"),
                       ::testing::Values("lr", "svm", "mlr3", "fm4"),
                       ::testing::Values("sgd", "adagrad", "adam"),
                       ::testing::Values(3, 4, 8)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param) + "_" +
             std::get<2>(info.param) + "_k" +
             std::to_string(std::get<3>(info.param));
    });

// --- Bounded staleness (DESIGN.md §15) ------------------------------------

std::unique_ptr<Engine> MakeSspCapableEngine(const std::string& engine,
                                             int workers,
                                             const TrainConfig& config,
                                             bool fp32_statistics = false) {
  if (engine == "columnsgd") {
    ColumnSgdOptions options;
    options.fp32_statistics = fp32_statistics;
    return std::make_unique<ColumnSgdEngine>(Cluster(workers), config,
                                             options);
  }
  PsOptions options;
  options.sparse_pull = engine == "mxnet";
  return std::make_unique<PsEngine>(Cluster(workers), config, options);
}

class SspZeroSlackTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
};

/// Trains `engine` for `iterations` under `faults`, recording one sample
/// per iteration, and drains it.
void TrainRecorded(Engine* engine, const FaultConfig& faults,
                   const Dataset& d, int iterations,
                   TimeSeriesRecorder* recorder) {
  engine->set_recorder(recorder);
  ASSERT_TRUE(engine->set_faults(faults).ok());
  ASSERT_TRUE(engine->Setup(d).ok());
  for (int i = 0; i < iterations; ++i) {
    ASSERT_TRUE(engine->RunIteration(i).ok());
  }
  ASSERT_TRUE(engine->FinishTraining().ok());
}

TEST_P(SspZeroSlackTest, ZeroSlackIsBitwiseBsp) {
  const auto& [engine_name, model_name] = GetParam();
  Dataset d = TestData(model_name);
  const int workers = 4;
  const int iterations = 8;

  // Heavy rotating stragglers shift every SSP timestamp relative to BSP but
  // must not change a single trained bit at slack = 0.
  FaultPlanConfig fault_config;
  fault_config.seed = 7;
  fault_config.stragglers.mode = StragglerSpec::Mode::kRotating;
  fault_config.stragglers.level = 5.0;
  FaultConfig faults;
  faults.plan = FaultPlan(fault_config);

  // ColumnSGD also runs with float32 statistics, which round both the
  // partial and the reduced statistics.
  std::vector<bool> fp32_values = {false};
  if (engine_name == "columnsgd") fp32_values.push_back(true);
  for (const bool fp32 : fp32_values) {
    SCOPED_TRACE(engine_name + "/" + model_name +
                 (fp32 ? " fp32 statistics" : ""));
    TrainConfig bsp_config = Config(model_name);
    auto bsp = MakeSspCapableEngine(engine_name, workers, bsp_config, fp32);
    TimeSeriesRecorder bsp_recorder;
    TrainRecorded(bsp.get(), faults, d, iterations, &bsp_recorder);
    if (HasFatalFailure()) return;

    TrainConfig ssp_config = Config(model_name);
    ssp_config.ssp.enabled = true;
    ssp_config.ssp.slack = 0;
    auto ssp = MakeSspCapableEngine(engine_name, workers, ssp_config, fp32);
    TimeSeriesRecorder ssp_recorder;
    TrainRecorded(ssp.get(), faults, d, iterations, &ssp_recorder);
    if (HasFatalFailure()) return;

    const std::vector<double> bsp_model = bsp->FullModel();
    const std::vector<double> ssp_model = ssp->FullModel();
    ASSERT_EQ(bsp_model.size(), ssp_model.size());
    EXPECT_EQ(std::memcmp(bsp_model.data(), ssp_model.data(),
                          bsp_model.size() * sizeof(double)),
              0);
    if (engine_name == "columnsgd") {
      const std::vector<double>& bsp_shared =
          static_cast<ColumnSgdEngine*>(bsp.get())->shared_params();
      const std::vector<double>& ssp_shared =
          static_cast<ColumnSgdEngine*>(ssp.get())->shared_params();
      ASSERT_EQ(bsp_shared.size(), ssp_shared.size());
      for (size_t i = 0; i < bsp_shared.size(); ++i) {
        EXPECT_EQ(Bits(bsp_shared[i]), Bits(ssp_shared[i])) << "shared " << i;
      }
    }
    ASSERT_EQ(bsp_recorder.samples().size(),
              static_cast<size_t>(iterations));
    ASSERT_EQ(ssp_recorder.samples().size(),
              static_cast<size_t>(iterations));
    for (int i = 0; i < iterations; ++i) {
      EXPECT_EQ(Bits(bsp_recorder.samples()[i].batch_loss),
                Bits(ssp_recorder.samples()[i].batch_loss))
          << "iteration " << i;
    }
    EXPECT_EQ(ssp->ssp_accounting().max_staleness_observed, 0);
    EXPECT_EQ(ssp->ssp_accounting().stale_reads, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    EnginesAndModels, SspZeroSlackTest,
    ::testing::Values(std::make_tuple("columnsgd", "lr"),
                      std::make_tuple("columnsgd", "svm"),
                      std::make_tuple("columnsgd", "mlr3"),
                      std::make_tuple("columnsgd", "fm4"),
                      std::make_tuple("columnsgd", "mlp8"),
                      std::make_tuple("petuum", "lr"),
                      std::make_tuple("petuum", "svm"),
                      std::make_tuple("petuum", "mlr3"),
                      std::make_tuple("petuum", "fm4"),
                      std::make_tuple("mxnet", "lr"),
                      std::make_tuple("mxnet", "svm"),
                      std::make_tuple("mxnet", "mlr3"),
                      std::make_tuple("mxnet", "fm4")),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param);
    });

TEST(SspZeroSlackTest, SspRejectsBackupGroups) {
  Dataset d = TestData();
  TrainConfig config = Config("lr");
  config.ssp.enabled = true;
  ColumnSgdOptions options;
  options.backup = 1;
  ColumnSgdEngine engine(Cluster(4), config, options);
  EXPECT_FALSE(engine.Setup(d).ok());
}

double SquaredNormOf(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x * x;
  return s;
}

TEST(RowEngineEquivalenceTest, RegularizationAppliedConsistently) {
  Dataset d = TestData();
  TrainConfig config = Config("lr");
  config.reg.l2 = 0.01;
  const int iterations = 8;
  ColumnSgdEngine column(Cluster(4), config);
  ASSERT_TRUE(column.Setup(d).ok());
  for (int i = 0; i < iterations; ++i) {
    ASSERT_TRUE(column.RunIteration(i).ok());
  }
  const auto distributed = column.FullModel();
  const auto reference = SequentialReference(d, config, iterations);
  for (size_t i = 0; i < reference.size(); ++i) {
    ASSERT_NEAR(distributed[i], reference[i], 1e-9);
  }
  // L2 keeps the model smaller than the unregularized run.
  TrainConfig no_reg = Config("lr");
  const auto unregularized = SequentialReference(d, no_reg, iterations);
  EXPECT_LT(SquaredNormOf(distributed), SquaredNormOf(unregularized));
}

}  // namespace
}  // namespace colsgd
