// Tests for the RowSGD baseline engines: MLlib, the parameter servers
// (Petuum dense / MXNet sparse-pull), and MLlib* (model averaging).
#include <gtest/gtest.h>

#include "datagen/synthetic.h"
#include "engine/columnsgd.h"
#include "engine/mllib_star.h"
#include "engine/ps.h"
#include "engine/rowsgd.h"
#include "engine/trainer.h"

namespace colsgd {
namespace {

Dataset TestData(uint64_t rows = 2000, uint64_t features = 500) {
  SyntheticSpec spec = TinySpec();
  spec.num_rows = rows;
  spec.num_features = features;
  return GenerateSynthetic(spec);
}

ClusterSpec Cluster(int workers = 4) {
  ClusterSpec spec = ClusterSpec::Cluster1();
  spec.num_workers = workers;
  return spec;
}

TrainConfig Config() {
  TrainConfig config;
  config.model = "lr";
  config.learning_rate = 0.5;
  config.batch_size = 64;
  config.block_rows = 128;
  return config;
}

TEST(MllibEngineTest, SetupAndIterate) {
  Dataset d = TestData();
  MllibEngine engine(Cluster(), Config());
  ASSERT_TRUE(engine.Setup(d).ok());
  EXPECT_GT(engine.load_time(), 0.0);
  ASSERT_TRUE(engine.RunIteration(0).ok());
  EXPECT_NEAR(engine.last_batch_loss(), std::log(2.0), 1e-12);
  ASSERT_TRUE(engine.RunIteration(1).ok());
  EXPECT_LT(engine.last_batch_loss(), std::log(2.0));
}

TEST(MllibEngineTest, PerIterationTrafficScalesWithModelSize) {
  // The RowSGD pathology: per-iteration bytes grow linearly with m.
  uint64_t bytes_small = 0, bytes_big = 0;
  for (bool big : {false, true}) {
    Dataset d = TestData(2000, big ? 5000 : 500);
    MllibEngine engine(Cluster(), Config());
    ASSERT_TRUE(engine.Setup(d).ok());
    const TrafficStats before = engine.runtime().net().TotalStats();
    ASSERT_TRUE(engine.RunIteration(0).ok());
    const TrafficStats after = engine.runtime().net().TotalStats();
    (big ? bytes_big : bytes_small) = after.bytes_sent - before.bytes_sent;
  }
  EXPECT_GT(bytes_big, 9 * bytes_small);
}

TEST(MllibEngineTest, SparseGradientPushShrinksTraffic) {
  Dataset d = TestData(2000, 5000);
  uint64_t dense_bytes = 0, sparse_bytes = 0;
  for (bool sparse : {false, true}) {
    RowSgdOptions options;
    options.sparse_gradient_push = sparse;
    MllibEngine engine(Cluster(), Config(), options);
    ASSERT_TRUE(engine.Setup(d).ok());
    const TrafficStats before = engine.runtime().net().TotalStats();
    ASSERT_TRUE(engine.RunIteration(0).ok());
    const TrafficStats after = engine.runtime().net().TotalStats();
    (sparse ? sparse_bytes : dense_bytes) =
        after.bytes_sent - before.bytes_sent;
  }
  EXPECT_LT(sparse_bytes, dense_bytes);
}

TEST(MllibEngineTest, MasterOutOfMemoryOnHugeModelBudget) {
  Dataset d = TestData();
  ClusterSpec spec = Cluster();
  spec.node_memory_budget = 1000;  // model (500 doubles x 2) cannot fit
  MllibEngine engine(spec, Config());
  EXPECT_TRUE(engine.Setup(d).IsOutOfMemory());
}

TEST(MllibEngineTest, FailsWhenAWorkerGetsNoRows) {
  // Every row engine deals whole blocks to workers; ColumnSGD splits each
  // block by columns, so one block still reaches every worker.
  Dataset d = TestData(100, 50);
  TrainConfig config = Config();
  config.block_rows = 200;  // one block only, workers 1..3 starve
  for (const char* name : {"mllib", "mllib_star", "petuum", "mxnet"}) {
    auto engine = MakeEngine(name, Cluster(), config);
    EXPECT_TRUE(engine->Setup(d).IsFailedPrecondition()) << name;
  }
  ColumnSgdEngine column(Cluster(), config);
  EXPECT_TRUE(column.Setup(d).ok());
}

TEST(PsEngineTest, DenseAndSparseModesProduceIdenticalModels) {
  // Sparse pull changes traffic, not math: same batches, same updates.
  Dataset d = TestData();
  PsOptions dense;
  dense.sparse_pull = false;
  PsOptions sparse;
  sparse.sparse_pull = true;
  PsEngine petuum(Cluster(), Config(), dense);
  PsEngine mxnet(Cluster(), Config(), sparse);
  ASSERT_TRUE(petuum.Setup(d).ok());
  ASSERT_TRUE(mxnet.Setup(d).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(petuum.RunIteration(i).ok());
    ASSERT_TRUE(mxnet.RunIteration(i).ok());
  }
  EXPECT_EQ(petuum.FullModel(), mxnet.FullModel());
  EXPECT_EQ(petuum.name(), "ps_dense(petuum)");
  EXPECT_EQ(mxnet.name(), "ps_sparse(mxnet)");
}

TEST(PsEngineTest, SparsePullUsesFarLessTraffic) {
  Dataset d = TestData(2000, 20000);
  uint64_t dense_bytes = 0, sparse_bytes = 0;
  for (bool sparse : {false, true}) {
    PsOptions options;
    options.sparse_pull = sparse;
    PsEngine engine(Cluster(), Config(), options);
    ASSERT_TRUE(engine.Setup(d).ok());
    const TrafficStats before = engine.runtime().net().TotalStats();
    ASSERT_TRUE(engine.RunIteration(0).ok());
    const TrafficStats after = engine.runtime().net().TotalStats();
    (sparse ? sparse_bytes : dense_bytes) =
        after.bytes_sent - before.bytes_sent;
  }
  EXPECT_LT(20 * sparse_bytes, dense_bytes);
}

TEST(PsEngineTest, DistributesModelAcrossServers) {
  // Petuum's advantage over MLlib: no single master NIC carries all K model
  // copies, so the dense per-iteration time is ~K times smaller. Use a model
  // wide enough for bandwidth (not per-message overhead) to dominate.
  Dataset d = TestData(2000, 200000);
  TrainConfig config = Config();
  config.sched_overhead = 0.0;

  MllibEngine mllib(Cluster(8), config);
  ASSERT_TRUE(mllib.Setup(d).ok());
  const double t0 = mllib.runtime().MaxClock();
  ASSERT_TRUE(mllib.RunIteration(0).ok());
  const double mllib_iter = mllib.runtime().MaxClock() - t0;

  PsEngine petuum(Cluster(8), config, PsOptions{});
  ASSERT_TRUE(petuum.Setup(d).ok());
  const double t1 = petuum.runtime().MaxClock();
  ASSERT_TRUE(petuum.RunIteration(0).ok());
  const double petuum_iter = petuum.runtime().MaxClock() - t1;

  EXPECT_GT(mllib_iter, 3.0 * petuum_iter);
}

TEST(PsEngineTest, ModeledWorkerMemoryTriggersOom) {
  // Table V: the modeled per-node requirement (dense kvstore buffers for a
  // wide FM) exceeds the budget and must fail before allocating anything.
  SyntheticSpec spec = TinySpec();
  spec.num_rows = 500;
  spec.num_features = 20000;
  Dataset d = GenerateSynthetic(spec);
  TrainConfig config = Config();
  config.model = "fm50";
  ClusterSpec cluster = Cluster();
  cluster.node_memory_budget = 10ull << 20;  // 10 MB; fm50 needs ~16 MB
  PsOptions options;
  options.sparse_pull = true;
  PsEngine engine(cluster, config, options);
  EXPECT_TRUE(engine.Setup(d).IsOutOfMemory());
  // ColumnSGD fits in the same budget (model partitioned K ways).
}

TEST(MllibStarEngineTest, AveragingKeepsReplicasInSync) {
  Dataset d = TestData();
  MllibStarEngine engine(Cluster(), Config());
  ASSERT_TRUE(engine.Setup(d).ok());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(engine.RunIteration(i).ok());
  // FullModel returns replica 0; convergence is checked indirectly through
  // the loss trend.
  EXPECT_LT(engine.last_batch_loss(), std::log(2.0) + 0.05);
}

TEST(MllibStarEngineTest, LocalStepsProcessMoreDataPerRound) {
  Dataset d = TestData(4000, 300);
  TrainConfig config = Config();
  config.learning_rate = 0.2;
  MllibStarOptions one;
  one.local_steps = 1;
  MllibStarOptions four;
  four.local_steps = 4;
  MllibStarEngine a(Cluster(), config, one);
  MllibStarEngine b(Cluster(), config, four);
  ASSERT_TRUE(a.Setup(d).ok());
  ASSERT_TRUE(b.Setup(d).ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(a.RunIteration(i).ok());
    ASSERT_TRUE(b.RunIteration(i).ok());
  }
  // More local work per round reaches a lower loss in the same #rounds.
  EXPECT_LT(b.last_batch_loss(), a.last_batch_loss());
}

TEST(MllibStarEngineTest, AllReduceTrafficIsBalanced) {
  // Ring all-reduce: every node sends ~2m bytes; no master hotspot.
  Dataset d = TestData(2000, 10000);
  TrainConfig config = Config();
  MllibStarEngine engine(Cluster(), config);
  ASSERT_TRUE(engine.Setup(d).ok());
  engine.runtime().net().ResetStats();
  ASSERT_TRUE(engine.RunIteration(0).ok());
  const SimNetwork& net = engine.runtime().net();
  const uint64_t w0 = net.stats(engine.runtime().worker_node(0)).bytes_sent;
  for (int k = 1; k < 4; ++k) {
    const uint64_t wk =
        net.stats(engine.runtime().worker_node(k)).bytes_sent;
    EXPECT_NEAR(static_cast<double>(wk), static_cast<double>(w0),
                0.1 * static_cast<double>(w0));
  }
  // Master only dispatches commands.
  EXPECT_LT(net.stats(engine.runtime().master()).bytes_sent, 1000u);
}

TEST(RowEngineGuardTest, ColumnOnlyModelsAreRejected) {
  // The MLP exists only in the column framework (Section III-C); RowSGD
  // engines must refuse it cleanly instead of dying in the row path.
  Dataset d = TestData();
  TrainConfig config = Config();
  config.model = "mlp4";
  for (const char* name : {"mllib", "mllib_star", "petuum", "mxnet"}) {
    auto engine = MakeEngine(name, Cluster(), config);
    EXPECT_TRUE(engine->Setup(d).IsInvalidArgument()) << name;
  }
  ColumnSgdEngine column(Cluster(), config);
  EXPECT_TRUE(column.Setup(d).ok());
}

TEST(ColumnSgdGuardTest, UnknownPartitionerIsRejected) {
  Dataset d = TestData();
  TrainConfig config = Config();
  for (const char* name : {"bogus", "block_cyclic_x", "block_cyclic_0"}) {
    config.partitioner = name;
    ColumnSgdEngine column(Cluster(), config);
    EXPECT_TRUE(column.Setup(d).IsInvalidArgument()) << name;
  }
}

TEST(EngineFactoryTest, BuildsAllEngines) {
  for (const std::string name :
       {"columnsgd", "mllib", "mllib_star", "petuum", "mxnet"}) {
    auto engine = MakeEngine(name, Cluster(), Config());
    ASSERT_NE(engine, nullptr) << name;
  }
  EXPECT_DEATH(MakeEngine("horovod", Cluster(), Config()), "unknown engine");
}

}  // namespace
}  // namespace colsgd
