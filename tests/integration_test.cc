// End-to-end integration tests through the RunTraining driver: convergence
// on planted-model data for every engine, trace/summary bookkeeping, and the
// headline performance orderings of the paper at test scale.
#include <gtest/gtest.h>

#include "datagen/synthetic.h"
#include "engine/trainer.h"

namespace colsgd {
namespace {

Dataset TrainingData() {
  SyntheticSpec spec = TinySpec();
  spec.num_rows = 4000;
  spec.num_features = 600;
  spec.label_noise = 8.0;  // fairly clean labels -> visible convergence
  return GenerateSynthetic(spec);
}

ClusterSpec Cluster() {
  ClusterSpec spec = ClusterSpec::Cluster1();
  spec.num_workers = 4;
  return spec;
}

TrainConfig BaseConfig() {
  TrainConfig config;
  config.model = "lr";
  config.learning_rate = 4.0;
  config.batch_size = 200;
  config.block_rows = 256;
  return config;
}

class EngineConvergenceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(EngineConvergenceTest, LossDropsWellBelowChance) {
  Dataset d = TrainingData();
  auto engine = MakeEngine(GetParam(), Cluster(), BaseConfig());
  RunOptions options;
  options.iterations = 150;
  options.eval_every = 50;
  options.eval_rows = 2000;
  TrainResult result = RunTraining(engine.get(), d, options);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  ASSERT_EQ(result.trace.size(), 150u);

  // Exact loss on an evaluation sample at the end of training: well below
  // log 2 (chance for balanced +-1 labels).
  const double final_eval = result.trace.back().eval_loss;
  EXPECT_LT(final_eval, 0.55) << GetParam();
  // First iteration starts at chance.
  EXPECT_NEAR(result.trace.front().batch_loss, std::log(2.0), 0.05);
  // Time and traffic bookkeeping.
  EXPECT_GT(result.load_time, 0.0);
  EXPECT_GT(result.train_time, 0.0);
  EXPECT_NEAR(result.avg_iter_time, result.train_time / 150.0, 1e-12);
  EXPECT_GT(result.bytes_on_wire, 0u);
  EXPECT_GT(result.messages, 150u);
  // Sim time increases monotonically along the trace.
  for (size_t i = 1; i < result.trace.size(); ++i) {
    EXPECT_GE(result.trace[i].sim_time, result.trace[i - 1].sim_time);
  }
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineConvergenceTest,
                         ::testing::Values("columnsgd", "mllib", "mllib_star",
                                           "petuum", "mxnet"),
                         [](const auto& info) { return info.param; });

TEST(IntegrationTest, SvmAlsoConverges) {
  Dataset d = TrainingData();
  TrainConfig config = BaseConfig();
  config.model = "svm";
  config.learning_rate = 0.5;
  auto engine = MakeEngine("columnsgd", Cluster(), config);
  RunOptions options;
  options.iterations = 150;
  options.eval_every = 150;
  TrainResult result = RunTraining(engine.get(), d, options);
  ASSERT_TRUE(result.status.ok());
  EXPECT_LT(result.trace.back().eval_loss, 0.8);  // hinge at chance is ~1.0
}

TEST(IntegrationTest, FmConvergesOnInteractionData) {
  Dataset d = TrainingData();
  TrainConfig config = BaseConfig();
  config.model = "fm4";
  config.learning_rate = 2.0;
  auto engine = MakeEngine("columnsgd", Cluster(), config);
  RunOptions options;
  options.iterations = 200;
  options.eval_every = 200;
  TrainResult result = RunTraining(engine.get(), d, options);
  ASSERT_TRUE(result.status.ok());
  EXPECT_LT(result.trace.back().eval_loss, 0.6);
}

TEST(IntegrationTest, ColumnSgdBeatsRowSgdPerIterationOnWideModels) {
  // The Table IV ordering at test scale: per-iteration simulated time
  // mllib >> petuum > columnsgd for a wide sparse model.
  SyntheticSpec spec = TinySpec();
  spec.num_rows = 3000;
  spec.num_features = 200000;
  spec.avg_nnz_per_row = 10;
  Dataset d = GenerateSynthetic(spec);

  TrainConfig config = BaseConfig();
  config.batch_size = 100;
  RunOptions options;
  options.iterations = 5;

  std::map<std::string, double> iter_time;
  for (const char* name : {"columnsgd", "mllib", "petuum"}) {
    auto engine = MakeEngine(name, Cluster(), config);
    TrainResult result = RunTraining(engine.get(), d, options);
    ASSERT_TRUE(result.status.ok()) << name;
    iter_time[name] = result.avg_iter_time;
  }
  EXPECT_GT(iter_time["mllib"], 2.0 * iter_time["petuum"]);
  EXPECT_GT(iter_time["petuum"], iter_time["columnsgd"]);
}

TEST(IntegrationTest, ColumnSgdIterationTimeFlatInModelSize) {
  // Fig. 10 at test scale: growing m by 50x leaves the per-iteration time
  // essentially unchanged.
  TrainConfig config = BaseConfig();
  config.batch_size = 100;
  RunOptions options;
  options.iterations = 10;

  std::vector<double> times;
  for (uint64_t m : {20000ull, 1000000ull}) {
    SyntheticSpec spec = TinySpec();
    spec.num_rows = 3000;
    spec.num_features = m;
    spec.avg_nnz_per_row = 10;
    Dataset d = GenerateSynthetic(spec);
    auto engine = MakeEngine("columnsgd", Cluster(), config);
    TrainResult result = RunTraining(engine.get(), d, options);
    ASSERT_TRUE(result.status.ok());
    times.push_back(result.avg_iter_time);
  }
  EXPECT_NEAR(times[1] / times[0], 1.0, 0.2);
}

TEST(IntegrationTest, TraceRecordsNanEvalWhenDisabled) {
  Dataset d = TrainingData();
  auto engine = MakeEngine("columnsgd", Cluster(), BaseConfig());
  RunOptions options;
  options.iterations = 3;
  options.eval_every = 0;
  TrainResult result = RunTraining(engine.get(), d, options);
  ASSERT_TRUE(result.status.ok());
  for (const auto& record : result.trace) {
    EXPECT_TRUE(std::isnan(record.eval_loss));
  }
}

TEST(IntegrationTest, OomSurfacesInResultStatus) {
  Dataset d = TrainingData();
  ClusterSpec cluster = Cluster();
  cluster.node_memory_budget = 4096;
  auto engine = MakeEngine("mllib", cluster, BaseConfig());
  TrainResult result = RunTraining(engine.get(), d, RunOptions{});
  EXPECT_TRUE(result.status.IsOutOfMemory());
  EXPECT_TRUE(result.trace.empty());
}

TEST(IntegrationTest, EvaluateLossMatchesHandComputation) {
  Dataset d;
  d.num_features = 2;
  SparseRow r;
  r.Push(0, 1.0f);
  d.rows.AppendRow(r);
  d.labels.push_back(1.0f);
  auto model = MakeModel("lr");
  std::vector<double> weights = {0.0, 0.0};
  EXPECT_NEAR(EvaluateLoss(*model, weights, d, 10), std::log(2.0), 1e-12);
  weights[0] = 100.0;  // confident correct prediction
  EXPECT_NEAR(EvaluateLoss(*model, weights, d, 10), 0.0, 1e-9);
}

}  // namespace
}  // namespace colsgd
