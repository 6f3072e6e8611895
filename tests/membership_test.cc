// Engine-level elastic-membership tests (DESIGN.md §14): MembershipView
// bookkeeping, the determinism headline (a shrink-then-grow run ends with
// weights bitwise identical to the fixed-membership run's), crash recovery
// through peer replicas with zero checkpoint-storage reads, the r = 0
// checkpoint fallback, damaged replicas down the recovery ladder, and the
// planned-departure vs crash distinction.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cluster/membership.h"
#include "datagen/synthetic.h"
#include "engine/elastic.h"
#include "engine/trainer.h"

namespace colsgd {
namespace {

// --- MembershipView -------------------------------------------------------

TEST(MembershipViewTest, InitialActiveSetAndSpares) {
  MembershipView view(4, 6);
  EXPECT_EQ(view.active(), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(view.num_active(), 4);
  EXPECT_EQ(view.max_workers(), 6);
  EXPECT_TRUE(view.is_active(3));
  EXPECT_FALSE(view.is_active(4));
  EXPECT_EQ(view.generation(), 0);
}

TEST(MembershipViewTest, RemoveAddBumpGeneration) {
  MembershipView view(3, 4);
  ASSERT_TRUE(view.Remove(1).ok());
  EXPECT_EQ(view.active(), (std::vector<int>{0, 2}));
  EXPECT_EQ(view.generation(), 1);
  ASSERT_TRUE(view.Add(3).ok());
  EXPECT_EQ(view.active(), (std::vector<int>{0, 2, 3}));
  EXPECT_EQ(view.generation(), 2);
}

TEST(MembershipViewTest, RejectsInvalidTransitions) {
  MembershipView view(2, 3);
  EXPECT_FALSE(view.Remove(2).ok());  // not active
  EXPECT_FALSE(view.Add(1).ok());     // already active
  ASSERT_TRUE(view.Remove(1).ok());
  EXPECT_FALSE(view.Remove(0).ok());  // last active rank
}

TEST(MembershipViewTest, AutoPickRules) {
  MembershipView view(3, 5);
  EXPECT_EQ(view.PickShrink(), 2);  // highest active
  EXPECT_EQ(view.PickGrow(), 3);    // lowest inactive
  ASSERT_TRUE(view.Remove(1).ok());
  EXPECT_EQ(view.PickGrow(), 1);    // removed rank is the first gap
  ASSERT_TRUE(view.Add(1).ok());
  ASSERT_TRUE(view.Add(3).ok());
  ASSERT_TRUE(view.Add(4).ok());
  EXPECT_EQ(view.PickGrow(), -1);   // everything provisioned is active
  MembershipView lone(1, 2);
  EXPECT_EQ(lone.PickShrink(), -1);  // never shrink to zero
}

// --- Engine-level elasticity ----------------------------------------------

Dataset TestData() {
  SyntheticSpec spec = TinySpec();
  spec.num_rows = 2000;
  spec.num_features = 300;
  return GenerateSynthetic(spec);
}

ClusterSpec ElasticCluster(int workers = 4, int spares = 2) {
  ClusterSpec spec = ClusterSpec::Cluster1();
  spec.num_workers = workers;
  spec.max_workers = workers + spares;
  return spec;
}

TrainConfig ElasticConfigFor(int replication) {
  TrainConfig config;
  config.model = "lr";
  config.learning_rate = 0.5;
  config.batch_size = 128;
  config.block_rows = 256;
  config.elastic.enabled = true;
  config.elastic.replication = replication;
  return config;
}

FaultConfig MembershipFaults(std::vector<MembershipChange> changes) {
  FaultPlanConfig plan;
  plan.membership = std::move(changes);
  FaultConfig faults;
  faults.plan = FaultPlan(std::move(plan));
  return faults;
}

TrainResult RunPlain(const std::string& engine_name, const Dataset& d,
                     const RunOptions& options, std::vector<double>* weights) {
  TrainConfig config;
  config.model = "lr";
  config.learning_rate = 0.5;
  config.batch_size = 128;
  config.block_rows = 256;
  ClusterSpec cluster = ClusterSpec::Cluster1();
  cluster.num_workers = 4;
  auto engine = MakeEngine(engine_name, cluster, config);
  TrainResult result = RunTraining(engine.get(), d, options);
  *weights = engine->FullModel();
  return result;
}

class ElasticEngineTest : public ::testing::TestWithParam<const char*> {};

// §14 headline: membership churn reassigns ownership but never moves the
// authoritative math, so the elastic run's final weights are BITWISE equal
// to the plain fixed-membership run's.
TEST_P(ElasticEngineTest, ShrinkThenGrowMatchesFixedMembershipBitwise) {
  Dataset d = TestData();
  RunOptions options;
  options.iterations = 40;

  std::vector<double> plain_weights;
  TrainResult plain = RunPlain(GetParam(), d, options, &plain_weights);
  ASSERT_TRUE(plain.status.ok());

  auto run_elastic = [&](std::vector<double>* weights) {
    auto engine = MakeEngine(GetParam(), ElasticCluster(), ElasticConfigFor(1));
    engine->set_faults(MembershipFaults(
        {{10, MembershipChange::Kind::kShrink, -1},
         {20, MembershipChange::Kind::kGrow, -1}}));
    TrainResult result = RunTraining(engine.get(), d, options);
    *weights = engine->FullModel();
    return result;
  };

  std::vector<double> elastic_weights;
  TrainResult elastic = run_elastic(&elastic_weights);
  ASSERT_TRUE(elastic.status.ok());
  EXPECT_EQ(elastic.recovery.planned_departures, 1);
  EXPECT_EQ(elastic.recovery.grows, 1);
  EXPECT_EQ(elastic.recovery.crash_removals, 0);
  EXPECT_GT(elastic.recovery.membership_seconds, 0.0);
  EXPECT_GT(elastic.recovery.membership_bytes_moved, 0u);
  EXPECT_EQ(elastic.recovery.iterations_lost, 0);
  EXPECT_EQ(elastic_weights, plain_weights);

  // Same schedule replayed: bitwise weights and byte-identical traffic.
  std::vector<double> replay_weights;
  TrainResult replay = run_elastic(&replay_weights);
  ASSERT_TRUE(replay.status.ok());
  EXPECT_EQ(replay_weights, elastic_weights);
  EXPECT_EQ(replay.bytes_on_wire, elastic.bytes_on_wire);
  EXPECT_EQ(replay.messages, elastic.messages);
}

// A crash under r >= 1 recovers through the top rung of the ladder: peer
// replica fetches only — the checkpoint store is never read and nothing is
// re-seeded, so no update is lost and the math stays bitwise intact.
TEST_P(ElasticEngineTest, CrashRecoversFromPeerReplicasOnly) {
  Dataset d = TestData();
  RunOptions options;
  options.iterations = 40;

  std::vector<double> plain_weights;
  ASSERT_TRUE(RunPlain(GetParam(), d, options, &plain_weights).status.ok());

  auto engine = MakeEngine(GetParam(), ElasticCluster(), ElasticConfigFor(1));
  FaultConfig faults;
  faults.plan =
      FaultPlan::Scripted({{15, 1, FaultKind::kWorkerFailure}});
  faults.checkpoint.every = 10;  // present but must never be read from
  engine->set_faults(faults);
  TrainResult result = RunTraining(engine.get(), d, options);
  ASSERT_TRUE(result.status.ok());

  EXPECT_EQ(result.recovery.worker_failures, 1);
  EXPECT_EQ(result.recovery.crash_removals, 1);
  EXPECT_GE(result.recovery.peer_replica_fetches, 1);
  EXPECT_GT(result.recovery.peer_fetch_bytes, 0u);
  EXPECT_EQ(result.recovery.checkpoint_restore_reads, 0);
  EXPECT_EQ(result.recovery.reseeds, 0);
  EXPECT_EQ(result.recovery.iterations_lost, 0);
  EXPECT_EQ(engine->FullModel(), plain_weights);
}

// With r = 0 there is no surviving copy of the crashed rank's blocks, so
// recovery falls down the ladder to the checkpoint store.
TEST_P(ElasticEngineTest, ReplicationZeroFallsBackToCheckpoint) {
  Dataset d = TestData();
  RunOptions options;
  options.iterations = 40;

  auto engine = MakeEngine(GetParam(), ElasticCluster(), ElasticConfigFor(0));
  FaultConfig faults;
  faults.plan =
      FaultPlan::Scripted({{15, 1, FaultKind::kWorkerFailure}});
  faults.checkpoint.every = 10;
  engine->set_faults(faults);
  TrainResult result = RunTraining(engine.get(), d, options);
  ASSERT_TRUE(result.status.ok());

  EXPECT_EQ(result.recovery.peer_replica_fetches, 0);
  EXPECT_GE(result.recovery.checkpoint_restore_reads, 1);
}

// Runs 40 iterations with r = 2, rank 1 crashing at iteration 15 and a
// checkpoint every 10. Just before the crash, one bit is flipped in each of
// the first `damaged` surviving copies of partition 1, which rank 1 owns;
// block 1 is the block the recovery fetch verifies (PS: the shard slice,
// ColumnSGD: the column shards).
RecoveryMetrics CrashWithDamagedCopies(const char* engine_name,
                                       const Dataset& d, int damaged,
                                       std::vector<double>* weights) {
  auto engine =
      MakeEngine(engine_name, ElasticCluster(), ElasticConfigFor(2));
  FaultConfig faults;
  faults.plan =
      FaultPlan::Scripted({{15, 1, FaultKind::kWorkerFailure}});
  faults.checkpoint.every = 10;
  EXPECT_TRUE(engine->set_faults(faults).ok());
  EXPECT_TRUE(engine->Setup(d).ok());
  for (int64_t iter = 0; iter < 40; ++iter) {
    if (iter == 15) {
      BlockStore* store =
          dynamic_cast<ElasticEngine*>(engine.get())->mutable_block_store();
      const std::vector<int> holders = store->Holders(1);
      EXPECT_EQ(holders.size(), 3u);
      EXPECT_EQ(holders.front(), 1);
      for (int i = 1; i <= damaged; ++i) store->FlipBit(1, holders[i], 100);
    }
    EXPECT_TRUE(engine->RunIteration(iter).ok());
  }
  EXPECT_TRUE(engine->FinishTraining().ok());
  *weights = engine->FullModel();
  return engine->recovery_metrics();
}

// A damaged replica fails its CRC check and the fetch falls through to the
// next holder: still the top rung, nothing lost.
TEST_P(ElasticEngineTest, DamagedReplicaFallsThroughToTheNextHolder) {
  Dataset d = TestData();
  RunOptions options;
  options.iterations = 40;
  std::vector<double> plain_weights;
  ASSERT_TRUE(RunPlain(GetParam(), d, options, &plain_weights).status.ok());

  std::vector<double> weights;
  const RecoveryMetrics recovery =
      CrashWithDamagedCopies(GetParam(), d, /*damaged=*/1, &weights);
  EXPECT_EQ(recovery.replica_crc_rejections, 1);
  EXPECT_GE(recovery.peer_replica_fetches, 1);
  EXPECT_EQ(recovery.checkpoint_restore_reads, 0);
  EXPECT_EQ(recovery.iterations_lost, 0);
  EXPECT_EQ(weights, plain_weights);
}

// With every surviving copy damaged, the ladder's next rung restores the
// partition from the iteration-10 checkpoint, losing five iterations.
TEST_P(ElasticEngineTest, EveryCopyDamagedFallsToTheCheckpoint) {
  Dataset d = TestData();
  std::vector<double> weights;
  const RecoveryMetrics recovery =
      CrashWithDamagedCopies(GetParam(), d, /*damaged=*/2, &weights);
  EXPECT_EQ(recovery.replica_crc_rejections, 2);
  EXPECT_EQ(recovery.checkpoint_restore_reads, 1);
  EXPECT_EQ(recovery.iterations_lost, 5);
}

// A planned decommission hands state off before the rank leaves: it counts
// as a planned departure, not a detected worker failure, and the departed
// rank draws no further faults.
TEST_P(ElasticEngineTest, PlannedDepartureIsNotAWorkerFailure) {
  Dataset d = TestData();
  RunOptions options;
  options.iterations = 30;

  auto engine = MakeEngine(GetParam(), ElasticCluster(), ElasticConfigFor(1));
  engine->set_faults(
      MembershipFaults({{12, MembershipChange::Kind::kShrink, -1}}));
  TrainResult result = RunTraining(engine.get(), d, options);
  ASSERT_TRUE(result.status.ok());

  EXPECT_EQ(result.recovery.planned_departures, 1);
  EXPECT_EQ(result.recovery.worker_failures, 0);
  EXPECT_EQ(result.recovery.crash_removals, 0);
  EXPECT_EQ(result.recovery.faults_on_departed_workers, 0);
  EXPECT_EQ(result.recovery.iterations_lost, 0);
}

INSTANTIATE_TEST_SUITE_P(Engines, ElasticEngineTest,
                         ::testing::Values("columnsgd", "petuum", "mxnet"));

}  // namespace
}  // namespace colsgd
