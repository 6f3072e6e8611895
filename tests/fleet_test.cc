// Tests for the replicated serving fleet (src/serve/fleet.h): health-routed
// shard groups, request hedging, coordinated hot swap, and whole-group
// failover.
//
// The acceptance pins live here:
//  * double runs are bit-identical — route and hedge decisions, scores and
//    completions — across R in {1, 2, 3};
//  * an R = 1 fleet with routing disabled reproduces the single frontend's
//    pinned fingerprint bitwise;
//  * under a straggled group, hedges fire and win, and the hedged tail is
//    measurably shorter than the unhedged one — with the byte overhead
//    accounted;
//  * a coordinated hot swap never mixes generations: every response is
//    scored against exactly one generation, bitwise vs the offline kernel;
//  * a whole-group loss drains every outstanding batch to survivors with
//    zero timeouts and zero wrong answers.
#include <cmath>
#include <cstring>
#include <map>
#include <set>

#include "common/rng.h"
#include "datagen/synthetic.h"
#include "gtest/gtest.h"
#include "model/factory.h"
#include "serve/fleet.h"
#include "serve/registry.h"
#include "serve/wire.h"

namespace colsgd {
namespace {

Dataset FleetQueries(uint64_t features = 120, uint64_t rows = 150) {
  SyntheticSpec spec;
  spec.name = "fleet_test_queries";
  spec.num_rows = rows;
  spec.num_features = features;
  spec.avg_nnz_per_row = 10.0;
  spec.seed = 77;
  return GenerateSynthetic(spec);
}

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::vector<ServeRequest> SteadyArrivals(int64_t num_requests, double rate,
                                         uint64_t seed, size_t num_rows) {
  WorkloadConfig workload;
  workload.rate = rate;
  workload.num_requests = num_requests;
  workload.seed = seed;
  return GenerateArrivals(workload, num_rows);
}

std::vector<double> OfflineScores(const SavedModel& model,
                                  const Dataset& queries, int num_shards) {
  Result<DatasetScores> scored = ScoreDatasetSharded(
      model, "round_robin", num_shards, queries, queries.num_rows());
  EXPECT_TRUE(scored.ok()) << scored.status().ToString();
  return scored->scores;
}

TEST(FleetConfigTest, ValidatesShape) {
  FleetConfig config;
  EXPECT_TRUE(FleetConfig::Validate(config).ok());
  config.replicas = 0;
  EXPECT_FALSE(FleetConfig::Validate(config).ok());
  config.replicas = 2;
  config.routing = false;
  EXPECT_FALSE(FleetConfig::Validate(config).ok())
      << "routing can only be disabled for a single group";
  config.routing = true;
  config.straggle_group = 2;
  EXPECT_FALSE(FleetConfig::Validate(config).ok())
      << "straggle_group must name a group in the fleet";
  config.straggle_group = -1;
  config.hedge_factor = 0.5;
  EXPECT_FALSE(FleetConfig::Validate(config).ok());
  config.hedge_factor = 2.0;
  config.hedge_quantile = 0.0;
  EXPECT_FALSE(FleetConfig::Validate(config).ok());
}

TEST(FleetTest, InstallRejectsUnknownModelName) {
  const Dataset queries = FleetQueries();
  SavedModel model = PlantedModel("lr", queries.num_features, 5);
  model.model_name = "bogus";
  for (int replicas : {1, 2}) {
    FleetConfig config;
    config.replicas = replicas;
    config.serve.num_shards = 4;
    ServeFleet fleet(ClusterSpec::Cluster1(), config, &queries);
    const Status st = fleet.Install(model);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
        << "R=" << replicas << ": " << st.ToString();
  }
  Result<DatasetScores> scored = ScoreDatasetSharded(
      model, "round_robin", 4, queries, queries.num_rows());
  EXPECT_EQ(scored.status().code(), StatusCode::kInvalidArgument);
}

TEST(FleetTest, InstallRejectsUnknownPartitionerName) {
  const Dataset queries = FleetQueries();
  const SavedModel model = PlantedModel("lr", queries.num_features, 5);
  for (int replicas : {1, 2}) {
    FleetConfig config;
    config.replicas = replicas;
    config.serve.num_shards = 4;
    config.serve.partitioner = "block_cyclic_0";
    ServeFleet fleet(ClusterSpec::Cluster1(), config, &queries);
    const Status st = fleet.Install(model);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
        << "R=" << replicas << ": " << st.ToString();
  }
  Result<DatasetScores> scored =
      ScoreDatasetSharded(model, "bogus", 4, queries, queries.num_rows());
  EXPECT_EQ(scored.status().code(), StatusCode::kInvalidArgument);
}

// Every way in to the serving plane rejects the same unservable models: the
// single frontend, a routed fleet of one and of two groups, and offline
// scoring. A rejected install leaves no group with a generation.
TEST(FleetTest, InstallRejectsUnservableModelsOnEveryPath) {
  const Dataset queries = FleetQueries();
  struct Case {
    std::string name;
    SavedModel model;
    std::string partitioner = "round_robin";
  };
  std::vector<Case> cases;
  const SavedModel lr = PlantedModel("lr", queries.num_features, 5);
  cases.push_back({"unknown model name", lr});
  cases.back().model.model_name = "bogus";
  cases.push_back({"mlp8", PlantedModel("mlp8", queries.num_features, 5)});
  cases.push_back({"truncated weights", lr});
  cases.back().model.weights.pop_back();
  cases.push_back({"model narrower than the queries",
                   PlantedModel("lr", queries.num_features - 30, 5)});
  cases.push_back({"unknown partitioner", lr, "bogus"});
  struct Path {
    const char* name;
    bool routing;
    int replicas;
  };
  const Path paths[] = {
      {"single frontend", false, 1}, {"R=1", true, 1}, {"R=2", true, 2}};
  for (const Case& c : cases) {
    for (const Path& path : paths) {
      FleetConfig config;
      config.routing = path.routing;
      config.replicas = path.replicas;
      config.serve.num_shards = 4;
      config.serve.partitioner = c.partitioner;
      ServeFleet fleet(ClusterSpec::Cluster1(), config, &queries);
      const Status st = fleet.Install(c.model);
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
          << c.name << ", " << path.name << ": " << st.ToString();
      for (int g = 0; g < path.replicas; ++g) {
        EXPECT_TRUE(fleet.group(g).registry().history().empty())
            << c.name << ", " << path.name << ": group " << g;
      }
    }
    Result<DatasetScores> scored = ScoreDatasetSharded(
        c.model, c.partitioner, 4, queries, queries.num_rows());
    EXPECT_EQ(scored.status().code(), StatusCode::kInvalidArgument)
        << c.name << ", offline scoring: " << scored.status().ToString();
  }
}

TEST(FleetTest, DoubleRunsAreBitIdenticalAcrossReplicaCounts) {
  const Dataset queries = FleetQueries();
  const SavedModel model = PlantedModel("lr", queries.num_features, 5);
  const std::vector<double> offline = OfflineScores(model, queries, 4);
  const std::vector<ServeRequest> arrivals =
      SteadyArrivals(400, 3000.0, 21, queries.num_rows());
  for (int replicas : {1, 2, 3}) {
    uint64_t first_fingerprint = 0;
    for (int run = 0; run < 2; ++run) {
      FleetConfig config;
      config.replicas = replicas;
      config.serve.num_shards = 4;
      ServeFleet fleet(ClusterSpec::Cluster1(), config, &queries);
      ASSERT_TRUE(fleet.Install(model).ok());
      ASSERT_TRUE(fleet.Run(arrivals).ok());
      const FleetSummary summary = fleet.Summarize();
      EXPECT_EQ(summary.offered, 400);
      EXPECT_EQ(summary.completed + summary.rejected + summary.timed_out,
                400);
      EXPECT_EQ(summary.timed_out, 0) << "R=" << replicas;
      ASSERT_EQ(summary.group_completed.size(),
                static_cast<size_t>(replicas));
      int64_t by_group = 0;
      for (int64_t c : summary.group_completed) by_group += c;
      EXPECT_EQ(by_group, summary.completed);
      if (replicas > 1) {
        // The balancer must actually spread load: no group starves.
        for (int g = 0; g < replicas; ++g) {
          EXPECT_GT(summary.group_completed[static_cast<size_t>(g)], 0)
              << "group " << g << " of " << replicas << " served nothing";
        }
      }
      for (const RequestRecord& rec : fleet.records()) {
        if (rec.status != RequestStatus::kCompleted) continue;
        EXPECT_TRUE(BitEqual(rec.score, offline[rec.row]))
            << "R=" << replicas << " request " << rec.id;
        const double tiled =
            rec.queue_s + rec.scatter_s + rec.compute_s + rec.gather_s;
        EXPECT_NEAR(tiled, rec.completion - rec.arrival, 1e-9);
      }
      // Route decisions, attempt counts, scores, completions — all hashed.
      if (run == 0) {
        first_fingerprint = fleet.Fingerprint();
      } else {
        EXPECT_EQ(fleet.Fingerprint(), first_fingerprint)
            << "R=" << replicas << " double run diverged";
      }
    }
  }
}

TEST(FleetTest, RoutingDisabledReproducesPlainFrontendBitwise) {
  const Dataset queries = FleetQueries();
  const SavedModel model = PlantedModel("lr", queries.num_features, 5);
  const std::vector<ServeRequest> arrivals =
      SteadyArrivals(400, 3000.0, 21, queries.num_rows());

  FleetConfig config;
  config.replicas = 1;
  config.routing = false;
  config.serve.num_shards = 4;
  ServeFleet fleet(ClusterSpec::Cluster1(), config, &queries);
  ASSERT_TRUE(fleet.Install(model).ok());
  ASSERT_TRUE(fleet.Run(arrivals).ok());

  // The single frontend's response hash on this run (serve_test pins the
  // same run): any change to its admission loop or topology moves it.
  EXPECT_EQ(fleet.Fingerprint(), 0xa34f557cULL);
  const FleetSummary summary = fleet.Summarize();
  EXPECT_EQ(summary.replicas, 1);
  EXPECT_EQ(summary.hedges_fired, 0);
  EXPECT_EQ(summary.group_completed, std::vector<int64_t>{summary.completed});
  EXPECT_TRUE(fleet.request_infos().empty())
      << "the single frontend has no routing story";
}

TEST(FleetTest, HedgingCutsTailLatencyUnderStraggledGroup) {
  const Dataset queries = FleetQueries();
  const SavedModel model = PlantedModel("lr", queries.num_features, 5);
  const std::vector<double> offline = OfflineScores(model, queries, 4);
  const std::vector<ServeRequest> arrivals =
      SteadyArrivals(600, 3000.0, 21, queries.num_rows());

  auto run_fleet = [&](bool hedging) {
    FleetConfig config;
    config.replicas = 2;
    config.serve.num_shards = 4;
    config.hedging = hedging;
    // The ISSUE's level-5 straggler: the slow group takes 6x its task time.
    config.straggle_group = 1;
    config.straggle_level = 5.0;
    // A persistent straggler poisons the upper quantiles of the round-trip
    // window, so the budget tracks the median of the mixed window instead.
    config.hedge_quantile = 0.5;
    config.hedge_min_budget = 1e-3;
    auto fleet =
        std::make_unique<ServeFleet>(ClusterSpec::Cluster1(), config,
                                     &queries);
    EXPECT_TRUE(fleet->Install(model).ok());
    EXPECT_TRUE(fleet->Run(arrivals).ok());
    return fleet;
  };

  const auto without = run_fleet(false);
  const auto with = run_fleet(true);
  const FleetSummary base = without->Summarize();
  const FleetSummary hedged = with->Summarize();

  EXPECT_EQ(base.hedges_fired, 0);
  EXPECT_GT(hedged.hedges_fired, 0) << "the straggler never tripped a hedge";
  EXPECT_GT(hedged.hedge_wins, 0) << "no hedge beat the straggled primary";
  EXPECT_GT(hedged.hedge_bytes, 0u) << "hedge traffic must be charged";
  EXPECT_LT(hedged.latency_p99, base.latency_p99)
      << "hedging failed to cut the tail";
  // Hedging is not free — the duplicate work shows up on the wire.
  EXPECT_GT(hedged.wire_bytes, base.wire_bytes);

  // Both runs complete everything correctly; hedging changes latency, not
  // answers.
  for (const ServeFleet* fleet : {without.get(), with.get()}) {
    const FleetSummary summary = fleet->Summarize();
    EXPECT_EQ(summary.completed + summary.rejected, 600);
    EXPECT_EQ(summary.timed_out, 0);
    for (const RequestRecord& rec : fleet->records()) {
      if (rec.status != RequestStatus::kCompleted) continue;
      EXPECT_TRUE(BitEqual(rec.score, offline[rec.row]));
    }
  }
  // A won hedge is visible in the per-request routing story.
  bool saw_hedge_win = false;
  for (const FleetRequestInfo& info : with->request_infos()) {
    if (info.hedge_won) {
      saw_hedge_win = true;
      EXPECT_TRUE(info.hedged);
      EXPECT_GE(info.attempts, 2);
    }
  }
  EXPECT_TRUE(saw_hedge_win);
}

TEST(FleetTest, HotSwapNeverMixesGenerationsFleetWide) {
  const Dataset queries = FleetQueries();
  const SavedModel gen0 = PlantedModel("lr", queries.num_features, 5);
  const SavedModel gen1 = PlantedModel("lr", queries.num_features, 6);
  const SavedModel gen2 = PlantedModel("lr", queries.num_features, 7);
  const std::vector<ServeRequest> arrivals =
      SteadyArrivals(600, 3000.0, 21, queries.num_rows());
  const double horizon = 0.2;  // 600 / 3000

  FleetConfig config;
  config.replicas = 2;
  config.serve.num_shards = 4;
  // A straggled group keeps hedges firing while the swaps land, so the
  // generation barrier is actually exercised, not just present.
  config.straggle_group = 1;
  config.straggle_level = 5.0;
  config.hedge_quantile = 0.5;
  config.hedge_min_budget = 1e-3;
  ServeFleet fleet(ClusterSpec::Cluster1(), config, &queries);
  ASSERT_TRUE(fleet.Install(gen0).ok());
  fleet.ScheduleSwap(horizon / 3.0, gen1, 10);
  fleet.ScheduleSwap(2.0 * horizon / 3.0, gen2, 20);
  ASSERT_TRUE(fleet.Run(arrivals).ok());

  const FleetSummary summary = fleet.Summarize();
  EXPECT_EQ(summary.completed + summary.rejected, 600);
  EXPECT_EQ(summary.timed_out, 0) << "a hot swap must not drop batches";
  EXPECT_EQ(summary.swaps_completed, 2);
  EXPECT_EQ(summary.swaps_failed, 0);

  std::map<int64_t, std::vector<double>> offline;
  offline[0] = OfflineScores(gen0, queries, 4);
  offline[1] = OfflineScores(gen1, queries, 4);
  offline[2] = OfflineScores(gen2, queries, 4);
  std::set<int64_t> generations_seen;
  for (const RequestRecord& rec : fleet.records()) {
    if (rec.status != RequestStatus::kCompleted) continue;
    ASSERT_GE(rec.generation, 0);
    ASSERT_LE(rec.generation, 2);
    generations_seen.insert(rec.generation);
    // A response assembled across a swap — or a hedge substituted across
    // one — would match neither generation's offline vector.
    EXPECT_TRUE(BitEqual(rec.score, offline[rec.generation][rec.row]))
        << "request " << rec.id << " generation " << rec.generation;
  }
  EXPECT_EQ(generations_seen.size(), 3u)
      << "load did not span all three generations";
  // Both groups flipped twice: generations 0..2 all installed ok.
  for (int g = 0; g < 2; ++g) {
    const auto& history = fleet.group(g).registry().history();
    ASSERT_EQ(history.size(), 3u) << "group " << g;
    for (const GenerationInfo& info : history) EXPECT_TRUE(info.ok);
  }
}

// Each generation is sharded once per fleet: the router prepares the model
// and every valid swap image once, and all groups install that one image.
TEST(FleetTest, GroupsShareOneImagePerGeneration) {
  const Dataset queries = FleetQueries();
  FleetConfig config;
  config.replicas = 3;
  config.serve.num_shards = 4;
  ServeFleet fleet(ClusterSpec::Cluster1(), config, &queries);
  ASSERT_TRUE(fleet.Install(PlantedModel("lr", queries.num_features, 5)).ok());
  fleet.ScheduleSwap(0.02, PlantedModel("lr", queries.num_features, 6), 10);
  fleet.ScheduleSwap(0.04, PlantedModel("lr", queries.num_features, 7), 20);
  ASSERT_TRUE(
      fleet.Run(SteadyArrivals(300, 3000.0, 21, queries.num_rows())).ok());
  const GenerationRegistry& first = fleet.group(0).registry();
  for (int g = 0; g < config.replicas; ++g) {
    const GenerationRegistry& registry = fleet.group(g).registry();
    ASSERT_EQ(registry.history().size(), 3u) << "group " << g;
    for (int64_t gen = 0; gen < 3; ++gen) {
      EXPECT_EQ(registry.history()[gen].generation, gen) << "group " << g;
      EXPECT_EQ(&registry.image(gen), &first.image(gen))
          << "group " << g << " holds its own copy of generation " << gen;
    }
  }
}

TEST(FleetTest, WholeGroupLossDrainsToSurvivorsWithZeroTimeouts) {
  const Dataset queries = FleetQueries();
  const SavedModel model = PlantedModel("lr", queries.num_features, 5);
  const std::vector<double> offline = OfflineScores(model, queries, 4);
  const std::vector<ServeRequest> arrivals =
      SteadyArrivals(600, 3000.0, 21, queries.num_rows());

  FleetConfig config;
  config.replicas = 2;
  config.serve.num_shards = 4;
  // Tighten the heartbeat so detection lands inside the 0.2 s run.
  config.detector.heartbeat_interval = 0.01;
  config.detector.heartbeat_timeout = 0.04;
  ServeFleet fleet(ClusterSpec::Cluster1(), config, &queries);
  ASSERT_TRUE(fleet.Install(model).ok());
  const double fail_at = 0.08;
  fleet.ScheduleGroupFailure(fail_at, 0);
  ASSERT_TRUE(fleet.Run(arrivals).ok());

  const FleetSummary summary = fleet.Summarize();
  EXPECT_EQ(summary.group_down_events, 1);
  EXPECT_EQ(summary.timed_out, 0)
      << "with a survivor group, no client-visible timeout is acceptable";
  EXPECT_EQ(summary.completed + summary.rejected, 600);
  // The whole group re-installed: one failover record per shard.
  EXPECT_EQ(summary.failovers, config.serve.num_shards);
  // Zero wrong answers, before, during, and after the loss.
  bool completed_after_failure = false;
  for (const RequestRecord& rec : fleet.records()) {
    if (rec.status != RequestStatus::kCompleted) continue;
    EXPECT_TRUE(BitEqual(rec.score, offline[rec.row]));
    completed_after_failure |= rec.dispatch > fail_at;
  }
  EXPECT_TRUE(completed_after_failure);
  // The survivor carried the interregnum.
  ASSERT_EQ(summary.group_completed.size(), 2u);
  EXPECT_GT(summary.group_completed[1], summary.group_completed[0]);
  // Double run, including the loss and the drain, is bit-identical.
  ServeFleet again(ClusterSpec::Cluster1(), config, &queries);
  ASSERT_TRUE(again.Install(model).ok());
  again.ScheduleGroupFailure(fail_at, 0);
  ASSERT_TRUE(again.Run(arrivals).ok());
  EXPECT_EQ(fleet.Fingerprint(), again.Fingerprint());
}

TEST(FleetTest, SingleShardFailureRedispatchesInsteadOfTimingOut) {
  const Dataset queries = FleetQueries();
  const SavedModel model = PlantedModel("lr", queries.num_features, 5);
  const std::vector<double> offline = OfflineScores(model, queries, 4);
  const std::vector<ServeRequest> arrivals =
      SteadyArrivals(400, 2000.0, 8, queries.num_rows());

  FleetConfig config;
  config.replicas = 2;
  config.serve.num_shards = 4;
  ServeFleet fleet(ClusterSpec::Cluster1(), config, &queries);
  ASSERT_TRUE(fleet.Install(model).ok());
  fleet.ScheduleShardFailure(0.05, /*group=*/0, /*shard=*/2);
  ASSERT_TRUE(fleet.Run(arrivals).ok());

  const FleetSummary summary = fleet.Summarize();
  // The pre-fleet frontend timed these batches out at the client; the
  // routing tier retries them on the sibling group instead.
  EXPECT_EQ(summary.timed_out, 0);
  EXPECT_EQ(summary.completed + summary.rejected, 400);
  EXPECT_GT(summary.redispatches, 0);
  EXPECT_GE(summary.failovers, 1);
  for (const RequestRecord& rec : fleet.records()) {
    if (rec.status != RequestStatus::kCompleted) continue;
    EXPECT_TRUE(BitEqual(rec.score, offline[rec.row]));
  }
  bool saw_retry = false;
  for (const FleetRequestInfo& info : fleet.request_infos()) {
    if (info.attempts >= 2 && !info.hedged) saw_retry = true;
  }
  EXPECT_TRUE(saw_retry) << "no request records a failed-then-retried path";
}

}  // namespace
}  // namespace colsgd
