// Tests for the serving plane (src/serve): the column-sharded inference
// kernel, the workload generator, and the frontend's batching, latency
// accounting, hot model swap, and shard failover.
//
// The acceptance pins live here:
//  * single-shard kernel == ModelSpec::RowScore bit-for-bit (GLMs);
//  * K-shard kernel == row path to 1e-9 (reassociated sums);
//  * online scores == offline kernel scores bit-for-bit (the
//    colsgd_predict golden-compare);
//  * queue + scatter + compute + gather tiles end-to-end latency to 1e-9;
//  * attaching a tracer changes no simulated timestamp and no response;
//  * a hot swap under sustained load drops nothing and every response is
//    scored against exactly one model generation;
//  * a shard failure times out only its batch — never a wrong answer —
//    and the replacement resumes the active generation.
#include <cmath>
#include <cstring>
#include <set>

#include "common/rng.h"
#include "datagen/synthetic.h"
#include "engine/trainer.h"
#include "gtest/gtest.h"
#include "model/factory.h"
#include "model/mlr.h"
#include "obs/trace.h"
#include "serve/fleet.h"
#include "serve/inference.h"
#include "serve/registry.h"
#include "serve/wire.h"

namespace colsgd {
namespace {

Dataset TestQueries(uint64_t features = 120, uint64_t rows = 150,
                    int num_classes = 2) {
  SyntheticSpec spec;
  spec.name = "serve_test_queries";
  spec.num_rows = rows;
  spec.num_features = features;
  spec.avg_nnz_per_row = 10.0;
  spec.num_classes = num_classes;
  spec.seed = 77;
  return GenerateSynthetic(spec);
}

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// ---- Inference kernel ----------------------------------------------------

TEST(InferenceKernelTest, SingleShardMatchesRowScoreBitwise) {
  const Dataset queries = TestQueries();
  for (const char* name : {"lr", "svm"}) {
    const SavedModel model = PlantedModel(name, queries.num_features, 5);
    Result<DatasetScores> scored = ScoreDatasetSharded(
        model, "round_robin", 1, queries, queries.num_rows());
    ASSERT_TRUE(scored.ok()) << scored.status().ToString();
    std::unique_ptr<ModelSpec> spec = MakeModel(name);
    for (size_t i = 0; i < queries.num_rows(); ++i) {
      const double row_score =
          spec->RowScore(queries.rows.Row(i), model.weights);
      EXPECT_TRUE(BitEqual(scored->scores[i], row_score))
          << name << " row " << i << ": " << scored->scores[i]
          << " != " << row_score;
    }
  }
}

TEST(InferenceKernelTest, MultiShardMatchesRowPathClosely) {
  const Dataset queries = TestQueries();
  for (const char* name : {"lr", "fm4"}) {
    const SavedModel model = PlantedModel(name, queries.num_features, 5);
    std::unique_ptr<ModelSpec> spec = MakeModel(name);
    for (const char* partitioner : {"round_robin", "range"}) {
      Result<DatasetScores> scored = ScoreDatasetSharded(
          model, partitioner, 4, queries, queries.num_rows());
      ASSERT_TRUE(scored.ok()) << scored.status().ToString();
      for (size_t i = 0; i < queries.num_rows(); ++i) {
        const double row_score =
            spec->RowScore(queries.rows.Row(i), model.weights);
        EXPECT_NEAR(scored->scores[i], row_score, 1e-9)
            << name << "/" << partitioner << " row " << i;
      }
    }
  }
}

TEST(KernelModeServingTest, RangeShardsWithEmptySlicesStillMatch) {
  // Range partitioning a low-dimensional model over many shards leaves some
  // shards with nearly empty slices — the empty-shard serving edge case.
  // Scores still track the row path, and a rerun repeats them bit for bit.
  const Dataset queries = TestQueries(/*features=*/13, /*rows=*/300);
  for (const char* name : {"lr", "svm", "fm4"}) {
    const SavedModel model = PlantedModel(name, queries.num_features, 29);
    std::unique_ptr<ModelSpec> spec = MakeModel(name);
    Result<DatasetScores> scored =
        ScoreDatasetSharded(model, "range", 8, queries, 300);
    ASSERT_TRUE(scored.ok()) << scored.status().ToString();
    Result<DatasetScores> again =
        ScoreDatasetSharded(model, "range", 8, queries, 300);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    ASSERT_EQ(scored->scores.size(), queries.num_rows());
    for (size_t i = 0; i < queries.num_rows(); ++i) {
      const double row_score =
          spec->RowScore(queries.rows.Row(i), model.weights);
      EXPECT_NEAR(scored->scores[i], row_score, 1e-9)
          << name << " row " << i;
      EXPECT_TRUE(BitEqual(again->scores[i], scored->scores[i]))
          << name << " row " << i;
    }
    EXPECT_TRUE(BitEqual(again->avg_loss, scored->avg_loss)) << name;
  }
}

TEST(InferenceKernelTest, MlrShardedArgmaxMatchesSingleShard) {
  const Dataset queries = TestQueries(120, 150, /*num_classes=*/4);
  const SavedModel model = PlantedModel("mlr4", queries.num_features, 9);
  Result<DatasetScores> one = ScoreDatasetSharded(model, "round_robin", 1,
                                                  queries,
                                                  queries.num_rows());
  Result<DatasetScores> four = ScoreDatasetSharded(model, "round_robin", 4,
                                                   queries,
                                                   queries.num_rows());
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(four.ok());
  for (size_t i = 0; i < queries.num_rows(); ++i) {
    // The score is the argmax class id; with random planted weights the
    // class margins are far from exact ties, so reassociation cannot flip
    // the argmax.
    EXPECT_EQ(one->scores[i], four->scores[i]) << "row " << i;
    EXPECT_GE(one->scores[i], 0.0);
    EXPECT_LT(one->scores[i], 4.0);
  }
}

/// 300 rows over 13 features: seeded rows, with an empty row and a
/// one-feature row (which misses every other shard) on both sides of the
/// 256-row chunk boundary of ScoreDatasetSharded.
Dataset ReferenceQueries(int num_classes) {
  const Dataset seeded =
      TestQueries(/*features=*/13, /*rows=*/296, num_classes);
  Dataset queries;
  queries.num_features = seeded.num_features;
  queries.num_classes = seeded.num_classes;
  size_t next = 0;
  for (size_t i = 0; i < 300; ++i) {
    if (i == 0 || i == 256) {
      queries.rows.AppendEmptyRow();
      queries.labels.push_back(seeded.labels[0]);
    } else if (i == 255 || i == 299) {
      const uint32_t feature = static_cast<uint32_t>(i % 13);
      const float value = 0.5f;
      queries.rows.AppendRow(&feature, &value, 1);
      queries.labels.push_back(seeded.labels[0]);
    } else {
      queries.rows.AppendRow(seeded.rows.Row(next));
      queries.labels.push_back(seeded.labels[next]);
      ++next;
    }
  }
  return queries;
}

/// Scores built by hand: each shard's slice of a row keeps the row's element
/// order, its partial starts at zero and takes ComputePartialStats against
/// ShardSavedModel's partition, and the partials add into zeros in shard
/// order before ScoreFromStats.
std::vector<double> HandBuiltShardScores(const SavedModel& model,
                                         const ModelSpec& spec,
                                         const ColumnPartitioner& partitioner,
                                         const Dataset& queries) {
  const ShardedModelImage image = ShardSavedModel(model, spec, partitioner);
  const size_t spp = static_cast<size_t>(spec.stats_per_point());
  std::vector<double> scores;
  for (size_t i = 0; i < queries.num_rows(); ++i) {
    const SparseVectorView row = queries.rows.Row(i);
    std::vector<double> agg(spp, 0.0);
    for (int k = 0; k < partitioner.num_workers(); ++k) {
      SparseRow slice;
      for (size_t j = 0; j < row.nnz; ++j) {
        if (partitioner.Owner(row.indices[j]) != k) continue;
        slice.Push(static_cast<uint32_t>(
                       partitioner.LocalIndex(row.indices[j])),
                   row.values[j]);
      }
      BatchView view;
      view.rows.push_back(slice.View());
      view.labels.push_back(0.0f);
      std::vector<double> partial(spp, 0.0);
      spec.ComputePartialStats(view, image.partitions[k], &partial, nullptr);
      for (size_t s = 0; s < spp; ++s) agg[s] += partial[s];
    }
    scores.push_back(spec.ScoreFromStats(agg.data()));
  }
  return scores;
}

TEST(InferenceKernelTest, ShardedScoresMatchHandBuiltReference) {
  struct Case {
    const char* partitioner;
    int shards;
  };
  for (const char* name : {"lr", "svm", "fm4", "mlr3"}) {
    const Dataset queries =
        ReferenceQueries(std::string(name) == "mlr3" ? 3 : 2);
    const SavedModel model = PlantedModel(name, queries.num_features, 41);
    std::unique_ptr<ModelSpec> spec = MakeModel(name);
    for (const Case& split : {Case{"round_robin", 1}, Case{"round_robin", 3},
                              Case{"round_robin", 8}, Case{"range", 8}}) {
      std::unique_ptr<ColumnPartitioner> partitioner = MakePartitioner(
          split.partitioner, queries.num_features, split.shards);
      const std::vector<double> expected =
          HandBuiltShardScores(model, *spec, *partitioner, queries);
      Result<DatasetScores> scored = ScoreDatasetSharded(
          model, split.partitioner, split.shards, queries, queries.num_rows());
      ASSERT_TRUE(scored.ok()) << scored.status().ToString();
      ASSERT_EQ(scored->scores.size(), expected.size());
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_TRUE(BitEqual(scored->scores[i], expected[i]))
            << name << " " << split.partitioner << "/" << split.shards
            << " row " << i << ": " << scored->scores[i]
            << " != " << expected[i];
      }
    }
  }
}

template <typename T>
void ExpectSameBits(const std::vector<T>& got, const std::vector<T>& want,
                    const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::memcmp(&got[i], &want[i], sizeof(T)), 0)
        << what << " [" << i << "]";
  }
}

void ExpectSameSlice(const CsrBatch& got, const CsrBatch& want,
                     const std::string& what) {
  ExpectSameBits(got.indices(), want.indices(), what + " indices");
  ExpectSameBits(got.values(), want.values(), what + " values");
  ExpectSameBits(got.row_offsets(), want.row_offsets(), what + " offsets");
}

TEST(InferenceKernelTest, ReusedScorerMatchesFreshScorerBitwise) {
  // One scorer runs batches of 8, 1, 13 and 8 rows; the last follows a
  // larger batch and holds the empty and one-feature rows, so a stale
  // buffer would show in its slices or statistics.
  struct Window {
    size_t begin;
    size_t rows;
  };
  const Window windows[] = {{0, 8}, {255, 1}, {100, 13}, {250, 8}};
  struct Case {
    const char* partitioner;
    int shards;
  };
  for (const char* name : {"lr", "svm", "fm4", "mlr3"}) {
    const Dataset queries =
        ReferenceQueries(std::string(name) == "mlr3" ? 3 : 2);
    const SavedModel model = PlantedModel(name, queries.num_features, 41);
    std::unique_ptr<ModelSpec> spec = MakeModel(name);
    for (const Case& split : {Case{"round_robin", 1}, Case{"round_robin", 3},
                              Case{"round_robin", 8}, Case{"range", 8}}) {
      std::unique_ptr<ColumnPartitioner> partitioner = MakePartitioner(
          split.partitioner, queries.num_features, split.shards);
      const ShardedModelImage image =
          ShardSavedModel(model, *spec, *partitioner);
      ShardBatchScorer reused;
      for (const Window& window : windows) {
        const std::string what =
            std::string(name) + " " + split.partitioner + "/" +
            std::to_string(split.shards) + " batch at " +
            std::to_string(window.begin);
        std::vector<SparseVectorView> rows;
        for (size_t i = 0; i < window.rows; ++i) {
          rows.push_back(queries.rows.Row(window.begin + i));
        }
        reused.Split(rows.data(), rows.size(), *partitioner);
        const ShardScoreResult& got = reused.Score(*spec, image);
        ShardBatchScorer fresh;
        fresh.Split(rows.data(), rows.size(), *partitioner);
        const ShardScoreResult& want = fresh.Score(*spec, image);
        ExpectSameBits(got.scores, want.scores, what + " scores");
        ExpectSameBits(got.agg_stats, want.agg_stats, what + " agg stats");
        ExpectSameBits(got.shard_flops, want.shard_flops, what + " flops");
        EXPECT_EQ(got.reduce_flops, want.reduce_flops) << what;
        const std::vector<CsrBatch> owned =
            SplitBatchByShard(rows, *partitioner);
        ASSERT_EQ(owned.size(), static_cast<size_t>(split.shards)) << what;
        for (int k = 0; k < split.shards; ++k) {
          const std::string shard = what + " shard " + std::to_string(k);
          ExpectSameSlice(reused.slice(k), fresh.slice(k), shard);
          ExpectSameSlice(reused.slice(k), owned[k], shard);
        }
      }
    }
  }
}

TEST(MlrLabelTest, RejectsLabelsOutsideClassRange) {
  // ±1 labels are binary labels; -1 is no class of mlr4. Both places where a
  // dataset meets an MLR model return the error instead of reading
  // probs[-1].
  const Dataset binary = TestQueries();
  const SavedModel model = PlantedModel("mlr4", binary.num_features, 9);
  Result<DatasetScores> scored = ScoreDatasetSharded(
      model, "round_robin", 4, binary, binary.num_rows());
  EXPECT_EQ(scored.status().code(), StatusCode::kInvalidArgument);
  TrainConfig config;
  config.model = "mlr4";
  config.batch_size = 50;
  for (const char* engine : {"columnsgd", "mllib", "mllib_star", "mxnet",
                             "petuum"}) {
    ClusterSpec cluster = ClusterSpec::Cluster1();
    cluster.num_workers = 4;
    const Status st = MakeEngine(engine, cluster, config)->Setup(binary);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
        << engine << ": " << st.ToString();
  }
  // Class ids pass; a class id of C, a fraction and NaN do not.
  const MultinomialLogisticRegression mlr4(4);
  EXPECT_TRUE(mlr4.CheckLabels({0.0f, 1.0f, 2.0f, 3.0f}).ok());
  for (float bad : {4.0f, 1.5f, -1.0f, std::nanf("")}) {
    EXPECT_EQ(mlr4.CheckLabels({0.0f, bad}).code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
}

TEST(InferenceKernelTest, SplitBatchByShardRebuildsEveryRow) {
  const Dataset queries = TestQueries();
  for (const char* name : {"round_robin", "range", "block_cyclic_4"}) {
    for (int shards : {3, 4}) {
      std::unique_ptr<ColumnPartitioner> partitioner =
          MakePartitioner(name, queries.num_features, shards);
      // Seeded rows, then an empty row, then a row whose features all land
      // on shard 1, listed in descending index order.
      std::vector<SparseVectorView> rows;
      for (size_t i = 0; i < 40; ++i) rows.push_back(queries.rows.Row(i));
      rows.push_back(SparseVectorView{});
      SparseRow one_shard;
      for (uint64_t f = queries.num_features; f-- > 0;) {
        if (partitioner->Owner(f) == 1 && one_shard.nnz() < 6) {
          one_shard.Push(static_cast<uint32_t>(f),
                         0.25f * static_cast<float>(f));
        }
      }
      ASSERT_EQ(one_shard.nnz(), 6u) << name;
      rows.push_back(one_shard.View());

      const std::vector<CsrBatch> slices =
          SplitBatchByShard(rows, *partitioner);
      ASSERT_EQ(slices.size(), static_cast<size_t>(shards));
      for (const CsrBatch& slice : slices) {
        ASSERT_EQ(slice.num_rows(), rows.size()) << name;
      }
      for (size_t i = 0; i < rows.size(); ++i) {
        // Each input entry is the next unread entry of its owner's slice
        // row, so walking the input consumes every slice row in order.
        std::vector<size_t> next(static_cast<size_t>(shards), 0);
        for (size_t j = 0; j < rows[i].nnz; ++j) {
          const int owner = partitioner->Owner(rows[i].indices[j]);
          const SparseVectorView part = slices[owner].Row(i);
          size_t& at = next[static_cast<size_t>(owner)];
          ASSERT_LT(at, part.nnz) << name << " row " << i;
          EXPECT_LT(part.indices[at], partitioner->LocalDim(owner));
          EXPECT_EQ(partitioner->GlobalIndex(owner, part.indices[at]),
                    rows[i].indices[j])
              << name << " row " << i << " entry " << j;
          EXPECT_EQ(part.values[at], rows[i].values[j]);
          ++at;
        }
        for (int k = 0; k < shards; ++k) {
          EXPECT_EQ(next[static_cast<size_t>(k)], slices[k].Row(i).nnz)
              << name << " row " << i << " shard " << k;
        }
      }
    }
  }
}

TEST(InferenceKernelTest, RejectsUnservableAndMismatchedModels) {
  const Dataset queries = TestQueries();
  // The MLP needs its activations, not just additive statistics.
  SavedModel mlp = PlantedModel("mlp8", queries.num_features, 3);
  EXPECT_FALSE(ScoreDatasetSharded(mlp, "round_robin", 2, queries,
                                   queries.num_rows())
                   .ok());
  // Truncated weight vector.
  SavedModel broken = PlantedModel("lr", queries.num_features, 3);
  broken.weights.pop_back();
  EXPECT_FALSE(ScoreDatasetSharded(broken, "round_robin", 2, queries,
                                   queries.num_rows())
                   .ok());
  // Dataset wider than the model.
  SavedModel narrow = PlantedModel("lr", queries.num_features - 10, 3);
  EXPECT_FALSE(ScoreDatasetSharded(narrow, "round_robin", 2, queries,
                                   queries.num_rows())
                   .ok());
}

// ---- Workload generator --------------------------------------------------

TEST(WorkloadTest, ArrivalsAreDeterministicSortedAndInRange) {
  WorkloadConfig config;
  config.arrivals = "burst";
  config.rate = 3000.0;
  config.num_requests = 500;
  config.seed = 11;
  const std::vector<ServeRequest> a = GenerateArrivals(config, 200);
  const std::vector<ServeRequest> b = GenerateArrivals(config, 200);
  ASSERT_EQ(a.size(), 500u);
  ASSERT_EQ(b.size(), 500u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, i);
    EXPECT_TRUE(BitEqual(a[i].arrival, b[i].arrival));
    EXPECT_EQ(a[i].row, b[i].row);
    EXPECT_LT(a[i].row, 200u);
    if (i > 0) {
      EXPECT_GE(a[i].arrival, a[i - 1].arrival);
    }
  }
  config.seed = 12;
  const std::vector<ServeRequest> c = GenerateArrivals(config, 200);
  bool differs = false;
  for (size_t i = 0; i < c.size(); ++i) {
    differs |= !BitEqual(a[i].arrival, c[i].arrival);
  }
  EXPECT_TRUE(differs) << "seed must drive the arrival process";
}

TEST(WorkloadTest, ValidatesConfigs) {
  WorkloadConfig config;
  config.arrivals = "adversarial";
  EXPECT_FALSE(WorkloadConfig::Validate(config).ok());
  config.arrivals = "poisson";
  config.rate = 0.0;
  EXPECT_FALSE(WorkloadConfig::Validate(config).ok());
  config.rate = 100.0;
  config.arrivals = "burst";
  config.burst_duration = 2.0 * config.burst_period;
  EXPECT_FALSE(WorkloadConfig::Validate(config).ok());
}

// ---- Frontend ------------------------------------------------------------

/// \brief The single frontend: a fleet of one group with routing off.
FleetConfig SingleFrontend(const ServeConfig& serve) {
  FleetConfig config;
  config.replicas = 1;
  config.routing = false;
  config.serve = serve;
  return config;
}

struct ServedRun {
  std::unique_ptr<ServeFleet> frontend;
  std::vector<ServeRequest> arrivals;
};

ServedRun ServeSteady(const Dataset& queries, Tracer* tracer = nullptr,
                      int64_t num_requests = 400, double rate = 3000.0) {
  ServeConfig config;
  config.num_shards = 4;
  ServedRun run;
  run.frontend = std::make_unique<ServeFleet>(
      ClusterSpec::Cluster1(), SingleFrontend(config), &queries);
  if (tracer != nullptr) run.frontend->set_tracer(tracer);
  EXPECT_TRUE(
      run.frontend->Install(PlantedModel("lr", queries.num_features, 5)).ok());
  WorkloadConfig workload;
  workload.rate = rate;
  workload.num_requests = num_requests;
  workload.seed = 21;
  run.arrivals = GenerateArrivals(workload, queries.num_rows());
  EXPECT_TRUE(run.frontend->Run(run.arrivals).ok());
  return run;
}

TEST(ServeFrontendTest, LatencyDecompositionTilesExactly) {
  const Dataset queries = TestQueries();
  const ServedRun run = ServeSteady(queries);
  int64_t completed = 0;
  for (const RequestRecord& rec : run.frontend->records()) {
    ASSERT_EQ(rec.status, RequestStatus::kCompleted);
    ++completed;
    EXPECT_GE(rec.queue_s, 0.0);
    EXPECT_GE(rec.scatter_s, 0.0);
    EXPECT_GE(rec.compute_s, 0.0);
    EXPECT_GE(rec.gather_s, 0.0);
    const double tiled =
        rec.queue_s + rec.scatter_s + rec.compute_s + rec.gather_s;
    EXPECT_NEAR(tiled, rec.completion - rec.arrival, 1e-9)
        << "request " << rec.id;
    EXPECT_GE(rec.dispatch, rec.arrival);
    EXPECT_GT(rec.completion, rec.dispatch);
  }
  EXPECT_EQ(completed, 400);
  const ServeSummary summary = run.frontend->Summarize();
  EXPECT_EQ(summary.offered, 400);
  EXPECT_EQ(summary.completed, 400);
  EXPECT_GT(summary.latency_p50, 0.0);
  EXPECT_LE(summary.latency_p50, summary.latency_p95);
  EXPECT_LE(summary.latency_p95, summary.latency_p99);
  EXPECT_LE(summary.latency_p99, summary.latency_max);
  EXPECT_GT(summary.wire_bytes, 0u);
}

TEST(ServeFrontendTest, OnlineScoresMatchOfflineKernelBitwise) {
  // The colsgd_predict golden-compare: the batched online path and the
  // offline dataset path run the same kernel, so scores agree bit-for-bit
  // even though batch compositions differ.
  const Dataset queries = TestQueries();
  const ServedRun run = ServeSteady(queries);
  Result<DatasetScores> offline =
      ScoreDatasetSharded(PlantedModel("lr", queries.num_features, 5),
                          "round_robin", 4, queries, queries.num_rows());
  ASSERT_TRUE(offline.ok());
  for (const RequestRecord& rec : run.frontend->records()) {
    ASSERT_EQ(rec.status, RequestStatus::kCompleted);
    EXPECT_TRUE(BitEqual(rec.score, offline->scores[rec.row]))
        << "request " << rec.id << " row " << rec.row;
  }
}

TEST(ServeFrontendTest, TracerIsPassive) {
  const Dataset queries = TestQueries();
  const ServedRun plain = ServeSteady(queries);
  Tracer tracer;
  const ServedRun traced = ServeSteady(queries, &tracer);
  ASSERT_EQ(plain.frontend->records().size(),
            traced.frontend->records().size());
  for (size_t i = 0; i < plain.frontend->records().size(); ++i) {
    const RequestRecord& a = plain.frontend->records()[i];
    const RequestRecord& b = traced.frontend->records()[i];
    EXPECT_TRUE(BitEqual(a.dispatch, b.dispatch));
    EXPECT_TRUE(BitEqual(a.completion, b.completion));
    EXPECT_TRUE(BitEqual(a.score, b.score));
    EXPECT_EQ(a.generation, b.generation);
  }
  EXPECT_EQ(plain.frontend->Fingerprint(), traced.frontend->Fingerprint());
  EXPECT_FALSE(tracer.events().empty());
}

TEST(ServeFrontendTest, FingerprintIsDeterministicAndSeedSensitive) {
  const Dataset queries = TestQueries();
  const ServedRun a = ServeSteady(queries);
  const ServedRun b = ServeSteady(queries);
  EXPECT_EQ(a.frontend->Fingerprint(), b.frontend->Fingerprint());
  // Pinned response hash of the single frontend on this run (fleet_test's
  // routing-off run pins the same value).
  EXPECT_EQ(a.frontend->Fingerprint(), 0xa34f557cULL);
  const ServedRun c = ServeSteady(queries, nullptr, 400, 2500.0);
  EXPECT_NE(a.frontend->Fingerprint(), c.frontend->Fingerprint());
}

TEST(ServeFrontendTest, HotSwapDropsNothingAndNeverMixesGenerations) {
  // The zero-drop / no-stale-mix acceptance test: two swaps land under
  // sustained load; every offered request completes, every response is
  // scored against exactly one model generation (bitwise vs the offline
  // kernel under that generation), and generations only move forward.
  const Dataset queries = TestQueries();
  ServeConfig config;
  config.num_shards = 4;
  ServeFleet frontend(ClusterSpec::Cluster1(), SingleFrontend(config),
                      &queries);
  const SavedModel gen0 = PlantedModel("lr", queries.num_features, 5);
  const SavedModel gen1 = PlantedModel("lr", queries.num_features, 6);
  const SavedModel gen2 = PlantedModel("lr", queries.num_features, 7);
  ASSERT_TRUE(frontend.Install(gen0).ok());
  WorkloadConfig workload;
  workload.rate = 3000.0;
  workload.num_requests = 600;
  workload.seed = 21;
  const double horizon = 0.2;  // 600 / 3000
  frontend.ScheduleSwap(horizon / 3.0, gen1, 10);
  frontend.ScheduleSwap(2.0 * horizon / 3.0, gen2, 20);
  ASSERT_TRUE(
      frontend.Run(GenerateArrivals(workload, queries.num_rows())).ok());

  const ServeSummary summary = frontend.Summarize();
  EXPECT_EQ(summary.offered, 600);
  EXPECT_EQ(summary.completed, 600) << "hot swap dropped requests";
  EXPECT_EQ(summary.rejected, 0);
  EXPECT_EQ(summary.timed_out, 0);
  EXPECT_EQ(summary.swaps_completed, 2);
  EXPECT_EQ(summary.swaps_failed, 0);

  std::map<int64_t, std::vector<double>> offline;
  for (const auto& [generation, model] :
       std::map<int64_t, const SavedModel*>{
           {0, &gen0}, {1, &gen1}, {2, &gen2}}) {
    Result<DatasetScores> scored = ScoreDatasetSharded(
        *model, "round_robin", 4, queries, queries.num_rows());
    ASSERT_TRUE(scored.ok());
    offline[generation] = scored->scores;
  }
  std::set<int64_t> generations_seen;
  int64_t last_generation = 0;
  double last_dispatch = -1.0;
  for (const RequestRecord& rec : frontend.records()) {
    ASSERT_EQ(rec.status, RequestStatus::kCompleted);
    ASSERT_GE(rec.generation, 0);
    ASSERT_LE(rec.generation, 2);
    generations_seen.insert(rec.generation);
    // Scored against exactly that generation — a response blending shards
    // of two generations would match neither offline vector.
    EXPECT_TRUE(
        BitEqual(rec.score, offline[rec.generation][rec.row]))
        << "request " << rec.id << " generation " << rec.generation;
    // Records are in arrival order; dispatches are non-decreasing and the
    // active generation never moves backwards.
    EXPECT_GE(rec.dispatch, last_dispatch);
    if (rec.dispatch > last_dispatch) {
      EXPECT_GE(rec.generation, last_generation);
      last_generation = rec.generation;
      last_dispatch = rec.dispatch;
    } else {
      EXPECT_EQ(rec.generation, last_generation)
          << "one batch served two generations";
    }
  }
  EXPECT_EQ(generations_seen.size(), 3u)
      << "load did not span all three generations";
}

TEST(ServeFrontendTest, DamagedSwapImageIsRejectedAndServingContinues) {
  const Dataset queries = TestQueries();
  ServeConfig config;
  config.num_shards = 2;
  ServeFleet frontend(ClusterSpec::Cluster1(), SingleFrontend(config),
                      &queries);
  const SavedModel gen0 = PlantedModel("lr", queries.num_features, 5);
  ASSERT_TRUE(frontend.Install(gen0).ok());
  std::vector<uint8_t> image =
      SerializeModel(PlantedModel("lr", queries.num_features, 6));
  image[image.size() / 2] ^= 0x10;  // bit rot
  frontend.ScheduleSwapImage(0.05, std::move(image), 10);
  WorkloadConfig workload;
  workload.rate = 2000.0;
  workload.num_requests = 300;
  workload.seed = 4;
  ASSERT_TRUE(
      frontend.Run(GenerateArrivals(workload, queries.num_rows())).ok());
  const ServeSummary summary = frontend.Summarize();
  EXPECT_EQ(summary.completed, 300);
  EXPECT_EQ(summary.swaps_completed, 0);
  EXPECT_EQ(summary.swaps_failed, 1);
  Result<DatasetScores> offline = ScoreDatasetSharded(
      gen0, "round_robin", 2, queries, queries.num_rows());
  ASSERT_TRUE(offline.ok());
  for (const RequestRecord& rec : frontend.records()) {
    EXPECT_EQ(rec.generation, 0) << "a damaged image must never serve";
    EXPECT_TRUE(BitEqual(rec.score, offline->scores[rec.row]));
  }
  const std::vector<GenerationInfo>& generations =
      frontend.group(0).registry().history();
  ASSERT_EQ(generations.size(), 2u);
  EXPECT_FALSE(generations[1].ok);
}

TEST(ServeFrontendTest, ShardFailureTimesOutOneBatchThenFailsOver) {
  const Dataset queries = TestQueries();
  ServeConfig config;
  config.num_shards = 4;
  ServeFleet frontend(ClusterSpec::Cluster1(), SingleFrontend(config),
                      &queries);
  const SavedModel gen0 = PlantedModel("lr", queries.num_features, 5);
  ASSERT_TRUE(frontend.Install(gen0).ok());
  frontend.ScheduleShardFailure(0.05, /*group=*/0, 2);
  WorkloadConfig workload;
  workload.rate = 2000.0;
  workload.num_requests = 400;
  workload.seed = 8;
  ASSERT_TRUE(
      frontend.Run(GenerateArrivals(workload, queries.num_rows())).ok());

  const ServeSummary summary = frontend.Summarize();
  EXPECT_EQ(summary.offered, 400);
  EXPECT_EQ(summary.completed + summary.rejected + summary.timed_out, 400);
  EXPECT_GT(summary.timed_out, 0);
  EXPECT_LE(summary.timed_out, config.max_batch);
  EXPECT_EQ(summary.failovers, 1);
  ASSERT_EQ(frontend.failovers().size(), 1u);
  const FailoverRecord& failover = frontend.failovers()[0];
  EXPECT_EQ(failover.shard, 2);
  EXPECT_GE(failover.detected_at, failover.failed_at);
  EXPECT_GT(failover.recovered_at, failover.detected_at);
  EXPECT_GT(failover.reinstall_bytes, 0u);
  EXPECT_EQ(failover.requests_timed_out, summary.timed_out);

  // Never a wrong answer: completed responses — before and after the
  // outage — still match the offline kernel bit-for-bit, and requests
  // dispatched after recovery complete again.
  Result<DatasetScores> offline = ScoreDatasetSharded(
      gen0, "round_robin", 4, queries, queries.num_rows());
  ASSERT_TRUE(offline.ok());
  bool completed_after_recovery = false;
  for (const RequestRecord& rec : frontend.records()) {
    if (rec.status != RequestStatus::kCompleted) continue;
    EXPECT_TRUE(BitEqual(rec.score, offline->scores[rec.row]));
    completed_after_recovery |= rec.dispatch > failover.recovered_at;
  }
  EXPECT_TRUE(completed_after_recovery);
}

TEST(ServeFrontendTest, BoundedQueueRejectsOverload) {
  const Dataset queries = TestQueries();
  ServeConfig config;
  config.num_shards = 2;
  config.max_batch = 4;
  config.queue_capacity = 8;
  ServeFleet frontend(ClusterSpec::Cluster1(), SingleFrontend(config),
                      &queries);
  ASSERT_TRUE(
      frontend.Install(PlantedModel("lr", queries.num_features, 5)).ok());
  WorkloadConfig workload;
  workload.rate = 50000.0;  // far beyond the service rate
  workload.num_requests = 400;
  workload.seed = 2;
  ASSERT_TRUE(
      frontend.Run(GenerateArrivals(workload, queries.num_rows())).ok());
  const ServeSummary summary = frontend.Summarize();
  EXPECT_GT(summary.rejected, 0);
  EXPECT_EQ(summary.completed + summary.rejected + summary.timed_out, 400);
  EXPECT_GT(summary.slo_violation_fraction, 0.0);
}

TEST(ServeFrontendTest, RejectPathChargesControlBytesExactlyOnce) {
  // Byte conservation on the shed path: every traced network send is
  // charged to TotalStats exactly once, and each rejected request costs
  // exactly one control-sized message to the ingress — no double charge,
  // no free rejection.
  const Dataset queries = TestQueries();
  ServeConfig config;
  config.num_shards = 2;
  config.max_batch = 4;
  config.queue_capacity = 8;
  Tracer tracer;
  ServeFleet frontend(ClusterSpec::Cluster1(), SingleFrontend(config),
                      &queries);
  frontend.set_tracer(&tracer);
  ASSERT_TRUE(
      frontend.Install(PlantedModel("lr", queries.num_features, 5)).ok());
  WorkloadConfig workload;
  workload.rate = 50000.0;
  workload.num_requests = 400;
  workload.seed = 2;
  ASSERT_TRUE(
      frontend.Run(GenerateArrivals(workload, queries.num_rows())).ok());
  const ServeSummary summary = frontend.Summarize();
  ASSERT_GT(summary.rejected, 0);

  uint64_t traced_bytes = 0;
  int64_t ingress_sends = 0;
  for (const TraceEvent& ev : tracer.events()) {
    if (std::strcmp(ev.name, "net.send") != 0) continue;
    traced_bytes += ev.bytes;
    if (ev.peer == frontend.ingress()) {
      EXPECT_EQ(ev.bytes, kRejectMessageBytes)
          << "only control-sized rejections reach the ingress";
      ++ingress_sends;
    }
  }
  EXPECT_EQ(traced_bytes, frontend.runtime().net().TotalStats().bytes_sent)
      << "trace and wire accounting must agree byte for byte";
  EXPECT_EQ(ingress_sends, summary.rejected)
      << "each rejection is charged exactly once";
}

TEST(ServeFrontendTest, InstallValidatesModels) {
  const Dataset queries = TestQueries();
  ServeConfig config;
  {
    ServeFleet frontend(ClusterSpec::Cluster1(), SingleFrontend(config),
                        &queries);
    EXPECT_FALSE(
        frontend.Install(PlantedModel("mlp8", queries.num_features, 3)).ok());
  }
  {
    ServeFleet frontend(ClusterSpec::Cluster1(), SingleFrontend(config),
                        &queries);
    EXPECT_FALSE(
        frontend.Install(PlantedModel("lr", queries.num_features - 30, 3)).ok())
        << "queries wider than the model must be rejected";
  }
  {
    ServeFleet frontend(ClusterSpec::Cluster1(), SingleFrontend(config),
                        &queries);
    SavedModel truncated = PlantedModel("lr", queries.num_features, 3);
    truncated.weights.pop_back();
    EXPECT_FALSE(frontend.Install(truncated).ok());
  }
}

TEST(GenerationRegistryTest, FlipsAtInstallCompletion) {
  GenerationRegistry registry;
  ShardedModelImage lr;
  lr.model_name = "lr";
  const auto image = std::make_shared<const ShardedModelImage>(lr);
  GenerationInfo info;
  info.generation = 0;
  info.install_start = 0.0;
  info.install_done = 1.0;
  info.ok = true;
  EXPECT_EQ(registry.Install(image, info), 0);
  EXPECT_EQ(registry.ActiveAt(1.0), 0);

  info.generation = 1;
  info.install_start = 4.0;
  info.install_done = 5.0;
  EXPECT_EQ(registry.Install(image, info), 1);
  EXPECT_TRUE(registry.install_pending());
  EXPECT_EQ(registry.ActiveAt(4.999), 0) << "flip before install completion";
  EXPECT_EQ(registry.ActiveAt(5.0), 1);
  EXPECT_FALSE(registry.install_pending());
  EXPECT_EQ(registry.ActiveAt(4.0), 1)
      << "once flipped, the registry never goes back";
}

}  // namespace
}  // namespace colsgd
