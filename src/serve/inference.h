// The shared column-sharded inference kernel.
//
// Scoring a request is the read-path half of Algorithm 3: the frontend
// splits the feature vector by the column partitioner, each shard computes
// partial statistics against its local model partition (the exact
// ComputePartialStats used in training), the partials reduce element-wise,
// and ModelSpec::ScoreFromStats turns the aggregated statistics into the
// decision value. The split and the score live in ShardBatchScorer and
// nowhere else, so the online serving plane (serve/group.h) and offline
// scoring (ScoreDatasetSharded: colsgd_predict, the chaos checker) cannot
// drift: both run it. The same holds for what may be served:
// PrepareServableModel is the one servability check, and ParseSwapImage the
// one check of a hot-swap image.
//
// Exactness: partial statistics are additive across column partitions, so a
// single-shard round_robin split reproduces the row path bit-for-bit for
// GLMs; multi-shard splits differ only by floating-point reassociation of
// the same sums (tests/serve_test.cc pins both properties).
#ifndef COLSGD_SERVE_INFERENCE_H_
#define COLSGD_SERVE_INFERENCE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/model_io.h"
#include "linalg/sparse.h"
#include "model/model_spec.h"
#include "storage/dataset.h"
#include "storage/partitioner.h"

namespace colsgd {

/// \brief A model generation split for serving: per-shard local-layout
/// weight partitions (slot = LocalIndex(f) * weights_per_feature + j) plus
/// the replicated shared block. Produced by ShardSavedModel, installed on
/// the shard servers by the frontend.
struct ShardedModelImage {
  std::string model_name;
  uint64_t num_features = 0;
  std::vector<std::vector<double>> partitions;  // [shard][local layout]
  std::vector<double> shared;

  /// \brief Serialized image bytes (what a full install moves, before the
  /// per-shard framing).
  uint64_t WeightBytes() const;
};

/// \brief Splits a global-layout SavedModel by `partitioner` (which must
/// cover model.num_features). Deterministic; pure data movement.
ShardedModelImage ShardSavedModel(const SavedModel& model,
                                  const ModelSpec& spec,
                                  const ColumnPartitioner& partitioner);

/// \brief A model that passed the servability check, sharded once. The spec
/// and partitioner stay fixed while the model family is served; every shard
/// group of a fleet shares them, and each generation's image, read-only.
struct ServableModel {
  std::shared_ptr<const ModelSpec> spec;
  std::shared_ptr<const ColumnPartitioner> partitioner;
  std::shared_ptr<const ShardedModelImage> image;
};

/// \brief The one servability check. `model` must score from statistics,
/// its weight count must match its family, it must cover `query_features`,
/// and `partitioner_name` must build `num_shards` ways over it. A model
/// that passes is sharded once; anything else is an InvalidArgument.
Result<ServableModel> PrepareServableModel(const SavedModel& model,
                                           const std::string& partitioner_name,
                                           int num_shards,
                                           uint64_t query_features);

/// \brief Parses a serialized hot-swap image (magic, CRC, layout), checks it
/// against the served model's family and dimension, and shards it by the
/// served partitioner. On an error the served generation stays in place.
Result<std::shared_ptr<const ShardedModelImage>> ParseSwapImage(
    const std::vector<uint8_t>& bytes, const ServableModel& served);

/// \brief What one batch of requests cost and produced.
struct ShardScoreResult {
  std::vector<double> agg_stats;      // rows * stats_per_point, reduced
  std::vector<double> scores;         // one decision value per row
  std::vector<uint64_t> shard_flops;  // computeStat work per shard
  uint64_t reduce_flops = 0;          // frontend-side reduce + score work
};

/// \brief Splits batches of full rows into per-shard slices and scores them
/// in buffers it keeps across batches, so a batch no larger than earlier
/// ones allocates nothing. Reuse cannot move a bit: each slice keeps its
/// rows' entry order, each shard's partial starts at zero before
/// ComputePartialStats adds into it, and the partials add into zeroed
/// statistics in shard order. Single-threaded; each caller owns one.
class ShardBatchScorer {
 public:
  /// \brief Splits `n` full rows into per-shard slices in each shard's local
  /// index space. Rows with no features on a shard become empty rows, so
  /// every slice has exactly `n` rows (row i everywhere is request i — the
  /// gather needs no row-id remapping).
  void Split(const SparseVectorView* rows, size_t n,
             const ColumnPartitioner& partitioner);

  /// \brief Scores the last split: per-shard ComputePartialStats against
  /// the installed partitions, element-wise reduce, ScoreFromStats per row.
  /// `image` must be sharded by the partitioner of the last Split. The
  /// result stays valid until the next Split or Score; the caller charges
  /// the simulated clocks from its flops.
  const ShardScoreResult& Score(const ModelSpec& spec,
                                const ShardedModelImage& image);

  /// \brief Shard k's slice of the last split.
  const CsrBatch& slice(int k) const { return slices_[k]; }

 private:
  friend std::vector<CsrBatch> SplitBatchByShard(
      const std::vector<SparseVectorView>& rows,
      const ColumnPartitioner& partitioner);

  std::vector<CsrBatch> slices_;  // [shard]
  BatchView view_;                // one shard's slice rows
  std::vector<double> partial_;   // one shard's statistics
  ShardScoreResult result_;
};

/// \brief ShardBatchScorer::Split into slices the caller keeps.
std::vector<CsrBatch> SplitBatchByShard(
    const std::vector<SparseVectorView>& rows,
    const ColumnPartitioner& partitioner);

/// \brief Offline dataset scoring through the same kernel (the refactored
/// colsgd_predict path).
struct DatasetScores {
  std::vector<double> scores;  // decision values, dataset row order
  double avg_loss = 0.0;       // average per-point data loss
  size_t rows = 0;
};

/// \brief Scores the first `max_rows` rows of `dataset` against `model`,
/// split `num_shards` ways by `partitioner_name`. Rejects what
/// PrepareServableModel rejects, and labels the model cannot score.
Result<DatasetScores> ScoreDatasetSharded(const SavedModel& model,
                                          const std::string& partitioner_name,
                                          int num_shards,
                                          const Dataset& dataset,
                                          size_t max_rows);

}  // namespace colsgd

#endif  // COLSGD_SERVE_INFERENCE_H_
