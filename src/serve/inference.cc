#include "serve/inference.h"

#include <algorithm>
#include <utility>

#include "linalg/kernels/kernels.h"
#include "model/factory.h"

namespace colsgd {

uint64_t ShardedModelImage::WeightBytes() const {
  uint64_t slots = shared.size();
  for (const auto& p : partitions) slots += p.size();
  return slots * 8;
}

ShardedModelImage ShardSavedModel(const SavedModel& model,
                                  const ModelSpec& spec,
                                  const ColumnPartitioner& partitioner) {
  COLSGD_CHECK_EQ(partitioner.num_features(), model.num_features);
  const int wpf = spec.weights_per_feature();
  COLSGD_CHECK_EQ(model.weights.size(),
                  model.num_features * static_cast<uint64_t>(wpf));

  ShardedModelImage image;
  image.model_name = model.model_name;
  image.num_features = model.num_features;
  image.shared = model.shared;
  image.partitions.resize(partitioner.num_workers());
  for (int k = 0; k < partitioner.num_workers(); ++k) {
    image.partitions[k].assign(
        partitioner.LocalDim(k) * static_cast<uint64_t>(wpf), 0.0);
  }
  for (uint64_t f = 0; f < model.num_features; ++f) {
    const int owner = partitioner.Owner(f);
    const uint64_t local = partitioner.LocalIndex(f);
    for (int j = 0; j < wpf; ++j) {
      image.partitions[owner][local * wpf + j] = model.weights[f * wpf + j];
    }
  }
  return image;
}

std::vector<CsrBatch> SplitBatchByShard(
    const std::vector<SparseVectorView>& rows,
    const ColumnPartitioner& partitioner) {
  const int num_shards = partitioner.num_workers();
  size_t batch_nnz = 0;
  for (const SparseVectorView& row : rows) batch_nnz += row.nnz;
  // Each shard's CSR arrays are sized once (no shard holds more than the
  // batch's nonzeros), filled straight from the rows, then adopted.
  std::vector<std::vector<uint32_t>> idx(num_shards);
  std::vector<std::vector<float>> val(num_shards);
  std::vector<std::vector<uint64_t>> offsets(num_shards, {0});
  for (int k = 0; k < num_shards; ++k) {
    idx[k].reserve(batch_nnz);
    val[k].reserve(batch_nnz);
    offsets[k].reserve(rows.size() + 1);
  }
  for (const SparseVectorView& row : rows) {
    for (size_t i = 0; i < row.nnz; ++i) {
      const uint64_t f = row.indices[i];
      const int owner = partitioner.Owner(f);
      idx[owner].push_back(static_cast<uint32_t>(partitioner.LocalIndex(f)));
      val[owner].push_back(row.values[i]);
    }
    for (int k = 0; k < num_shards; ++k) offsets[k].push_back(idx[k].size());
  }
  std::vector<CsrBatch> slices(num_shards);
  for (int k = 0; k < num_shards; ++k) {
    slices[k].Adopt(std::move(idx[k]), std::move(val[k]),
                    std::move(offsets[k]));
  }
  return slices;
}

ShardScoreResult ScoreShardedBatch(const ModelSpec& spec,
                                   const ShardedModelImage& image,
                                   const std::vector<CsrBatch>& shard_slices) {
  COLSGD_CHECK_EQ(shard_slices.size(), image.partitions.size());
  const int num_shards = image.num_shards();
  const size_t rows = num_shards > 0 ? shard_slices[0].num_rows() : 0;
  const int spp = spec.stats_per_point();

  ShardScoreResult result;
  result.agg_stats.assign(rows * static_cast<size_t>(spp), 0.0);
  result.shard_flops.assign(static_cast<size_t>(num_shards), 0);

  // computeStat on every shard, then reduceStat (element-wise sum) in shard
  // order — the same deterministic order the frontend drains gathers in.
  std::vector<double> partial(rows * static_cast<size_t>(spp));
  BatchView view;
  view.labels.assign(rows, 0.0f);  // statistics are label-free
  for (int k = 0; k < num_shards; ++k) {
    COLSGD_CHECK_EQ(shard_slices[k].num_rows(), rows);
    view.rows.clear();
    for (size_t i = 0; i < rows; ++i) view.rows.push_back(shard_slices[k].Row(i));
    std::fill(partial.begin(), partial.end(), 0.0);
    FlopCounter flops;
    spec.ComputePartialStats(view, image.partitions[k], &partial, &flops);
    result.shard_flops[k] = flops.flops();
    kernels::DenseAdd(partial.data(), result.agg_stats.data(), partial.size());
  }

  result.scores.resize(rows);
  for (size_t i = 0; i < rows; ++i) {
    result.scores[i] =
        spec.ScoreFromStats(result.agg_stats.data() + i * spp);
  }
  // Reduce: (K-1) adds per statistic; score: ~2 flops per statistic read.
  result.reduce_flops =
      rows * static_cast<uint64_t>(spp) *
      (static_cast<uint64_t>(num_shards > 0 ? num_shards - 1 : 0) + 2);
  return result;
}

Result<DatasetScores> ScoreDatasetSharded(const SavedModel& model,
                                          const std::string& partitioner_name,
                                          int num_shards,
                                          const Dataset& dataset,
                                          size_t max_rows) {
  if (num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  COLSGD_ASSIGN_OR_RETURN(std::unique_ptr<ModelSpec> spec,
                          CreateModel(model.model_name));
  if (!spec->SupportsStatScore()) {
    return Status::InvalidArgument(
        model.model_name +
        " cannot score from statistics alone; it is not servable");
  }
  COLSGD_RETURN_NOT_OK(spec->CheckLabels(dataset.labels));
  if (dataset.num_features > model.num_features) {
    return Status::InvalidArgument(
        "dataset has features beyond the model's dimension");
  }
  const uint64_t expected =
      model.num_features * static_cast<uint64_t>(spec->weights_per_feature());
  if (model.weights.size() != expected) {
    return Status::InvalidArgument("model weight count does not match " +
                                   model.model_name);
  }

  COLSGD_ASSIGN_OR_RETURN(
      std::unique_ptr<ColumnPartitioner> partitioner,
      CreatePartitioner(partitioner_name, model.num_features, num_shards));
  const ShardedModelImage image = ShardSavedModel(model, *spec, *partitioner);

  DatasetScores out;
  out.rows = std::min(max_rows, dataset.num_rows());
  out.scores.reserve(out.rows);
  double total_loss = 0.0;

  constexpr size_t kChunkRows = 256;
  std::vector<SparseVectorView> chunk;
  std::vector<float> labels;
  for (size_t begin = 0; begin < out.rows; begin += kChunkRows) {
    const size_t end = std::min(begin + kChunkRows, out.rows);
    chunk.clear();
    labels.clear();
    for (size_t i = begin; i < end; ++i) {
      chunk.push_back(dataset.rows.Row(i));
      labels.push_back(dataset.labels[i]);
    }
    const std::vector<CsrBatch> slices = SplitBatchByShard(chunk, *partitioner);
    ShardScoreResult scored = ScoreShardedBatch(*spec, image, slices);
    out.scores.insert(out.scores.end(), scored.scores.begin(),
                      scored.scores.end());
    total_loss +=
        spec->BatchLossFromStatsShared(scored.agg_stats, labels, image.shared);
  }
  out.avg_loss = out.rows > 0 ? total_loss / static_cast<double>(out.rows)
                              : 0.0;
  return out;
}

}  // namespace colsgd
