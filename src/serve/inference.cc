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

Result<ServableModel> PrepareServableModel(const SavedModel& model,
                                           const std::string& partitioner_name,
                                           int num_shards,
                                           uint64_t query_features) {
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
  const uint64_t expected =
      model.num_features * static_cast<uint64_t>(spec->weights_per_feature());
  if (model.weights.size() != expected) {
    return Status::InvalidArgument("model weight count does not match " +
                                   model.model_name);
  }
  if (query_features > model.num_features) {
    return Status::InvalidArgument(
        "query rows reference features beyond the model's dimension");
  }
  COLSGD_ASSIGN_OR_RETURN(
      std::unique_ptr<ColumnPartitioner> partitioner,
      CreatePartitioner(partitioner_name, model.num_features, num_shards));
  ServableModel servable;
  servable.image = std::make_shared<const ShardedModelImage>(
      ShardSavedModel(model, *spec, *partitioner));
  servable.spec = std::move(spec);
  servable.partitioner = std::move(partitioner);
  return servable;
}

Result<std::shared_ptr<const ShardedModelImage>> ParseSwapImage(
    const std::vector<uint8_t>& bytes, const ServableModel& served) {
  COLSGD_ASSIGN_OR_RETURN(const SavedModel model, ParseModel(bytes));
  if (model.model_name != served.image->model_name ||
      model.num_features != served.image->num_features) {
    return Status::InvalidArgument(
        "swap image differs from the served model's family or dimension");
  }
  return std::make_shared<const ShardedModelImage>(
      ShardSavedModel(model, *served.spec, *served.partitioner));
}

void ShardBatchScorer::Split(const SparseVectorView* rows, size_t n,
                             const ColumnPartitioner& partitioner) {
  slices_.resize(static_cast<size_t>(partitioner.num_workers()));
  for (CsrBatch& slice : slices_) slice.Clear();
  for (size_t r = 0; r < n; ++r) {
    const SparseVectorView& row = rows[r];
    for (size_t i = 0; i < row.nnz; ++i) {
      const uint64_t f = row.indices[i];
      slices_[partitioner.Owner(f)].Push(
          static_cast<uint32_t>(partitioner.LocalIndex(f)), row.values[i]);
    }
    for (CsrBatch& slice : slices_) slice.EndRow();
  }
}

const ShardScoreResult& ShardBatchScorer::Score(
    const ModelSpec& spec, const ShardedModelImage& image) {
  COLSGD_CHECK_EQ(slices_.size(), image.partitions.size());
  const size_t num_shards = slices_.size();
  const size_t rows = num_shards > 0 ? slices_[0].num_rows() : 0;
  const size_t spp = static_cast<size_t>(spec.stats_per_point());

  result_.agg_stats.assign(rows * spp, 0.0);
  result_.shard_flops.assign(num_shards, 0);

  // Ask for every weight block of the batch before the first shard
  // computes, so the misses of all shards overlap (bit-neutral).
  const size_t wpf = static_cast<size_t>(spec.weights_per_feature());
  for (size_t k = 0; k < num_shards; ++k) {
    const double* weights = image.partitions[k].data();
    for (uint32_t local : slices_[k].indices()) {
      kernels::Prefetch(weights + local * wpf, wpf);
    }
  }

  // computeStat on every shard, then reduceStat (element-wise sum) in shard
  // order — the same deterministic order the frontend drains gathers in.
  view_.labels.assign(rows, 0.0f);  // statistics are label-free
  for (size_t k = 0; k < num_shards; ++k) {
    view_.rows.clear();
    for (size_t i = 0; i < rows; ++i) view_.rows.push_back(slices_[k].Row(i));
    partial_.assign(rows * spp, 0.0);
    FlopCounter flops;
    spec.ComputePartialStats(view_, image.partitions[k], &partial_, &flops);
    result_.shard_flops[k] = flops.flops();
    kernels::DenseAdd(partial_.data(), result_.agg_stats.data(),
                      partial_.size());
  }

  result_.scores.resize(rows);
  for (size_t i = 0; i < rows; ++i) {
    result_.scores[i] = spec.ScoreFromStats(result_.agg_stats.data() + i * spp);
  }
  // Reduce: (K-1) adds per statistic; score: ~2 flops per statistic read.
  result_.reduce_flops =
      rows * spp * ((num_shards > 0 ? num_shards - 1 : 0) + 2);
  return result_;
}

std::vector<CsrBatch> SplitBatchByShard(
    const std::vector<SparseVectorView>& rows,
    const ColumnPartitioner& partitioner) {
  ShardBatchScorer scorer;
  scorer.Split(rows.data(), rows.size(), partitioner);
  return std::move(scorer.slices_);
}

Result<DatasetScores> ScoreDatasetSharded(const SavedModel& model,
                                          const std::string& partitioner_name,
                                          int num_shards,
                                          const Dataset& dataset,
                                          size_t max_rows) {
  COLSGD_ASSIGN_OR_RETURN(const ServableModel served,
                          PrepareServableModel(model, partitioner_name,
                                               num_shards,
                                               dataset.num_features));
  const ModelSpec& spec = *served.spec;
  COLSGD_RETURN_NOT_OK(spec.CheckLabels(dataset.labels));

  DatasetScores out;
  out.rows = std::min(max_rows, dataset.num_rows());
  out.scores.reserve(out.rows);
  double total_loss = 0.0;

  constexpr size_t kChunkRows = 256;
  ShardBatchScorer scorer;
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
    scorer.Split(chunk.data(), chunk.size(), *served.partitioner);
    const ShardScoreResult& scored = scorer.Score(spec, *served.image);
    out.scores.insert(out.scores.end(), scored.scores.begin(),
                      scored.scores.end());
    total_loss += spec.BatchLossFromStatsShared(scored.agg_stats, labels,
                                                served.image->shared);
  }
  out.avg_loss = out.rows > 0 ? total_loss / static_cast<double>(out.rows)
                              : 0.0;
  return out;
}

}  // namespace colsgd
