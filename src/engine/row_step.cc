#include "engine/row_step.h"

#include <algorithm>
#include <limits>

#include "engine/api.h"
#include "engine/row_sampling.h"
#include "linalg/kernels/thread_pool.h"

namespace colsgd {

namespace {

// Blocks ahead of the one being applied whose weights the sharded apply
// asks the cache for. The row engines apply to the whole global model, so
// on paper-scale data each touched block misses the cache. (The column
// engines' partitioned models are smaller; ApplySparseUpdate does not
// prefetch.)
constexpr size_t kApplyPrefetchBlocks = 8;

}  // namespace

void RowWorkerStep::Draw(const std::vector<RowBlock>& blocks,
                         uint64_t total_rows, size_t local_batch, Rng rng,
                         bool list_features) {
  batch.rows.clear();
  batch.labels.clear();
  features.clear();
  flops.Reset();
  for (size_t i = 0; i < local_batch; ++i) {
    const LocalRowSample sample = DrawLocalRow(blocks, total_rows, &rng);
    batch.rows.push_back(sample.row);
    batch.labels.push_back(sample.label);
    if (list_features) {
      features.insert(features.end(), sample.row.indices,
                      sample.row.indices + sample.row.nnz);
    }
  }
  flops.Add(kSampleFlops * local_batch);
  if (list_features) {
    std::sort(features.begin(), features.end());
    features.erase(std::unique(features.begin(), features.end()),
                   features.end());
  }
}

void RowWorkerStep::ForwardGrad(const ModelSpec& spec,
                                const std::vector<double>& model,
                                int num_shards) {
  COLSGD_CHECK_EQ(terms.width(), spec.weights_per_feature());
  terms.Clear();
  row_losses.assign(batch.size(), 0.0);
  spec.RowBatchForwardGrad(batch, model, &terms, row_losses.data(), &flops);

  COLSGD_CHECK_LE(terms.size(), std::numeric_limits<uint32_t>::max());
  shard_terms.resize(static_cast<size_t>(num_shards));
  for (std::vector<uint32_t>& list : shard_terms) list.clear();
  const uint64_t wpf = static_cast<uint64_t>(terms.width());
  for (size_t i = 0; i < terms.size(); ++i) {
    const uint64_t feature = terms.first_slot(i) / wpf;
    shard_terms[feature % static_cast<uint64_t>(num_shards)].push_back(
        static_cast<uint32_t>(i));
  }
}

void ForEachWorker(int n, const std::function<void(int)>& body) {
  kernels::SharedPool().ParallelFor(
      static_cast<size_t>(n), 1, [&](size_t begin, size_t end) {
        for (size_t w = begin; w < end; ++w) body(static_cast<int>(w));
      });
}

size_t ShardedUpdate::Apply(const std::vector<RowWorkerStep>& steps,
                            size_t batch_total, const RegularizerConfig& reg,
                            Optimizer* optimizer, std::vector<double>* weights,
                            std::vector<double>* opt_state, FlopCounter* flops,
                            double* grad_sq) {
  COLSGD_CHECK(!steps.empty());
  const size_t num_shards = steps[0].shard_terms.size();
  const int wpf = steps[0].terms.width();
  const size_t width = static_cast<size_t>(wpf);
  std::vector<size_t> offset(steps.size() + 1, 0);  // in entries
  for (size_t w = 0; w < steps.size(); ++w) {
    COLSGD_CHECK_EQ(steps[w].shard_terms.size(), num_shards);
    COLSGD_CHECK_EQ(steps[w].terms.width(), wpf);
    offset[w + 1] = offset[w] + steps[w].terms.size();
  }
  first_sq_.resize(offset.back() * width);
  is_first_.assign(offset.back(), 0);
  if (shards_.size() != num_shards ||
      shards_[0].grad.num_slots() != weights->size() ||
      shards_[0].grad.width() != wpf) {
    shards_.clear();
    shards_.reserve(num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      shards_.emplace_back(weights->size(), wpf);
    }
  }

  optimizer->BeginStep();
  kernels::SharedPool().ParallelFor(
      num_shards, 1, [&](size_t shard_begin, size_t shard_end) {
        for (size_t s = shard_begin; s < shard_end; ++s) {
          GradAccumulator& grad = shards_[s].grad;
          std::vector<size_t>& first_pos = shards_[s].first_pos;
          grad.Reset();
          first_pos.clear();
          for (size_t w = 0; w < steps.size(); ++w) {
            const GradTerms& terms = steps[w].terms;
            for (uint32_t i : steps[w].shard_terms[s]) {
              const size_t before = grad.touched().size();
              grad.Add(terms.first_slot(i), terms.values(i));
              if (grad.touched().size() != before) {
                first_pos.push_back(offset[w] + i);
              }
            }
          }
          for (size_t pos : first_pos) is_first_[pos] = 1;
          ApplyGradBlocks(grad, batch_total, reg, optimizer, weights->data(),
                          opt_state->data(), kApplyPrefetchBlocks,
                          [&](size_t i, size_t j, double g) {
                            first_sq_[first_pos[i] * width + j] = g * g;
                          });
        }
      });

  double sq = 0.0;
  for (size_t p = 0; p < is_first_.size(); ++p) {
    if (!is_first_[p]) continue;
    for (size_t j = 0; j < width; ++j) sq += first_sq_[p * width + j];
  }
  if (grad_sq != nullptr) *grad_sq += sq;
  size_t touched = 0;
  for (const Shard& shard : shards_) touched += shard.grad.sums().size();
  if (flops != nullptr) flops->Add(8 * touched);
  return touched;
}

}  // namespace colsgd
