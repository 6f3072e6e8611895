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

Status RowPartitions::Load(const ModelSpec& model, const Dataset& dataset,
                           size_t block_rows, const TransformCostConfig& cost,
                           ClusterRuntime* runtime) {
  if (!model.SupportsRowPath()) {
    return Status::InvalidArgument(
        model.name() + " is only implemented for the column framework; "
        "use the columnsgd engine");
  }
  COLSGD_RETURN_NOT_OK(model.CheckLabels(dataset.labels));
  blocks_ = LoadRowPartitioned(MakeRowBlocks(dataset, block_rows), runtime,
                               cost)
                .partitions;
  rows_.assign(blocks_.size(), 0);
  for (size_t k = 0; k < blocks_.size(); ++k) {
    for (const RowBlock& b : blocks_[k]) rows_[k] += b.num_rows();
    if (rows_[k] == 0) {
      return Status::FailedPrecondition(
          "worker " + std::to_string(k) +
          " received no rows; use more blocks than workers");
    }
  }
  runtime->Barrier();
  return Status::OK();
}

uint64_t RowPartitions::DataBytes(int p) const {
  uint64_t bytes = 0;
  for (const RowBlock& b : blocks_[p]) {
    bytes += b.rows.ByteSize() + b.labels.size() * sizeof(float);
  }
  return bytes;
}

void RowPartitions::ChargeReread(int p, NodeId node,
                                 const TransformCostConfig& cost,
                                 ClusterRuntime* runtime) const {
  for (const RowBlock& b : blocks_[p]) {
    runtime->AdvanceClock(node, static_cast<double>(b.text_bytes) /
                                        cost.disk_bandwidth +
                                    b.text_bytes * cost.mllib_ingest_per_byte);
  }
}

void ShardKeyCounter::Reset(int num_shards) {
  COLSGD_CHECK_GE(num_shards, 0);
  counts_.assign(static_cast<size_t>(num_shards), 0);
  size_ = 0;
  if (++epoch_ == 0) {  // wrapped: clear every entry a stale epoch left
    std::fill(table_.begin(), table_.end(), Entry{});
    epoch_ = 1;
  }
}

void ShardKeyCounter::Grow() {
  std::vector<Entry> old(2 * table_.size());
  old.swap(table_);
  --shift_;
  for (const Entry& entry : old) {
    if (entry.epoch == epoch_) table_[Probe(entry.feature)] = entry;
  }
}

void RowWorkerStep::Draw(const std::vector<RowBlock>& blocks,
                         uint64_t total_rows, size_t local_batch, Rng rng,
                         int key_shards) {
  batch.rows.clear();
  batch.labels.clear();
  keys.Reset(key_shards);
  flops.Reset();
  for (size_t i = 0; i < local_batch; ++i) {
    const LocalRowSample sample = DrawLocalRow(blocks, total_rows, &rng);
    batch.rows.push_back(sample.row);
    batch.labels.push_back(sample.label);
    if (key_shards > 0) {
      for (size_t k = 0; k < sample.row.nnz; ++k) {
        keys.Insert(sample.row.indices[k]);
      }
    }
  }
  flops.Add(kSampleFlops * local_batch);
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
  if (shards_.size() != num_shards ||
      shards_[0].grad.num_slots() != weights->size() ||
      shards_[0].grad.width() != wpf) {
    shards_.clear();
    shards_.reserve(num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      shards_.emplace_back(weights->size(), wpf);
    }
  }

  // Only a recorded run (grad_sq set) keeps first positions and squares.
  const bool norm = grad_sq != nullptr;
  optimizer->BeginStep();
  kernels::SharedPool().ParallelFor(
      num_shards, 1, [&](size_t shard_begin, size_t shard_end) {
        for (size_t s = shard_begin; s < shard_end; ++s) {
          GradAccumulator& grad = shards_[s].grad;
          std::vector<size_t>& first_pos = shards_[s].first_pos;
          std::vector<double>& sq = shards_[s].sq;
          grad.Reset();
          first_pos.clear();
          for (size_t w = 0; w < steps.size(); ++w) {
            const GradTerms& terms = steps[w].terms;
            for (uint32_t i : steps[w].shard_terms[s]) {
              const size_t before = grad.touched().size();
              grad.Add(terms.first_slot(i), terms.values(i));
              if (norm && grad.touched().size() != before) {
                first_pos.push_back(offset[w] + i);
              }
            }
          }
          if (norm) sq.resize(grad.sums().size());
          ApplyGradBlocks(grad, batch_total, reg, optimizer, weights->data(),
                          opt_state->data(), kApplyPrefetchBlocks,
                          [&](size_t i, size_t j, double g) {
                            if (norm) sq[i * width + j] = g * g;
                          });
        }
      });

  size_t touched = 0;
  for (const Shard& shard : shards_) touched += shard.grad.sums().size();
  if (flops != nullptr) flops->Add(8 * touched);
  if (!norm) return touched;
  // The norm sums the squares in the global first-touch order: the shards'
  // first positions are disjoint and each list ascends, so a merge by
  // position visits the blocks in that order.
  std::vector<size_t> next(num_shards, 0);
  double sq = 0.0;
  for (size_t done = 0; done < touched; done += width) {
    size_t s = 0;
    size_t first = std::numeric_limits<size_t>::max();
    for (size_t t = 0; t < num_shards; ++t) {
      if (next[t] < shards_[t].first_pos.size() &&
          shards_[t].first_pos[next[t]] < first) {
        s = t;
        first = shards_[t].first_pos[next[t]];
      }
    }
    const double* block_sq = shards_[s].sq.data() + next[s] * width;
    for (size_t j = 0; j < width; ++j) sq += block_sq[j];
    ++next[s];
  }
  *grad_sq += sq;
  return touched;
}

}  // namespace colsgd
