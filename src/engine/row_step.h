// The row engines' data (RowPartitions, which MLlib* shares) and their
// iteration, split for the host (DESIGN.md §18). MLlib and the PS engines
// run each simulated worker's numeric work (row draw, key counts, fused
// forward/gradient) on the shared pool, replay the simulated charges
// serially in worker order, then scatter the gradient into the engine's
// accumulator and apply it shard by shard, on the pool again.
//
// Every step gives the bits of the serial loop it replaced: workers only
// read the model; each slot receives its additions in (worker, row, nnz)
// order; and the sums that cross slots (the batch loss and the gradient
// norm) are taken serially, in their old order.
#ifndef COLSGD_ENGINE_ROW_STEP_H_
#define COLSGD_ENGINE_ROW_STEP_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "model/model_spec.h"
#include "optim/optimizer.h"
#include "storage/dataset.h"
#include "storage/transform.h"

namespace colsgd {

/// \brief Simulated cost of drawing one row.
inline constexpr uint64_t kSampleFlops = 32;

/// \brief A row engine's data: partition p is the list of row blocks dealt
/// to worker p at set-up. MLlib, MLlib* and the PS engines each hold one.
class RowPartitions {
 public:
  /// \brief Checks that `model` takes the row path and `dataset`'s labels,
  /// deals its blocks of `block_rows` rows to the runtime's workers
  /// (LoadRowPartitioned, which charges the load) and barriers.
  /// FailedPrecondition when a worker receives no rows.
  Status Load(const ModelSpec& model, const Dataset& dataset,
              size_t block_rows, const TransformCostConfig& cost,
              ClusterRuntime* runtime);

  size_t size() const { return blocks_.size(); }
  const std::vector<RowBlock>& blocks(int p) const { return blocks_[p]; }
  uint64_t rows(int p) const { return rows_[p]; }
  /// \brief Rows partition p contributes to a batch of `batch_size`.
  size_t BatchShare(int p, size_t batch_size) const {
    const size_t K = blocks_.size();
    return batch_size / K + (static_cast<size_t>(p) < batch_size % K ? 1 : 0);
  }
  /// \brief Modelled bytes of partition p's rows and labels.
  uint64_t DataBytes(int p) const;
  /// \brief Charges `node` re-reading partition p from stable storage,
  /// parse included: one clock advance per block.
  void ChargeReread(int p, NodeId node, const TransformCostConfig& cost,
                    ClusterRuntime* runtime) const;

 private:
  std::vector<std::vector<RowBlock>> blocks_;
  std::vector<uint64_t> rows_;
};

/// \brief Counts a batch's distinct features per shard: feature f belongs to
/// shard f % num_shards, RoundRobinPartitioner::Owner with num_shards
/// workers. An open-addressing set of the features inserted since the last
/// Reset, GradAccumulator's table holding keys only: linear probing from a
/// Fibonacci hash, at most half full (it doubles when it must), each entry
/// stamped with the epoch it was written in. Reset moves to the next epoch,
/// and clears the table when the epoch wraps. One instance is reused across
/// batches, table included.
class ShardKeyCounter {
 public:
  /// \brief Forgets every feature and zeroes num_shards counts (none when
  /// num_shards is 0).
  void Reset(int num_shards);

  void Insert(uint32_t feature) {
    size_t pos = Probe(feature);
    if (table_[pos].epoch == epoch_) return;
    if (2 * (size_ + 1) > table_.size()) {
      Grow();
      pos = Probe(feature);
    }
    table_[pos] = Entry{feature, epoch_};
    ++size_;
    ++counts_[feature % static_cast<uint32_t>(counts_.size())];
  }

  /// \brief counts()[s]: distinct features of shard s since the last Reset.
  const std::vector<uint64_t>& counts() const { return counts_; }

 private:
  struct Entry {
    uint32_t feature = 0;
    uint32_t epoch = 0;  // 0: never used
  };
  static constexpr int kMinTableBits = 4;

  size_t Probe(uint32_t feature) const {
    const size_t mask = table_.size() - 1;
    size_t pos = static_cast<size_t>((feature * 0x9E3779B97F4A7C15ULL) >>
                                     shift_);
    while (table_[pos].epoch == epoch_ && table_[pos].feature != feature) {
      pos = (pos + 1) & mask;
    }
    return pos;
  }

  // Doubles the table and re-inserts the live entries.
  void Grow();

  std::vector<Entry> table_ =
      std::vector<Entry>(size_t{1} << kMinTableBits);  // power-of-two size
  int shift_ = 64 - kMinTableBits;  // 64 - log2(table_.size())
  uint32_t epoch_ = 1;
  size_t size_ = 0;  // live entries
  std::vector<uint64_t> counts_;
};

/// \brief One worker's share of a row-engine iteration. The worker step
/// fills it; the serial replay and ShardedUpdate read it. Reused across
/// iterations. Cache-line aligned, so workers appending to their own steps
/// never write to a line another worker's step shares.
struct alignas(64) RowWorkerStep {
  /// \brief `width`: the model's weights_per_feature().
  explicit RowWorkerStep(int width) : terms(width) {}

  BatchView batch;
  /// keys.counts()[s]: distinct features of the batch in shard s (empty
  /// when Draw counted none).
  ShardKeyCounter keys;
  GradTerms terms;
  /// shard_terms[s]: indices into `terms` of shard s's blocks, ascending.
  std::vector<std::vector<uint32_t>> shard_terms;
  std::vector<double> row_losses;  // one entry per batch row
  FlopCounter flops;

  /// \brief Starts the worker's iteration: draws `local_batch` rows from
  /// its partition with `rng` (DrawLocalRow), charging kSampleFlops each,
  /// and when `key_shards` > 0 counts their distinct features among that
  /// many shards, the way ForwardGrad files them (the PS key sets, MLlib's
  /// sparse push).
  void Draw(const std::vector<RowBlock>& blocks, uint64_t total_rows,
            size_t local_batch, Rng rng, int key_shards);

  /// \brief Runs the fused forward/gradient on the drawn batch against
  /// `model`, with per-row losses, and files the terms among `num_shards`
  /// shards: the block of feature f belongs to shard f % num_shards, like
  /// the PS engines' round-robin server shards.
  void ForwardGrad(const ModelSpec& spec, const std::vector<double>& model,
                   int num_shards);
};

/// \brief Runs body(w) for every w in [0, n) on kernels::SharedPool().
/// Bodies run at the same time, so each may write only worker w's state.
void ForEachWorker(int n, const std::function<void(int)>& body);

/// \brief The scatter and apply that close a row-engine iteration, one pool
/// task per shard, each adding the blocks filed to it into its own shard's
/// GradAccumulator. Bit for bit the serial
///
///   for each step, in order: for each entry i of its terms:
///     grad->Add(terms.first_slot(i), terms.values(i))
///   ApplySparseUpdate(grad, batch_total, reg, optimizer, ...)
///
/// because a shard task walks the steps in order and each step's blocks in
/// order, so every slot gets its additions in (worker, row, nnz) order; and
/// because the squared gradient norm, when `grad_sq` asks for it (a
/// recorded run, Engine::grad_sq_accum), is summed afterwards, serially,
/// over the slots in the order of their first touch. A shard's task writes
/// only its own Shard and its own slots; Optimizer::ApplyBlock runs
/// concurrently on distinct blocks. Holds only per-iteration scratch,
/// O(terms).
class ShardedUpdate {
 public:
  /// \brief Returns the number of touched slots; see ApplySparseUpdate for
  /// the arguments. Every step must file its terms among the same number of
  /// shards, in blocks of one width.
  size_t Apply(const std::vector<RowWorkerStep>& steps, size_t batch_total,
               const RegularizerConfig& reg, Optimizer* optimizer,
               std::vector<double>* weights, std::vector<double>* opt_state,
               FlopCounter* flops, double* grad_sq);

 private:
  // One shard's gradient and, in a recorded run, for each of its touched
  // blocks in first-touch order, the position of the block's first entry in
  // the iteration's concatenated entry order (ascending) and the squares of
  // its applied gradient, `width` per block. Cache-line aligned: shard tasks
  // append to their lists at the same time, and vectors sharing a line would
  // make every append a cache miss.
  struct alignas(64) Shard {
    Shard(uint64_t num_slots, int width) : grad(num_slots, width) {}
    GradAccumulator grad;
    std::vector<size_t> first_pos;
    std::vector<double> sq;
  };
  std::vector<Shard> shards_;
};

}  // namespace colsgd

#endif  // COLSGD_ENGINE_ROW_STEP_H_
