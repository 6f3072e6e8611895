// Column partitioners: map a global feature id to (owner worker, local slot).
//
// Both the training data columns and the model are partitioned with the same
// scheme, which is what collocates each feature's data with its weights
// (Section III-A of the paper).
#ifndef COLSGD_STORAGE_PARTITIONER_H_
#define COLSGD_STORAGE_PARTITIONER_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>

#include "common/check.h"
#include "common/result.h"

namespace colsgd {

/// \brief Maps feature ids to workers and dense local slots, O(1) both ways.
class ColumnPartitioner {
 public:
  virtual ~ColumnPartitioner() = default;

  virtual int Owner(uint64_t feature) const = 0;
  virtual uint64_t LocalIndex(uint64_t feature) const = 0;
  /// \brief Inverse of (Owner, LocalIndex).
  virtual uint64_t GlobalIndex(int worker, uint64_t local) const = 0;
  /// \brief Number of local slots on `worker`.
  virtual uint64_t LocalDim(int worker) const = 0;

  virtual std::string name() const = 0;

  uint64_t num_features() const { return num_features_; }
  int num_workers() const { return num_workers_; }

 protected:
  ColumnPartitioner(uint64_t num_features, int num_workers)
      : num_features_(num_features), num_workers_(num_workers) {
    COLSGD_CHECK_GT(num_workers, 0);
  }

  uint64_t num_features_;
  int num_workers_;
};

/// \brief feature f -> worker f % K, slot f / K (the paper's round-robin
/// example in Algorithm 4). Spreads popular low-indexed features evenly.
class RoundRobinPartitioner : public ColumnPartitioner {
 public:
  RoundRobinPartitioner(uint64_t num_features, int num_workers)
      : ColumnPartitioner(num_features, num_workers) {}

  int Owner(uint64_t feature) const override {
    return static_cast<int>(feature % num_workers_);
  }
  uint64_t LocalIndex(uint64_t feature) const override {
    return feature / num_workers_;
  }
  uint64_t GlobalIndex(int worker, uint64_t local) const override {
    return local * num_workers_ + worker;
  }
  uint64_t LocalDim(int worker) const override {
    // Workers with id < num_features % K get one extra slot.
    const uint64_t base = num_features_ / num_workers_;
    const uint64_t extra =
        static_cast<uint64_t>(worker) < num_features_ % num_workers_ ? 1 : 0;
    return base + extra;
  }
  std::string name() const override { return "round_robin"; }
};

/// \brief Contiguous ranges: worker k owns [k*ceil(m/K), ...). Cheaper index
/// arithmetic but load-imbalanced when feature popularity is skewed by id
/// (the usual case for hashed CTR features) — see the partitioner ablation.
class RangePartitioner : public ColumnPartitioner {
 public:
  RangePartitioner(uint64_t num_features, int num_workers)
      : ColumnPartitioner(num_features, num_workers),
        stride_((num_features + num_workers - 1) / num_workers) {}

  int Owner(uint64_t feature) const override {
    return static_cast<int>(feature / stride_);
  }
  uint64_t LocalIndex(uint64_t feature) const override {
    return feature % stride_;
  }
  uint64_t GlobalIndex(int worker, uint64_t local) const override {
    return static_cast<uint64_t>(worker) * stride_ + local;
  }
  uint64_t LocalDim(int worker) const override {
    const uint64_t begin = static_cast<uint64_t>(worker) * stride_;
    if (begin >= num_features_) return 0;
    return std::min(stride_, num_features_ - begin);
  }
  std::string name() const override { return "range"; }

 private:
  uint64_t stride_;
};

/// \brief Block-cyclic: chunks of `chunk` consecutive features are dealt to
/// workers round-robin. chunk=1 degenerates to RoundRobinPartitioner; large
/// chunks approach RangePartitioner. Trades id-skew resilience against
/// locality of consecutive features (see the partitioner ablation bench).
class BlockCyclicPartitioner : public ColumnPartitioner {
 public:
  BlockCyclicPartitioner(uint64_t num_features, int num_workers, uint64_t chunk)
      : ColumnPartitioner(num_features, num_workers), chunk_(chunk) {
    COLSGD_CHECK_GT(chunk, 0u);
  }

  int Owner(uint64_t feature) const override {
    return static_cast<int>((feature / chunk_) % num_workers_);
  }
  uint64_t LocalIndex(uint64_t feature) const override {
    const uint64_t chunk_index = feature / chunk_;
    return (chunk_index / num_workers_) * chunk_ + feature % chunk_;
  }
  uint64_t GlobalIndex(int worker, uint64_t local) const override {
    const uint64_t local_chunk = local / chunk_;
    const uint64_t chunk_index =
        local_chunk * num_workers_ + static_cast<uint64_t>(worker);
    return chunk_index * chunk_ + local % chunk_;
  }
  uint64_t LocalDim(int worker) const override {
    // Count features f < num_features_ with Owner(f) == worker.
    // Not (num_features_ + chunk_ - 1) / chunk_, which wraps for a chunk
    // near 2^64.
    const uint64_t num_chunks =
        num_features_ / chunk_ + (num_features_ % chunk_ != 0 ? 1 : 0);
    const uint64_t w = static_cast<uint64_t>(worker);
    if (num_chunks == 0) return 0;
    // Full cycles of K chunks, plus this worker's chunk in the tail cycle.
    const uint64_t full_cycles = num_chunks / num_workers_;
    uint64_t dim = full_cycles * chunk_;
    const uint64_t tail_chunks = num_chunks % num_workers_;
    if (w < tail_chunks) {
      // Worker owns one chunk in the tail; the very last chunk may be short.
      const uint64_t chunk_index = full_cycles * num_workers_ + w;
      const uint64_t begin = chunk_index * chunk_;
      dim += std::min(chunk_, num_features_ - begin);
    } else if (w + 1 == static_cast<uint64_t>(num_workers_) &&
               tail_chunks == 0 && num_chunks * chunk_ > num_features_) {
      // Last chunk of the last full cycle is short and belongs to worker K-1.
      dim -= num_chunks * chunk_ - num_features_;
    }
    return dim;
  }
  std::string name() const override {
    return "block_cyclic_" + std::to_string(chunk_);
  }

 private:
  uint64_t chunk_;
};

/// \brief Factory by name: "round_robin", "range" or "block_cyclic_<chunk>",
/// with <chunk> a positive decimal that fits in 64 bits. Any other name is
/// an InvalidArgument.
Result<std::unique_ptr<ColumnPartitioner>> CreatePartitioner(
    const std::string& name, uint64_t num_features, int num_workers);

/// \brief CreatePartitioner for names known to be valid; CHECK-fails on
/// others.
std::unique_ptr<ColumnPartitioner> MakePartitioner(const std::string& name,
                                                   uint64_t num_features,
                                                   int num_workers);

}  // namespace colsgd

#endif  // COLSGD_STORAGE_PARTITIONER_H_
