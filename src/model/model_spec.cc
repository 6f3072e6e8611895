#include "model/model_spec.h"

#include <algorithm>
#include <bit>

#include "common/host_memory.h"
#include "linalg/kernels/thread_pool.h"
#include "storage/partitioner.h"

namespace colsgd {

namespace {

/// Fills `dim` features' slots; local feature lf holds feature
/// global_index(lf). Chunks write disjoint slot ranges.
template <typename GlobalIndexFn>
std::vector<double> FillInitialWeights(const ModelSpec& model, uint64_t dim,
                                       uint64_t seed,
                                       GlobalIndexFn global_index) {
  const size_t wpf = static_cast<size_t>(model.weights_per_feature());
  std::vector<double> weights = ModelArray(dim * wpf);
  double* out = weights.data();
  kernels::SharedPool().ParallelFor(
      dim, kInitChunkFeatures, [&](size_t begin, size_t end) {
        for (size_t lf = begin; lf < end; ++lf) {
          const uint64_t feature = global_index(lf);
          for (size_t j = 0; j < wpf; ++j) {
            out[lf * wpf + j] =
                model.InitWeight(feature, static_cast<int>(j), seed);
          }
        }
      });
  return weights;
}

}  // namespace

GradAccumulator::GradAccumulator(uint64_t num_slots, int width)
    : num_slots_(num_slots),
      width_(static_cast<uint64_t>(width)),
      table_(size_t{1} << kMinTableBits) {
  COLSGD_CHECK_GE(width, 1);
  num_blocks_ = num_slots_ / width_;
  odd_shift_ = std::countr_zero(width_);
  // Newton's iteration for the inverse modulo 2^64: an odd number is its own
  // inverse modulo 8, and each step doubles the correct low bits.
  const uint64_t odd = width_ >> odd_shift_;
  odd_inverse_ = odd;
  for (int i = 0; i < 5; ++i) odd_inverse_ *= 2 - odd * odd_inverse_;
}

void GradAccumulator::Reset() {
  touched_.clear();
  sums_.clear();
  if (++epoch_ == 0) {  // wrapped: clear every entry a stale epoch left
    std::fill(table_.begin(), table_.end(), Entry{});
    epoch_ = 1;
  }
}

void GradAccumulator::Grow() {
  COLSGD_CHECK_LT(touched_.size(), uint64_t{1} << 31);
  table_.assign(2 * table_.size(), Entry{});
  --shift_;
  for (size_t i = 0; i < touched_.size(); ++i) {
    table_[Probe(touched_[i])] =
        Entry{touched_[i], static_cast<uint32_t>(i), epoch_};
  }
}

std::vector<double> InitialWeights(const ModelSpec& model,
                                   uint64_t num_features, uint64_t seed) {
  return FillInitialWeights(model, num_features, seed,
                            [](uint64_t f) { return f; });
}

std::vector<double> InitialWeights(const ModelSpec& model,
                                   const ColumnPartitioner& partitioner,
                                   int part, uint64_t seed) {
  return FillInitialWeights(
      model, partitioner.LocalDim(part), seed,
      [&](uint64_t lf) { return partitioner.GlobalIndex(part, lf); });
}

}  // namespace colsgd
