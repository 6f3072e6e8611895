// The ColumnSGD programming interface (Appendix IX of the paper).
//
// A ModelSpec describes one trainable model through two computation paths:
//
//  * the COLUMN path (initModel / computeStat / reduceStat / updateModel):
//    partial statistics are computed from a worker's local column shard and
//    local model partition; the master reduces them (element-wise sum); each
//    worker then turns the aggregated statistics into gradients for its own
//    dimensions. This is Algorithm 3.
//
//  * the ROW path: the classic gradient computation from a full row and a
//    full model, used by the RowSGD baseline engines (MLlib, PS, MLlib*).
//
// The two paths are mathematically equivalent; tests/model_equivalence_test
// checks that they produce identical updates.
//
// Weight layout: feature f contributes `weights_per_feature()` consecutive
// slots starting at f * weights_per_feature() (global layout), or at
// local_index(f) * weights_per_feature() (partitioned layout). GLMs have one
// weight per feature; MLR has C; FM has 1 + F (w plus the latent factors).
// InitialWeights (below) builds either layout's starting model.
//
// Whole-block contract: a model hands its gradient to a GradAccumulator or
// GradTerms of width weights_per_feature(), one feature block per
// occurrence of the feature in a row that contributes, rows and nnz in
// order (DESIGN.md §18). Per slot, that is the order a per-slot loop over
// the block would have added in.
#ifndef COLSGD_MODEL_MODEL_SPEC_H_
#define COLSGD_MODEL_MODEL_SPEC_H_

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "linalg/sparse.h"
#include "simnet/compute_model.h"

namespace colsgd {

class ColumnPartitioner;

/// \brief A sampled mini-batch as seen by one node: row views (local shards
/// on the column path, full rows on the row path) plus labels.
struct BatchView {
  std::vector<SparseVectorView> rows;
  std::vector<float> labels;

  size_t size() const { return rows.size(); }
};

/// \brief Sparse gradient accumulator over the slot space [0, num_slots),
/// kept in blocks of `width` consecutive slots: a model's feature block of
/// weights_per_feature() slots, so width 1 is a per-slot store. It stores
/// only the blocks it was given: each one's first slot and `width` sums, in
/// first-touch order, plus an open-addressing block -> index table sized to
/// the most blocks touched between two Resets. Memory, iteration and Reset
/// are O(touched), never O(num_slots); an Add is one expected-O(1) probe
/// followed by `width` additions in order. One instance is reused across
/// iterations, table included.
///
/// Contract (the bits every engine's trained model depends on): each slot's
/// sum starts at +0.0 and takes its additions in call order, so a first add
/// of -0.0 leaves +0.0, as a zeroed dense buffer would; touched() lists the
/// blocks' first slots in the order of their first Add since the last Reset,
/// and sums() holds `width` sums per block, parallel to it; value() of an
/// untouched slot is 0.0. Every model adds whole blocks (DESIGN.md §18), so
/// touched() expanded block by block is the slots' first-touch order.
class GradAccumulator {
 public:
  GradAccumulator(uint64_t num_slots, int width);

  /// \brief Adds g[j] to slot first_slot + j for j = 0, ..., width() - 1,
  /// in that order. The block must be aligned (first_slot a multiple of
  /// width()) and lie inside [0, num_slots).
  void Add(uint64_t first_slot, const double* g) {
    COLSGD_CHECK_LT(BlockIndex(first_slot), num_blocks_)
        << "block at slot " << first_slot << " of width " << width_ << " in "
        << num_slots_ << " slots";
    size_t pos = Probe(first_slot);
    if (table_[pos].epoch == epoch_) {
      double* sum = sums_.data() + table_[pos].index * width_;
      for (uint64_t j = 0; j < width_; ++j) sum[j] += g[j];
      return;
    }
    if (2 * (touched_.size() + 1) > table_.size()) {
      Grow();
      pos = Probe(first_slot);
    }
    table_[pos] =
        Entry{first_slot, static_cast<uint32_t>(touched_.size()), epoch_};
    touched_.push_back(first_slot);
    // Not g: a first add of -0.0 leaves +0.0.
    for (uint64_t j = 0; j < width_; ++j) sums_.push_back(0.0 + g[j]);
  }

  /// \brief First slots of the touched blocks, in first-touch order.
  const std::vector<uint64_t>& touched() const { return touched_; }
  /// \brief sums()[i * width() + j] is the sum of slot touched()[i] + j; its
  /// size is the number of touched slots.
  const std::vector<double>& sums() const { return sums_; }
  double value(uint64_t slot) const {
    const uint64_t offset = slot % width_;
    const Entry& entry = table_[Probe(slot - offset)];
    return entry.epoch == epoch_ ? sums_[entry.index * width_ + offset] : 0.0;
  }
  uint64_t num_slots() const { return num_slots_; }
  int width() const { return static_cast<int>(width_); }

  void Reset();

 private:
  // A table entry is live when its epoch is the accumulator's; Reset empties
  // the table by moving to the next epoch.
  struct Entry {
    uint64_t first_slot = 0;
    uint32_t index = 0;  // into touched_, and in blocks into sums_
    uint32_t epoch = 0;  // 0: never used
  };
  static constexpr int kMinTableBits = 4;

  // first_slot / width_ when first_slot is a multiple of width_, and a
  // value above (2^64 - 1) / width_ when it is not, so one compare against
  // num_blocks_ checks both alignment and range. Granlund and Montgomery's
  // exact-division test: a multiply and a rotate instead of a 64-bit
  // division per add.
  uint64_t BlockIndex(uint64_t first_slot) const {
    return std::rotr(first_slot * odd_inverse_, odd_shift_);
  }

  // Position of the live entry for the block at `first_slot`, or of the
  // empty entry where it would go: linear probing from the block's
  // Fibonacci hash. The table is at most half full, so the probe ends.
  size_t Probe(uint64_t first_slot) const {
    const size_t mask = table_.size() - 1;
    size_t pos = static_cast<size_t>(
        (first_slot * 0x9E3779B97F4A7C15ULL) >> shift_);
    while (table_[pos].epoch == epoch_ &&
           table_[pos].first_slot != first_slot) {
      pos = (pos + 1) & mask;
    }
    return pos;
  }

  // Doubles the table and re-inserts the touched blocks.
  void Grow();

  uint64_t num_slots_;
  uint64_t width_;
  uint64_t num_blocks_ = 0;  // whole blocks in [0, num_slots)
  // width_ = odd << odd_shift_; odd_inverse_ * odd == 1 modulo 2^64.
  int odd_shift_ = 0;
  uint64_t odd_inverse_ = 1;
  std::vector<uint64_t> touched_;
  std::vector<double> sums_;
  std::vector<Entry> table_;  // power-of-two size
  int shift_ = 64 - kMinTableBits;  // 64 - log2(table_.size())
  uint32_t epoch_ = 1;
};

/// \brief A batch's gradient in the order the model produced it: one entry
/// per feature occurrence, holding the first slot of the feature's block and
/// the block's `width` values, which is the order GradAccumulator::Add would
/// have received them. Each row-engine worker records its batch into one of
/// these, away from the shared accumulator, so workers can run at the same
/// time (DESIGN.md §18). Has GradAccumulator's Add, so the scatter kernels
/// fill either. Clear keeps the capacity for the next iteration.
class GradTerms {
 public:
  explicit GradTerms(int width) : width_(static_cast<size_t>(width)) {
    COLSGD_CHECK_GE(width, 1);
  }

  void Add(uint64_t first_slot, const double* g) {
    first_slots_.push_back(first_slot);
    values_.insert(values_.end(), g, g + width_);
  }
  void Clear() {
    first_slots_.clear();
    values_.clear();
  }

  int width() const { return static_cast<int>(width_); }
  /// \brief Number of entries (blocks), not slots.
  size_t size() const { return first_slots_.size(); }
  uint64_t first_slot(size_t i) const { return first_slots_[i]; }
  /// \brief Entry i's width() values.
  const double* values(size_t i) const { return values_.data() + i * width_; }

 private:
  size_t width_;
  std::vector<uint64_t> first_slots_;
  std::vector<double> values_;
};

/// \brief One trainable model (LR, SVM, MLR, FM, ...).
class ModelSpec {
 public:
  virtual ~ModelSpec() = default;

  virtual std::string name() const = 0;

  /// \brief Weight slots per feature (1 GLM, C MLR, 1+F FM).
  virtual int weights_per_feature() const = 0;

  /// \brief Doubles of statistics exchanged per sampled data point
  /// (1 for LR/SVM, C for MLR, F+1 for FM).
  virtual int stats_per_point() const = 0;

  /// \brief Initial value of weight slot `j` of feature `feature`.
  /// Deterministic in (feature, j, seed) so that row- and column-partitioned
  /// layouts initialize identically. GLM weights start at 0; FM latent
  /// factors need small random values (a zero V has zero gradient).
  virtual double InitWeight(uint64_t feature, int j, uint64_t seed) const {
    (void)feature;
    (void)j;
    (void)seed;
    return 0.0;
  }

  /// \brief Whether every label is one this model can train or be scored
  /// on. Checked wherever a dataset meets a model (each engine's Setup and
  /// ScoreDatasetSharded), so a bad label is an InvalidArgument instead of
  /// an out-of-range read. Only MLR restricts its labels (to class ids).
  virtual Status CheckLabels(const std::vector<float>& labels) const {
    (void)labels;
    return Status::OK();
  }

  // ---- Column path (Algorithm 3) ----------------------------------------

  /// \brief computeStat: partial statistics from the local shard and local
  /// model partition. `stats` has batch.size() * stats_per_point() entries,
  /// pre-zeroed by the caller. reduceStat is an element-wise sum.
  virtual void ComputePartialStats(const BatchView& batch,
                                   const std::vector<double>& local_model,
                                   std::vector<double>* stats,
                                   FlopCounter* flops) const = 0;

  /// \brief updateModel step 1: gradients of the local dimensions from the
  /// aggregated statistics. Row i of `batch` corresponds to statistics
  /// [i*stats_per_point(), (i+1)*stats_per_point()). Gradients are summed
  /// over the batch (not averaged; the engine scales by 1/B).
  virtual void AccumulateGradFromStats(const BatchView& batch,
                                       const std::vector<double>& agg_stats,
                                       const std::vector<double>& local_model,
                                       GradAccumulator* grad,
                                       FlopCounter* flops) const = 0;

  /// \brief Batch data loss (sum over points) from aggregated statistics and
  /// labels; any worker can evaluate this locally after the broadcast.
  virtual double BatchLossFromStats(const std::vector<double>& agg_stats,
                                    const std::vector<float>& labels) const = 0;

  /// \brief Decision value of one data point from its aggregated statistics
  /// (stats_per_point() doubles): the margin for binary models, y(x) for
  /// FMs, the argmax class id for MLR. This is the reduce step of the
  /// column-sharded inference path (src/serve): partial statistics from the
  /// feature shards sum to exactly the statistics of the full row, so the
  /// score computed here equals the row path's RowScore up to float
  /// reassociation. Models that cannot score from statistics alone (the MLP
  /// needs its shared output layer) die.
  virtual double ScoreFromStats(const double* stats) const {
    (void)stats;
    COLSGD_CHECK(false) << name() << " cannot score from statistics alone";
    return 0.0;
  }

  /// \brief Whether ScoreFromStats is implemented — i.e. whether the model
  /// can be served on the column-sharded inference plane. Callers (the
  /// serving frontend, colsgd_predict) check this instead of crashing.
  virtual bool SupportsStatScore() const { return true; }

  // ---- Shared (replicated) parameters ------------------------------------
  //
  // Some models carry a small parameter block that cannot be partitioned by
  // feature — e.g. the hidden-to-output layer of an MLP (Section III-C of
  // the paper: fully-connected layers are supported by synchronizing layer
  // statistics). Shared parameters are replicated on every worker and
  // updated identically from the broadcast statistics, so they add no
  // communication. Models without such parameters ignore this block.

  virtual size_t num_shared_params() const { return 0; }
  virtual double InitSharedParam(size_t index, uint64_t seed) const {
    (void)index;
    (void)seed;
    return 0.0;
  }

  /// \brief Batch loss for models whose loss depends on shared parameters;
  /// defaults to the shared-free overload.
  virtual double BatchLossFromStatsShared(
      const std::vector<double>& agg_stats, const std::vector<float>& labels,
      const std::vector<double>& shared) const {
    (void)shared;
    return BatchLossFromStats(agg_stats, labels);
  }

  /// \brief Gradient accumulation with shared parameters: fills
  /// `shared_grad` (pre-zeroed, size num_shared_params()) in addition to the
  /// per-feature gradients. Defaults to the shared-free overload.
  virtual void AccumulateGradFromStatsShared(
      const BatchView& batch, const std::vector<double>& agg_stats,
      const std::vector<double>& local_model,
      const std::vector<double>& shared, GradAccumulator* grad,
      std::vector<double>* shared_grad, FlopCounter* flops) const {
    (void)shared;
    (void)shared_grad;
    AccumulateGradFromStats(batch, agg_stats, local_model, grad, flops);
  }

  /// \brief Whether the classic row path (full row x full model) is
  /// implemented. Models that exist only in the column framework (the MLP
  /// of Section III-C) return false; callers must not route them through
  /// RowSGD engines or row-based evaluation.
  virtual bool SupportsRowPath() const { return true; }

  // ---- Row path (RowSGD baselines) ---------------------------------------

  /// \brief Classic gradient of one full row against a full (global-layout)
  /// model, summed into `grad`.
  virtual void AccumulateRowGradient(const SparseVectorView& row, float label,
                                     const std::vector<double>& model,
                                     GradAccumulator* grad,
                                     FlopCounter* flops) const = 0;

  /// \brief Loss of one full row against a full model.
  virtual double RowLoss(const SparseVectorView& row, float label,
                         const std::vector<double>& model,
                         FlopCounter* flops) const = 0;

  /// \brief Fused forward + gradient over a sampled row batch — the hot
  /// loop of every RowSGD baseline engine. Semantically identical to, and
  /// charged exactly like, the per-row sequence
  ///
  ///   if (row_losses) row_losses[i] = RowLoss(row, label, model, flops);
  ///   AccumulateRowGradient(row, label, model, grad, flops);
  ///
  /// in batch order, with every grad->Add(first_slot, g) recorded, in order,
  /// into `terms` instead of summed. `row_losses` (batch.size() entries) gets
  /// each row's loss in its own entry; nullptr skips the loss pass and its
  /// flop charge (MLlib*'s extra local steps). Only reads `model`, so
  /// workers may run it at the same time on one model (DESIGN.md §18).
  /// Models run the kernel layer's forward once per row and reuse the
  /// scores for both loss and gradient; the terms stay in batch order.
  /// Every model on the row path overrides this; the default dies.
  virtual void RowBatchForwardGrad(const BatchView& batch,
                                   const std::vector<double>& model,
                                   GradTerms* terms, double* row_losses,
                                   FlopCounter* flops) const {
    (void)batch;
    (void)model;
    (void)terms;
    (void)row_losses;
    (void)flops;
    COLSGD_CHECK(false) << name() << " has no fused row path";
  }

  /// \brief Decision score of one row against a full (global-layout) model:
  /// the margin for binary models, y(x) for FMs. Used by evaluation metrics
  /// (accuracy / AUC). Models without a scalar score (MLR) die.
  virtual double RowScore(const SparseVectorView& row,
                          const std::vector<double>& model) const {
    (void)row;
    (void)model;
    COLSGD_CHECK(false) << name() << " has no scalar decision score";
    return 0.0;
  }
};

/// \brief Features per pool task in InitialWeights: large enough that
/// claiming a chunk costs nothing next to filling it, small enough that the
/// ~330 chunks of an FM10 kdd12-sim model (5.4M features) keep every thread
/// busy to the end.
inline constexpr uint64_t kInitChunkFeatures = 16384;

/// \brief The initial model in global layout: slot f * wpf + j holds
/// `model.InitWeight(f, j, seed)` for every feature f < `num_features`.
///
/// The fill runs on kernels::SharedPool(), over disjoint chunks of
/// kInitChunkFeatures features. Each slot is a pure function of (feature, j,
/// seed) and no sum crosses a chunk, so the result is bitwise equal to the
/// serial loop whatever the thread count or chunk order.
std::vector<double> InitialWeights(const ModelSpec& model,
                                   uint64_t num_features, uint64_t seed);

/// \brief The initial model of partition `part` in its local layout: slot
/// lf * wpf + j holds `model.InitWeight(partitioner.GlobalIndex(part, lf), j,
/// seed)` for every lf < partitioner.LocalDim(part). Filled like the global
/// overload, with the same bitwise guarantee.
std::vector<double> InitialWeights(const ModelSpec& model,
                                   const ColumnPartitioner& partitioner,
                                   int part, uint64_t seed);

}  // namespace colsgd

#endif  // COLSGD_MODEL_MODEL_SPEC_H_
