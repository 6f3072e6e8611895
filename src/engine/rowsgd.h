// RowSGD baseline in the MLlib style (Algorithm 2 of the paper): a single
// master holds the full model; workers hold row partitions; every iteration
// broadcasts the full model and aggregates gradients at the master.
//
// The full model and gradient are exchanged densely by default (MLlib's
// treeAggregate of dense vectors); `sparse_gradient_push` switches the push
// to a sparse encoding for the ablation bench.
#ifndef COLSGD_ENGINE_ROWSGD_H_
#define COLSGD_ENGINE_ROWSGD_H_

#include <memory>
#include <vector>

#include "engine/api.h"
#include "engine/row_step.h"

namespace colsgd {

struct RowSgdOptions {
  bool sparse_gradient_push = false;
};

class MllibEngine : public Engine {
 public:
  MllibEngine(const ClusterSpec& cluster_spec, const TrainConfig& config,
              RowSgdOptions options = {});

  std::string name() const override { return "mllib"; }
  Status Setup(const Dataset& dataset) override;
  std::vector<double> FullModel() const override { return weights_; }

  /// \brief Modeled resident bytes on the master (model + aggregation
  /// buffer): the master column of Table I.
  uint64_t MasterMemoryBytes() const;
  uint64_t WorkerMemoryBytes(int worker) const;

 protected:
  Status DoRunIteration(int64_t iteration) override;
  /// \brief Spark stage restart: the dead worker re-reads its row partition
  /// from storage and re-pulls the full model. The model itself lives at the
  /// master, so no updates are lost.
  void RecoverWorkerFailure(const FaultEvent& event) override;

 private:
  RowSgdOptions options_;
  uint64_t num_features_ = 0;
  // The model logically lives on the master; workers receive bit-identical
  // copies every iteration, so a single materialized vector serves all
  // nodes while traffic and compute are charged per node.
  std::vector<double> weights_;
  std::vector<double> opt_state_;
  std::unique_ptr<Optimizer> optimizer_;
  // One per worker, and the master's scatter/apply, which holds one gradient
  // accumulator per shard of its update (DESIGN.md §18).
  std::vector<RowWorkerStep> steps_;
  ShardedUpdate update_;
  RowPartitions data_;  // worker-local row partitions
};

}  // namespace colsgd

#endif  // COLSGD_ENGINE_ROWSGD_H_
