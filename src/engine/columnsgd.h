// The ColumnSGD engine (Algorithm 3 / Fig. 3 of the paper): training data
// and model are partitioned by columns with the same scheme and collocated
// on each worker; per iteration only per-point statistics cross the network.
//
// Supports:
//  * S-backup computation for straggler resilience (Section IV-B / Fig. 6):
//    workers form groups of S+1 replicas; the master proceeds with the
//    earliest reply of each group.
//  * the fault model of cluster/fault (stragglers, task/worker failures,
//    message drops) with the recovery protocol of Appendix X; with backup
//    groups, a surviving replica re-seeds a dead worker's partition over the
//    network instead of a full reload.
//  * elastic cluster membership (DESIGN.md §14, engine/elastic.h): logical
//    partitions stay pinned to the initial worker count while a block store
//    keeps r+1 in-memory copies of every partition's column shards (block
//    0) and model slice (block 1), so the cluster can shrink, grow, and
//    survive crashes mid-run with peer-to-peer recovery and bit-identical
//    trained weights.
#ifndef COLSGD_ENGINE_COLUMNSGD_H_
#define COLSGD_ENGINE_COLUMNSGD_H_

#include <deque>
#include <memory>
#include <vector>

#include "engine/elastic.h"
#include "simnet/ssp_gate.h"
#include "storage/partitioner.h"
#include "storage/sampler.h"

namespace colsgd {

struct ColumnSgdOptions {
  /// S in S-backup computation; 0 disables backup. num_workers must be a
  /// multiple of S+1.
  int backup = 0;
  /// Exchange statistics as float32 instead of float64: halves the (already
  /// batch-sized) traffic at the cost of rounding each partial statistic —
  /// an ablation on the "form of statistics" discussion of Section III-C.
  bool fp32_statistics = false;
};

class ColumnSgdEngine : public ElasticEngine {
 public:
  ColumnSgdEngine(const ClusterSpec& cluster_spec, const TrainConfig& config,
                  ColumnSgdOptions options = {});

  std::string name() const override { return "columnsgd"; }
  Status Setup(const Dataset& dataset) override;
  std::vector<double> FullModel() const override;

  int num_groups() const { return num_groups_; }
  const BlockDirectory& directory() const { return directory_; }
  /// \brief Replicated shared parameters (e.g. the MLP output layer); empty
  /// for models without them.
  const std::vector<double>& shared_params() const { return shared_; }
  /// \brief Modeled resident bytes on one worker (data + model + optimizer
  /// state + scratch): the worker column of Table I.
  uint64_t WorkerMemoryBytes(int worker) const;

  /// \brief SSP final drain: applies every in-flight broadcast and barriers.
  Status FinishTraining() override;

 protected:
  Status DoRunIteration(int64_t iteration) override;
  /// \brief Pipeline fence (DESIGN.md §15): every pending broadcast is
  /// applied on its group (clock advanced to the broadcast's arrival first),
  /// then the cluster barriers. Called by RunIteration before fault events,
  /// membership changes, and checkpoints, and by FinishTraining.
  Status DrainSsp(int64_t iteration) override;
  /// \brief Appendix X recovery. With backup groups the surviving replica
  /// re-seeds the lost partition over the network (no reload, no lost
  /// state); without backup the shards are rebuilt from the row blocks and
  /// the model partition restores from the last checkpoint, or re-zeroes.
  /// Elastic runs instead remove the rank and walk the recovery ladder:
  /// peer-replica fetch -> checkpoint restore -> re-seed.
  void RecoverWorkerFailure(const FaultEvent& event) override;
  /// \brief One replica of each group ships its partition to the master.
  void ChargeCheckpointGather() override;
  std::vector<double> SharedCheckpointParams() const override {
    return shared_;
  }
  /// \brief Elastic membership needs backup == 0: logical partitions are
  /// pinned to the initial workers, backup groups re-tile them.
  bool SupportsMembership() const override { return options_.backup == 0; }

  // Elastic hooks: a rank's copies live on its worker, which holds them as
  // full working replicas (all alive holders apply the broadcast update in
  // lock-step, so a promoted replica is current without moving state).
  NodeId HoldingNode(int rank) const override {
    return runtime_->worker_node(rank);
  }
  /// \brief Re-seals the model slice image on all current holders from the
  /// authoritative group state.
  void ResealPartition(int g) override;
  /// \brief Rebuilds the shards from the row blocks onto `dest`, restores
  /// the slice from the last checkpoint or re-seeds it, and seeds both
  /// blocks there.
  void RebuildOnto(int g, int dest, int64_t iteration) override;

 private:
  /// \brief State of one partition group: a single materialized copy shared
  /// by all S+1 replica workers (replicas are bit-identical by construction;
  /// compute is charged on every member's clock).
  struct GroupState {
    WorksetStore store;
    std::vector<double> weights;    // local_dim * weights_per_feature
    std::vector<double> opt_state;  // local_dim * wpf * state_per_slot
    std::unique_ptr<GradAccumulator> grad;
    std::unique_ptr<Optimizer> optimizer;
    uint64_t local_dim = 0;
  };

  int GroupOf(int worker) const { return worker / (options_.backup + 1); }

  void InitGroupModel(int group, GroupState* state);
  /// \brief Re-initializes group g's model and restores it from the last
  /// checkpoint (shipped by the master to `node`), or keeps the initial
  /// weights and loses every update. Returns whether a checkpoint was read.
  bool RestoreGroupModel(int g, NodeId node, int64_t iteration);
  /// \brief Assembles the shard views + labels of the sampled batch for one
  /// group's store.
  BatchView MakeBatchView(const GroupState& state,
                          const std::vector<RowRef>& batch) const;

  // Algorithm 3's steps, shared by the BSP and SSP bodies.
  // Bytes of one statistics message, either direction.
  uint64_t StatsBytes() const;
  // computeStat: group g's view and partial statistics; returns the flops.
  uint64_t ComputeStat(int g, const std::vector<RowRef>& batch,
                       BatchView* view, std::vector<double>* stats) const;
  // A statistics task, raced over `members`; returns the winner.
  int RunStatTask(const std::vector<int>& members, uint64_t flops,
                  int64_t iteration, bool jitter);
  // reduceStat on the master, plus the batch loss.
  std::vector<double> ReduceStat(
      const std::vector<std::vector<double>>& group_stats,
      const std::vector<float>& labels);
  // updateModel of group g; returns its shared-parameter gradient.
  std::vector<double> UpdateGroup(int g, const BatchView& view,
                                  const std::vector<double>& agg_stats,
                                  const std::vector<double>& shared);
  // The master's shared-parameter update from shared_grad_.
  void UpdateShared();

  // --- Bounded staleness (DESIGN.md §15) --------------------------------
  // One in-flight aggregated broadcast. Everything a group needs to apply
  // the update later is frozen here: the batch (row refs stay valid — the
  // pipeline drains before any store rebuild), the reduced statistics, and
  // the shared-parameter values the statistics were computed against
  // (shared params through iteration - 1, i.e. before the master's shared
  // update for this record).
  struct SspRecord {
    int64_t iteration = 0;
    std::vector<RowRef> batch;
    std::vector<double> agg_stats;
    std::vector<double> shared_before;
  };

  /// \brief The self-clocked SSP iteration (no per-iteration commands, no
  /// barrier): each group gates on the arrival of broadcast
  /// iteration - 1 - slack, catches up on every broadcast visible at its
  /// start time, computes this iteration's statistics on whatever model it
  /// has, and replies; the master reduces, records the broadcast, and ships
  /// it with GatedSendWithFaults (mailbox delivery — no receiver stall).
  Status DoRunIterationSsp(int64_t iteration);
  /// \brief Applies one pending broadcast on group g (UpdateGroup against
  /// the record's frozen shared parameters) and accounts for it.
  void ApplySspRecord(int g, const SspRecord& record);

  std::deque<SspRecord> ssp_pipeline_;
  std::vector<int64_t> ssp_applied_through_;  // per group; -1 = nothing yet
  SspClockTable ssp_clocks_;    // per-group logical clocks
  SspArrivalLog ssp_arrivals_;  // broadcast arrival at each group's owner

  // --- Elastic membership (DESIGN.md §14) -------------------------------
  // Partition g owns block 0, its (static) column shards, and block 1, its
  // (re-sealed-on-event) model slice. The front holder is the only rank that
  // computes its statistics.
  /// \brief Workers racing to compute group g's statistics: the backup
  /// replicas of g, or just the partition owner in elastic runs.
  std::vector<int> GroupComputeMembers(int g) const;
  /// \brief Workers whose clocks are charged for group g's model update:
  /// backup replicas, or every alive holder (lock-step replicas).
  std::vector<int> GroupUpdateMembers(int g) const;

  std::vector<uint8_t> SerializePartitionData(int g) const;
  std::vector<uint8_t> SerializeModelSlice(int g) const;
  void SeedPartitionBlocks(int g, const std::vector<int>& holders);

  ColumnSgdOptions options_;
  int num_groups_ = 0;
  std::unique_ptr<ColumnPartitioner> partitioner_;  // G-way
  std::vector<GroupState> groups_;
  // Shared (replicated) parameters: every worker holds a copy and applies
  // identical updates derived from the broadcast statistics; a single
  // materialized copy stands in for all replicas.
  std::vector<double> shared_;
  std::vector<double> shared_opt_state_;
  std::unique_ptr<Optimizer> shared_optimizer_;
  std::vector<double> shared_grad_;
  std::vector<RowBlock> blocks_;  // retained: worker-failure reload source
  BlockDirectory directory_;
  std::unique_ptr<BatchSampler> sampler_;
  uint64_t num_features_ = 0;
};

}  // namespace colsgd

#endif  // COLSGD_ENGINE_COLUMNSGD_H_
