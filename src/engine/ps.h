// Parameter-server baseline: the model is sharded across K servers that are
// co-located with the K workers (the paper sets #servers = #workers).
//
// Two modes, matching the paper's baselines:
//  * dense pulls/pushes ("Petuum"): every worker pulls the entire model and
//    pushes a dense gradient every iteration;
//  * sparse pulls/pushes ("MXNet"): only the dimensions present in the local
//    batch are pulled and pushed, but the worker still sweeps O(m) dense
//    weight/gradient buffers per iteration (the kvstore arrays), which is
//    what makes its per-iteration time grow with the model size (Table IV)
//    and what runs out of memory for the billion-parameter FM (Table V).
// Elastic membership (DESIGN.md §14, engine/elastic.h): logical index p
// names data partition p and server shard p, one block per partition. The
// block store keeps r+1 copies of every shard slice, kept current by
// mirroring pushes to replica servers, so a crashed shard promotes a
// replica instead of reading a checkpoint. Row data always re-reads from
// (simulated) stable storage — that is the row-oriented baselines' natural
// recovery path. Fixed membership runs the same BSP body with the identity
// placement (shard p on server p, partition p on worker p).
#ifndef COLSGD_ENGINE_PS_H_
#define COLSGD_ENGINE_PS_H_

#include <memory>
#include <vector>

#include "engine/elastic.h"
#include "engine/row_step.h"
#include "simnet/ssp_gate.h"
#include "storage/partitioner.h"

namespace colsgd {

struct PsOptions {
  bool sparse_pull = false;  // false: Petuum-style; true: MXNet-style
  /// Server-side cost per requested key (hash lookup + lock), in flops.
  uint64_t flops_per_key = 20;
};

class PsEngine : public ElasticEngine {
 public:
  PsEngine(const ClusterSpec& cluster_spec, const TrainConfig& config,
           PsOptions options = {});

  std::string name() const override {
    return options_.sparse_pull ? "ps_sparse(mxnet)" : "ps_dense(petuum)";
  }
  Status Setup(const Dataset& dataset) override;
  std::vector<double> FullModel() const override { return weights_; }

  uint64_t ServerMemoryBytes(int server) const;
  uint64_t WorkerMemoryBytes(int worker) const;

  /// \brief SSP fence: under bounded staleness `weights_` is always the
  /// newest fully-applied version (updates for an iteration land within that
  /// iteration), so the drain is a timing barrier only.
  Status FinishTraining() override;

 protected:
  Status DoRunIteration(int64_t iteration) override;
  Status DrainSsp(int64_t iteration) override;
  /// \brief Node death takes worker w AND its co-located server shard w:
  /// the worker re-reads its row partition; the shard restores from the last
  /// checkpoint (or re-initializes, losing its slice's updates). Elastic
  /// runs remove the rank instead and promote a mirrored shard replica.
  void RecoverWorkerFailure(const FaultEvent& event) override;
  /// \brief Every shard owner ships its shard to the master.
  void ChargeCheckpointGather() override;

  // Elastic hooks: a rank's shard copies live on its server endpoint, and
  // replicas receive mirrored pushes (charged r-fold), so promotion moves
  // no state.
  NodeId HoldingNode(int rank) const override {
    return runtime_->extra_node(rank);
  }
  /// \brief Re-seals shard p's slice image (weights + optimizer state in
  /// shard-local layout) on all current holders.
  void ResealPartition(int p) override;
  void RebuildOnto(int p, int dest, int64_t iteration) override;
  /// \brief The new owner re-reads the row partition.
  void OnOwnershipMoved(int p, int owner) override {
    ChargeDataPartitionRead(p, owner);
  }
  /// \brief The joining worker rebuilds its dense kvstore cache with one
  /// full pull.
  void OnRankJoined(int rank, int64_t iteration) override;

 private:
  size_t WorkerBatchSize(int worker) const;

  std::vector<uint8_t> SerializeShardSlice(int p) const;
  /// \brief Worker `rank` re-reads data partition p from stable storage.
  void ChargeDataPartitionRead(int p, int rank);
  /// \brief Worker `rank` pulls every shard from its owner (its own
  /// co-located shard is loopback).
  void PullFullModel(int rank, int64_t iteration);
  /// \brief Restores shard p's slots from the last checkpoint (shipped by
  /// the master to `server_node`) or re-initializes them, losing the
  /// slice's updates. Returns whether a checkpoint was read.
  bool RestoreShard(int p, NodeId server_node, int64_t iteration);

  // --- Bounded staleness (DESIGN.md §15) --------------------------------
  // Shards keep a ring of full model snapshots, one per applied version
  // (version v = weights after the combined update of iteration v; -1 is
  // the initial model). A pull reply may not leave server s before s has
  // applied version c - 1 - slack; it serves the newest version applied by
  // its departure time, so workers read fresher-when-available but never
  // more than `slack` versions behind.
  Status DoRunIterationSsp(int64_t iteration);
  /// \brief Snapshot of version v; CHECKs the ring still holds it.
  const std::vector<double>& SspSnapshotOf(int64_t version) const;
  void SspStoreSnapshot(int64_t version);

  std::vector<std::vector<double>> ssp_snapshots_;  // ring of slack + 2
  std::vector<int64_t> ssp_snapshot_version_;       // ring slot -> version
  std::vector<std::vector<SimTime>> ssp_applied_time_;  // [server][version]
  // Critical-path stamp ids mirroring ssp_applied_time_ (-1 when no recorder
  // was attached), so slack gates can cite the apply event causally.
  std::vector<std::vector<int64_t>> ssp_stamp_ids_;  // [server][version]
  SspClockTable ssp_clocks_;  // per-worker logical clocks

  PsOptions options_;
  uint64_t num_features_ = 0;
  // Logical global model; shards belong to servers (traffic/memory charged
  // per shard), workers see bit-identical pulled copies under BSP.
  std::vector<double> weights_;
  std::vector<double> opt_state_;
  std::unique_ptr<Optimizer> optimizer_;
  // One per data partition (= worker under fixed membership), and the
  // scatter/apply over the server shards, which holds one gradient
  // accumulator per shard (DESIGN.md §18).
  std::vector<RowWorkerStep> steps_;
  ShardedUpdate update_;
  std::unique_ptr<ColumnPartitioner> shard_map_;  // feature -> server
  std::vector<std::vector<RowBlock>> partitions_;
  std::vector<uint64_t> partition_rows_;
};

}  // namespace colsgd

#endif  // COLSGD_ENGINE_PS_H_
