// Elastic membership for the ColumnSGD and PS engines (DESIGN.md §14): one
// placement policy over a MembershipView and a BlockStore.
//
// Logical partition p <- [0, G) stays pinned at the initial worker count
// G. Its blocks share one holder set; block k of partition p has store id
// p + k * 2^32. The front holder owns the partition, and every holder
// applies each update in lock-step, so a crashed owner's replica is
// promoted without moving state and only re-replication moves bytes. The
// policy decides who holds what. Engines move and charge their own state
// through five hooks: the node holding a rank's copies, re-sealing a
// partition's model image, rebuilding a partition onto a rank, a partition
// changing owner, and a rank joining.
//
// A fixed-membership run builds no store and uses the identity placement:
// partition p lives on rank p alone and the active ranks are 0..K-1.
#ifndef COLSGD_ENGINE_ELASTIC_H_
#define COLSGD_ENGINE_ELASTIC_H_

#include <cstdint>
#include <vector>

#include "cluster/membership.h"
#include "engine/api.h"
#include "storage/block_store.h"

namespace colsgd {

class ElasticEngine : public Engine {
 public:
  /// \param blocks_per_partition store blocks that make up one partition.
  ElasticEngine(const ClusterSpec& cluster_spec, const TrainConfig& config,
                int blocks_per_partition);

  /// \brief Whether this run uses the elastic (block-store-backed) path.
  bool elastic() const { return elastic_; }
  const MembershipView& membership() const { return membership_; }
  const BlockStore& block_store() const { return block_store_; }
  /// \brief Mutable store access for fault-injection tests (FlipBit a
  /// replica and watch recovery fall through to the next copy).
  BlockStore* mutable_block_store() { return &block_store_; }

 protected:
  static constexpr uint64_t kBlockStride = uint64_t{1} << 32;
  /// \brief Store id of block k of partition p.
  static uint64_t BlockId(int p, int k = 0) {
    return static_cast<uint64_t>(p) + static_cast<uint64_t>(k) * kBlockStride;
  }

  /// \brief Whether this run should use the elastic (block-store-backed)
  /// path: explicitly enabled, or the fault plan scripts membership events.
  /// Engines read this in Setup (set_faults precedes Setup in every driver).
  bool ElasticRequested() const {
    return config_.elastic.enabled || faults_.plan.has_membership();
  }
  /// \brief Setup's elastic half: enters elastic mode when requested,
  /// checks that r is below the initial worker count, builds the store and
  /// marks the spare ranks departed. A no-op on fixed-membership runs.
  Status SetupElastic();
  /// \brief Partition p's r+1 initial holders, primary p first.
  std::vector<int> InitialHolders(int p) const;

  /// \brief Ranks in this BSP round, ascending.
  std::vector<int> ActiveWorkers() const;
  /// \brief Front holder of partition p.
  int PartitionOwner(int p) const;
  /// \brief Holders of partition p, owner first.
  std::vector<int> PartitionHolders(int p) const;
  /// \brief Whether `rank` holds a copy of partition p (elastic runs).
  bool Holds(int p, int rank) const;

  /// \brief Crash removal, then the recovery ladder per partition the rank
  /// held: peer-replica fetch (a damaged copy falls through to the next
  /// holder) -> checkpoint restore -> re-seed, then re-replication.
  void RecoverElasticCrash(const FaultEvent& event);
  bool SupportsMembership() const override { return true; }
  Status ApplyMembershipChange(const MembershipChange& change) override;

  // --- Engine hooks ------------------------------------------------------
  /// \brief The node that holds `rank`'s copies.
  virtual NodeId HoldingNode(int rank) const = 0;
  /// \brief Re-seals partition p's model image on all current holders from
  /// the live state (before any transfer or fetch).
  virtual void ResealPartition(int p) = 0;
  /// \brief Ladder bottom: restores partition p onto rank `dest` from the
  /// last checkpoint or by re-seeding, charges the cost, then Puts its
  /// blocks with `dest` as the only holder.
  virtual void RebuildOnto(int p, int dest, int64_t iteration) = 0;
  /// \brief Partition p's ownership moved to `owner`.
  virtual void OnOwnershipMoved(int /*p*/, int /*owner*/) {}
  /// \brief `rank` joined the active set, before any rebalancing.
  virtual void OnRankJoined(int /*rank*/, int64_t /*iteration*/) {}

  bool elastic_ = false;
  MembershipView membership_;
  BlockStore block_store_;

 private:
  int num_partitions() const { return runtime_->num_workers(); }
  void PartitionAddHolder(int p, int rank, bool as_primary);
  void PartitionRemoveHolder(int p, int rank);
  void PartitionMakePrimary(int p, int rank);
  /// \brief Least-loaded (fewest partitions held) active rank that neither
  /// holds partition p nor equals `exclude`; -1 when none qualifies.
  int LeastLoadedTarget(int p, int exclude) const;
  /// \brief Ships partition p's sealed images from rank `from` to `to`
  /// over the faulty data plane and installs the copy. Returns the wire
  /// bytes moved.
  uint64_t ReplicatePartition(int p, int from, int to, bool as_primary,
                              int64_t iteration);
  /// \brief Adds copies until partition p has min(r+1, active) holders,
  /// sourcing from its owner. Returns the wire bytes moved.
  uint64_t RestoreReplication(int p, int64_t iteration);
  /// \brief Drops partition p's stale copies, rebuilds it onto the
  /// least-loaded active rank, then re-establishes replication.
  void RebuildPartition(int p, int64_t iteration);
  Status ElasticShrink(int worker, int64_t iteration);
  Status ElasticGrow(int rank, int64_t iteration);

  int blocks_per_partition_;
};

}  // namespace colsgd

#endif  // COLSGD_ENGINE_ELASTIC_H_
