#include "engine/elastic.h"

#include <algorithm>
#include <numeric>
#include <string>

#include "common/check.h"

namespace colsgd {

ElasticEngine::ElasticEngine(const ClusterSpec& cluster_spec,
                             const TrainConfig& config,
                             int blocks_per_partition)
    : Engine(cluster_spec, config),
      blocks_per_partition_(blocks_per_partition) {}

Status ElasticEngine::SetupElastic() {
  elastic_ = ElasticRequested();
  if (!elastic_) return Status::OK();
  const int initial = runtime_->num_workers();
  if (config_.elastic.replication >= initial) {
    return Status::InvalidArgument(
        "replication " + std::to_string(config_.elastic.replication) +
        " needs more than " + std::to_string(initial) + " initial workers");
  }
  membership_ = MembershipView(initial, runtime_->total_workers());
  BlockStoreConfig store_config;
  store_config.num_ranks = initial;
  store_config.replication = config_.elastic.replication;
  store_config.seed = config_.elastic.placement_seed;
  store_config.blocks_per_permutation_range =
      config_.elastic.blocks_per_permutation_range;
  block_store_ = BlockStore(store_config);
  // Spare ranks start decommissioned: fault events targeting them are
  // skipped until a grow activates them.
  for (int w = initial; w < runtime_->total_workers(); ++w) {
    detector_.MarkDeparted(w);
  }
  return Status::OK();
}

std::vector<int> ElasticEngine::InitialHolders(int p) const {
  return block_store_.placement().HoldersWithPrimary(BlockId(p), p);
}

std::vector<int> ElasticEngine::ActiveWorkers() const {
  if (elastic_) return membership_.active();
  std::vector<int> workers(runtime_->num_workers());
  std::iota(workers.begin(), workers.end(), 0);
  return workers;
}

int ElasticEngine::PartitionOwner(int p) const {
  if (!elastic_) return p;
  const std::vector<int>& holders = block_store_.Holders(BlockId(p));
  COLSGD_CHECK(!holders.empty()) << "partition " << p << " has no holder";
  return holders.front();
}

std::vector<int> ElasticEngine::PartitionHolders(int p) const {
  if (!elastic_) return {p};
  return block_store_.Holders(BlockId(p));
}

bool ElasticEngine::Holds(int p, int rank) const {
  const std::vector<int>& holders = block_store_.Holders(BlockId(p));
  return std::find(holders.begin(), holders.end(), rank) != holders.end();
}

void ElasticEngine::PartitionAddHolder(int p, int rank, bool as_primary) {
  for (int k = 0; k < blocks_per_partition_; ++k) {
    block_store_.AddHolder(BlockId(p, k), rank, as_primary);
  }
}

void ElasticEngine::PartitionRemoveHolder(int p, int rank) {
  for (int k = 0; k < blocks_per_partition_; ++k) {
    block_store_.RemoveHolder(BlockId(p, k), rank);
  }
}

void ElasticEngine::PartitionMakePrimary(int p, int rank) {
  for (int k = 0; k < blocks_per_partition_; ++k) {
    block_store_.MakePrimary(BlockId(p, k), rank);
  }
}

int ElasticEngine::LeastLoadedTarget(int p, int exclude) const {
  std::vector<int> load(runtime_->total_workers(), 0);
  for (int q = 0; q < num_partitions(); ++q) {
    for (int h : block_store_.Holders(BlockId(q))) ++load[h];
  }
  int best = -1;
  for (int rank : membership_.active()) {
    if (rank == exclude || Holds(p, rank)) continue;
    if (best < 0 || load[rank] < load[best]) best = rank;
  }
  return best;
}

uint64_t ElasticEngine::ReplicatePartition(int p, int from, int to,
                                           bool as_primary,
                                           int64_t iteration) {
  uint64_t bytes = 0;
  for (int k = 0; k < blocks_per_partition_; ++k) {
    bytes += block_store_.ImageSize(BlockId(p, k));
  }
  // The copy rides the faulty data plane: the recovery/rebalance transfer
  // itself can be dropped, corrupted, or cut off by a partition.
  SendWithFaults(HoldingNode(from), HoldingNode(to), bytes, iteration);
  runtime_->ChargeMemTouch(HoldingNode(to), bytes);
  PartitionAddHolder(p, to, as_primary);
  return bytes;
}

uint64_t ElasticEngine::RestoreReplication(int p, int64_t iteration) {
  const int needed = std::min(block_store_.config().replication + 1,
                              membership_.num_active());
  uint64_t bytes = 0;
  bool resealed = false;
  while (static_cast<int>(block_store_.Holders(BlockId(p)).size()) <
         needed) {
    const int target = LeastLoadedTarget(p, -1);
    if (target < 0) break;
    if (!resealed) {
      ResealPartition(p);
      resealed = true;
    }
    bytes += ReplicatePartition(p, PartitionOwner(p), target,
                                /*as_primary=*/false, iteration);
  }
  return bytes;
}

void ElasticEngine::RebuildPartition(int p, int64_t iteration) {
  // Drop any leftover (damaged) copies before reseating the partition.
  const std::vector<int> stale = block_store_.Holders(BlockId(p));
  for (int rank : stale) PartitionRemoveHolder(p, rank);
  const int dest = LeastLoadedTarget(p, -1);
  COLSGD_CHECK_GE(dest, 0) << "no active rank to rebuild partition " << p;
  RebuildOnto(p, dest, iteration);
  RestoreReplication(p, iteration);
}

void ElasticEngine::RecoverElasticCrash(const FaultEvent& event) {
  const int w = event.worker;
  std::vector<int> held;
  std::vector<int> owned;
  for (uint64_t id : block_store_.BlocksHeldBy(w)) {
    if (id >= kBlockStride) continue;  // moves with the partition's block 0
    held.push_back(static_cast<int>(id));
    if (PartitionOwner(held.back()) == w) owned.push_back(held.back());
  }
  // Crash removal: the rank leaves the active set (unless it is the last
  // one, in which case it restarts in place as a fresh replacement node).
  if (membership_.num_active() > 1) {
    const Status removed = membership_.Remove(w);
    COLSGD_CHECK(removed.ok()) << removed.ToString();
    detector_.MarkDeparted(w);
    ++recovery_.crash_removals;
  }
  block_store_.DropRank(w);
  for (int p : held) {
    if (block_store_.Holders(BlockId(p)).empty()) {
      // No surviving copy (r = 0, or every holder already gone): the full
      // ladder — checkpoint restore or re-seed.
      RebuildPartition(p, event.iteration);
      continue;
    }
    // Peer-replica path: CRC-verify a surviving copy; damaged copies are
    // rejected and the fetch falls through to the next holder.
    const Result<BlockFetch> fetch = block_store_.Fetch(BlockId(p));
    if (!fetch.ok()) {
      // Every surviving copy is damaged: down the ladder.
      recovery_.replica_crc_rejections +=
          block_store_.Holders(BlockId(p)).size();
      RebuildPartition(p, event.iteration);
      continue;
    }
    recovery_.replica_crc_rejections += fetch->rejected_ranks.size();
    for (int rank : fetch->rejected_ranks) PartitionRemoveHolder(p, rank);
    // The first holder with a good copy is the new owner; its working state
    // is current (holders apply updates in lock-step), so promotion needs no
    // bytes. Re-replication to restore r+1 copies does.
    ++recovery_.peer_replica_fetches;
    recovery_.peer_fetch_bytes += RestoreReplication(p, event.iteration);
  }
  for (int p : owned) OnOwnershipMoved(p, PartitionOwner(p));
}

Status ElasticEngine::ApplyMembershipChange(const MembershipChange& change) {
  if (!elastic_) {
    return Status::FailedPrecondition(
        "membership change on a non-elastic run (Setup precedes set_faults?)");
  }
  return change.kind == MembershipChange::Kind::kGrow
             ? ElasticGrow(change.worker, change.iteration)
             : ElasticShrink(change.worker, change.iteration);
}

Status ElasticEngine::ElasticShrink(int worker, int64_t iteration) {
  const int w = worker >= 0 ? worker : membership_.PickShrink();
  if (w < 0 || !membership_.is_active(w)) {
    return Status::FailedPrecondition(
        "shrink target " + std::to_string(w) + " is not an active worker");
  }
  COLSGD_RETURN_NOT_OK(membership_.Remove(w));
  ++recovery_.planned_departures;
  // A planned decommission drains its state while still alive: sole copies
  // hand off to a fresh owner, and replacement replicas are sourced from the
  // departing rank itself — no detection delay, no lost state, no ladder.
  for (uint64_t id : block_store_.BlocksHeldBy(w)) {
    if (id >= kBlockStride) continue;
    const int p = static_cast<int>(id);
    ResealPartition(p);
    const std::vector<int> holders = block_store_.Holders(BlockId(p));
    const bool owned = holders.front() == w;
    if (holders.size() == 1) {
      const int target = LeastLoadedTarget(p, w);
      COLSGD_CHECK_GE(target, 0)
          << "no active rank to take over partition " << p;
      ReplicatePartition(p, w, target, /*as_primary=*/true, iteration);
    } else if (owned) {
      PartitionMakePrimary(p, holders[1]);
    }
    const int needed = std::min(block_store_.config().replication + 1,
                                membership_.num_active());
    while (static_cast<int>(block_store_.Holders(BlockId(p)).size()) - 1 <
           needed) {
      const int target = LeastLoadedTarget(p, w);
      if (target < 0) break;
      ReplicatePartition(p, w, target, /*as_primary=*/false, iteration);
    }
    PartitionRemoveHolder(p, w);
    if (owned) OnOwnershipMoved(p, PartitionOwner(p));
  }
  detector_.MarkDeparted(w);
  return Status::OK();
}

Status ElasticEngine::ElasticGrow(int rank_in, int64_t iteration) {
  const int rank = rank_in >= 0 ? rank_in : membership_.PickGrow();
  if (rank < 0) {
    return Status::FailedPrecondition(
        "grow requested but every provisioned rank is already active");
  }
  COLSGD_RETURN_NOT_OK(membership_.Add(rank));
  detector_.MarkRejoined(rank);
  ++recovery_.grows;
  OnRankJoined(rank, iteration);
  // Rebalance: shift whole partitions (ownership + resident copy) off the
  // most-loaded owners until the new rank is within one partition of the
  // heaviest. Moves pick the donor's lowest partition id; ties on load go to
  // the lowest rank — all deterministic.
  const int G = num_partitions();
  while (true) {
    std::vector<int> owned(runtime_->total_workers(), 0);
    for (int p = 0; p < G; ++p) ++owned[PartitionOwner(p)];
    int donor = -1;
    for (int candidate : membership_.active()) {
      if (candidate == rank) continue;
      if (donor < 0 || owned[candidate] > owned[donor]) donor = candidate;
    }
    if (donor < 0 || owned[rank] >= owned[donor] - 1) break;
    int moved = -1;
    for (int p = 0; p < G; ++p) {
      if (PartitionOwner(p) == donor) {
        moved = p;
        break;
      }
    }
    if (moved < 0) break;
    ResealPartition(moved);
    if (Holds(moved, rank)) {
      PartitionMakePrimary(moved, rank);
    } else {
      ReplicatePartition(moved, donor, rank, /*as_primary=*/true, iteration);
    }
    PartitionRemoveHolder(moved, donor);
    RestoreReplication(moved, iteration);
    OnOwnershipMoved(moved, rank);
  }
  // A larger active set may also lift a previously capped replication level
  // (min(r+1, active) grew): top every partition back up.
  for (int p = 0; p < G; ++p) RestoreReplication(p, iteration);
  return Status::OK();
}

}  // namespace colsgd
