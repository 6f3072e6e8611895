#include "engine/columnsgd.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "linalg/dense.h"

namespace colsgd {

namespace {
constexpr uint64_t kCommandMsgBytes = 24;  // iteration id + batch size + tag
constexpr double kDefaultSchedOverhead = 0.01;
// Modeled cost of drawing one (block, offset) pair via the two-phase index.
constexpr uint64_t kSampleFlops = 32;
}  // namespace

ColumnSgdEngine::ColumnSgdEngine(const ClusterSpec& cluster_spec,
                                 const TrainConfig& config,
                                 ColumnSgdOptions options)
    : Engine(cluster_spec, config), options_(std::move(options)) {
  const int replicas = options_.backup + 1;
  COLSGD_CHECK_GE(options_.backup, 0);
  COLSGD_CHECK_EQ(cluster_spec.num_workers % replicas, 0)
      << "num_workers must be a multiple of backup+1";
  num_groups_ = cluster_spec.num_workers / replicas;
}

void ColumnSgdEngine::InitGroupModel(int group, GroupState* state) {
  state->local_dim = partitioner_->LocalDim(group);
  state->weights =
      InitialWeights(*model_, *partitioner_, group, config_.seed);
  state->optimizer = MakeOptimizer(config_.optimizer, config_.learning_rate);
  state->opt_state.assign(
      state->weights.size() * state->optimizer->state_per_slot(), 0.0);
  state->grad = std::make_unique<GradAccumulator>(
      state->weights.size(), model_->weights_per_feature());
}

Status ColumnSgdEngine::Setup(const Dataset& dataset) {
  COLSGD_RETURN_NOT_OK(model_->CheckLabels(dataset.labels));
  if (config_.ssp.enabled) {
    if (options_.backup != 0) {
      return Status::InvalidArgument(
          "SSP requires backup == 0: backup groups race within a barriered "
          "round, and bounded staleness removes that round entirely");
    }
    if (config_.ssp.slack < 0) {
      return Status::InvalidArgument("ssp.slack must be >= 0");
    }
    ssp_pipeline_.clear();
    ssp_applied_through_.assign(num_groups_, -1);
    ssp_clocks_.Reset(num_groups_);
    ssp_arrivals_.Reset(num_groups_);
    ssp_.sent.assign(num_groups_, {});
    ssp_.applied.assign(num_groups_, {});
  }
  num_features_ = dataset.num_features;
  blocks_ = MakeRowBlocks(dataset, config_.block_rows);
  COLSGD_ASSIGN_OR_RETURN(
      partitioner_,
      CreatePartitioner(config_.partitioner, dataset.num_features,
                        num_groups_));

  // Row-to-column transform with replication (Algorithm 4 + Section IV-B).
  // Elastic runs replicate along the block store's permuted placement
  // instead of backup groups: partition g's shards land on its r+1 holders.
  elastic_ = ElasticRequested();
  std::vector<std::vector<int>> replicas(num_groups_);
  if (elastic_) {
    if (options_.backup != 0) {
      return Status::InvalidArgument(
          "elastic membership requires backup == 0: logical partitions are "
          "pinned to the initial workers, backup groups re-tile them");
    }
    const int initial = cluster_spec_.num_workers;
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
    for (int g = 0; g < num_groups_; ++g) {
      replicas[g] = block_store_.placement().HoldersWithPrimary(
          DataBlockId(g), /*primary=*/g);
    }
    // Spare ranks start decommissioned: fault events targeting them are
    // skipped until a grow activates them.
    for (int w = initial; w < runtime_->total_workers(); ++w) {
      detector_.MarkDeparted(w);
    }
  } else {
    const int replicas_per_group = options_.backup + 1;
    for (int g = 0; g < num_groups_; ++g) {
      for (int r = 0; r < replicas_per_group; ++r) {
        replicas[g].push_back(g * replicas_per_group + r);
      }
    }
  }
  ColumnLoadResult load = BlockColumnLoadReplicated(
      blocks_, *partitioner_, replicas, runtime_.get(),
      config_.transform_cost);
  directory_ = std::move(load.directory);
  sampler_ = std::make_unique<BatchSampler>(&directory_, config_.seed);

  const size_t num_shared = model_->num_shared_params();
  shared_.resize(num_shared);
  for (size_t i = 0; i < num_shared; ++i) {
    shared_[i] = model_->InitSharedParam(i, config_.seed);
  }
  shared_optimizer_ = MakeOptimizer(config_.optimizer, config_.learning_rate);
  shared_opt_state_.assign(num_shared * shared_optimizer_->state_per_slot(),
                           0.0);
  shared_grad_.assign(num_shared, 0.0);

  groups_.resize(num_groups_);
  for (int g = 0; g < num_groups_; ++g) {
    groups_[g].store = std::move(load.stores[g]);
    InitGroupModel(g, &groups_[g]);
    // initModel: charge the one-time dense sweep on every replica's clock.
    for (int member : replicas[g]) {
      runtime_->ChargeMemTouch(runtime_->worker_node(member),
                               groups_[g].weights.size() * sizeof(double));
    }
    if (elastic_) SeedPartitionBlocks(g, replicas[g]);
  }
  runtime_->Barrier();
  load_time_ = runtime_->MaxClock();

  // Memory check (Table I worker column).
  for (int w : ActiveWorkers()) {
    const uint64_t bytes = WorkerMemoryBytes(w);
    if (bytes > cluster_spec_.node_memory_budget) {
      return Status::OutOfMemory(
          "ColumnSGD worker " + std::to_string(w) + " needs " +
          std::to_string(bytes) + " bytes > budget " +
          std::to_string(cluster_spec_.node_memory_budget));
    }
  }
  return Status::OK();
}

std::vector<int> ColumnSgdEngine::ActiveWorkers() const {
  if (elastic_) return membership_.active();
  std::vector<int> workers(runtime_->num_workers());
  for (int w = 0; w < runtime_->num_workers(); ++w) workers[w] = w;
  return workers;
}

std::vector<int> ColumnSgdEngine::GroupComputeMembers(int g) const {
  if (elastic_) return {PartitionOwner(g)};
  std::vector<int> members;
  members.reserve(options_.backup + 1);
  for (int r = 0; r <= options_.backup; ++r) {
    members.push_back(g * (options_.backup + 1) + r);
  }
  return members;
}

std::vector<int> ColumnSgdEngine::GroupUpdateMembers(int g) const {
  if (!elastic_) return GroupComputeMembers(g);
  return block_store_.Holders(DataBlockId(g));
}

int ColumnSgdEngine::PartitionOwner(int g) const {
  const std::vector<int>& holders = block_store_.Holders(DataBlockId(g));
  COLSGD_CHECK(!holders.empty()) << "partition " << g << " has no holder";
  return holders.front();
}

uint64_t ColumnSgdEngine::WorkerMemoryBytes(int worker) const {
  const uint64_t stats_bytes = 2 * config_.batch_size *
                               model_->stats_per_point() * sizeof(double);
  if (elastic_) {
    // An elastic rank is resident for every partition it holds a copy of
    // (replicas apply updates in lock-step, so each copy is a full working
    // replica, not a cold image).
    uint64_t total = stats_bytes;
    for (int g = 0; g < num_groups_; ++g) {
      const std::vector<int>& holders = block_store_.Holders(DataBlockId(g));
      bool holds = false;
      for (int h : holders) holds |= h == worker;
      if (!holds) continue;
      const GroupState& state = groups_[g];
      // The gradient scratch is charged as a dense buffer, as below.
      total += state.store.MemoryBytes() +
               (state.weights.size() + state.opt_state.size()) *
                   sizeof(double) +
               state.weights.size() * (sizeof(double) + 1);
    }
    return total;
  }
  const GroupState& state = groups_[GroupOf(worker)];
  const uint64_t model_bytes =
      (state.weights.size() + state.opt_state.size()) * sizeof(double);
  // The modelled gradient scratch: a dense buffer plus a touched byte per
  // local slot. It prices the simulated worker, not the host, whose
  // GradAccumulator stores only the touched slots.
  const uint64_t scratch_bytes = state.weights.size() * (sizeof(double) + 1);
  return state.store.MemoryBytes() + model_bytes + scratch_bytes + stats_bytes;
}

BatchView ColumnSgdEngine::MakeBatchView(
    const GroupState& state, const std::vector<RowRef>& batch) const {
  BatchView view;
  view.rows.reserve(batch.size());
  view.labels.reserve(batch.size());
  for (const RowRef& ref : batch) {
    const Workset* workset = state.store.Find(ref.block_id);
    COLSGD_CHECK(workset != nullptr) << "missing workset " << ref.block_id;
    view.rows.push_back(workset->shard.Row(ref.offset));
    view.labels.push_back(workset->labels[ref.offset]);
  }
  return view;
}

std::vector<uint8_t> ColumnSgdEngine::SerializePartitionData(int g) const {
  // Length-prefixed concatenation of the partition's worksets, in store
  // order (block order — deterministic across the initial load and any
  // rebuild, so re-seeded images are bit-identical to originals).
  std::vector<uint8_t> payload;
  for (const Workset& workset : groups_[g].store.worksets()) {
    const std::vector<uint8_t> wire = workset.Serialize();
    const uint64_t size = wire.size();
    const uint8_t* p = reinterpret_cast<const uint8_t*>(&size);
    payload.insert(payload.end(), p, p + sizeof(size));
    payload.insert(payload.end(), wire.begin(), wire.end());
  }
  return payload;
}

void ColumnSgdEngine::RefreshModelBlock(int g) {
  ModelSliceBlock slice;
  slice.partition = g;
  slice.weights = groups_[g].weights;
  slice.opt_state = groups_[g].opt_state;
  block_store_.Refresh(ModelBlockId(g), slice.Serialize());
}

void ColumnSgdEngine::SeedPartitionBlocks(int g,
                                          const std::vector<int>& holders) {
  block_store_.Put(DataBlockId(g), SerializePartitionData(g), holders);
  ModelSliceBlock slice;
  slice.partition = g;
  slice.weights = groups_[g].weights;
  slice.opt_state = groups_[g].opt_state;
  block_store_.Put(ModelBlockId(g), slice.Serialize(), holders);
}

void ColumnSgdEngine::PartitionAddHolder(int g, int rank, bool as_primary) {
  block_store_.AddHolder(DataBlockId(g), rank, as_primary);
  block_store_.AddHolder(ModelBlockId(g), rank, as_primary);
}

void ColumnSgdEngine::PartitionRemoveHolder(int g, int rank) {
  block_store_.RemoveHolder(DataBlockId(g), rank);
  block_store_.RemoveHolder(ModelBlockId(g), rank);
}

void ColumnSgdEngine::PartitionMakePrimary(int g, int rank) {
  block_store_.MakePrimary(DataBlockId(g), rank);
  block_store_.MakePrimary(ModelBlockId(g), rank);
}

int ColumnSgdEngine::LeastLoadedTarget(int g, int exclude) const {
  std::vector<int> load(runtime_->total_workers(), 0);
  for (int p = 0; p < num_groups_; ++p) {
    for (int h : block_store_.Holders(DataBlockId(p))) ++load[h];
  }
  const std::vector<int>& holders = block_store_.Holders(DataBlockId(g));
  int best = -1;
  for (int rank : membership_.active()) {
    if (rank == exclude) continue;
    bool holds = false;
    for (int h : holders) holds |= h == rank;
    if (holds) continue;
    if (best < 0 || load[rank] < load[best]) best = rank;
  }
  return best;
}

uint64_t ColumnSgdEngine::ReplicatePartition(int g, int from, int to,
                                             bool as_primary,
                                             int64_t iteration) {
  const uint64_t bytes = block_store_.ImageSize(DataBlockId(g)) +
                         block_store_.ImageSize(ModelBlockId(g));
  // The copy rides the faulty data plane: the recovery/rebalance transfer
  // itself can be dropped, corrupted, or cut off by a partition.
  SendWithFaults(runtime_->worker_node(from), runtime_->worker_node(to),
                 bytes, iteration);
  runtime_->ChargeMemTouch(runtime_->worker_node(to), bytes);
  PartitionAddHolder(g, to, as_primary);
  return bytes;
}

uint64_t ColumnSgdEngine::RestoreReplication(int g, int64_t iteration) {
  const int needed = std::min(block_store_.config().replication + 1,
                              membership_.num_active());
  uint64_t bytes = 0;
  bool refreshed = false;
  while (static_cast<int>(block_store_.Holders(DataBlockId(g)).size()) <
         needed) {
    const int target = LeastLoadedTarget(g, -1);
    if (target < 0) break;
    if (!refreshed) {
      RefreshModelBlock(g);
      refreshed = true;
    }
    bytes += ReplicatePartition(g, PartitionOwner(g), target,
                                /*as_primary=*/false, iteration);
  }
  return bytes;
}

void ColumnSgdEngine::RebuildPartition(int g, int64_t iteration) {
  // Drop any leftover (damaged) copies before reseating the partition.
  const std::vector<int> stale = block_store_.Holders(DataBlockId(g));
  for (int rank : stale) PartitionRemoveHolder(g, rank);
  const int dest = LeastLoadedTarget(g, -1);
  COLSGD_CHECK_GE(dest, 0) << "no active rank to rebuild partition " << g;
  const NodeId dest_node = runtime_->worker_node(dest);

  GroupState& state = groups_[g];
  state.store.Clear();
  state.store =
      ReloadPartitionShards(blocks_, *partitioner_, g, dest,
                            membership_.active(), runtime_.get(),
                            config_.transform_cost);
  InitGroupModel(g, &state);
  const SavedModel* checkpoint = LatestCheckpoint();
  if (checkpoint != nullptr) {
    const int wpf = model_->weights_per_feature();
    for (uint64_t lf = 0; lf < state.local_dim; ++lf) {
      const uint64_t feature = partitioner_->GlobalIndex(g, lf);
      for (int j = 0; j < wpf; ++j) {
        state.weights[lf * wpf + j] = checkpoint->weights[feature * wpf + j];
      }
    }
    const uint64_t partition_bytes = state.weights.size() * sizeof(double);
    ChargeCheckpointRead(runtime_->master(), partition_bytes);
    SendWithFaults(runtime_->master(), dest_node, partition_bytes, iteration);
    recovery_.iterations_lost +=
        iteration - checkpoints_.completed_iterations();
  } else {
    ++recovery_.reseeds;
    recovery_.iterations_lost += iteration;
  }
  SeedPartitionBlocks(g, {dest});
  RestoreReplication(g, iteration);
}

void ColumnSgdEngine::RecoverElasticCrash(const FaultEvent& event) {
  const int w = event.worker;
  const std::vector<uint64_t> held = block_store_.BlocksHeldBy(w);
  // Crash removal: the rank leaves the active set (unless it is the last
  // one, in which case it restarts in place as a fresh replacement node).
  if (membership_.num_active() > 1) {
    const Status removed = membership_.Remove(w);
    COLSGD_CHECK(removed.ok()) << removed.ToString();
    detector_.MarkDeparted(w);
    ++recovery_.crash_removals;
  }
  block_store_.DropRank(w);
  for (uint64_t id : held) {
    if (id >= kModelBlockBase) continue;  // handled with its data block
    const int g = static_cast<int>(id);
    if (block_store_.Holders(DataBlockId(g)).empty()) {
      // No surviving copy (r = 0, or every holder already gone): the full
      // ladder — rebuild from row blocks, checkpoint restore or re-seed.
      RebuildPartition(g, event.iteration);
      continue;
    }
    // Peer-replica path: CRC-verify a surviving copy; damaged copies are
    // rejected and the fetch falls through to the next holder.
    const Result<BlockFetch> fetch = block_store_.Fetch(DataBlockId(g));
    if (!fetch.ok()) {
      // Every surviving copy is damaged: down the ladder.
      recovery_.replica_crc_rejections +=
          block_store_.Holders(DataBlockId(g)).size();
      RebuildPartition(g, event.iteration);
      continue;
    }
    recovery_.replica_crc_rejections += fetch->rejected_ranks.size();
    for (int rank : fetch->rejected_ranks) PartitionRemoveHolder(g, rank);
    // The first holder with a good copy is the new owner; its working state
    // is current (holders apply updates in lock-step), so promotion needs no
    // bytes. Re-replication to restore r+1 copies does.
    ++recovery_.peer_replica_fetches;
    recovery_.peer_fetch_bytes += RestoreReplication(g, event.iteration);
  }
}

void ColumnSgdEngine::RecoverWorkerFailure(const FaultEvent& event) {
  if (elastic_) {
    RecoverElasticCrash(event);
    return;
  }
  const int group = GroupOf(event.worker);
  GroupState& state = groups_[group];
  const NodeId failed_node = runtime_->worker_node(event.worker);
  const uint64_t model_bytes =
      (state.weights.size() + state.opt_state.size()) * sizeof(double);

  if (options_.backup > 0) {
    // A surviving replica of the group holds the identical partition: it
    // re-seeds the replacement over the network — column shards, model, and
    // optimizer state — instead of re-reading any row blocks. Nothing is
    // lost; only the transfer is paid.
    int survivor = -1;
    for (int r = 0; r <= options_.backup; ++r) {
      const int w = group * (options_.backup + 1) + r;
      if (w != event.worker) {
        survivor = w;
        break;
      }
    }
    COLSGD_CHECK_GE(survivor, 0);
    const uint64_t data_bytes = state.store.MemoryBytes();
    // The re-seed rides the faulty data plane too: the recovery transfer
    // itself can be dropped, corrupted, or cut off by a partition.
    SendWithFaults(runtime_->worker_node(survivor), failed_node,
                   data_bytes + model_bytes, event.iteration);
    // Receiver-side materialization of the shipped state.
    runtime_->ChargeMemTouch(failed_node, data_bytes + model_bytes);
    return;  // no iterations lost
  }

  // No backup: the shards are rebuilt from the row blocks (Appendix X) and
  // the model partition restores from the last checkpoint, or restarts from
  // initial weights and relies on SGD's robustness (Fig. 13b).
  state.store.Clear();
  state.store = ReloadWorkerShards(blocks_, *partitioner_, event.worker,
                                   runtime_.get(), config_.transform_cost);
  InitGroupModel(group, &state);
  const SavedModel* checkpoint = LatestCheckpoint();
  if (checkpoint != nullptr) {
    const int wpf = model_->weights_per_feature();
    for (uint64_t lf = 0; lf < state.local_dim; ++lf) {
      const uint64_t feature = partitioner_->GlobalIndex(group, lf);
      for (int j = 0; j < wpf; ++j) {
        state.weights[lf * wpf + j] = checkpoint->weights[feature * wpf + j];
      }
    }
    // The master reads the partition from stable storage and ships it.
    const uint64_t partition_bytes = state.weights.size() * sizeof(double);
    ChargeCheckpointRead(runtime_->master(), partition_bytes);
    SendWithFaults(runtime_->master(), failed_node, partition_bytes,
                   event.iteration);
    recovery_.iterations_lost +=
        event.iteration - checkpoints_.completed_iterations();
  } else {
    recovery_.iterations_lost += event.iteration;
  }
}

void ColumnSgdEngine::ChargeCheckpointGather() {
  // The primary replica (elastic: current owner) of each group ships its
  // partition to the master.
  for (int g = 0; g < num_groups_; ++g) {
    const int w = elastic_ ? PartitionOwner(g) : g * (options_.backup + 1);
    runtime_->Send(runtime_->worker_node(w), runtime_->master(),
                   groups_[g].weights.size() * sizeof(double));
  }
}

Status ColumnSgdEngine::ApplyMembershipChange(const MembershipChange& change) {
  if (!elastic_) {
    return Status::FailedPrecondition(
        "membership change on a non-elastic run (Setup precedes set_faults?)");
  }
  return change.kind == MembershipChange::Kind::kGrow
             ? ElasticGrow(change.worker, change.iteration)
             : ElasticShrink(change.worker, change.iteration);
}

Status ColumnSgdEngine::ElasticShrink(int worker, int64_t iteration) {
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
  const std::vector<uint64_t> held = block_store_.BlocksHeldBy(w);
  for (uint64_t id : held) {
    if (id >= kModelBlockBase) continue;
    const int g = static_cast<int>(id);
    RefreshModelBlock(g);
    const std::vector<int> holders = block_store_.Holders(DataBlockId(g));
    if (holders.size() == 1) {
      const int target = LeastLoadedTarget(g, w);
      COLSGD_CHECK_GE(target, 0)
          << "no active rank to take over partition " << g;
      ReplicatePartition(g, w, target, /*as_primary=*/true, iteration);
    } else if (holders.front() == w) {
      PartitionMakePrimary(g, holders[1]);
    }
    const int needed = std::min(block_store_.config().replication + 1,
                                membership_.num_active());
    while (static_cast<int>(block_store_.Holders(DataBlockId(g)).size()) - 1 <
           needed) {
      const int target = LeastLoadedTarget(g, w);
      if (target < 0) break;
      ReplicatePartition(g, w, target, /*as_primary=*/false, iteration);
    }
    PartitionRemoveHolder(g, w);
  }
  detector_.MarkDeparted(w);
  return Status::OK();
}

Status ColumnSgdEngine::ElasticGrow(int rank_in, int64_t iteration) {
  const int rank = rank_in >= 0 ? rank_in : membership_.PickGrow();
  if (rank < 0) {
    return Status::FailedPrecondition(
        "grow requested but every provisioned rank is already active");
  }
  COLSGD_RETURN_NOT_OK(membership_.Add(rank));
  detector_.MarkRejoined(rank);
  ++recovery_.grows;
  // Rebalance: shift whole partitions (ownership + resident copy) off the
  // most-loaded owners until the new rank is within one partition of the
  // heaviest. Moves pick the donor's lowest partition id; ties on load go to
  // the lowest rank — all deterministic.
  while (true) {
    std::vector<int> owned(runtime_->total_workers(), 0);
    for (int g = 0; g < num_groups_; ++g) ++owned[PartitionOwner(g)];
    int donor = -1;
    for (int candidate : membership_.active()) {
      if (candidate == rank) continue;
      if (donor < 0 || owned[candidate] > owned[donor]) donor = candidate;
    }
    if (donor < 0 || owned[rank] >= owned[donor] - 1) break;
    int moved = -1;
    for (int g = 0; g < num_groups_; ++g) {
      if (PartitionOwner(g) == donor) {
        moved = g;
        break;
      }
    }
    if (moved < 0) break;
    RefreshModelBlock(moved);
    bool already_holder = false;
    for (int h : block_store_.Holders(DataBlockId(moved))) {
      already_holder |= h == rank;
    }
    if (already_holder) {
      PartitionMakePrimary(moved, rank);
    } else {
      ReplicatePartition(moved, donor, rank, /*as_primary=*/true, iteration);
    }
    PartitionRemoveHolder(moved, donor);
    RestoreReplication(moved, iteration);
  }
  // A larger active set may also lift a previously capped replication level
  // (min(r+1, active) grew): top every partition back up.
  for (int g = 0; g < num_groups_; ++g) RestoreReplication(g, iteration);
  return Status::OK();
}

Status ColumnSgdEngine::DoRunIteration(int64_t iteration) {
  if (config_.ssp.enabled) return DoRunIterationSsp(iteration);
  const std::vector<int> active = ActiveWorkers();
  const size_t B = config_.batch_size;
  const int spp = model_->stats_per_point();
  const size_t stat_width =
      options_.fp32_statistics ? sizeof(float) : sizeof(double);
  const uint64_t stats_bytes = 16 + B * spp * stat_width;

  // Driver dispatch.
  TracePhase(Phase::kSerialization);
  runtime_->AdvanceClock(runtime_->master(),
                         SchedOverhead(kDefaultSchedOverhead));
  for (int w : active) {
    runtime_->Send(runtime_->master(), runtime_->worker_node(w),
                   kCommandMsgBytes);
  }
  TracePhase(Phase::kWire);  // master now waits on the statistics gather

  // Every node draws the same batch from the shared seed (two-phase index).
  const std::vector<RowRef> batch = sampler_->Sample(iteration, B);

  // Step 1: computeStat on each worker. Replicas of a group compute the
  // same statistics; we materialize them once per group and charge each
  // member's clock.
  std::vector<std::vector<double>> group_stats(num_groups_);
  std::vector<BatchView> group_views(num_groups_);
  std::vector<uint64_t> group_flops(num_groups_);
  for (int g = 0; g < num_groups_; ++g) {
    group_views[g] = MakeBatchView(groups_[g], batch);
    group_stats[g].assign(B * spp, 0.0);
    FlopCounter flops;
    flops.Add(B * kSampleFlops);
    model_->ComputePartialStats(group_views[g], groups_[g].weights,
                                &group_stats[g], &flops);
    if (options_.fp32_statistics) {
      // Model the precision actually shipped on the wire.
      for (double& v : group_stats[g]) v = static_cast<float>(v);
    }
    group_flops[g] = flops.flops();
  }

  // Step 2: workers push statistics; the master needs one reply per group.
  // With backup, it takes the earliest reply of each group and kills the
  // other replicas' tasks once the statistics are recoverable (Section IV-B)
  // — killed replicas skip the push and resume at the broadcast.
  SimTime gather_time = runtime_->clock(runtime_->master());
  std::vector<SimTime> group_reply(num_groups_);
  std::vector<int> group_winner(num_groups_);
  for (int g = 0; g < num_groups_; ++g) {
    SimTime earliest_finish = std::numeric_limits<double>::infinity();
    int winner = -1;
    for (int w : GroupComputeMembers(g)) {
      const double compute_seconds =
          cluster_spec_.compute.SecondsFor(group_flops[g]);
      // A straggler's slowdown applies to its whole task (launch + compute),
      // matching the paper's StragglerLevel definition (Section V-C).
      const double task_seconds =
          compute_seconds + SchedOverhead(kDefaultSchedOverhead);
      const SimTime finish =
          runtime_->clock(runtime_->worker_node(w)) + compute_seconds +
          StragglerLevelFor(iteration, w) * task_seconds;
      if (finish < earliest_finish) {
        earliest_finish = finish;
        winner = w;
      }
    }
    group_winner[g] = winner;
    const NodeId node = runtime_->worker_node(winner);
    if (critpath_ != nullptr) {
      // Split the winner's jump into its compute and straggler parts, using
      // the exact arithmetic of the `finish` expression above.
      const double compute_seconds =
          cluster_spec_.compute.SecondsFor(group_flops[g]);
      const double task_seconds =
          compute_seconds + SchedOverhead(kDefaultSchedOverhead);
      critpath_->AnnotateAdvance(
          node, compute_seconds, group_flops[g],
          StragglerLevelFor(iteration, winner) * task_seconds);
    }
    if (tracer_ != nullptr) {
      // The winner's computeStat block (charged below via set_clock, not
      // ChargeCompute, because backup replicas race on the same work).
      tracer_->RecordCompute(node, runtime_->clock(node),
                             earliest_finish - runtime_->clock(node),
                             group_flops[g]);
    }
    runtime_->set_clock(node, earliest_finish);
    group_reply[g] =
        SendWithFaults(node, runtime_->master(), stats_bytes, iteration);
    gather_time = std::max(gather_time, group_reply[g]);
  }
  runtime_->set_clock(runtime_->master(), gather_time);
  TracePhase(Phase::kCompute);  // reduceStat + loss on the master
  // Losing replicas are killed once the master has every group's reply.
  for (int g = 0; g < num_groups_; ++g) {
    for (int w : GroupComputeMembers(g)) {
      if (w != group_winner[g]) {
        runtime_->SyncClockTo(runtime_->worker_node(w), gather_time);
      }
    }
  }

  // Step 3: reduceStat — element-wise sum across groups.
  std::vector<double> agg_stats(B * spp, 0.0);
  for (int g = 0; g < num_groups_; ++g) {
    AddInto(group_stats[g], &agg_stats);
  }
  if (options_.fp32_statistics) {
    for (double& v : agg_stats) v = static_cast<float>(v);
  }
  runtime_->ChargeCompute(runtime_->master(),
                          static_cast<uint64_t>(num_groups_) * B * spp);

  // Training loss of this batch: any worker can compute it locally from the
  // aggregated statistics and its replicated labels (plus the replicated
  // shared parameters, for models that have them).
  last_batch_loss_ =
      model_->BatchLossFromStatsShared(agg_stats, group_views[0].labels,
                                       shared_) /
      static_cast<double>(B);

  // Step 4: broadcast the aggregated statistics back.
  for (int w : active) {
    SendWithFaults(runtime_->master(), runtime_->worker_node(w), stats_bytes,
                   iteration);
  }

  // Step 5: updateModel on every worker (once per group for real; charged on
  // every replica's clock so all replicas stay in lock-step). The shared
  // block's gradient is identical on every worker — it is a function of the
  // broadcast statistics alone — so one update stands in for all replicas.
  for (int g = 0; g < num_groups_; ++g) {
    GroupState& state = groups_[g];
    FlopCounter flops;
    std::vector<double> group_shared_grad(shared_.size(), 0.0);
    model_->AccumulateGradFromStatsShared(group_views[g], agg_stats,
                                          state.weights, shared_,
                                          state.grad.get(),
                                          &group_shared_grad, &flops);
    if (g == 0) shared_grad_ = std::move(group_shared_grad);
    flops.Add(B);  // local loss bookkeeping
    // Partitions are disjoint across groups, so summing each group's squared
    // gradient norm yields the full model's (telemetry only).
    ApplySparseUpdate(state.grad.get(), B, config_.reg, state.optimizer.get(),
                      &state.weights, &state.opt_state, &flops,
                      grad_sq_accum());
    flops.Add(8 * shared_.size());
    // Elastic runs charge the update on every alive holder: replicas stay in
    // lock-step with the owner, which is what makes promotion free of state
    // movement when the owner dies.
    for (int w : GroupUpdateMembers(g)) {
      runtime_->ChargeCompute(runtime_->worker_node(w), flops.flops());
    }
  }
  if (!shared_.empty()) {
    shared_optimizer_->BeginStep();
    const int sps = shared_optimizer_->state_per_slot();
    double* grad_sq = grad_sq_accum();
    for (size_t i = 0; i < shared_.size(); ++i) {
      const double g = shared_grad_[i] / static_cast<double>(B) +
                       config_.reg.Grad(shared_[i]);
      *grad_sq += g * g;
      double* state = sps > 0 ? shared_opt_state_.data() + i * sps : nullptr;
      shared_optimizer_->ApplyUpdate(&shared_[i], g, state);
    }
  }
  return Status::OK();
}

void ColumnSgdEngine::ApplySspRecord(int g, const SspRecord& record) {
  GroupState& state = groups_[g];
  const size_t B = record.batch.size();
  const BatchView view = MakeBatchView(state, record.batch);
  // Bitwise the BSP step-5 update: same gradient recipe, same flop charges,
  // evaluated against the shared parameters frozen in the record.
  FlopCounter flops;
  std::vector<double> group_shared_grad(record.shared_before.size(), 0.0);
  model_->AccumulateGradFromStatsShared(view, record.agg_stats, state.weights,
                                        record.shared_before, state.grad.get(),
                                        &group_shared_grad, &flops);
  flops.Add(B);  // local loss bookkeeping
  ApplySparseUpdate(state.grad.get(), B, config_.reg, state.optimizer.get(),
                    &state.weights, &state.opt_state, &flops,
                    grad_sq_accum());
  flops.Add(8 * shared_.size());
  for (int w : GroupUpdateMembers(g)) {
    runtime_->ChargeCompute(runtime_->worker_node(w), flops.flops());
  }
  ssp_applied_through_[g] = record.iteration;
  ssp_.applied[g][static_cast<size_t>(record.iteration)] += 1;
  ++ssp_.updates_applied;
}

Status ColumnSgdEngine::DoRunIterationSsp(int64_t iteration) {
  const std::vector<int> active = ActiveWorkers();
  const size_t B = config_.batch_size;
  const int spp = model_->stats_per_point();
  const size_t stat_width =
      options_.fp32_statistics ? sizeof(float) : sizeof(double);
  const uint64_t stats_bytes = 16 + B * spp * stat_width;
  const int slack = config_.ssp.slack;
  const NodeId master = runtime_->master();

  // Dispatch bookkeeping only: SSP workers are self-clocked (the shared-seed
  // batch is a pure function of the iteration index), so no per-iteration
  // command messages go out and no barrier closes the round.
  TracePhase(Phase::kSerialization);
  runtime_->AdvanceClock(master, SchedOverhead(kDefaultSchedOverhead));
  const SimTime dispatch_end = runtime_->clock(master);
  TracePhase(Phase::kSspWait);  // master now waits on slack-gated workers

  const std::vector<RowRef> batch = sampler_->Sample(iteration, B);

  // Worker pass: gate on the staleness bound, catch up on every broadcast
  // visible at the resulting start time, then computeStat on whatever model
  // the group has (at most `slack` iterations behind).
  std::vector<std::vector<double>> group_stats(num_groups_);
  BatchView group0_view;
  SimTime last_compute_start = dispatch_end;
  for (int g = 0; g < num_groups_; ++g) {
    const int w = GroupComputeMembers(g).front();
    const NodeId node = runtime_->worker_node(w);
    COLSGD_CHECK(ssp_clocks_.MayStart(g, iteration, slack));
    // The slack gate: iteration t may not start before broadcast
    // t - 1 - slack has arrived (which bounds the staleness checked below).
    const SimTime gate = ssp_arrivals_.ArrivalOf(g, iteration - 1 - slack);
    if (critpath_ != nullptr) {
      critpath_->AnnotateGate(node, g, iteration - 1 - slack, gate);
    }
    runtime_->set_clock(node, std::max(runtime_->clock(node), gate));
    // Apply arrived broadcasts oldest-first; applying one advances the clock
    // and can make the next visible. Arrivals are monotone per consumer, so
    // the first not-yet-arrived record ends the scan.
    for (const SspRecord& record : ssp_pipeline_) {
      if (record.iteration <= ssp_applied_through_[g]) continue;
      if (ssp_arrivals_.ArrivalOf(g, record.iteration) >
          runtime_->clock(node)) {
        break;
      }
      ApplySspRecord(g, record);
    }
    const int64_t staleness = (iteration - 1) - ssp_applied_through_[g];
    COLSGD_CHECK_LE(staleness, static_cast<int64_t>(slack))
        << "SSP staleness bound violated for group " << g << " at iteration "
        << iteration;
    ssp_.max_staleness_observed =
        std::max(ssp_.max_staleness_observed, staleness);
    if (staleness > 0) ++ssp_.stale_reads;

    BatchView view = MakeBatchView(groups_[g], batch);
    group_stats[g].assign(B * spp, 0.0);
    FlopCounter flops;
    flops.Add(B * kSampleFlops);
    model_->ComputePartialStats(view, groups_[g].weights, &group_stats[g],
                                &flops);
    if (options_.fp32_statistics) {
      for (double& v : group_stats[g]) v = static_cast<float>(v);
    }
    const double compute_seconds =
        cluster_spec_.compute.SecondsFor(flops.flops());
    const double task_seconds =
        compute_seconds + SchedOverhead(kDefaultSchedOverhead);
    const SimTime compute_start = runtime_->clock(node);
    last_compute_start = std::max(last_compute_start, compute_start);
    const SimTime finish =
        compute_start + compute_seconds +
        (StragglerLevelFor(iteration, w) + SspJitterLevel(iteration, w)) *
            task_seconds;
    if (tracer_ != nullptr) {
      tracer_->RecordCompute(node, compute_start, finish - compute_start,
                             flops.flops());
    }
    if (critpath_ != nullptr) {
      critpath_->AnnotateAdvance(
          node, compute_seconds, flops.flops(),
          (StragglerLevelFor(iteration, w) + SspJitterLevel(iteration, w)) *
              task_seconds);
    }
    runtime_->set_clock(node, finish);
    SendWithFaults(node, master, stats_bytes, iteration);  // syncs the master
    if (g == 0) group0_view = std::move(view);
    ssp_clocks_.SetClock(g, iteration + 1);
  }

  // The master's wait splits at the moment the last group started computing:
  // up to there it was stalled behind the slack gate (ssp.wait), after it on
  // genuine compute + wire.
  const SimTime gather = runtime_->clock(master);
  if (tracer_ != nullptr) {
    tracer_->SetPhase(
        Phase::kWire,
        std::min(std::max(dispatch_end, last_compute_start), gather));
  }
  TracePhase(Phase::kCompute);  // reduceStat + loss on the master

  // reduceStat + loss: identical math to the BSP path.
  std::vector<double> agg_stats(B * spp, 0.0);
  for (int g = 0; g < num_groups_; ++g) AddInto(group_stats[g], &agg_stats);
  if (options_.fp32_statistics) {
    for (double& v : agg_stats) v = static_cast<float>(v);
  }
  runtime_->ChargeCompute(master,
                          static_cast<uint64_t>(num_groups_) * B * spp);
  last_batch_loss_ =
      model_->BatchLossFromStatsShared(agg_stats, group0_view.labels,
                                       shared_) /
      static_cast<double>(B);

  // Freeze the broadcast record *before* the master's shared update:
  // consumers must apply against exactly the shared values these statistics
  // were computed with.
  SspRecord record;
  record.iteration = iteration;
  record.batch = batch;
  record.shared_before = shared_;

  // The shared block's gradient is a function of the broadcast statistics
  // alone (identical on every group), so the master evaluates it once with a
  // scratch accumulator; workers pay the flops when they apply the record.
  if (!shared_.empty()) {
    GradAccumulator scratch(groups_[0].weights.size(),
                            model_->weights_per_feature());
    FlopCounter scratch_flops;
    shared_grad_.assign(shared_.size(), 0.0);
    model_->AccumulateGradFromStatsShared(group0_view, agg_stats,
                                          groups_[0].weights, shared_,
                                          &scratch, &shared_grad_,
                                          &scratch_flops);
    shared_optimizer_->BeginStep();
    const int sps = shared_optimizer_->state_per_slot();
    double* grad_sq = grad_sq_accum();
    for (size_t i = 0; i < shared_.size(); ++i) {
      const double g = shared_grad_[i] / static_cast<double>(B) +
                       config_.reg.Grad(shared_[i]);
      *grad_sq += g * g;
      double* state = sps > 0 ? shared_opt_state_.data() + i * sps : nullptr;
      shared_optimizer_->ApplyUpdate(&shared_[i], g, state);
    }
  }
  record.agg_stats = std::move(agg_stats);

  // Gated broadcast: lands in each consumer's mailbox without stalling it
  // (no receiver clock sync). A group's visibility gate is the arrival at
  // its owner.
  std::vector<SimTime> worker_avail(runtime_->total_workers(), 0.0);
  std::vector<int64_t> worker_msg(runtime_->total_workers(), -1);
  for (int w : active) {
    worker_avail[w] = GatedSendWithFaults(master, runtime_->worker_node(w),
                                          stats_bytes, iteration);
    if (critpath_ != nullptr) worker_msg[w] = critpath_->last_msg();
  }
  for (int g = 0; g < num_groups_; ++g) {
    const int w = GroupComputeMembers(g).front();
    ssp_arrivals_.Record(g, iteration, worker_avail[w]);
    if (critpath_ != nullptr) {
      // Future slack gates on (g, iteration) resolve to this broadcast.
      critpath_->KeyAvail(g, iteration, worker_msg[w]);
    }
    ssp_.sent[g].push_back(1);
    ssp_.applied[g].push_back(0);
    ++ssp_.updates_sent;
  }
  ssp_pipeline_.push_back(std::move(record));

  // Prune records every group has applied.
  while (!ssp_pipeline_.empty()) {
    const int64_t done = ssp_pipeline_.front().iteration;
    bool all_applied = true;
    for (int g = 0; g < num_groups_; ++g) {
      all_applied &= ssp_applied_through_[g] >= done;
    }
    if (!all_applied) break;
    ssp_pipeline_.pop_front();
  }
  return Status::OK();
}

Status ColumnSgdEngine::DrainSsp(int64_t iteration) {
  (void)iteration;
  if (!config_.ssp.enabled) return Status::OK();
  for (int g = 0; g < num_groups_; ++g) {
    const int w = GroupComputeMembers(g).front();
    const NodeId node = runtime_->worker_node(w);
    for (const SspRecord& record : ssp_pipeline_) {
      if (record.iteration <= ssp_applied_through_[g]) continue;
      // Catching up blocks the consumer until the broadcast's arrival.
      runtime_->set_clock(
          node, std::max(runtime_->clock(node),
                         ssp_arrivals_.ArrivalOf(g, record.iteration)));
      ApplySspRecord(g, record);
    }
  }
  ssp_pipeline_.clear();
  ++ssp_.drains;
  runtime_->Barrier();
  return Status::OK();
}

Status ColumnSgdEngine::FinishTraining() {
  if (!config_.ssp.enabled || groups_.empty()) return Status::OK();
  return DrainSsp(-1);
}

std::vector<double> ColumnSgdEngine::FullModel() const {
  const int wpf = model_->weights_per_feature();
  std::vector<double> full(num_features_ * wpf, 0.0);
  for (int g = 0; g < num_groups_; ++g) {
    const GroupState& state = groups_[g];
    for (uint64_t lf = 0; lf < state.local_dim; ++lf) {
      const uint64_t feature = partitioner_->GlobalIndex(g, lf);
      for (int j = 0; j < wpf; ++j) {
        full[feature * wpf + j] = state.weights[lf * wpf + j];
      }
    }
  }
  return full;
}

}  // namespace colsgd
