#include "engine/columnsgd.h"

#include <algorithm>

#include "common/host_memory.h"
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
    : ElasticEngine(cluster_spec, config, /*blocks_per_partition=*/2),
      options_(std::move(options)) {
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
  state->opt_state =
      ModelArray(state->weights.size() * state->optimizer->state_per_slot());
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
  if (ElasticRequested() && options_.backup != 0) {
    return Status::InvalidArgument(
        "elastic membership requires backup == 0: logical partitions are "
        "pinned to the initial workers, backup groups re-tile them");
  }
  COLSGD_RETURN_NOT_OK(SetupElastic());
  std::vector<std::vector<int>> replicas(num_groups_);
  for (int g = 0; g < num_groups_; ++g) {
    replicas[g] = elastic_ ? InitialHolders(g) : GroupComputeMembers(g);
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
  return PartitionHolders(g);
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
      if (!Holds(g, worker)) continue;
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

std::vector<uint8_t> ColumnSgdEngine::SerializeModelSlice(int g) const {
  ModelSliceBlock slice;
  slice.partition = g;
  slice.weights = groups_[g].weights;
  slice.opt_state = groups_[g].opt_state;
  return slice.Serialize();
}

void ColumnSgdEngine::ResealPartition(int g) {
  block_store_.Refresh(BlockId(g, 1), SerializeModelSlice(g));
}

void ColumnSgdEngine::SeedPartitionBlocks(int g,
                                          const std::vector<int>& holders) {
  block_store_.Put(BlockId(g, 0), SerializePartitionData(g), holders);
  block_store_.Put(BlockId(g, 1), SerializeModelSlice(g), holders);
}

bool ColumnSgdEngine::RestoreGroupModel(int g, NodeId node,
                                        int64_t iteration) {
  GroupState& state = groups_[g];
  InitGroupModel(g, &state);
  const SavedModel* checkpoint = LatestCheckpoint();
  if (checkpoint == nullptr) {
    recovery_.iterations_lost += iteration;
    return false;
  }
  const int wpf = model_->weights_per_feature();
  for (uint64_t lf = 0; lf < state.local_dim; ++lf) {
    const uint64_t feature = partitioner_->GlobalIndex(g, lf);
    for (int j = 0; j < wpf; ++j) {
      state.weights[lf * wpf + j] = checkpoint->weights[feature * wpf + j];
    }
  }
  // The master reads the partition from stable storage and ships it.
  const uint64_t partition_bytes = state.weights.size() * sizeof(double);
  ChargeCheckpointRead(runtime_->master(), partition_bytes);
  SendWithFaults(runtime_->master(), node, partition_bytes, iteration);
  recovery_.iterations_lost += iteration - checkpoints_.completed_iterations();
  return true;
}

void ColumnSgdEngine::RebuildOnto(int g, int dest, int64_t iteration) {
  GroupState& state = groups_[g];
  state.store.Clear();
  state.store =
      ReloadPartitionShards(blocks_, *partitioner_, g, dest,
                            membership_.active(), runtime_.get(),
                            config_.transform_cost);
  if (!RestoreGroupModel(g, runtime_->worker_node(dest), iteration)) {
    ++recovery_.reseeds;
  }
  SeedPartitionBlocks(g, {dest});
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
  RestoreGroupModel(group, failed_node, event.iteration);
}

void ColumnSgdEngine::ChargeCheckpointGather() {
  // The first compute member (elastic: the owner) of each group ships its
  // partition to the master.
  for (int g = 0; g < num_groups_; ++g) {
    runtime_->Send(runtime_->worker_node(GroupComputeMembers(g).front()),
                   runtime_->master(),
                   groups_[g].weights.size() * sizeof(double));
  }
}

uint64_t ColumnSgdEngine::StatsBytes() const {
  const size_t stat_width =
      options_.fp32_statistics ? sizeof(float) : sizeof(double);
  return 16 + config_.batch_size * model_->stats_per_point() * stat_width;
}

uint64_t ColumnSgdEngine::ComputeStat(int g, const std::vector<RowRef>& batch,
                                      BatchView* view,
                                      std::vector<double>* stats) const {
  *view = MakeBatchView(groups_[g], batch);
  stats->assign(batch.size() * model_->stats_per_point(), 0.0);
  FlopCounter flops;
  flops.Add(batch.size() * kSampleFlops);
  model_->ComputePartialStats(*view, groups_[g].weights, stats, &flops);
  if (options_.fp32_statistics) {
    // Model the precision actually shipped on the wire.
    for (double& v : *stats) v = static_cast<float>(v);
  }
  return flops.flops();
}

int ColumnSgdEngine::RunStatTask(const std::vector<int>& members,
                                 uint64_t flops, int64_t iteration,
                                 bool jitter) {
  const double compute_seconds = cluster_spec_.compute.SecondsFor(flops);
  // A straggler's slowdown applies to its whole task (launch + compute),
  // matching the paper's StragglerLevel definition (Section V-C); SSP
  // jitter scales it the same way.
  const double task_seconds =
      compute_seconds + SchedOverhead(kDefaultSchedOverhead);
  auto level = [&](int w) {
    const double straggler = StragglerLevelFor(iteration, w);
    return jitter ? straggler + SspJitterLevel(iteration, w) : straggler;
  };
  int winner = -1;
  SimTime finish = 0.0;
  for (int w : members) {
    const SimTime t = runtime_->clock(runtime_->worker_node(w)) +
                      compute_seconds + level(w) * task_seconds;
    if (winner < 0 || t < finish) {
      winner = w;
      finish = t;
    }
  }
  const NodeId node = runtime_->worker_node(winner);
  if (critpath_ != nullptr) {
    // Split the jump into its compute and straggler parts, using the exact
    // arithmetic of `t` above.
    critpath_->AnnotateAdvance(node, compute_seconds, flops,
                               level(winner) * task_seconds);
  }
  // Charged via set_clock, not ChargeCompute, because backup replicas race
  // on the same work.
  for (SimObserver* o : runtime_->observers()) {
    o->OnComputeSpan(node, runtime_->clock(node),
                     finish - runtime_->clock(node), flops);
  }
  runtime_->set_clock(node, finish);
  return winner;
}

std::vector<double> ColumnSgdEngine::ReduceStat(
    const std::vector<std::vector<double>>& group_stats,
    const std::vector<float>& labels) {
  const size_t B = config_.batch_size;
  const int spp = model_->stats_per_point();
  std::vector<double> agg_stats(B * spp, 0.0);
  for (const std::vector<double>& stats : group_stats) {
    AddInto(stats, &agg_stats);
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
      model_->BatchLossFromStatsShared(agg_stats, labels, shared_) /
      static_cast<double>(B);
  return agg_stats;
}

std::vector<double> ColumnSgdEngine::UpdateGroup(
    int g, const BatchView& view, const std::vector<double>& agg_stats,
    const std::vector<double>& shared) {
  GroupState& state = groups_[g];
  const size_t B = config_.batch_size;
  FlopCounter flops;
  std::vector<double> shared_grad(shared.size(), 0.0);
  model_->AccumulateGradFromStatsShared(view, agg_stats, state.weights,
                                        shared, state.grad.get(),
                                        &shared_grad, &flops);
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
  return shared_grad;
}

void ColumnSgdEngine::UpdateShared() {
  if (shared_.empty()) return;
  shared_optimizer_->BeginStep();
  const int sps = shared_optimizer_->state_per_slot();
  double* grad_sq = grad_sq_accum();
  for (size_t i = 0; i < shared_.size(); ++i) {
    const double g = shared_grad_[i] / static_cast<double>(config_.batch_size) +
                     config_.reg.Grad(shared_[i]);
    if (grad_sq != nullptr) *grad_sq += g * g;
    double* state = sps > 0 ? shared_opt_state_.data() + i * sps : nullptr;
    shared_optimizer_->ApplyUpdate(&shared_[i], g, state);
  }
}

Status ColumnSgdEngine::DoRunIteration(int64_t iteration) {
  if (config_.ssp.enabled) return DoRunIterationSsp(iteration);
  const std::vector<int> active = ActiveWorkers();
  const uint64_t stats_bytes = StatsBytes();

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
  const std::vector<RowRef> batch =
      sampler_->Sample(iteration, config_.batch_size);

  // Step 1: computeStat on each worker. Replicas of a group compute the
  // same statistics; we materialize them once per group and charge each
  // member's clock.
  std::vector<std::vector<double>> group_stats(num_groups_);
  std::vector<BatchView> group_views(num_groups_);
  std::vector<uint64_t> group_flops(num_groups_);
  for (int g = 0; g < num_groups_; ++g) {
    group_flops[g] = ComputeStat(g, batch, &group_views[g], &group_stats[g]);
  }

  // Step 2: workers push statistics; the master needs one reply per group.
  // With backup, it takes the earliest reply of each group and kills the
  // other replicas' tasks once the statistics are recoverable (Section IV-B)
  // — killed replicas skip the push and resume at the broadcast.
  SimTime gather_time = runtime_->clock(runtime_->master());
  std::vector<int> group_winner(num_groups_);
  for (int g = 0; g < num_groups_; ++g) {
    group_winner[g] = RunStatTask(GroupComputeMembers(g), group_flops[g],
                                  iteration, /*jitter=*/false);
    gather_time = std::max(
        gather_time,
        SendWithFaults(runtime_->worker_node(group_winner[g]),
                       runtime_->master(), stats_bytes, iteration));
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

  // Step 3: reduceStat — element-wise sum across groups — and the loss.
  const std::vector<double> agg_stats =
      ReduceStat(group_stats, group_views[0].labels);

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
    std::vector<double> shared_grad =
        UpdateGroup(g, group_views[g], agg_stats, shared_);
    if (g == 0) shared_grad_ = std::move(shared_grad);
  }
  UpdateShared();
  return Status::OK();
}

void ColumnSgdEngine::ApplySspRecord(int g, const SspRecord& record) {
  UpdateGroup(g, MakeBatchView(groups_[g], record.batch), record.agg_stats,
              record.shared_before);
  ssp_applied_through_[g] = record.iteration;
  ssp_.applied[g][static_cast<size_t>(record.iteration)] += 1;
  ++ssp_.updates_applied;
}

Status ColumnSgdEngine::DoRunIterationSsp(int64_t iteration) {
  const std::vector<int> active = ActiveWorkers();
  const uint64_t stats_bytes = StatsBytes();
  const int slack = config_.ssp.slack;
  const NodeId master = runtime_->master();

  // Dispatch bookkeeping only: SSP workers are self-clocked (the shared-seed
  // batch is a pure function of the iteration index), so no per-iteration
  // command messages go out and no barrier closes the round.
  TracePhase(Phase::kSerialization);
  runtime_->AdvanceClock(master, SchedOverhead(kDefaultSchedOverhead));
  const SimTime dispatch_end = runtime_->clock(master);
  TracePhase(Phase::kSspWait);  // master now waits on slack-gated workers

  const std::vector<RowRef> batch =
      sampler_->Sample(iteration, config_.batch_size);

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

    BatchView view;
    const uint64_t flops = ComputeStat(g, batch, &view, &group_stats[g]);
    last_compute_start = std::max(last_compute_start, runtime_->clock(node));
    RunStatTask({w}, flops, iteration, /*jitter=*/true);
    SendWithFaults(node, master, stats_bytes, iteration);  // syncs the master
    if (g == 0) group0_view = std::move(view);
    ssp_clocks_.SetClock(g, iteration + 1);
  }

  // The master's wait splits at the moment the last group started computing:
  // up to there it was stalled behind the slack gate (ssp.wait), after it on
  // genuine compute + wire.
  const SimTime gather = runtime_->clock(master);
  TracePhaseAt(Phase::kWire,
               std::min(std::max(dispatch_end, last_compute_start), gather));
  TracePhase(Phase::kCompute);  // reduceStat + loss on the master
  std::vector<double> agg_stats = ReduceStat(group_stats, group0_view.labels);

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
  }
  UpdateShared();
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
