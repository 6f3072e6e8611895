#include "serve/group.h"

#include <algorithm>
#include <utility>

#include "serve/wire.h"

namespace colsgd {

ShardGroup::ShardGroup(ClusterRuntime* runtime, NodeId frontend,
                       std::vector<NodeId> shards, const ServeConfig& config,
                       const Dataset* queries)
    : runtime_(runtime),
      frontend_(frontend),
      shards_(std::move(shards)),
      config_(config),
      queries_(queries) {
  COLSGD_CHECK(runtime != nullptr);
  COLSGD_CHECK(queries != nullptr);
  COLSGD_CHECK_EQ(static_cast<int>(shards_.size()), config.num_shards);
  shard_alive_.assign(shards_.size(), true);
  shard_failed_at_.assign(shards_.size(), 0.0);
}

uint64_t ShardGroup::ShipPartition(const ShardedModelImage& image,
                                   int shard) {
  const NodeId node = shards_[static_cast<size_t>(shard)];
  const uint64_t slots = image.partitions[shard].size();
  const uint64_t bytes = InstallMessageBytes(slots, image.shared.size());
  runtime_->Send(frontend_, node, bytes);
  // The shard writes the partition into its serving copy.
  runtime_->ChargeMemTouch(node, (slots + image.shared.size()) * kWeightBytes);
  return bytes;
}

double ShardGroup::TransferImage(const ShardedModelImage& image) {
  const double start = runtime_->clock(frontend_);
  // Partitioning sweeps the full weight image once on the frontend.
  runtime_->ChargeMemTouch(frontend_, image.WeightBytes());
  double done = runtime_->clock(frontend_);
  for (int k = 0; k < config_.num_shards; ++k) {
    ShipPartition(image, k);
    done = std::max(done, runtime_->clock(shards_[static_cast<size_t>(k)]));
  }
  runtime_->Span("serve.install", frontend_, start, done - start,
                 image.WeightBytes());
  return done;
}

double ShardGroup::InstallImage(double start,
                                std::shared_ptr<const ShardedModelImage> image,
                                int64_t trained_iterations) {
  GenerationInfo info;
  info.trained_iterations = trained_iterations;
  info.install_start = start;
  info.install_done = TransferImage(*image);
  registry_.Install(std::move(image), info);
  last_install_done_ = info.install_done;
  return info.install_done;
}

void ShardGroup::Install(const ServableModel& model,
                         int64_t trained_iterations) {
  COLSGD_CHECK(!registry_.has_active()) << "a model is already installed";
  COLSGD_CHECK_EQ(model.partitioner->num_workers(), config_.num_shards);
  model_ = model;
  InstallImage(runtime_->clock(frontend_), model_.image, trained_iterations);
}

void ShardGroup::ScheduleSwapImage(double time, std::vector<uint8_t> image,
                                   int64_t trained_iterations) {
  ScheduledSwap swap;
  swap.time = time;
  swap.image = std::move(image);
  swap.trained_iterations = trained_iterations;
  swaps_.push_back(std::move(swap));
}

double ShardGroup::BeginSwap(double earliest) {
  const double start =
      std::max({earliest, runtime_->clock(frontend_), last_install_done_});
  runtime_->SyncClockTo(frontend_, start);
  registry_.ActiveAt(start);  // flip any install that completed by now
  return start;
}

double ShardGroup::ApplyValidatedSwap(
    double earliest_start, std::shared_ptr<const ShardedModelImage> image,
    int64_t trained_iterations) {
  COLSGD_CHECK(registry_.has_active()) << "install a model first";
  const double start = BeginSwap(earliest_start);
  const double done = InstallImage(start, std::move(image), trained_iterations);
  swap_stall_seconds_ += runtime_->clock(frontend_) - start;
  return done;
}

void ShardGroup::ScheduleShardFailure(double time, int shard) {
  COLSGD_CHECK_GE(shard, 0);
  COLSGD_CHECK_LT(shard, config_.num_shards);
  ScheduledFailure failure;
  failure.time = time;
  failure.shard = shard;
  failures_.push_back(failure);
}

void ShardGroup::ProcessSwap(ScheduledSwap* swap) {
  // A swap that fires while a previous install's transfers are still in
  // flight starts when they land.
  const double start = BeginSwap(swap->time);

  // CRC validation scans the serialized image on the frontend.
  runtime_->ChargeMemTouch(frontend_, swap->image.size());
  Result<std::shared_ptr<const ShardedModelImage>> image =
      ParseSwapImage(swap->image, model_);
  if (image.ok()) {
    const double done = InstallImage(start, std::move(image).ValueUnsafe(),
                                     swap->trained_iterations);
    runtime_->Span("serve.swap", frontend_, start, done - start,
                   swap->image.size());
  } else {
    // Damaged or mismatched image: the active generation keeps serving.
    GenerationInfo info;
    info.trained_iterations = swap->trained_iterations;
    info.install_start = start;
    info.install_done = runtime_->clock(frontend_);
    registry_.RecordFailedInstall(info);
    runtime_->Instant("serve.swap_rejected", frontend_,
                      runtime_->clock(frontend_));
  }
  // Stall is the frontend-core time the install consumed (validation +
  // partitioning sweeps); the shard transfers overlap with serving on the
  // NIC and surface as scatter delay instead.
  swap_stall_seconds_ += runtime_->clock(frontend_) - start;
}

void ShardGroup::ProcessEventsUpTo(double t) {
  // Chronological merge of due failures and swaps; ties kill before they
  // heal (a failure at the same instant as a swap is processed first).
  for (;;) {
    ScheduledFailure* next_failure = nullptr;
    for (auto& failure : failures_) {
      if (!failure.done && failure.time <= t &&
          (next_failure == nullptr || failure.time < next_failure->time)) {
        next_failure = &failure;
      }
    }
    ScheduledSwap* next_swap = nullptr;
    for (auto& swap : swaps_) {
      if (!swap.done && swap.time <= t &&
          (next_swap == nullptr || swap.time < next_swap->time)) {
        next_swap = &swap;
      }
    }
    if (next_failure == nullptr && next_swap == nullptr) return;
    if (next_failure != nullptr &&
        (next_swap == nullptr || next_failure->time <= next_swap->time)) {
      const int shard = next_failure->shard;
      if (shard_alive_[shard]) {
        shard_alive_[shard] = false;
        shard_failed_at_[shard] = next_failure->time;
        runtime_->Instant("serve.shard_fail",
                          shards_[static_cast<size_t>(shard)],
                          next_failure->time);
      }
      next_failure->done = true;
    } else {
      ProcessSwap(next_swap);
      next_swap->done = true;
    }
  }
}

std::vector<int> ShardGroup::DeadShards() const {
  std::vector<int> dead;
  for (int k = 0; k < config_.num_shards; ++k) {
    if (!shard_alive_[k]) dead.push_back(k);
  }
  return dead;
}

double ShardGroup::DispatchAndScatter(const std::vector<uint32_t>& rows,
                                      BatchOutcome* out) {
  const size_t n = rows.size();
  // Admission + framing on the frontend core.
  runtime_->ChargeCompute(
      frontend_, kDispatchFlopsPerBatch + n * kDispatchFlopsPerRequest);
  row_views_.clear();
  for (uint32_t row : rows) row_views_.push_back(queries_->rows.Row(row));
  scorer_.Split(row_views_.data(), row_views_.size(), *model_.partitioner);
  // The per-shard slices leave the frontend NIC back to back.
  double scatter_end = runtime_->clock(frontend_);
  for (int k = 0; k < config_.num_shards; ++k) {
    const uint64_t bytes = ScatterMessageBytes(n, scorer_.slice(k).nnz());
    const double arrival =
        runtime_->Send(frontend_, shards_[static_cast<size_t>(k)], bytes);
    out->wire_bytes += bytes;
    scatter_end = std::max(scatter_end, arrival);
  }
  return scatter_end;
}

BatchOutcome ShardGroup::ServeBatch(const std::vector<uint32_t>& rows,
                                    double t_ready, int64_t batch_tag) {
  runtime_->SyncClockTo(frontend_, t_ready);
  const double t_dispatch = runtime_->clock(frontend_);
  const size_t n = rows.size();
  const int num_shards = config_.num_shards;
  const int64_t generation = registry_.ActiveAt(t_dispatch);
  const ShardedModelImage& image = registry_.image(generation);

  BatchOutcome out;
  out.served = true;
  out.generation = generation;
  out.dispatch = t_dispatch;

  double scatter_end = DispatchAndScatter(rows, &out);
  const ShardScoreResult& scored = scorer_.Score(*model_.spec, image);

  // Shard compute. Each shard starts at its slice's arrival (or later, when
  // a model install left its clock ahead — swap pressure shows up here).
  double compute_end = scatter_end;
  for (int k = 0; k < num_shards; ++k) {
    const NodeId node = shards_[static_cast<size_t>(k)];
    runtime_->ChargeCompute(node, scored.shard_flops[k]);
    compute_end = std::max(compute_end, runtime_->clock(node));
  }

  // Gather: each shard replies as it finishes; the frontend reduces after
  // the last partial lands.
  for (int k = 0; k < num_shards; ++k) {
    const uint64_t bytes =
        GatherMessageBytes(n, model_.spec->stats_per_point());
    runtime_->Send(shards_[static_cast<size_t>(k)], frontend_, bytes);
    out.wire_bytes += bytes;
  }
  runtime_->ChargeCompute(frontend_, scored.reduce_flops);
  double completion = runtime_->clock(frontend_);

  if (straggle_level_ > 0.0) {
    // Straggler semantics from cluster/fault/fault_plan.h: level L adds
    // L x the task time. The whole node-set runs slow, so every phase
    // boundary stretches by (1 + L) from dispatch; the frontend clock moves
    // to the stretched completion, which is what makes later batches queue
    // behind a straggled group.
    const double stretch = 1.0 + straggle_level_;
    scatter_end = t_dispatch + stretch * (scatter_end - t_dispatch);
    compute_end = t_dispatch + stretch * (compute_end - t_dispatch);
    completion = t_dispatch + stretch * (completion - t_dispatch);
    runtime_->SyncClockTo(frontend_, completion);
  }

  runtime_->Span("serve.batch", frontend_, t_dispatch,
                 completion - t_dispatch, 0, batch_tag);

  out.scores = scored.scores;
  out.scatter_end = scatter_end;
  out.compute_end = compute_end;
  out.completion = completion;
  return out;
}

BatchOutcome ShardGroup::FailBatch(const std::vector<uint32_t>& rows,
                                   double t_ready) {
  runtime_->SyncClockTo(frontend_, t_ready);
  const double t_dispatch = runtime_->clock(frontend_);

  BatchOutcome out;
  out.served = false;
  out.dispatch = t_dispatch;

  // The frontend doesn't know yet: it frames and scatters normally. The
  // slices to dead shards still cross the wire (and are lost).
  DispatchAndScatter(rows, &out);

  // No complete gather ever forms; the reply timeout declares the batch
  // dead. Every affected request times out — never a wrong answer.
  const double detected = std::max(t_dispatch + config_.reply_timeout,
                                   runtime_->clock(frontend_));
  runtime_->SyncClockTo(frontend_, detected);
  out.completion = detected;
  return out;
}

std::vector<FailoverRecord> ShardGroup::ReinstallDeadShards(double detected) {
  // Failover: ship the active generation's partition to each replacement
  // shard server, which takes over the dead one's node identity.
  std::vector<FailoverRecord> records;
  const int64_t generation = registry_.ActiveAt(detected);
  const ShardedModelImage& image = registry_.image(generation);
  for (int shard : DeadShards()) {
    const NodeId node = shards_[static_cast<size_t>(shard)];
    const uint64_t bytes = ShipPartition(image, shard);
    FailoverRecord fo;
    fo.shard = shard;
    fo.failed_at = shard_failed_at_[shard];
    fo.detected_at = detected;
    fo.recovered_at = runtime_->clock(node);
    fo.reinstall_bytes = bytes;
    records.push_back(fo);
    shard_alive_[shard] = true;
    runtime_->Span("serve.failover", node, detected,
                   fo.recovered_at - detected, bytes);
    // Named split of the outage: time-to-detect vs time-to-reinstall,
    // surfaced by colsgd_trace's span table.
    runtime_->Span("serve.failover.detect", node, fo.failed_at,
                   detected - fo.failed_at, 0);
    runtime_->Span("serve.failover.reinstall", node, detected,
                   fo.recovered_at - detected, bytes);
  }
  return records;
}

}  // namespace colsgd
