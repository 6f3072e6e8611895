#include "engine/ps.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "common/host_memory.h"
#include "engine/row_sampling.h"

namespace colsgd {

namespace {
constexpr double kDefaultSchedOverhead = 0.002;  // no Spark driver in the loop
constexpr uint64_t kRequestHeaderBytes = 16;
}  // namespace

PsEngine::PsEngine(const ClusterSpec& cluster_spec, const TrainConfig& config,
                   PsOptions options)
    : ElasticEngine(cluster_spec, config, /*blocks_per_partition=*/1),
      options_(options) {
  // Server s is a thread co-located with worker s but runs concurrently with
  // it, so it gets its own simulated endpoint — one per provisioned rank, so
  // a grown spare brings a server endpoint with it.
  runtime_ = std::make_unique<ClusterRuntime>(
      cluster_spec,
      std::max(cluster_spec.num_workers, cluster_spec.max_workers));
}

Status PsEngine::Setup(const Dataset& dataset) {
  if (!model_->SupportsRowPath()) {
    return Status::InvalidArgument(
        model_->name() + " is only implemented for the column framework; "
        "use the columnsgd engine");
  }
  COLSGD_RETURN_NOT_OK(model_->CheckLabels(dataset.labels));
  if (config_.ssp.enabled) {
    if (ElasticRequested()) {
      return Status::InvalidArgument(
          "SSP is not supported with elastic membership on the PS engine: "
          "shard versions are pinned to the fixed server set");
    }
    if (config_.ssp.slack < 0) {
      return Status::InvalidArgument("ssp.slack must be >= 0");
    }
  }
  num_features_ = dataset.num_features;
  const int wpf = model_->weights_per_feature();
  const int K = runtime_->num_workers();

  std::vector<RowBlock> blocks = MakeRowBlocks(dataset, config_.block_rows);
  RowLoadResult load =
      LoadRowPartitioned(blocks, runtime_.get(), config_.transform_cost);
  partitions_ = std::move(load.partitions);
  partition_rows_.assign(partitions_.size(), 0);
  for (size_t k = 0; k < partitions_.size(); ++k) {
    for (const RowBlock& b : partitions_[k]) partition_rows_[k] += b.num_rows();
    if (partition_rows_[k] == 0) {
      return Status::FailedPrecondition(
          "worker " + std::to_string(k) +
          " received no rows; use more blocks than workers");
    }
  }
  runtime_->Barrier();
  load_time_ = runtime_->MaxClock();

  shard_map_ =
      std::make_unique<RoundRobinPartitioner>(num_features_, K);

  // Memory check BEFORE materializing anything model-sized: the modeled
  // per-node requirement can exceed the host's real memory (that is the
  // Table V OOM scenario) and must fail cleanly.
  for (int s = 0; s < K; ++s) {
    if (ServerMemoryBytes(s) > cluster_spec_.node_memory_budget) {
      return Status::OutOfMemory("PS server " + std::to_string(s) +
                                 " shard does not fit: " +
                                 std::to_string(ServerMemoryBytes(s)) +
                                 " bytes");
    }
    if (WorkerMemoryBytes(s) > cluster_spec_.node_memory_budget) {
      return Status::OutOfMemory(
          "PS worker " + std::to_string(s) + " needs " +
          std::to_string(WorkerMemoryBytes(s)) + " bytes > budget " +
          std::to_string(cluster_spec_.node_memory_budget));
    }
  }

  const uint64_t slots = num_features_ * wpf;
  weights_ = InitialWeights(*model_, num_features_, config_.seed);
  optimizer_ = MakeOptimizer(config_.optimizer, config_.learning_rate);
  opt_state_ = ModelArray(slots * optimizer_->state_per_slot());
  steps_.assign(partitions_.size(), RowWorkerStep(wpf));

  if (config_.ssp.enabled) {
    // Each ring slot is sized once here, so the snapshot copies reuse its
    // (advised) storage.
    const size_t ring = static_cast<size_t>(config_.ssp.slack) + 2;
    ssp_snapshots_.clear();
    for (size_t i = 0; i < ring; ++i) {
      ssp_snapshots_.push_back(ModelArray(weights_.size()));
    }
    ssp_snapshot_version_.assign(ring, std::numeric_limits<int64_t>::min());
    ssp_applied_time_.assign(K, {});
    ssp_stamp_ids_.assign(K, {});
    ssp_clocks_.Reset(K);
    ssp_.sent.assign(K, {});
    ssp_.applied.assign(K, {});
    SspStoreSnapshot(-1);  // the initial model is "version -1"
  }

  COLSGD_RETURN_NOT_OK(SetupElastic());
  if (elastic_) {
    for (int p = 0; p < K; ++p) {
      const std::vector<int> holders = InitialHolders(p);
      block_store_.Put(BlockId(p), SerializeShardSlice(p), holders);
      // The initial replica fan-out is real setup traffic: each replica
      // server receives and materializes one sealed shard image.
      const uint64_t image_bytes = block_store_.ImageSize(BlockId(p));
      for (size_t i = 1; i < holders.size(); ++i) {
        runtime_->Send(runtime_->extra_node(p),
                       runtime_->extra_node(holders[i]), image_bytes);
        runtime_->ChargeMemTouch(runtime_->extra_node(holders[i]),
                                 image_bytes);
      }
    }
    runtime_->Barrier();
    load_time_ = runtime_->MaxClock();
  }
  return Status::OK();
}

uint64_t PsEngine::ServerMemoryBytes(int server) const {
  const int wpf = model_->weights_per_feature();
  const uint64_t shard_slots = shard_map_->LocalDim(server) * wpf;
  const int sps = MakeOptimizer(config_.optimizer, config_.learning_rate)
                      ->state_per_slot();
  return shard_slots * sizeof(double) * (1 + sps);
}

uint64_t PsEngine::WorkerMemoryBytes(int worker) const {
  uint64_t data_bytes = 0;
  for (const RowBlock& b : partitions_[worker]) {
    data_bytes += b.rows.ByteSize() + b.labels.size() * sizeof(float);
  }
  // The modelled kvstore arrays, a dense weight cache and a dense gradient
  // buffer, charged in full: this is the simulated node's memory, not the
  // host's (whose gradient store is O(touched)). Table V's MXNet OOM at
  // F=50 comes from these sizes.
  const uint64_t model_bytes =
      num_features_ * model_->weights_per_feature() * sizeof(double);
  return data_bytes + 2 * model_bytes;
}

size_t PsEngine::WorkerBatchSize(int worker) const {
  const size_t K = partitions_.size();
  return config_.batch_size / K +
         (static_cast<size_t>(worker) < config_.batch_size % K ? 1 : 0);
}

std::vector<uint8_t> PsEngine::SerializeShardSlice(int p) const {
  const int wpf = model_->weights_per_feature();
  const int sps = optimizer_->state_per_slot();
  const uint64_t dim = shard_map_->LocalDim(p);
  ModelSliceBlock slice;
  slice.partition = p;
  slice.weights.resize(dim * wpf);
  slice.opt_state.resize(dim * wpf * sps);
  for (uint64_t i = 0; i < dim; ++i) {
    const uint64_t feature = shard_map_->GlobalIndex(p, i);
    for (int j = 0; j < wpf; ++j) {
      const uint64_t slot = feature * wpf + j;
      slice.weights[i * wpf + j] = weights_[slot];
      for (int k = 0; k < sps; ++k) {
        slice.opt_state[(i * wpf + j) * sps + k] = opt_state_[slot * sps + k];
      }
    }
  }
  return slice.Serialize();
}

void PsEngine::ResealPartition(int p) {
  block_store_.Refresh(BlockId(p), SerializeShardSlice(p));
}

void PsEngine::ChargeDataPartitionRead(int p, int rank) {
  const NodeId node = runtime_->worker_node(rank);
  const TransformCostConfig& cost = config_.transform_cost;
  for (const RowBlock& b : partitions_[p]) {
    runtime_->AdvanceClock(node, static_cast<double>(b.text_bytes) /
                                         cost.disk_bandwidth +
                                     b.text_bytes * cost.mllib_ingest_per_byte);
  }
}

void PsEngine::PullFullModel(int rank, int64_t iteration) {
  const int wpf = model_->weights_per_feature();
  const NodeId node = runtime_->worker_node(rank);
  for (size_t s = 0; s < partitions_.size(); ++s) {
    const int owner = PartitionOwner(static_cast<int>(s));
    if (owner == rank) {
      runtime_->SyncClockTo(node, runtime_->clock(runtime_->extra_node(owner)));
    } else {
      // Recovery pulls ride the faulty data plane like any other pull.
      SendWithFaults(runtime_->extra_node(owner), node,
                     shard_map_->LocalDim(s) * wpf * sizeof(double),
                     iteration);
    }
  }
}

bool PsEngine::RestoreShard(int p, NodeId server_node, int64_t iteration) {
  const int wpf = model_->weights_per_feature();
  const int sps = optimizer_->state_per_slot();
  const SavedModel* checkpoint = LatestCheckpoint();
  const uint64_t shard_dim = shard_map_->LocalDim(p);
  for (uint64_t i = 0; i < shard_dim; ++i) {
    const uint64_t feature = shard_map_->GlobalIndex(p, i);
    for (int j = 0; j < wpf; ++j) {
      const uint64_t slot = feature * wpf + j;
      weights_[slot] = checkpoint != nullptr
                           ? checkpoint->weights[slot]
                           : model_->InitWeight(feature, j, config_.seed);
      for (int k = 0; k < sps; ++k) opt_state_[slot * sps + k] = 0.0;
    }
  }
  const uint64_t shard_bytes = shard_dim * wpf * sizeof(double);
  if (checkpoint == nullptr) {
    runtime_->ChargeMemTouch(server_node, shard_bytes);
    recovery_.iterations_lost += iteration;
    return false;
  }
  // The master reads the shard from stable storage and ships it.
  ChargeCheckpointRead(runtime_->master(), shard_bytes);
  SendWithFaults(runtime_->master(), server_node, shard_bytes, iteration);
  recovery_.iterations_lost += iteration - checkpoints_.completed_iterations();
  return true;
}

void PsEngine::RebuildOnto(int p, int dest, int64_t iteration) {
  if (!RestoreShard(p, runtime_->extra_node(dest), iteration)) {
    ++recovery_.reseeds;
  }
  block_store_.Put(BlockId(p), SerializeShardSlice(p), {dest});
}

void PsEngine::OnRankJoined(int rank, int64_t iteration) {
  PullFullModel(rank, iteration);
  runtime_->ChargeMemTouch(runtime_->worker_node(rank),
                           2 * weights_.size() * sizeof(double));
}

void PsEngine::RecoverWorkerFailure(const FaultEvent& event) {
  if (elastic_) {
    RecoverElasticCrash(event);
    return;
  }
  // The worker side re-reads its row partition, re-materializes the dense
  // kvstore arrays and re-pulls the full model to rebuild its weight cache.
  // The co-located server shard is gone with the node: it restores from the
  // last checkpoint, or re-initializes and loses that slice's updates.
  const int w = event.worker;
  ChargeDataPartitionRead(w, w);
  runtime_->ChargeMemTouch(runtime_->worker_node(w),
                           2 * weights_.size() * sizeof(double));
  PullFullModel(w, event.iteration);
  RestoreShard(w, runtime_->extra_node(w), event.iteration);
}

void PsEngine::ChargeCheckpointGather() {
  const int wpf = model_->weights_per_feature();
  for (int s = 0; s < runtime_->num_workers(); ++s) {
    runtime_->Send(runtime_->extra_node(PartitionOwner(s)), runtime_->master(),
                   shard_map_->LocalDim(s) * wpf * sizeof(double));
  }
}

Status PsEngine::DoRunIteration(int64_t iteration) {
  if (config_.ssp.enabled) return DoRunIterationSsp(iteration);
  // Logical index p names data partition p and server shard p. Compute
  // lands on PartitionOwner(p)'s endpoints and pushes mirror to every holder
  // of the shard; fixed membership is the identity placement (partition p
  // on worker p, shard p on server p alone). The batch draw and the
  // gradient-accumulation order do not depend on who computes, so an
  // elastic run's trained bits match the fixed cluster's.
  const int G = static_cast<int>(partitions_.size());
  const int wpf = model_->weights_per_feature();
  const uint64_t model_bytes = weights_.size() * sizeof(double);

  TracePhase(Phase::kSerialization);
  runtime_->AdvanceClock(runtime_->master(),
                         SchedOverhead(kDefaultSchedOverhead));
  // The master (driver) stays out of the pull/compute/push loop — its clock
  // only moves again at the BSP barrier, so the whole round shows up there.
  TracePhase(Phase::kWire);

  // Server s is co-located with worker s: transfers between them are
  // loopback (clock sync only, no NIC time or bytes).
  auto transfer = [&](NodeId from, NodeId to, uint64_t bytes, bool local) {
    if (local) {
      runtime_->SyncClockTo(to, runtime_->clock(from));
    } else {
      SendWithFaults(from, to, bytes, iteration);
    }
  };

  // Worker step, on the host pool: partition p's slice of the batch is
  // drawn with p's RNG no matter which rank computes it (with sparse pull
  // the key set depends on the batch content), and its gradient is taken
  // against the pulled (current) model, which nothing changes before the
  // apply. Phases 1-4 only charge it, in partition order.
  ForEachWorker(G, [&](int p) {
    RowWorkerStep& step = steps_[p];
    step.Draw(partitions_[p], partition_rows_[p], WorkerBatchSize(p),
              WorkerIterationRng(config_.seed, iteration, p),
              options_.sparse_pull ? G : 0);
    step.ForwardGrad(*model_, weights_, G);
  });
  // Sparse pull: distinct keys of partition p's batch on shard s.
  auto keys_per_shard = [&](int p, int s) {
    return steps_[p].keys.counts()[static_cast<size_t>(s)];
  };

  // Phase 1: all pull requests go out (asynchronously, pipelining on each
  // worker's outbound NIC), from each partition's owner to each shard's.
  for (int p = 0; p < G; ++p) {
    const int rank = PartitionOwner(p);
    const NodeId node = runtime_->worker_node(rank);
    for (int s = 0; s < G; ++s) {
      if (options_.sparse_pull && keys_per_shard(p, s) == 0) continue;
      const uint64_t request_bytes =
          kRequestHeaderBytes + (options_.sparse_pull
                                     ? keys_per_shard(p, s) * sizeof(uint32_t)
                                     : 0);
      const int server_host = PartitionOwner(s);
      transfer(node, runtime_->extra_node(server_host), request_bytes,
               server_host == rank);
    }
  }

  // Phase 2: shard owners look keys up and reply; workers block until their
  // last reply arrives. Iterate shard-major so each server's CPU serializes
  // its own lookups, not the cluster's.
  for (int s = 0; s < G; ++s) {
    const int server_host = PartitionOwner(s);
    const NodeId server_node = runtime_->extra_node(server_host);
    for (int p = 0; p < G; ++p) {
      uint64_t reply_bytes;
      uint64_t server_keys;
      if (options_.sparse_pull) {
        if (keys_per_shard(p, s) == 0) continue;
        reply_bytes = kRequestHeaderBytes +
                      keys_per_shard(p, s) * sizeof(double) * wpf;
        server_keys = keys_per_shard(p, s);
      } else {
        reply_bytes = kRequestHeaderBytes +
                      shard_map_->LocalDim(s) * wpf * sizeof(double);
        server_keys = shard_map_->LocalDim(s);
      }
      runtime_->ChargeCompute(server_node,
                              server_keys * options_.flops_per_key);
      const int rank = PartitionOwner(p);
      transfer(server_node, runtime_->worker_node(rank), reply_bytes,
               server_host == rank);
    }
  }

  // Phase 3: gradients, summed in partition order (fixed-K float sum
  // order); per-rank totals drive the clock and straggler charges. The
  // dense weight/gradient buffer sweeps on the worker (the kvstore arrays)
  // are the O(m) per-iteration term of the PS baselines.
  double loss_sum = 0.0;
  size_t batch_total = 0;
  std::vector<uint64_t> rank_flops(runtime_->total_workers(), 0);
  for (int p = 0; p < G; ++p) {
    for (double loss : steps_[p].row_losses) loss_sum += loss;
    batch_total += steps_[p].batch.size();
    rank_flops[PartitionOwner(p)] += steps_[p].flops.flops();
  }
  for (int rank : ActiveWorkers()) {
    const NodeId node = runtime_->worker_node(rank);
    runtime_->ChargeCompute(node, rank_flops[rank]);
    runtime_->ChargeMemTouch(node, 2 * model_bytes);
    const double level = StragglerLevelFor(iteration, rank);
    if (level > 0.0) {
      runtime_->AdvanceClock(
          node, level * cluster_spec_.compute.SecondsFor(rank_flops[rank]));
    }
  }
  last_batch_loss_ = loss_sum / static_cast<double>(batch_total);

  // Phase 4: pushes go to the shard owner AND are mirrored to every replica
  // holder — the honest r-fold push cost that keeps replicas current enough
  // to promote for free.
  for (int p = 0; p < G; ++p) {
    const int rank = PartitionOwner(p);
    const NodeId node = runtime_->worker_node(rank);
    for (int s = 0; s < G; ++s) {
      uint64_t push_bytes;
      uint64_t server_keys;
      if (options_.sparse_pull) {
        if (keys_per_shard(p, s) == 0) continue;
        push_bytes =
            kRequestHeaderBytes +
            keys_per_shard(p, s) * (sizeof(uint32_t) + sizeof(double) * wpf);
        server_keys = keys_per_shard(p, s);
      } else {
        push_bytes = kRequestHeaderBytes +
                     shard_map_->LocalDim(s) * wpf * sizeof(double);
        server_keys = shard_map_->LocalDim(s);
      }
      for (int holder : PartitionHolders(s)) {
        const NodeId server_node = runtime_->extra_node(holder);
        transfer(node, server_node, push_bytes, holder == rank);
        runtime_->ChargeCompute(server_node,
                                server_keys * options_.flops_per_key);
      }
    }
  }

  // The aggregated update lands on every holder of each shard (lock-step
  // replicas), then the BSP barrier closes the round. On the host, each
  // shard scatters and applies its own slots on the pool.
  FlopCounter update_flops;
  update_.Apply(steps_, batch_total, config_.reg, optimizer_.get(), &weights_,
                &opt_state_, &update_flops, grad_sq_accum());
  for (int s = 0; s < G; ++s) {
    for (int holder : PartitionHolders(s)) {
      runtime_->ChargeCompute(runtime_->extra_node(holder),
                              update_flops.flops() / G);
    }
  }
  TracePhase(Phase::kBarrier);
  runtime_->Barrier();
  return Status::OK();
}

const std::vector<double>& PsEngine::SspSnapshotOf(int64_t version) const {
  const size_t ring = ssp_snapshots_.size();
  const size_t slot =
      static_cast<size_t>(((version % static_cast<int64_t>(ring)) +
                           static_cast<int64_t>(ring)) %
                          static_cast<int64_t>(ring));
  COLSGD_CHECK_EQ(ssp_snapshot_version_[slot], version)
      << "SSP snapshot ring no longer holds version " << version;
  return ssp_snapshots_[slot];
}

void PsEngine::SspStoreSnapshot(int64_t version) {
  const size_t ring = ssp_snapshots_.size();
  const size_t slot =
      static_cast<size_t>(((version % static_cast<int64_t>(ring)) +
                           static_cast<int64_t>(ring)) %
                          static_cast<int64_t>(ring));
  ssp_snapshots_[slot] = weights_;
  ssp_snapshot_version_[slot] = version;
}

Status PsEngine::DoRunIterationSsp(int64_t iteration) {
  const int K = runtime_->num_workers();
  const int wpf = model_->weights_per_feature();
  const uint64_t model_bytes = weights_.size() * sizeof(double);
  const int slack = config_.ssp.slack;
  const int64_t gate_version = iteration - 1 - static_cast<int64_t>(slack);
  const NodeId master = runtime_->master();

  TracePhase(Phase::kSerialization);
  runtime_->AdvanceClock(master, SchedOverhead(kDefaultSchedOverhead));
  const SimTime dispatch_end = runtime_->clock(master);
  TracePhase(Phase::kSspWait);  // master now tracks the slack-gated round

  // Workers are self-clocked; servers serve pulls concurrently with later
  // applies, so a reply's departure is computed from the request's arrival
  // and the shard's per-version apply times — not the server's scalar clock,
  // which under SSP is the shard's apply timeline.
  SimTime last_compute_start = dispatch_end;
  std::vector<SimTime> push_arrival(K, 0.0);  // newest push seen per server
  std::vector<uint64_t> push_keys(K, 0);      // lookup work queued per server
  std::vector<std::vector<CritTerm>> server_push_terms(K);
  double loss_sum = 0.0;
  size_t batch_total = 0;
  for (int w = 0; w < K; ++w) {
    const NodeId node = runtime_->worker_node(w);
    COLSGD_CHECK(ssp_clocks_.MayStart(w, iteration, slack));

    // Phase 0: the local batch slice (pure function of seed + iteration).
    RowWorkerStep& step = steps_[w];
    step.Draw(partitions_[w], partition_rows_[w], WorkerBatchSize(w),
              WorkerIterationRng(config_.seed, iteration, w),
              options_.sparse_pull ? K : 0);
    // Sparse pull: keys[s] distinct keys of the batch on shard s.
    const std::vector<uint64_t>& keys = step.keys.counts();

    // Phases 1+2: pulls. The reply may not leave shard s before s has
    // applied the gate version; it serves the newest version applied by its
    // departure — the worker's effective model is the oldest version any
    // contacted shard served.
    SimTime worker_ready = runtime_->clock(node);
    std::vector<CritTerm> ready_terms;
    int64_t version = iteration - 1;
    for (int s = 0; s < K; ++s) {
      if (options_.sparse_pull && keys[s] == 0) continue;
      uint64_t request_bytes = kRequestHeaderBytes;
      uint64_t reply_bytes;
      uint64_t server_keys;
      if (options_.sparse_pull) {
        request_bytes += keys[s] * sizeof(uint32_t);
        reply_bytes = kRequestHeaderBytes + keys[s] * sizeof(double) * wpf;
        server_keys = keys[s];
      } else {
        reply_bytes = kRequestHeaderBytes +
                      shard_map_->LocalDim(s) * wpf * sizeof(double);
        server_keys = shard_map_->LocalDim(s);
      }
      const NodeId server_node = runtime_->extra_node(s);
      SimTime request_arrival;
      int64_t request_msg = -1;
      if (s == w) {
        request_arrival = runtime_->clock(node);  // loopback
      } else {
        request_arrival =
            GatedSendWithFaults(node, server_node, request_bytes, iteration);
        if (critpath_ != nullptr) request_msg = critpath_->last_msg();
      }
      const SimTime gate_time =
          gate_version < 0
              ? 0.0
              : ssp_applied_time_[s][static_cast<size_t>(gate_version)];
      const double lookup_seconds = cluster_spec_.compute.SecondsFor(
          server_keys * options_.flops_per_key);
      const SimTime reply_send =
          std::max(request_arrival, gate_time) + lookup_seconds;
      if (tracer_ != nullptr) {
        tracer_->RecordCompute(server_node, reply_send - lookup_seconds,
                               lookup_seconds,
                               server_keys * options_.flops_per_key);
      }
      // Fresher-when-available: the newest version applied by reply_send.
      int64_t served = std::max<int64_t>(gate_version, -1);
      for (int64_t v = iteration - 1; v > served; --v) {
        if (ssp_applied_time_[s][static_cast<size_t>(v)] <= reply_send) {
          served = v;
          break;
        }
      }
      version = std::min(version, served);
      // Causal terms behind reply_send: the request's delivery (or the
      // worker's own clock on loopback) and the shard's gate-version apply,
      // each followed by the lookup on the server.
      std::vector<CritTerm> depart_terms;
      if (critpath_ != nullptr) {
        if (s == w) {
          depart_terms.push_back(critpath_->ClockTerm(node));
        } else {
          depart_terms.push_back(critpath_->MsgTerm(request_msg));
        }
        if (gate_version >= 0) {
          const int64_t stamp =
              ssp_stamp_ids_[s][static_cast<size_t>(gate_version)];
          CritTerm gate_term;
          if (stamp >= 0) {
            gate_term = critpath_->StampTerm(stamp);
          } else {
            gate_term.kind = CritCauseKind::kAbs;
            gate_term.value = gate_time;
          }
          depart_terms.push_back(gate_term);
        }
      }
      SimTime reply_arrival;
      if (s == w) {
        reply_arrival = reply_send;
        if (critpath_ != nullptr) {
          for (CritTerm term : depart_terms) {
            term.add_seconds = lookup_seconds;
            term.add_node = static_cast<int32_t>(server_node);
            ready_terms.push_back(term);
          }
        }
      } else {
        if (critpath_ != nullptr) {
          critpath_->AnnotateNextSend(depart_terms, lookup_seconds,
                                      static_cast<int32_t>(server_node));
        }
        reply_arrival =
            runtime_->net().Send(server_node, node, reply_bytes, reply_send);
        if (critpath_ != nullptr) {
          ready_terms.push_back(critpath_->MsgTerm(critpath_->last_msg()));
        }
      }
      worker_ready = std::max(worker_ready, reply_arrival);
    }
    if (critpath_ != nullptr && !ready_terms.empty()) {
      critpath_->AnnotateSet(node, std::move(ready_terms));
    }
    runtime_->set_clock(node, worker_ready);

    const int64_t staleness = (iteration - 1) - version;
    COLSGD_CHECK_LE(staleness, static_cast<int64_t>(slack))
        << "SSP staleness bound violated for worker " << w << " at iteration "
        << iteration;
    ssp_.max_staleness_observed =
        std::max(ssp_.max_staleness_observed, staleness);
    if (staleness > 0) ++ssp_.stale_reads;

    // Phase 3: gradients against the served snapshot, scattered below in
    // worker order (the fixed float-sum order that makes slack = 0 bitwise
    // BSP). The forward stays in this serial loop: which version a worker
    // is served depends on the simulated timeline so far, and the FLOPs it
    // charges depend on the scores.
    const std::vector<double>& snapshot =
        version == iteration - 1 && version >= 0 ? weights_
                                                 : SspSnapshotOf(version);
    last_compute_start = std::max(last_compute_start, runtime_->clock(node));
    step.ForwardGrad(*model_, snapshot, K);
    for (double loss : step.row_losses) loss_sum += loss;
    batch_total += step.batch.size();
    runtime_->ChargeCompute(node, step.flops.flops());
    runtime_->ChargeMemTouch(node, 2 * model_bytes);
    const double level =
        StragglerLevelFor(iteration, w) + SspJitterLevel(iteration, w);
    if (level > 0.0) {
      runtime_->AdvanceClock(
          node, level * cluster_spec_.compute.SecondsFor(step.flops.flops()));
    }

    // Phase 4: pushes (mailbox delivery; shard apply waits below).
    for (int s = 0; s < K; ++s) {
      uint64_t push_bytes;
      uint64_t server_keys;
      if (options_.sparse_pull) {
        if (keys[s] == 0) continue;
        push_bytes = kRequestHeaderBytes +
                     keys[s] * (sizeof(uint32_t) + sizeof(double) * wpf);
        server_keys = keys[s];
      } else {
        push_bytes = kRequestHeaderBytes +
                     shard_map_->LocalDim(s) * wpf * sizeof(double);
        server_keys = shard_map_->LocalDim(s);
      }
      const SimTime arrival =
          s == w ? runtime_->clock(node)
                 : GatedSendWithFaults(node, runtime_->extra_node(s),
                                       push_bytes, iteration);
      if (critpath_ != nullptr) {
        server_push_terms[s].push_back(
            s == w ? critpath_->ClockTerm(node)
                   : critpath_->MsgTerm(critpath_->last_msg()));
      }
      push_arrival[s] = std::max(push_arrival[s], arrival);
      push_keys[s] += server_keys;
    }
    ssp_.sent[w].push_back(1);
    ssp_.applied[w].push_back(0);
    ++ssp_.updates_sent;
    ssp_clocks_.SetClock(w, iteration + 1);
  }
  last_batch_loss_ = loss_sum / static_cast<double>(batch_total);

  // Version `iteration` applies once every push is in: one combined update in
  // the same order and float-sum sequence as BSP, charged on each shard.
  FlopCounter update_flops;
  update_.Apply(steps_, batch_total, config_.reg, optimizer_.get(), &weights_,
                &opt_state_, &update_flops, grad_sq_accum());
  SimTime applied_max = 0.0;
  SimTime push_done = 0.0;
  for (int s = 0; s < K; ++s) {
    const NodeId server_node = runtime_->extra_node(s);
    push_done = std::max(push_done, push_arrival[s]);
    if (critpath_ != nullptr && !server_push_terms[s].empty()) {
      critpath_->AnnotateSet(server_node, std::move(server_push_terms[s]));
    }
    runtime_->set_clock(
        server_node, std::max(runtime_->clock(server_node), push_arrival[s]));
    runtime_->ChargeCompute(server_node,
                            push_keys[s] * options_.flops_per_key +
                                update_flops.flops() / K);
    ssp_applied_time_[s].push_back(runtime_->clock(server_node));
    ssp_stamp_ids_[s].push_back(
        critpath_ != nullptr ? critpath_->StampClock(server_node) : -1);
    applied_max = std::max(applied_max, runtime_->clock(server_node));
  }
  SspStoreSnapshot(iteration);
  for (int w = 0; w < K; ++w) {
    ssp_.applied[w][static_cast<size_t>(iteration)] += 1;
    ++ssp_.updates_applied;
  }

  // The master's timeline: stalled behind the slack gate until the last
  // worker started computing, then wire + the shard-side apply.
  const SimTime final_clock = std::max(runtime_->clock(master), applied_max);
  const SimTime wire_mark =
      std::min(std::max(dispatch_end, last_compute_start), final_clock);
  if (tracer_ != nullptr) {
    tracer_->SetPhase(Phase::kWire, wire_mark);
    tracer_->SetPhase(Phase::kCompute,
                      std::min(std::max(wire_mark, push_done), final_clock));
  }
  runtime_->set_clock(master, final_clock);
  return Status::OK();
}

Status PsEngine::DrainSsp(int64_t iteration) {
  (void)iteration;
  if (!config_.ssp.enabled) return Status::OK();
  ++ssp_.drains;
  runtime_->Barrier();
  return Status::OK();
}

Status PsEngine::FinishTraining() {
  if (!config_.ssp.enabled || weights_.empty()) return Status::OK();
  return DrainSsp(-1);
}

}  // namespace colsgd
