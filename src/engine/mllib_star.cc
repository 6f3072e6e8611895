#include "engine/mllib_star.h"

#include <algorithm>

#include "engine/row_sampling.h"

namespace colsgd {

namespace {
constexpr double kDefaultSchedOverhead = 0.4;  // Spark driver, like MLlib
}  // namespace

MllibStarEngine::MllibStarEngine(const ClusterSpec& cluster_spec,
                                 const TrainConfig& config,
                                 MllibStarOptions options)
    : Engine(cluster_spec, config), options_(options) {
  COLSGD_CHECK_GE(options_.local_steps, 1);
}

Status MllibStarEngine::Setup(const Dataset& dataset) {
  if (!model_->SupportsRowPath()) {
    return Status::InvalidArgument(
        model_->name() + " is only implemented for the column framework; "
        "use the columnsgd engine");
  }
  COLSGD_RETURN_NOT_OK(model_->CheckLabels(dataset.labels));
  num_features_ = dataset.num_features;
  const int wpf = model_->weights_per_feature();
  const int K = runtime_->num_workers();
  const uint64_t slots = num_features_ * wpf;

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

  const uint64_t per_worker_bytes =
      slots * sizeof(double) * 2;  // replica + gradient buffer
  if (per_worker_bytes > cluster_spec_.node_memory_budget) {
    return Status::OutOfMemory("MLlib* replica does not fit on a worker");
  }

  replicas_.assign(K, InitialWeights(*model_, num_features_, config_.seed));
  optimizers_.clear();
  opt_states_.clear();
  for (int k = 0; k < K; ++k) {
    optimizers_.push_back(
        MakeOptimizer(config_.optimizer, config_.learning_rate));
    opt_states_.emplace_back(slots * optimizers_[k]->state_per_slot(), 0.0);
  }
  grad_ = std::make_unique<GradAccumulator>(slots, wpf);
  terms_ = std::make_unique<GradTerms>(wpf);
  return Status::OK();
}

size_t MllibStarEngine::WorkerBatchSize(int worker) const {
  const size_t K = partitions_.size();
  return config_.batch_size / K +
         (static_cast<size_t>(worker) < config_.batch_size % K ? 1 : 0);
}

void MllibStarEngine::RecoverWorkerFailure(const FaultEvent& event) {
  const int K = runtime_->num_workers();
  const int w = event.worker;
  const NodeId node = runtime_->worker_node(w);
  const TransformCostConfig& cost = config_.transform_cost;

  // Data: re-read the row partition from storage.
  for (const RowBlock& b : partitions_[w]) {
    runtime_->AdvanceClock(node,
                           static_cast<double>(b.text_bytes) /
                                   cost.disk_bandwidth +
                               b.text_bytes * cost.mllib_ingest_per_byte);
  }

  // Model: the ring successor ships its replica (equal to the dead one right
  // after the last averaging round — no updates are lost), the optimizer
  // state restarts cold, and a fresh averaging round re-establishes the
  // all-replicas-equal invariant.
  const int neighbor = (w + 1) % K;
  // The repair shipment crosses the same faulty data plane as training
  // traffic (drop / corruption / partition all apply).
  SendWithFaults(runtime_->worker_node(neighbor), node,
                 replicas_[neighbor].size() * sizeof(double),
                 event.iteration);
  replicas_[w] = replicas_[neighbor];
  std::fill(opt_states_[w].begin(), opt_states_[w].end(), 0.0);
  RingAllReduceAverage(event.iteration);
}

void MllibStarEngine::RingAllReduceAverage(int64_t iteration) {
  const int K = runtime_->num_workers();
  const uint64_t slots = replicas_[0].size();
  if (K == 1) return;

  // Semantics: replace every replica with the element-wise average.
  std::vector<double> avg(slots, 0.0);
  for (const auto& replica : replicas_) {
    for (uint64_t i = 0; i < slots; ++i) avg[i] += replica[i];
  }
  const double inv = 1.0 / static_cast<double>(K);
  for (uint64_t i = 0; i < slots; ++i) avg[i] *= inv;
  for (auto& replica : replicas_) replica = avg;

  // Cost: ring all-reduce, 2(K-1) steps; in each step every node sends one
  // m/K chunk to its ring successor and reduces the chunk it received.
  const uint64_t chunk_bytes =
      (slots * sizeof(double) + static_cast<uint64_t>(K) - 1) / K;
  const uint64_t chunk_slots = (slots + K - 1) / K;
  for (int step = 0; step < 2 * (K - 1); ++step) {
    for (int k = 0; k < K; ++k) {
      const NodeId from = runtime_->worker_node(k);
      const NodeId to = runtime_->worker_node((k + 1) % K);
      SendWithFaults(from, to, chunk_bytes, iteration);
      runtime_->ChargeCompute(to, chunk_slots);  // reduce/assign the chunk
    }
  }
  runtime_->Barrier();
}

Status MllibStarEngine::DoRunIteration(int64_t iteration) {
  const int K = runtime_->num_workers();

  TracePhase(Phase::kSerialization);
  runtime_->AdvanceClock(runtime_->master(),
                         SchedOverhead(kDefaultSchedOverhead));
  for (int w = 0; w < K; ++w) {
    runtime_->Send(runtime_->master(), runtime_->worker_node(w), 24);
  }
  // The master idles until the post-allreduce barrier lifts it; local steps
  // and the ring both land in the barrier bucket. (No marks inside
  // RingAllReduceAverage itself — recovery also calls it.)
  TracePhase(Phase::kBarrier);

  double loss_sum = 0.0;
  size_t loss_count = 0;
  for (int w = 0; w < K; ++w) {
    const NodeId node = runtime_->worker_node(w);
    Rng rng = WorkerIterationRng(config_.seed, iteration, w);
    FlopCounter flops;
    const size_t local_batch = WorkerBatchSize(w);
    std::vector<double> row_losses(local_batch);
    for (int step = 0; step < options_.local_steps; ++step) {
      BatchView batch;
      batch.rows.reserve(local_batch);
      batch.labels.reserve(local_batch);
      for (size_t i = 0; i < local_batch; ++i) {
        const LocalRowSample sample =
            DrawLocalRow(partitions_[w], partition_rows_[w], &rng);
        batch.rows.push_back(sample.row);
        batch.labels.push_back(sample.label);
      }
      // Fused forward + gradient (kernel layer); the loss pass runs only on
      // the first local step, exactly as the unfused loop did.
      terms_->Clear();
      model_->RowBatchForwardGrad(batch, replicas_[w], terms_.get(),
                                  step == 0 ? row_losses.data() : nullptr,
                                  &flops);
      for (size_t i = 0; i < terms_->size(); ++i) {
        grad_->Add(terms_->first_slot(i), terms_->values(i));
      }
      if (step == 0) {
        for (double loss : row_losses) loss_sum += loss;
        loss_count += local_batch;
      }
      // Aggregated over every worker's local steps — an engine-dependent
      // notion of "the iteration's gradient", noted in DESIGN.md §9.
      ApplySparseUpdate(grad_.get(), local_batch, config_.reg,
                        optimizers_[w].get(), &replicas_[w], &opt_states_[w],
                        &flops, grad_sq_accum());
    }
    runtime_->ChargeCompute(node, flops.flops());
    const double level = StragglerLevelFor(iteration, w);
    if (level > 0.0) {
      runtime_->AdvanceClock(
          node, level * cluster_spec_.compute.SecondsFor(flops.flops()));
    }
  }
  last_batch_loss_ = loss_sum / static_cast<double>(loss_count);

  RingAllReduceAverage(iteration);
  TracePhase(Phase::kWire);

  // The driver gets a tiny completion/loss ping.
  runtime_->Send(runtime_->worker_node(0), runtime_->master(), 32);
  return Status::OK();
}

}  // namespace colsgd
