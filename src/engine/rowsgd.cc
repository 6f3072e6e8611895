#include "engine/rowsgd.h"

#include "common/host_memory.h"
#include "engine/row_sampling.h"

namespace colsgd {

namespace {
constexpr double kDefaultSchedOverhead = 0.4;  // Spark stage/task latency
}  // namespace

MllibEngine::MllibEngine(const ClusterSpec& cluster_spec,
                         const TrainConfig& config, RowSgdOptions options)
    : Engine(cluster_spec, config), options_(options) {}

Status MllibEngine::Setup(const Dataset& dataset) {
  if (!model_->SupportsRowPath()) {
    return Status::InvalidArgument(
        model_->name() + " is only implemented for the column framework; "
        "use the columnsgd engine");
  }
  COLSGD_RETURN_NOT_OK(model_->CheckLabels(dataset.labels));
  num_features_ = dataset.num_features;
  const int wpf = model_->weights_per_feature();
  const uint64_t slots = num_features_ * wpf;

  std::vector<RowBlock> blocks = MakeRowBlocks(dataset, config_.block_rows);
  RowLoadResult load =
      LoadRowPartitioned(blocks, runtime_.get(), config_.transform_cost);
  partitions_ = std::move(load.partitions);
  partition_rows_.assign(partitions_.size(), 0);
  for (size_t k = 0; k < partitions_.size(); ++k) {
    for (const RowBlock& b : partitions_[k]) {
      partition_rows_[k] += b.num_rows();
    }
    if (partition_rows_[k] == 0) {
      return Status::FailedPrecondition(
          "worker " + std::to_string(k) +
          " received no rows; use more blocks than workers");
    }
  }
  runtime_->Barrier();
  load_time_ = runtime_->MaxClock();

  weights_ = InitialWeights(*model_, num_features_, config_.seed);
  optimizer_ = MakeOptimizer(config_.optimizer, config_.learning_rate);
  opt_state_ = ModelArray(slots * optimizer_->state_per_slot());
  steps_.assign(partitions_.size(), RowWorkerStep(wpf));

  if (MasterMemoryBytes() > cluster_spec_.node_memory_budget) {
    return Status::OutOfMemory("MLlib master model does not fit: " +
                               std::to_string(MasterMemoryBytes()) + " bytes");
  }
  for (int w = 0; w < runtime_->num_workers(); ++w) {
    if (WorkerMemoryBytes(w) > cluster_spec_.node_memory_budget) {
      return Status::OutOfMemory("MLlib worker " + std::to_string(w) +
                                 " does not fit");
    }
  }
  return Status::OK();
}

uint64_t MllibEngine::MasterMemoryBytes() const {
  // Model + dense aggregation buffer + optimizer state (Table I: m + m*phi2,
  // with a dense aggregation buffer phi2 -> 1).
  return (weights_.size() * 2 + opt_state_.size()) * sizeof(double);
}

uint64_t MllibEngine::WorkerMemoryBytes(int worker) const {
  uint64_t data_bytes = 0;
  for (const RowBlock& b : partitions_[worker]) {
    data_bytes += b.rows.ByteSize() + b.labels.size() * sizeof(float);
  }
  // Pulled model copy + dense gradient buffer (Table I: S/K + 2*m*phi1 with
  // dense buffers phi1 -> 1).
  return data_bytes + 2 * weights_.size() * sizeof(double);
}

size_t MllibEngine::WorkerBatchSize(int worker) const {
  const size_t K = partitions_.size();
  return config_.batch_size / K +
         (static_cast<size_t>(worker) < config_.batch_size % K ? 1 : 0);
}

void MllibEngine::RecoverWorkerFailure(const FaultEvent& event) {
  // The replacement executor re-reads the worker's row partition from
  // storage (parse included) and pulls a fresh copy of the full model from
  // the master. The master's model is intact, so no updates are lost.
  const NodeId node = runtime_->worker_node(event.worker);
  const TransformCostConfig& cost = config_.transform_cost;
  for (const RowBlock& b : partitions_[event.worker]) {
    runtime_->AdvanceClock(node,
                           static_cast<double>(b.text_bytes) /
                                   cost.disk_bandwidth +
                               b.text_bytes * cost.mllib_ingest_per_byte);
  }
  // The model re-pull is ordinary data-plane traffic — the fault plan can
  // drop, corrupt, or partition it like any training message.
  SendWithFaults(runtime_->master(), node, weights_.size() * sizeof(double),
                 event.iteration);
}

Status MllibEngine::DoRunIteration(int64_t iteration) {
  const int K = runtime_->num_workers();
  const uint64_t model_bytes = weights_.size() * sizeof(double);

  TracePhase(Phase::kSerialization);
  runtime_->AdvanceClock(runtime_->master(),
                         SchedOverhead(kDefaultSchedOverhead));
  TracePhase(Phase::kWire);  // master waits on gradient-push arrivals

  // Step 1: every worker pulls the latest model (dense broadcast; the K
  // copies serialize through the master's NIC).
  runtime_->BroadcastToWorkers(runtime_->master(), model_bytes);

  // Step 2: each worker samples B/K local rows and computes its gradient,
  // all at once on the host pool; the charges below replay in worker order.
  ForEachWorker(K, [&](int w) {
    RowWorkerStep& step = steps_[w];
    step.Draw(partitions_[w], partition_rows_[w], WorkerBatchSize(w),
              WorkerIterationRng(config_.seed, iteration, w),
              options_.sparse_gradient_push ? K : 0);
    step.ForwardGrad(*model_, weights_, K);
  });
  double loss_sum = 0.0;
  size_t batch_total = 0;
  for (int w = 0; w < K; ++w) {
    const NodeId node = runtime_->worker_node(w);
    const RowWorkerStep& step = steps_[w];
    for (double loss : step.row_losses) loss_sum += loss;
    batch_total += step.batch.size();
    // Dense gradient buffer sweep (zeroing + densification for the push).
    runtime_->ChargeCompute(node, step.flops.flops());
    runtime_->ChargeMemTouch(node, model_bytes);
    const double level = StragglerLevelFor(iteration, w);
    if (level > 0.0) {
      runtime_->AdvanceClock(
          node, level * cluster_spec_.compute.SecondsFor(step.flops.flops()));
    }

    // Step 3: push the gradient to the master.
    uint64_t push_bytes = model_bytes;
    if (options_.sparse_gradient_push) {
      // m*phi1 touched features, each carrying its weights_per_feature
      // gradient entries (Table I's sparse worker push).
      uint64_t features = 0;
      for (uint64_t keys : step.keys.counts()) features += keys;
      push_bytes =
          16 + features * (sizeof(uint32_t) +
                           sizeof(double) * model_->weights_per_feature());
    }
    SendWithFaults(node, runtime_->master(), push_bytes, iteration);
  }
  last_batch_loss_ = loss_sum / static_cast<double>(batch_total);

  // Step 4: the master aggregates K dense gradients and updates the model.
  TracePhase(Phase::kCompute);
  runtime_->ChargeCompute(runtime_->master(),
                          static_cast<uint64_t>(K) * weights_.size());
  // On the host the master's apply is split like K server shards would
  // split it, and runs on the pool.
  FlopCounter update_flops;
  update_.Apply(steps_, batch_total, config_.reg, optimizer_.get(), &weights_,
                &opt_state_, &update_flops, grad_sq_accum());
  runtime_->ChargeCompute(runtime_->master(), update_flops.flops());
  return Status::OK();
}

}  // namespace colsgd
