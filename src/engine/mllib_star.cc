#include "engine/mllib_star.h"

#include <algorithm>

#include "common/host_memory.h"
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
  COLSGD_RETURN_NOT_OK(data_.Load(*model_, dataset, config_.block_rows,
                                  config_.transform_cost, runtime_.get()));
  load_time_ = runtime_->MaxClock();
  num_features_ = dataset.num_features;
  const int wpf = model_->weights_per_feature();
  const int K = runtime_->num_workers();
  const uint64_t slots = num_features_ * wpf;

  const uint64_t per_worker_bytes =
      slots * sizeof(double) * 2;  // replica + gradient buffer
  if (per_worker_bytes > cluster_spec_.node_memory_budget) {
    return Status::OutOfMemory("MLlib* replica does not fit on a worker");
  }

  // K copies of one initial model, each in storage of its own from
  // ModelArray (a copy-constructed vector would not be advised).
  const std::vector<double> initial =
      InitialWeights(*model_, num_features_, config_.seed);
  replicas_.clear();
  optimizers_.clear();
  opt_states_.clear();
  for (int k = 0; k < K; ++k) {
    replicas_.push_back(ModelArray(slots));
    std::copy(initial.begin(), initial.end(), replicas_.back().begin());
    optimizers_.push_back(
        MakeOptimizer(config_.optimizer, config_.learning_rate));
    opt_states_.push_back(ModelArray(slots * optimizers_[k]->state_per_slot()));
  }
  grad_ = std::make_unique<GradAccumulator>(slots, wpf);
  terms_ = std::make_unique<GradTerms>(wpf);
  return Status::OK();
}

void MllibStarEngine::RecoverWorkerFailure(const FaultEvent& event) {
  const int K = runtime_->num_workers();
  const int w = event.worker;
  const NodeId node = runtime_->worker_node(w);

  // Data: re-read the row partition from storage.
  data_.ChargeReread(w, node, config_.transform_cost, runtime_.get());

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
  std::vector<double> avg = ModelArray(slots);
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
    const size_t local_batch = data_.BatchShare(w, config_.batch_size);
    std::vector<double> row_losses(local_batch);
    for (int step = 0; step < options_.local_steps; ++step) {
      BatchView batch;
      batch.rows.reserve(local_batch);
      batch.labels.reserve(local_batch);
      for (size_t i = 0; i < local_batch; ++i) {
        const LocalRowSample sample =
            DrawLocalRow(data_.blocks(w), data_.rows(w), &rng);
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
