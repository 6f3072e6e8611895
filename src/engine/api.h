// Common driver API for all training engines (ColumnSGD and the RowSGD
// baselines). An engine owns a simulated cluster, loads/partitions a dataset
// on it, and runs BSP SGD iterations, charging compute and communication on
// the simulated clocks.
#ifndef COLSGD_ENGINE_API_H_
#define COLSGD_ENGINE_API_H_

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/fault/failure_detector.h"
#include "cluster/fault/fault_plan.h"
#include "common/status.h"
#include "engine/checkpoint.h"
#include "engine/metrics.h"
#include "linalg/kernels/kernels.h"
#include "model/factory.h"
#include "model/model_spec.h"
#include "obs/bench/timeseries.h"
#include "obs/critpath/critpath.h"
#include "obs/trace.h"
#include "optim/optimizer.h"
#include "storage/transform.h"

namespace colsgd {

/// \brief Everything an engine needs to know about faults: what goes wrong
/// (the plan), how the master notices and retries (the detector), and how
/// state is protected (checkpointing).
struct FaultConfig {
  FaultPlan plan;
  FailureDetectorConfig detector;
  CheckpointConfig checkpoint;
};

/// \brief Elastic-membership settings (DESIGN.md §14). Replication r keeps
/// r+1 in-memory copies of every partition's model slice and data shard via
/// the block store, so crashes and shrinks recover peer-to-peer instead of
/// from checkpoint storage. Spare ranks a grow can activate are provisioned
/// by ClusterSpec::max_workers. Engines enter elastic mode when `enabled` is
/// set or the fault plan scripts membership events.
struct ElasticConfig {
  bool enabled = false;
  /// Extra in-memory copies per block (r). 0 keeps a single copy: crashes
  /// fall back to the checkpoint/re-seed ladder exactly like the
  /// fixed-membership path.
  int replication = 1;
  /// Seed of the permuted block->rank placement.
  uint64_t placement_seed = 0x9E157E;
  /// ReStore-style permutation range width (BlockStoreConfig).
  int blocks_per_permutation_range = 64;
};

/// \brief Bounded-staleness (SSP) execution settings (DESIGN.md §15). With
/// slack s, a worker at logical clock t may compute on model state that
/// reflects every update through clock t-1-s and nothing older: progress is
/// gated on min_clock >= my_clock - s instead of a per-iteration barrier.
/// s = 0 reproduces the BSP path bitwise (same trained bits; timing differs
/// only through the gated delivery path). Supported by the ColumnSGD engine
/// (requires backup == 0; composes with elastic membership) and the PS
/// engines (fixed membership only).
struct SspConfig {
  bool enabled = false;
  /// Staleness bound s >= 0 in logical clock ticks (iterations).
  int slack = 0;
  /// Deterministic per-(worker, iteration) extra compute, as a fraction of
  /// the worker's task time, drawn from a stateless hash of (seed, worker,
  /// iteration). Diversifies interleavings for the SSP property tests
  /// without a fault plan; 0 keeps the clean cost model.
  double compute_jitter = 0.0;
};

/// \brief Exactly-once accounting of the SSP update pipeline, maintained by
/// the engines' SSP paths. Every broadcast (ColumnSGD) or committed version
/// (PS) is counted when it enters the pipeline and when each consumer
/// applies it; after a drain, sends == applies per consumer per clock tick
/// (tests/ssp_accounting_test.cc pins this across crashes and membership
/// events).
struct SspAccounting {
  /// Update messages entered into the pipeline (per consumer).
  int64_t updates_sent = 0;
  /// Update messages applied by consumers.
  int64_t updates_applied = 0;
  /// Largest staleness (own clock - freshest applied update's clock - 1)
  /// any consumer ever computed with. Bounded by the slack.
  int64_t max_staleness_observed = 0;
  /// Reads of model state at least one tick behind the reader's clock.
  int64_t stale_reads = 0;
  /// Pipeline drains (fault/membership/checkpoint fences + final drain).
  int64_t drains = 0;
  /// Per-consumer per-clock-tick send/apply counts: sent[c][t] is how many
  /// pipeline entries for clock t were addressed to consumer c, applied[c][t]
  /// how many it applied. After a drain the two matrices must be equal.
  std::vector<std::vector<int32_t>> sent;
  std::vector<std::vector<int32_t>> applied;
};

/// \brief Hyperparameters and run settings shared by every engine.
struct TrainConfig {
  std::string model = "lr";          // "lr" | "svm" | "mlr<C>" | "fm<F>"
  std::string optimizer = "sgd";     // "sgd" | "adagrad" | "adam"
  double learning_rate = 0.1;
  RegularizerConfig reg;
  size_t batch_size = 1000;
  uint64_t seed = 13;
  size_t block_rows = 1024;          // rows per block in the block queue
  std::string partitioner = "round_robin";
  /// Per-iteration driver/scheduling overhead in simulated seconds; < 0
  /// selects the engine's default (Spark-like engines pay more; see
  /// DESIGN.md calibration).
  double sched_overhead = -1.0;
  TransformCostConfig transform_cost;
  ElasticConfig elastic;
  SspConfig ssp;
};

/// \brief One point of a training trace.
struct IterationRecord {
  int64_t iteration = 0;
  double sim_time = 0.0;    // cluster MaxClock at the end of the iteration
  double batch_loss = 0.0;  // average per-point data loss on the batch
  double eval_loss = std::numeric_limits<double>::quiet_NaN();
};

/// \brief Summary of a training run (filled by RunTraining in trainer.h).
struct TrainResult {
  std::string engine;
  std::string dataset;
  std::vector<IterationRecord> trace;
  double load_time = 0.0;      // simulated seconds spent loading data
  double train_time = 0.0;     // simulated seconds from first to last iter
  double avg_iter_time = 0.0;  // train_time / iterations
  uint64_t bytes_on_wire = 0;  // total traffic during training
  uint64_t messages = 0;
  RecoveryMetrics recovery;    // fault-recovery accounting (Fig. 13)
  /// Per-iteration master-clock phase breakdowns (only filled when a Tracer
  /// was attached to the engine; see obs/trace.h).
  std::vector<IterationPhases> phase_trace;
  /// Sum of phase_trace over iterations.
  PhaseBreakdown phase_totals;
  /// Per-iteration telemetry samples (only filled when a TimeSeriesRecorder
  /// was attached to the engine; see obs/bench/timeseries.h).
  std::vector<TimeSeriesSample> series;
  Status status;  // non-OK e.g. when a baseline runs out of memory (Table V)
};

/// \brief Base class for all engines.
class Engine {
 public:
  Engine(const ClusterSpec& cluster_spec, const TrainConfig& config)
      : cluster_spec_(cluster_spec),
        config_(config),
        runtime_(std::make_unique<ClusterRuntime>(cluster_spec)),
        model_(MakeModel(config.model)) {}
  virtual ~Engine() = default;

  virtual std::string name() const = 0;

  /// \brief Loads and partitions `dataset` onto the simulated cluster and
  /// initializes the model. Must be called exactly once before iterations.
  virtual Status Setup(const Dataset& dataset) = 0;

  /// \brief Runs one BSP SGD iteration. `iteration` seeds the batch draw.
  /// Template method: fires this iteration's faults (task retries, worker
  /// recovery), runs the engine body, then takes a periodic checkpoint.
  /// With a tracer attached, the whole window is phase-accounted on the
  /// master clock (obs/trace.h).
  Status RunIteration(int64_t iteration);

  /// \brief Attaches a (non-owning, non-null) tracer to the cluster runtime,
  /// once, before Setup (so loading traffic counts too), and keeps it for the
  /// phase read-backs. Tracing is passive — it changes no simulated time and
  /// no trained bit.
  void set_tracer(Tracer* tracer) {
    tracer_ = tracer;
    runtime_->Observe(tracer);
  }
  Tracer* tracer() const { return tracer_; }

  /// \brief Attaches a (non-owning, non-null) causal critical-path recorder
  /// to the cluster runtime (DESIGN.md §16) and keeps it for the engines'
  /// annotations. Same lifecycle and passivity contract as set_tracer.
  void set_critpath(CritPathRecorder* critpath) {
    critpath_ = critpath;
    runtime_->Observe(critpath);
  }

  /// \brief Attaches a (non-owning, nullable) per-iteration telemetry
  /// recorder. RunIteration deposits one TimeSeriesSample per iteration;
  /// like the tracer, the recorder only reads simulation state, so attaching
  /// one changes no simulated time and no trained bit.
  void set_recorder(TimeSeriesRecorder* recorder) { recorder_ = recorder; }
  TimeSeriesRecorder* recorder() const { return recorder_; }

  /// \brief Installs the fault model. Call after construction, before
  /// Setup/RunIteration; replaces any previous fault configuration.
  /// Rejects nonsense plans (probabilities outside [0,1], negative MTBFs,
  /// malformed partition windows) with InvalidArgument instead of silently
  /// training under them; on error the previous fault configuration is kept.
  Status set_faults(FaultConfig faults) {
    FaultPlan plan = faults.plan;
    plan.set_num_workers(cluster_spec_.num_workers);
    COLSGD_RETURN_NOT_OK(FaultPlan::Validate(plan.config()));
    if (plan.has_membership() && !SupportsMembership()) {
      return Status::InvalidArgument(
          name() + " does not support scripted membership events");
    }
    faults_ = std::move(faults);
    faults_.plan = std::move(plan);
    detector_ = FailureDetector(faults_.detector);
    checkpoints_ = CheckpointStore(faults_.checkpoint);
    recovery_ = RecoveryMetrics{};
    return Status::OK();
  }
  const FaultConfig& faults() const { return faults_; }
  const RecoveryMetrics& recovery_metrics() const { return recovery_; }

  /// \brief The engine's checkpoint store. Lets a serving plane (src/serve)
  /// watch for newly completed model generations mid-run — the
  /// train-and-serve mode of tools/colsgd_serve. Non-const because Latest()
  /// prunes damaged images as it verifies.
  CheckpointStore& checkpoint_store() { return checkpoints_; }

  /// \brief Materializes the full model in global layout
  /// (slot = feature * weights_per_feature + j). For tests and evaluation;
  /// not part of the simulated execution.
  virtual std::vector<double> FullModel() const = 0;

  const ModelSpec& model() const { return *model_; }
  ClusterRuntime& runtime() { return *runtime_; }
  const ClusterRuntime& runtime() const { return *runtime_; }
  const TrainConfig& config() const { return config_; }

  /// \brief Average per-point data loss of the last processed batch,
  /// evaluated against the model used to compute its gradients.
  double last_batch_loss() const { return last_batch_loss_; }
  double load_time() const { return load_time_; }

  /// \brief Finishes a training run: under SSP, drains the update pipeline
  /// (applies every in-flight update) and synchronizes the clocks, so the
  /// final model reflects every sent update exactly once. A no-op for BSP
  /// engines. RunTraining calls this after the last iteration; drivers that
  /// call RunIteration directly must call it themselves before reading
  /// final weights of an SSP run.
  virtual Status FinishTraining() { return Status::OK(); }

  /// \brief SSP update-pipeline accounting (empty for BSP runs).
  const SspAccounting& ssp_accounting() const { return ssp_; }

 protected:
  /// \brief The engine's BSP iteration body (compute + communication).
  virtual Status DoRunIteration(int64_t iteration) = 0;

  /// \brief Applies every in-flight SSP update and synchronizes the cluster
  /// (a pipeline fence). RunIteration calls this before fault events,
  /// membership changes, and checkpoints so those paths always see a fully
  /// synchronized model — exactly-once update accounting stays structural
  /// across crashes and grows/shrinks. Default: nothing in flight.
  virtual Status DrainSsp(int64_t iteration) {
    (void)iteration;
    return Status::OK();
  }

  /// \brief Repairs the engine's state after `event.worker` died: reload or
  /// re-seed its data, restore or re-initialize its model partition, and
  /// charge the simulated cost. Engines update `recovery_.iterations_lost`
  /// themselves; detection delay, recovery time, and retransferred bytes are
  /// measured by the caller (ProcessFaults). The default engine loses
  /// nothing and pays nothing (a stateless worker).
  virtual void RecoverWorkerFailure(const FaultEvent& event) { (void)event; }

  /// \brief Whether the engine implements ApplyMembershipChange; set_faults
  /// rejects plans with scripted grow/shrink events on engines that don't.
  virtual bool SupportsMembership() const { return false; }

  /// \brief Applies one scripted grow/shrink event to the engine's state
  /// (ownership reassignment, state handoff, re-replication) and charges the
  /// simulated cost. The caller (ProcessMembership) measures the time and
  /// bytes around it.
  virtual Status ApplyMembershipChange(const MembershipChange& change) {
    (void)change;
    return Status::InvalidArgument(name() +
                                   " cannot change cluster membership");
  }

  /// \brief Charges the traffic of gathering the model to the master for a
  /// checkpoint. Engines whose current model already lives at the master (or
  /// a master-equivalent) charge nothing.
  virtual void ChargeCheckpointGather() {}

  /// \brief Replicated shared parameters to include in checkpoints.
  virtual std::vector<double> SharedCheckpointParams() const { return {}; }

  /// \brief Engine-specific default driver overhead per iteration.
  double SchedOverhead(double engine_default) const {
    return config_.sched_overhead >= 0.0 ? config_.sched_overhead
                                         : engine_default;
  }

  /// \brief Accumulator for the squared l2 norm of this iteration's applied
  /// gradients, or nullptr when no TimeSeriesRecorder, its only reader, is
  /// attached. RunIteration resets it to NaN; engines pass this to
  /// ApplySparseUpdate or ShardedUpdate::Apply (or add g*g terms to it when
  /// it is not null), and this call zeroes a NaN. A NaN at the end of the
  /// iteration means "not measured" and stays NaN in the telemetry.
  double* grad_sq_accum() {
    if (recorder_ == nullptr) return nullptr;
    if (std::isnan(last_grad_sq_)) last_grad_sq_ = 0.0;
    return &last_grad_sq_;
  }

  /// \brief Marks a master-timeline phase boundary at the current master
  /// clock. Engines bracket their DoRunIteration body with these so the
  /// phase breakdown tiles the iteration's master-clock delta exactly.
  void TracePhase(Phase phase) {
    TracePhaseAt(phase, runtime_->clock(runtime_->master()));
  }
  /// \brief A phase boundary at master time `t`, for the SSP bodies, whose
  /// master waits end at computed times.
  void TracePhaseAt(Phase phase, SimTime t) {
    for (SimObserver* o : runtime_->observers()) o->OnPhase(phase, t);
  }

  /// \brief Fires this iteration's fault events: task failures charge
  /// exponential-backoff retries on the failed worker; worker failures
  /// charge heartbeat detection on the master, invoke the engine's recovery
  /// path, and measure recovery time + retransferred bytes. Events that
  /// target already-departed workers are skipped (no spurious recovery).
  void ProcessFaults(int64_t iteration);

  /// \brief Fires this iteration's scripted membership changes (before the
  /// fault events): charges the planned-handoff control exchange on the
  /// master, invokes ApplyMembershipChange, and measures the time and bytes
  /// the change moved.
  Status ProcessMembership(int64_t iteration);

  /// \brief Takes a periodic checkpoint of the full model via model_io,
  /// charging gather traffic and the stable-storage write.
  Status MaybeCheckpoint(int64_t iteration);

  /// \brief Point-to-point send subject to the plan's data-plane fault
  /// processes, in order: a severed partition link burns bounded retransmit
  /// backoff before a copy crosses; a dropped message burns wire time, then
  /// the sender waits out the ack timeout and retransmits; a corrupted
  /// message arrives, fails the receiver's CRC32C frame check, is NACK'd
  /// back, and the sender retransmits a clean copy. Under a wire-integrity
  /// plan every message is framed (kFrameOverheadBytes extra on the wire)
  /// and the receiver's verification sweep is charged; fault-free plans
  /// keep the unframed byte counts (DESIGN.md §10). Returns the delivery
  /// time of the copy that arrives intact.
  SimTime SendWithFaults(NodeId from, NodeId to, uint64_t bytes,
                         int64_t iteration);

  /// \brief SendWithFaults minus the receiver-clock synchronization:
  /// clock-gated delivery for the SSP pipeline. ClusterRuntime::Send jumps
  /// the receiver's clock to the arrival time — correct when the receiver
  /// genuinely blocks on the message, but an SSP broadcast must NOT stall
  /// its consumers (they pick the message up when their own clock passes the
  /// arrival). Same fault processes and recovery accounting; the receiver's
  /// CRC sweep under wire integrity is folded into the returned availability
  /// time instead of the receiver's clock (DESIGN.md §15 charging rules).
  /// Returns the time the intact copy becomes available at the receiver.
  SimTime GatedSendWithFaults(NodeId from, NodeId to, uint64_t bytes,
                              int64_t iteration);

  /// \brief Deterministic SSP compute jitter for (worker, iteration): a
  /// stateless-hash draw in [0, config_.ssp.compute_jitter], multiplied
  /// into the worker's task seconds like a fractional straggler level.
  double SspJitterLevel(int64_t iteration, int worker) const;

  /// \brief Straggler level of `worker` on `iteration` under the plan.
  double StragglerLevelFor(int64_t iteration, int worker) const {
    return faults_.plan.StragglerLevel(iteration, worker);
  }

  /// \brief Newest checkpoint that passes its integrity check, or nullptr
  /// when none is loadable. Damaged images (torn writes, bit rot) are
  /// detected by their CRC32C trailer and skipped; each skip is counted in
  /// recovery_.checkpoint_fallbacks so storage-integrity faults are visible
  /// in RecoveryMetrics.
  const SavedModel* LatestCheckpoint() {
    CheckpointRestoreStats stats;
    const SavedModel* model = checkpoints_.Latest(&stats);
    recovery_.checkpoint_fallbacks += stats.fallbacks;
    return model;
  }

  /// \brief Charges a stable-storage read of `bytes` on `node`'s clock
  /// (checkpoint restore). Counted in checkpoint_restore_reads — the
  /// peer-recovery invariant is that replicated crashes keep this at zero.
  void ChargeCheckpointRead(NodeId node, uint64_t bytes) {
    ++recovery_.checkpoint_restore_reads;
    runtime_->AdvanceClock(
        node, static_cast<double>(bytes) / faults_.checkpoint.disk_bandwidth);
  }

  ClusterSpec cluster_spec_;
  TrainConfig config_;
  std::unique_ptr<ClusterRuntime> runtime_;
  std::unique_ptr<ModelSpec> model_;
  FaultConfig faults_;
  FailureDetector detector_;
  CheckpointStore checkpoints_;
  RecoveryMetrics recovery_;
  Tracer* tracer_ = nullptr;
  CritPathRecorder* critpath_ = nullptr;
  TimeSeriesRecorder* recorder_ = nullptr;
  SspAccounting ssp_;
  double last_batch_loss_ = std::numeric_limits<double>::quiet_NaN();
  double last_grad_sq_ = std::numeric_limits<double>::quiet_NaN();
  double load_time_ = 0.0;

 private:
  /// \brief The copies of `wire_bytes` the plan loses before one crosses,
  /// shared by SendWithFaults and GatedSendWithFaults: the retransmit
  /// backoff of a severed partition link, then a dropped copy and its ack
  /// timeout.
  void SendLostCopies(NodeId from, NodeId to, uint64_t wire_bytes,
                      int64_t iteration);
};

/// \brief The update of every block `grad` touched, in touched order: g =
/// sum / batch_total + reg.Grad(w), then on_grad(i, j, g), for each slot
/// touched()[i] + j in ascending order, then one optimizer->ApplyBlock on
/// the block (bit for bit the update slot by slot: a slot's g reads only its
/// own weight). The caller runs BeginStep. Writes only the touched slots of
/// `weights` and their `opt_state`. With `prefetch_blocks` > 0, asks the
/// cache for the weights of the block that many ahead before each block; a
/// prefetch changes no bit.
template <class OnGrad>
void ApplyGradBlocks(const GradAccumulator& grad, size_t batch_total,
                     const RegularizerConfig& reg, Optimizer* optimizer,
                     double* weights, double* opt_state,
                     size_t prefetch_blocks, OnGrad on_grad) {
  const double inv_batch = 1.0 / static_cast<double>(batch_total);
  const size_t sps = static_cast<size_t>(optimizer->state_per_slot());
  const size_t width = static_cast<size_t>(grad.width());
  const std::vector<uint64_t>& blocks = grad.touched();
  const double* sums = grad.sums().data();
  std::vector<double> g(width);
  for (size_t i = 0; i < blocks.size(); ++i) {
    if (prefetch_blocks > 0 && i + prefetch_blocks < blocks.size()) {
      kernels::Prefetch(weights + blocks[i + prefetch_blocks], width);
    }
    double* w = weights + blocks[i];
    for (size_t j = 0; j < width; ++j) {
      g[j] = sums[i * width + j] * inv_batch + reg.Grad(w[j]);
      on_grad(i, j, g[j]);
    }
    optimizer->ApplyBlock(w, g.data(),
                          sps > 0 ? opt_state + blocks[i] * sps : nullptr,
                          width);
  }
}

/// \brief Applies accumulated gradients (summed over `batch_total` points)
/// to `weights` via `optimizer`, adding regularization on touched slots, and
/// resets the accumulator. Returns the number of touched slots. When
/// `grad_sq` is given, the squared l2 norm of the applied (averaged,
/// regularized) gradient is added to it — telemetry only, never charged to
/// simulated time (Engine::grad_sq_accum).
inline size_t ApplySparseUpdate(GradAccumulator* grad, size_t batch_total,
                                const RegularizerConfig& reg,
                                Optimizer* optimizer,
                                std::vector<double>* weights,
                                std::vector<double>* opt_state,
                                FlopCounter* flops,
                                double* grad_sq = nullptr) {
  optimizer->BeginStep();
  double sq = 0.0;
  ApplyGradBlocks(*grad, batch_total, reg, optimizer, weights->data(),
                  opt_state->data(), /*prefetch_blocks=*/0,
                  [&](size_t, size_t, double g) { sq += g * g; });
  if (grad_sq != nullptr) *grad_sq += sq;
  const size_t num_touched = grad->sums().size();
  if (flops != nullptr) flops->Add(8 * num_touched);
  grad->Reset();
  return num_touched;
}

}  // namespace colsgd

#endif  // COLSGD_ENGINE_API_H_
