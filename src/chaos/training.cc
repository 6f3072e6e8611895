// The training scenarios (DESIGN.md §10, §14, §15). All three run one
// faulted training job per schedule and check the shared invariants:
//
//   1. complete-or-clean-diagnosis: the run finishes or fails with a
//      proper Status; membership and ssp runs must complete;
//   2. byte conservation: sent == received, and the per-iteration
//      telemetry tiles the run's traffic exactly;
//   3. detected, never trained on: every dropped or corrupted payload is
//      retransmitted, and checkpoint fallbacks never exceed damaged images;
//   4. convergence: the final loss lands within (1 + epsilon) of the
//      fault-free run's, plus a small absolute slack.
//
// membership adds exact event accounting, peer-replica recovery with zero
// checkpoint reads and re-seeds, and final weights bit-identical to the
// fixed-membership run. ssp adds exactly-once update accounting, the
// staleness bound, and slack 0 reproducing BSP bit-for-bit.
#include <algorithm>
#include <cmath>
#include <iterator>
#include <set>
#include <utility>

#include "chaos/scenarios.h"
#include "common/check.h"
#include "common/crc32c.h"
#include "common/csv.h"
#include "common/rng.h"
#include "datagen/synthetic.h"
#include "engine/trainer.h"
#include "obs/bench/timeseries.h"

namespace colsgd {
namespace chaos {
namespace {

constexpr double kAbsLossSlack = 0.05;
constexpr uint64_t kDataSeed = 42;

/// \brief A drawn schedule: the fault plan, the checkpoint policy paired
/// with it, and the execution-mode knobs membership and ssp draw.
struct TrainingSchedule {
  FaultPlanConfig plan;
  int64_t checkpoint_every = 0;
  int replication = 0;          // membership: extra in-memory block copies
  int slack = 0;                // ssp: staleness bound
  double compute_jitter = 0.0;  // ssp: per-(iteration, worker) jitter
};

/// \brief The plan's probabilistic processes, in component order.
constexpr std::pair<const char*, double FaultPlanConfig::*> kProcesses[] = {
    {"task_mtbf", &FaultPlanConfig::task_mtbf_iters},
    {"worker_mtbf", &FaultPlanConfig::worker_mtbf_iters},
    {"drop", &FaultPlanConfig::message_drop_prob},
    {"corrupt", &FaultPlanConfig::message_corrupt_prob},
    {"torn", &FaultPlanConfig::torn_checkpoint_prob},
    {"bitrot", &FaultPlanConfig::checkpoint_bitrot_prob},
};

template <typename T>
void Fold(uint32_t* crc, T value) {
  *crc = ExtendCrc32c(*crc, &value, sizeof(value));
}

uint32_t WeightsCrc(const std::vector<double>& weights) {
  return ExtendCrc32c(0, weights.data(), weights.size() * sizeof(double));
}

/// \brief Invariant 2: the network model's totals balance and the
/// per-iteration telemetry tiles the measured training traffic.
void CheckConservation(Engine& engine, const TimeSeriesRecorder& recorder,
                       uint64_t bytes_on_wire, Verdict* verdict) {
  const TrafficStats total = engine.runtime().net().TotalStats();
  if (total.bytes_sent != total.bytes_received) {
    verdict->violations.push_back(
        "byte conservation: bytes_sent " + std::to_string(total.bytes_sent) +
        " != bytes_received " + std::to_string(total.bytes_received));
  }
  if (total.messages_sent != total.messages_received) {
    verdict->violations.push_back("byte conservation: message totals differ");
  }
  uint64_t series_bytes = 0;
  bool per_node_tiles = true;
  for (const TimeSeriesSample& s : recorder.samples()) {
    series_bytes += s.bytes_on_wire;
    uint64_t node_sum = 0;
    for (uint64_t b : s.bytes_sent_per_node) node_sum += b;
    per_node_tiles &= node_sum == s.bytes_on_wire;
  }
  if (series_bytes != bytes_on_wire) {
    verdict->violations.push_back(
        "telemetry does not tile traffic: series bytes " +
        std::to_string(series_bytes) + " != bytes_on_wire " +
        std::to_string(bytes_on_wire));
  }
  if (!per_node_tiles) {
    verdict->violations.push_back(
        "telemetry does not tile traffic: per-node bytes != iteration bytes");
  }
}

/// \brief Canonical outputs of a completed run, folded in a fixed order.
uint32_t RunFingerprint(Engine& engine, const RecoveryMetrics& rm,
                        const TimeSeriesRecorder& recorder) {
  uint32_t crc = WeightsCrc(engine.FullModel());
  Fold(&crc, engine.runtime().MaxClock());
  const TrafficStats total = engine.runtime().net().TotalStats();
  for (uint64_t v : {total.bytes_sent, total.bytes_received,
                     total.messages_sent, total.messages_received}) {
    Fold(&crc, v);
  }
  for (int64_t v :
       {rm.task_failures, rm.worker_failures, rm.messages_dropped,
        rm.messages_corrupted, rm.retransmits, rm.partition_blocked_sends,
        rm.checkpoints_taken, rm.checkpoints_corrupted,
        rm.checkpoint_fallbacks, rm.iterations_lost,
        static_cast<int64_t>(rm.bytes_retransferred), rm.peer_replica_fetches,
        static_cast<int64_t>(rm.peer_fetch_bytes), rm.replica_crc_rejections,
        rm.checkpoint_restore_reads, rm.reseeds, rm.planned_departures,
        rm.grows, rm.crash_removals, rm.faults_on_departed_workers}) {
    Fold(&crc, v);
  }
  Fold(&crc, rm.membership_seconds);
  Fold(&crc, rm.membership_bytes_moved);
  for (const TimeSeriesSample& s : recorder.samples()) {
    Fold(&crc, s.iteration);
    Fold(&crc, s.sim_time);
    Fold(&crc, s.bytes_on_wire);
    Fold(&crc, s.messages);
  }
  return crc;
}

/// \brief The fault plan's part of a schedule summary, each item followed
/// by a space.
std::string DescribePlan(const TrainingSchedule& s) {
  const FaultPlanConfig& plan = s.plan;
  std::string out;
  for (const MembershipChange& m : plan.membership) {
    out += (m.kind == MembershipChange::Kind::kShrink ? "shrink(@" : "grow(@") +
           std::to_string(m.iteration) + ") ";
  }
  for (const FaultEvent& e : plan.scripted) {
    out += (e.kind == FaultKind::kWorkerFailure ? "crash(w" : "taskfail(w") +
           std::to_string(e.worker) + "@" + std::to_string(e.iteration) +
           ") ";
  }
  for (const NetworkPartitionSpec& p : plan.partitions) {
    out += "partition(@" + std::to_string(p.start_iteration) + "+" +
           std::to_string(p.iterations) + " side_a={";
    for (size_t i = 0; i < p.side_a.size(); ++i) {
      // Two appends: `"," + std::to_string(...)` made GCC 12 report a
      // spurious -Wrestrict from the inlined string insert.
      if (i > 0) out += ",";
      out += std::to_string(p.side_a[i]);
    }
    out += "}) ";
  }
  if (plan.worker_mtbf_iters > 0.0) {
    out += "worker_mtbf(" + FormatDouble(plan.worker_mtbf_iters) + ") ";
  }
  if (plan.task_mtbf_iters > 0.0) {
    out += "task_mtbf(" + FormatDouble(plan.task_mtbf_iters) + ") ";
  }
  if (plan.message_drop_prob > 0.0) {
    out += "drop(" + FormatDouble(plan.message_drop_prob) + ") ";
  }
  if (plan.message_corrupt_prob > 0.0) {
    out += "corrupt(" + FormatDouble(plan.message_corrupt_prob) + ") ";
  }
  if (plan.stragglers.mode != StragglerSpec::Mode::kNone) {
    out += "stragglers(L" + FormatDouble(plan.stragglers.level) + ") ";
  }
  if (s.checkpoint_every > 0) {
    out += "ckpt(every " + std::to_string(s.checkpoint_every);
    if (plan.torn_checkpoint_prob > 0.0) {
      out += ", torn " + FormatDouble(plan.torn_checkpoint_prob);
    }
    if (plan.checkpoint_bitrot_prob > 0.0) {
      out += ", bitrot " + FormatDouble(plan.checkpoint_bitrot_prob);
    }
    out += ") ";
  }
  return out;
}

/// \brief --scenario train: randomized fault schedules against every
/// training engine. The base of the membership and ssp scenarios, which
/// swap in their own generator, engine mode and extra invariants.
class TrainScenario : public Scenario {
 public:
  void AddFlags(FlagParser* flags) override {
    flags->AddInt64("workers", &workers_, "cluster size");
    flags->AddInt64("iterations", &iterations_, "SGD iterations per run");
    flags->AddInt64("batch_size", &batch_size_, "mini-batch size");
    flags->AddInt64("block_rows", &block_rows_, "rows per storage block");
    flags->AddDouble("learning_rate", &learning_rate_, "SGD step size");
    flags->AddInt64("data_rows", &data_rows_, "synthetic dataset rows");
    flags->AddInt64("data_features", &data_features_,
                    "synthetic dataset dim");
    flags->AddDouble("epsilon", &epsilon_,
                     "convergence tolerance vs the fault-free run");
  }

  std::vector<std::string> Engines() const override {
    return {"columnsgd", "mllib", "mllib_star", "petuum", "mxnet"};
  }

  Status Validate(const ModelSpec& /*model*/,
                  const std::vector<std::string>& engines) const override {
    COLSGD_RETURN_NOT_OK(CheckCounts(
        {{"workers", workers_}, {"iterations", iterations_},
         {"batch_size", batch_size_}, {"block_rows", block_rows_},
         {"data_rows", data_rows_}, {"data_features", data_features_}}));
    if (!std::isfinite(learning_rate_) || !(learning_rate_ > 0.0)) {
      return Status::InvalidArgument(
          "--learning_rate must be a finite number above 0");
    }
    // A negative tolerance fails every seed on purpose, which is how the
    // shrinker and the repro artifact are exercised; NaN or infinity would
    // pass every seed without checking anything.
    if (!std::isfinite(epsilon_)) {
      return Status::InvalidArgument("--epsilon must be finite");
    }
    // Row engines deal whole blocks to the workers round-robin, so every
    // worker gets rows exactly when there are at least as many blocks as
    // workers (colsgd_train applies the same rule).
    const int64_t blocks =
        data_rows_ / block_rows_ + (data_rows_ % block_rows_ != 0);
    for (const std::string& engine : engines) {
      if (engine != "columnsgd" && blocks < workers_) {
        return Status::InvalidArgument(
            "engine " + engine + " deals blocks of --block_rows rows to the "
            "workers round-robin: --data_rows " + std::to_string(data_rows_) +
            " make " + std::to_string(blocks) + " block(s) for " +
            std::to_string(workers_) + " --workers");
      }
    }
    return Status::OK();
  }

  std::string Prepare(const std::string& engine,
                      const std::string& model) override {
    engine_ = engine;
    model_ = model;
    SyntheticSpec spec = TinySpec();
    spec.name = "chaos-sim";
    spec.num_rows = static_cast<uint64_t>(data_rows_);
    spec.num_features = static_cast<uint64_t>(data_features_);
    spec.seed = kDataSeed;
    dataset_ = GenerateSynthetic(spec);
    // The fault-free yardstick of the plain engine.
    auto clean = MakeEngine(engine_, Cluster(), Config());
    const TrainResult result = RunTraining(clean.get(), dataset_, Options());
    COLSGD_CHECK(result.status.ok())
        << "fault-free baseline failed: " << result.status.ToString();
    const std::vector<double> weights = clean->FullModel();
    clean_crc_ = WeightsCrc(weights);
    clean_loss_ =
        EvaluateLoss(clean->model(), weights, dataset_, dataset_.num_rows());
    return "fault-free loss " + FormatDouble(clean_loss_);
  }

  std::vector<std::string> Components(uint64_t seed) const override {
    const TrainingSchedule s = Generate(seed);
    std::vector<std::string> components;
    ListIndexed(s.plan.scripted, "scripted", &components);
    ListIndexed(s.plan.partitions, "partition", &components);
    for (const auto& [name, rate] : kProcesses) {
      if (s.plan.*rate > 0.0) components.push_back(name);
    }
    if (s.plan.stragglers.mode != StragglerSpec::Mode::kNone) {
      components.push_back("stragglers");
    }
    if (s.checkpoint_every > 0) components.push_back("checkpoint");
    return components;
  }

  std::string Describe(uint64_t seed,
                       const Disabled& disabled) const override {
    const TrainingSchedule s = Draw(seed, disabled);
    std::string out = Prefix(s) + DescribePlan(s);
    if (out.empty()) return "(fault-free)";
    out.pop_back();
    return out;
  }

  Verdict Run(uint64_t seed, const Disabled& disabled) const override {
    const TrainingSchedule s = Draw(seed, disabled);
    Verdict verdict;
    std::unique_ptr<Engine> engine;
    const Status armed = Arm(s, /*plain=*/false, &engine);
    if (!armed.ok()) {
      verdict.violations.push_back(armed.message());
      return verdict;
    }
    TimeSeriesRecorder recorder;
    engine->set_recorder(&recorder);
    const TrainResult result = RunTraining(engine.get(), dataset_, Options());
    engine->set_recorder(nullptr);
    const RecoveryMetrics& rm = result.recovery;
    verdict.metrics = {
        {"clean_loss", clean_loss_},
        {"messages_dropped", static_cast<double>(rm.messages_dropped)},
        {"messages_corrupted", static_cast<double>(rm.messages_corrupted)},
        {"retransmits", static_cast<double>(rm.retransmits)},
        {"peer_replica_fetches", static_cast<double>(rm.peer_replica_fetches)},
        {"checkpoint_restore_reads",
         static_cast<double>(rm.checkpoint_restore_reads)},
        {"reseeds", static_cast<double>(rm.reseeds)}};

    if (!result.status.ok()) {
      // Invariant 1: a failed run must carry a diagnosis.
      verdict.diagnosis = result.status.ToString();
      if (must_complete_ || result.status.message().empty()) {
        verdict.violations.push_back("run did not complete: " +
                                     verdict.diagnosis);
      }
      verdict.fingerprint = ExtendCrc32c(0, verdict.diagnosis.data(),
                                         verdict.diagnosis.size());
      return verdict;
    }
    verdict.completed = true;
    CheckConservation(*engine, recorder, result.bytes_on_wire, &verdict);

    // Invariant 3: integrity faults are detected and repaired, never
    // absorbed.
    if (rm.retransmits < rm.messages_corrupted + rm.messages_dropped) {
      verdict.violations.push_back(
          "corruption/drop not retransmitted: retransmits " +
          std::to_string(rm.retransmits) + " < corrupted " +
          std::to_string(rm.messages_corrupted) + " + dropped " +
          std::to_string(rm.messages_dropped));
    }
    if (rm.checkpoint_fallbacks > rm.checkpoints_corrupted) {
      verdict.violations.push_back(
          "checkpoint fallbacks exceed damaged checkpoints");
    }

    uint32_t fingerprint = RunFingerprint(*engine, rm, recorder);
    Check(*engine, s, rm, &verdict, &fingerprint);

    // Invariant 4: convergence within epsilon of the fault-free run.
    const double loss = EvaluateLoss(engine->model(), engine->FullModel(),
                                     dataset_, dataset_.num_rows());
    verdict.metrics.push_back({"fault_loss", loss});
    if (!std::isfinite(loss) ||
        loss > clean_loss_ * (1.0 + epsilon_) + kAbsLossSlack) {
      verdict.violations.push_back(
          "did not re-converge: faulty loss " + FormatDouble(loss) +
          " vs fault-free " + FormatDouble(clean_loss_) + " (epsilon " +
          FormatDouble(epsilon_) + ")");
    }
    verdict.fingerprint = fingerprint;
    return verdict;
  }

 protected:
  /// \brief Draws the schedule from a private stream per seed: every draw
  /// is a fixed position in it, so (seed, workers, iterations) fully
  /// determines the schedule.
  virtual TrainingSchedule Generate(uint64_t seed) const {
    Rng rng(SplitMix64(seed ^ 0xC4A05C4A05ULL));
    TrainingSchedule schedule;
    FaultPlanConfig& plan = schedule.plan;
    const int workers = static_cast<int>(workers_);
    plan.seed = SplitMix64(seed);
    plan.num_workers = workers;

    const int64_t early = std::max<int64_t>(2, iterations_ / 3);
    const auto random_worker = [&] {
      return static_cast<int>(rng.NextBounded(workers));
    };

    // Crashes: up to two scripted worker failures (possibly the same
    // iteration, the compound case) and a scripted task failure.
    if (rng.NextBernoulli(0.5)) {
      plan.scripted.push_back(
          {1 + static_cast<int64_t>(rng.NextBounded(early)), random_worker(),
           FaultKind::kWorkerFailure});
    }
    if (rng.NextBernoulli(0.3)) {
      plan.scripted.push_back(
          {1 + static_cast<int64_t>(rng.NextBounded(early)), random_worker(),
           FaultKind::kWorkerFailure});
    }
    if (rng.NextBernoulli(0.4)) {
      plan.scripted.push_back(
          {1 + static_cast<int64_t>(rng.NextBounded(early)), random_worker(),
           FaultKind::kTaskFailure});
    }

    // Lossy wire: drops and corruption.
    if (rng.NextBernoulli(0.45)) {
      plan.message_drop_prob = rng.NextUniform(0.01, 0.08);
    }
    if (rng.NextBernoulli(0.45)) {
      plan.message_corrupt_prob = rng.NextUniform(0.01, 0.08);
    }

    // A group-split partition window.
    if (rng.NextBernoulli(0.4) && workers >= 2) {
      NetworkPartitionSpec window;
      window.start_iteration =
          1 + static_cast<int64_t>(rng.NextBounded(early));
      window.iterations = 1 + static_cast<int64_t>(rng.NextBounded(3));
      const int side = 1 + static_cast<int>(rng.NextBounded(workers - 1));
      for (int w = 0;
           w < workers && static_cast<int>(window.side_a.size()) < side;
           ++w) {
        if (rng.NextBernoulli(0.5) ||
            workers - w <= side - static_cast<int>(window.side_a.size())) {
          window.side_a.push_back(w);
        }
      }
      plan.partitions.push_back(std::move(window));
    }

    // Stragglers.
    if (rng.NextBernoulli(0.3)) {
      plan.stragglers.mode = StragglerSpec::Mode::kRotating;
      plan.stragglers.level = rng.NextUniform(0.5, 2.0);
      plan.stragglers.level_hi =
          plan.stragglers.level + rng.NextUniform(0.0, 1.0);
    }

    // Protection policy + storage damage. Torn/bit-rot probabilities are
    // high on purpose: a short run takes only a handful of checkpoints, and
    // the interesting seeds are the ones where damage actually lands.
    if (rng.NextBernoulli(0.6)) {
      schedule.checkpoint_every = std::max<int64_t>(
          2, iterations_ / static_cast<int64_t>(2 + rng.NextBounded(4)));
      if (rng.NextBernoulli(0.4)) {
        plan.torn_checkpoint_prob = rng.NextUniform(0.3, 0.7);
      }
      if (rng.NextBernoulli(0.3)) {
        plan.checkpoint_bitrot_prob = rng.NextUniform(0.2, 0.5);
      }
    }

    // A rare background worker-failure process on top of everything else.
    if (rng.NextBernoulli(0.15)) {
      plan.worker_mtbf_iters =
          static_cast<double>(iterations_) * rng.NextUniform(2.0, 4.0);
    }
    return schedule;
  }

  /// \brief The mode knobs' part of the schedule summary, ending in a
  /// space when not empty.
  virtual std::string Prefix(const TrainingSchedule& /*schedule*/) const {
    return "";
  }

  /// \brief Switches the engine into the scenario's execution mode.
  virtual void Configure(const TrainingSchedule& /*schedule*/,
                         ClusterSpec* /*cluster*/,
                         TrainConfig* /*config*/) const {}

  /// \brief The scenario's own invariants on a completed run; may fold
  /// more state into `fingerprint`.
  virtual void Check(Engine& /*engine*/, const TrainingSchedule& /*schedule*/,
                     const RecoveryMetrics& /*rm*/, Verdict* /*verdict*/,
                     uint32_t* /*fingerprint*/) const {}

  /// \brief Builds an engine armed with `s`'s fault plan, in the scenario's
  /// mode or (`plain`) as the fixed-membership BSP engine.
  Status Arm(const TrainingSchedule& s, bool plain,
             std::unique_ptr<Engine>* engine) const {
    Result<FaultPlan> plan = FaultPlan::Create(s.plan);
    if (!plan.ok()) {
      return Status::InvalidArgument(
          "generated schedule rejected by Validate: " +
          plan.status().ToString());
    }
    ClusterSpec cluster = Cluster();
    TrainConfig config = Config();
    if (!plain) Configure(s, &cluster, &config);
    *engine = MakeEngine(engine_, cluster, config);
    FaultConfig faults;
    faults.plan = std::move(*plan);
    faults.checkpoint.every = s.checkpoint_every;
    const Status installed = (*engine)->set_faults(faults);
    if (!installed.ok()) {
      return Status::InvalidArgument("set_faults rejected a validated plan: " +
                                     installed.ToString());
    }
    return Status::OK();
  }

  RunOptions Options() const {
    RunOptions run;
    run.iterations = iterations_;
    return run;
  }

  int64_t workers_ = 4;
  int64_t iterations_ = 24;
  bool must_complete_ = false;
  std::string engine_;
  Dataset dataset_;
  double clean_loss_ = 0.0;
  uint32_t clean_crc_ = 0;

 private:
  ClusterSpec Cluster() const {
    ClusterSpec spec = ClusterSpec::Cluster1();
    spec.num_workers = static_cast<int>(workers_);
    return spec;
  }

  TrainConfig Config() const {
    TrainConfig config;
    config.model = model_;
    config.learning_rate = learning_rate_;
    config.batch_size = static_cast<size_t>(batch_size_);
    config.block_rows = static_cast<size_t>(block_rows_);
    return config;
  }

  /// \brief The schedule drawn from `seed` minus the disabled components.
  TrainingSchedule Draw(uint64_t seed, const Disabled& disabled) const {
    TrainingSchedule s = Generate(seed);
    DropIndexed(&s.plan.scripted, "scripted", disabled);
    DropIndexed(&s.plan.partitions, "partition", disabled);
    for (const auto& [name, rate] : kProcesses) {
      if (disabled.count(name) != 0) s.plan.*rate = 0.0;
    }
    if (disabled.count("stragglers") != 0) s.plan.stragglers = {};
    if (disabled.count("checkpoint") != 0) {
      s.checkpoint_every = 0;
      s.plan.torn_checkpoint_prob = 0.0;
      s.plan.checkpoint_bitrot_prob = 0.0;
    }
    return s;
  }

  int64_t batch_size_ = 128;
  int64_t block_rows_ = 256;
  double learning_rate_ = 0.5;
  int64_t data_rows_ = 2000;
  int64_t data_features_ = 300;
  /// Convergence tolerance: fault_loss <= clean_loss * (1 + epsilon) + slack.
  double epsilon_ = 0.25;
  std::string model_;
};

/// \brief --scenario membership: scripted grow/shrink events mixed with
/// crashes against a cluster whose partitions keep r+1 in-memory copies
/// (DESIGN.md §14). Crashes and grow/shrink events are not shrinkable
/// components: they are coupled to the mirrored active set, so dropping one
/// retargets the others (a grow may then find no spare rank left).
class MembershipScenario : public TrainScenario {
 public:
  MembershipScenario() { must_complete_ = true; }

  void AddFlags(FlagParser* flags) override {
    TrainScenario::AddFlags(flags);
    flags->AddInt64("replication", &replication_,
                    "extra block copies r (-1 draws 1..3 per seed)");
    flags->AddInt64("spares", &spares_, "spare ranks a grow can activate");
  }

  std::vector<std::string> Engines() const override {
    return {"columnsgd", "petuum", "mxnet"};
  }

  Status Validate(const ModelSpec& model,
                  const std::vector<std::string>& engines) const override {
    COLSGD_RETURN_NOT_OK(TrainScenario::Validate(model, engines));
    // Every crash must recover from a peer replica, so a schedule needs a
    // second worker and at least one extra copy.
    if (workers_ < 2) {
      return Status::InvalidArgument("membership needs --workers >= 2");
    }
    if (replication_ != -1 && (replication_ < 1 || replication_ >= workers_)) {
      return Status::InvalidArgument(
          "--replication must be -1 (drawn per seed) or lie in [1, "
          "--workers)");
    }
    if (spares_ < 0) return Status::InvalidArgument("--spares must be >= 0");
    return Status::OK();
  }

  std::vector<std::string> Components(uint64_t seed) const override {
    std::vector<std::string> components = TrainScenario::Components(seed);
    std::erase_if(components, [](const std::string& c) {
      return c.rfind("scripted:", 0) == 0;
    });
    return components;
  }

 protected:
  std::string Prefix(const TrainingSchedule& s) const override {
    return "r=" + std::to_string(s.replication) + " ";
  }

  /// \brief At most one event per iteration, mirroring the engines'
  /// auto-pick rules so every event is valid when it fires. No partition
  /// windows (spare ranks break the group-split worker mapping) and no MTBF
  /// processes (unscripted crashes cannot be mirrored).
  TrainingSchedule Generate(uint64_t seed) const override {
    const int workers = static_cast<int>(workers_);
    const int spares = static_cast<int>(spares_);
    Rng rng(SplitMix64(seed ^ 0x3E3A571C05EEDULL));
    TrainingSchedule out;
    out.replication =
        replication_ >= 0
            ? static_cast<int>(replication_)
            : 1 + static_cast<int>(rng.NextBounded(
                      static_cast<uint64_t>(std::min(3, workers - 1))));
    FaultPlanConfig& plan = out.plan;
    plan.seed = SplitMix64(seed);
    // Spare ranks count toward the plan's worker universe so scripted
    // events may name grown ranks.
    const int max_ranks = workers + spares;
    plan.num_workers = max_ranks;

    // Shrink removes the highest active rank, grow adds the lowest inactive
    // one; at most one event per iteration keeps ordering trivial.
    std::set<int> active;
    std::set<int> departed_once;
    for (int w = 0; w < workers; ++w) active.insert(w);
    int64_t crashes = 0;
    for (int64_t iter = 2; iter + 1 < iterations_; ++iter) {
      if (!rng.NextBernoulli(0.18)) continue;
      // Initial ranks that never left own their seed partition for the
      // whole run, so a crash aimed at one must exercise a peer-replica
      // fetch. Spares and rejoined ranks may hold nothing.
      std::vector<int> crashable;
      for (int w : active) {
        if (w < workers && departed_once.count(w) == 0) {
          crashable.push_back(w);
        }
      }
      std::vector<int> kinds;  // 0 = crash, 1 = shrink, 2 = grow
      const bool can_remove = active.size() >= 3;
      if (can_remove && !crashable.empty()) kinds.push_back(0);
      if (can_remove) kinds.push_back(1);
      if (static_cast<int>(active.size()) < max_ranks) kinds.push_back(2);
      if (kinds.empty()) continue;
      const int kind = kinds[rng.NextBounded(kinds.size())];
      if (kind == 0) {
        const int w = crashable[rng.NextBounded(crashable.size())];
        plan.scripted.push_back({iter, w, FaultKind::kWorkerFailure});
        active.erase(w);
        departed_once.insert(w);
        ++crashes;
      } else if (kind == 1) {
        plan.membership.push_back({iter, MembershipChange::Kind::kShrink, -1});
        departed_once.insert(*std::prev(active.end()));
        active.erase(std::prev(active.end()));
      } else {
        plan.membership.push_back({iter, MembershipChange::Kind::kGrow, -1});
        for (int r = 0; r < max_ranks; ++r) {
          if (active.insert(r).second) break;
        }
      }
    }
    // A schedule with no events tests nothing: force one clean
    // decommission (and a grow when a spare exists) mid-run.
    if (plan.membership.empty() && crashes == 0) {
      if (workers >= 3) {
        plan.membership.push_back({std::max<int64_t>(2, iterations_ / 3),
                                   MembershipChange::Kind::kShrink, -1});
      }
      if (spares > 0) {
        plan.membership.push_back(
            {std::max<int64_t>(3, (2 * iterations_) / 3),
             MembershipChange::Kind::kGrow, -1});
      }
    }

    // A lossy wire and stragglers ride along.
    if (rng.NextBernoulli(0.35)) {
      plan.message_drop_prob = rng.NextUniform(0.01, 0.05);
    }
    if (rng.NextBernoulli(0.35)) {
      plan.message_corrupt_prob = rng.NextUniform(0.01, 0.05);
    }
    if (rng.NextBernoulli(0.25)) {
      plan.stragglers.mode = StragglerSpec::Mode::kRotating;
      plan.stragglers.level = rng.NextUniform(0.5, 1.5);
      plan.stragglers.level_hi =
          plan.stragglers.level + rng.NextUniform(0.0, 1.0);
    }
    // Checkpoints may be taken; the invariants prove they are never read.
    if (rng.NextBernoulli(0.5)) {
      out.checkpoint_every = std::max<int64_t>(
          2, iterations_ / static_cast<int64_t>(2 + rng.NextBounded(4)));
    }
    return out;
  }

  void Configure(const TrainingSchedule& s, ClusterSpec* cluster,
                 TrainConfig* config) const override {
    cluster->max_workers = static_cast<int>(workers_ + spares_);
    config->elastic.enabled = true;
    config->elastic.replication = s.replication;
  }

  void Check(Engine& engine, const TrainingSchedule& s,
             const RecoveryMetrics& rm, Verdict* verdict,
             uint32_t* /*fingerprint*/) const override {
    // Every scripted event is accounted for exactly once: no lost events,
    // no double-applied events, no spurious recoveries on departed ranks.
    int64_t shrinks = 0;
    int64_t grows = 0;
    for (const MembershipChange& m : s.plan.membership) {
      (m.kind == MembershipChange::Kind::kShrink ? shrinks : grows) += 1;
    }
    int64_t crashes = 0;
    for (const FaultEvent& e : s.plan.scripted) {
      crashes += e.kind == FaultKind::kWorkerFailure;
    }
    const auto expect = [verdict](const char* what, int64_t got,
                                  int64_t want) {
      if (got != want) {
        verdict->violations.push_back(std::string(what) + ": " +
                                      std::to_string(got) + " != scripted " +
                                      std::to_string(want));
      }
    };
    expect("planned_departures", rm.planned_departures, shrinks);
    expect("grows", rm.grows, grows);
    expect("worker_failures", rm.worker_failures, crashes);
    expect("crash_removals", rm.crash_removals, crashes);
    expect("faults_on_departed_workers", rm.faults_on_departed_workers, 0);

    // The recovery ladder stops at its top rung: every crash recovers
    // through an in-memory peer fetch (the generator only crashes
    // block-holding ranks), with no checkpoint read and no re-seed.
    if (crashes > 0 && rm.peer_replica_fetches < crashes) {
      verdict->violations.push_back(
          "crash did not recover via peer replicas: peer_replica_fetches " +
          std::to_string(rm.peer_replica_fetches) + " < crashes " +
          std::to_string(crashes));
    }
    if (rm.checkpoint_restore_reads != 0 || rm.reseeds != 0) {
      verdict->violations.push_back(
          "recovery fell below the peer-replica rung: " +
          std::to_string(rm.checkpoint_restore_reads) +
          " checkpoint read(s), " + std::to_string(rm.reseeds) +
          " reseed(s)");
    }

    // The §14 headline: with full replica coverage the elastic run
    // reproduces the fixed-membership run's weights bit-for-bit.
    const uint32_t crc = WeightsCrc(engine.FullModel());
    if (crc != clean_crc_) {
      verdict->violations.push_back(
          "final weights diverged from the fixed-membership run: crc " +
          std::to_string(crc) + " != " + std::to_string(clean_crc_));
    }
  }

 private:
  /// Extra in-memory copies per block; -1 draws r in [1, min(3, workers-1)]
  /// so every schedule carries a replica.
  int64_t replication_ = -1;
  /// Spare ranks a grow can activate: max_workers = workers + spares.
  int64_t spares_ = 2;
};

/// \brief --scenario ssp: slack, jitter, heavy rotating stragglers, crashes
/// and a lossy wire against the bounded-staleness engines (DESIGN.md §15).
class SspScenario : public TrainScenario {
 public:
  SspScenario() { must_complete_ = true; }

  void AddFlags(FlagParser* flags) override {
    TrainScenario::AddFlags(flags);
    flags->AddInt64("slack", &slack_,
                    "staleness bound (-1 draws 0/1/2/4 per seed)");
  }

  std::vector<std::string> Engines() const override {
    return {"columnsgd", "petuum", "mxnet"};
  }

  Status Validate(const ModelSpec& model,
                  const std::vector<std::string>& engines) const override {
    COLSGD_RETURN_NOT_OK(TrainScenario::Validate(model, engines));
    if (slack_ < -1) {
      return Status::InvalidArgument(
          "--slack must be >= 0, or -1 to draw it per seed");
    }
    return Status::OK();
  }

 protected:
  std::string Prefix(const TrainingSchedule& s) const override {
    std::string out = "slack=" + std::to_string(s.slack) + " ";
    if (s.compute_jitter > 0.0) {
      out += "jitter(" + FormatDouble(s.compute_jitter) + ") ";
    }
    return out;
  }

  TrainingSchedule Generate(uint64_t seed) const override {
    const int workers = static_cast<int>(workers_);
    Rng rng(SplitMix64(seed ^ 0x55A1E55EED5ACULL));
    TrainingSchedule out;
    static constexpr int kSlackGrid[] = {0, 1, 2, 4};
    const int drawn = kSlackGrid[rng.NextBounded(4)];
    out.slack = slack_ >= 0 ? static_cast<int>(slack_) : drawn;
    if (rng.NextBernoulli(0.6)) {
      out.compute_jitter = rng.NextUniform(0.2, 1.0);
    }

    FaultPlanConfig& plan = out.plan;
    plan.seed = SplitMix64(seed);
    plan.num_workers = workers;
    const int64_t early = std::max<int64_t>(2, iterations_ / 3);

    // Stragglers are this scenario's point: usually on, at the Fig. 9
    // straggle factors, so the gate actually binds at small slack.
    if (rng.NextBernoulli(0.75)) {
      plan.stragglers.mode = StragglerSpec::Mode::kRotating;
      plan.stragglers.level = rng.NextUniform(1.0, 5.0);
      plan.stragglers.level_hi =
          plan.stragglers.level + rng.NextUniform(0.0, 1.0);
    }
    // Crashes and task failures fence the pipeline (drain-before-event).
    if (rng.NextBernoulli(0.4)) {
      plan.scripted.push_back(
          {1 + static_cast<int64_t>(rng.NextBounded(early)),
           static_cast<int>(rng.NextBounded(workers)),
           FaultKind::kWorkerFailure});
    }
    if (rng.NextBernoulli(0.25)) {
      plan.scripted.push_back(
          {1 + static_cast<int64_t>(rng.NextBounded(early)),
           static_cast<int>(rng.NextBounded(workers)),
           FaultKind::kTaskFailure});
    }
    // A lossy wire delays gated deliveries but must never lose an update.
    if (rng.NextBernoulli(0.35)) {
      plan.message_drop_prob = rng.NextUniform(0.01, 0.05);
    }
    if (rng.NextBernoulli(0.35)) {
      plan.message_corrupt_prob = rng.NextUniform(0.01, 0.05);
    }
    // Checkpoints fence the pipeline too (drain-before-checkpoint).
    if (rng.NextBernoulli(0.5)) {
      out.checkpoint_every = std::max<int64_t>(
          2, iterations_ / static_cast<int64_t>(2 + rng.NextBounded(4)));
    }
    return out;
  }

  void Configure(const TrainingSchedule& s, ClusterSpec* /*cluster*/,
                 TrainConfig* config) const override {
    config->ssp.enabled = true;
    config->ssp.slack = s.slack;
    config->ssp.compute_jitter = s.compute_jitter;
  }

  void Check(Engine& engine, const TrainingSchedule& s,
             const RecoveryMetrics& /*rm*/, Verdict* verdict,
             uint32_t* fingerprint) const override {
    // Exactly-once accounting: whatever the interleaving, every consumer
    // saw exactly one send and one apply per logical clock tick.
    const SspAccounting& acc = engine.ssp_accounting();
    if (acc.updates_sent != acc.updates_applied) {
      verdict->violations.push_back(
          "updates lost or duplicated: sent " +
          std::to_string(acc.updates_sent) + " != applied " +
          std::to_string(acc.updates_applied));
    }
    if (acc.sent.empty() || acc.sent.size() != acc.applied.size()) {
      verdict->violations.push_back("ssp accounting matrices missing");
    }
    int64_t bad_cells = 0;
    for (size_t c = 0; c < acc.sent.size() && c < acc.applied.size(); ++c) {
      if (acc.sent[c].size() != static_cast<size_t>(iterations_) ||
          acc.applied[c].size() != static_cast<size_t>(iterations_)) {
        verdict->violations.push_back(
            "ssp accounting for consumer " + std::to_string(c) +
            " does not cover every clock tick");
        continue;
      }
      for (int64_t t = 0; t < iterations_; ++t) {
        bad_cells += acc.sent[c][t] != 1 || acc.applied[c][t] != 1;
      }
    }
    if (bad_cells > 0) {
      verdict->violations.push_back("exactly-once violated in " +
                                    std::to_string(bad_cells) +
                                    " (consumer, tick) cell(s)");
    }

    // The staleness bound: no read ever exceeds the slack.
    if (acc.max_staleness_observed > s.slack) {
      verdict->violations.push_back(
          "staleness bound violated: observed " +
          std::to_string(acc.max_staleness_observed) + " > slack " +
          std::to_string(s.slack));
    }
    if (s.slack == 0 && acc.stale_reads != 0) {
      verdict->violations.push_back("slack-0 run reported " +
                                    std::to_string(acc.stale_reads) +
                                    " stale read(s)");
    }

    // The §15 headline: slack 0 reproduces plain BSP under the identical
    // fault schedule bit-for-bit.
    if (s.slack == 0) {
      std::unique_ptr<Engine> bsp;
      COLSGD_CHECK_OK(Arm(s, /*plain=*/true, &bsp));
      const TrainResult result = RunTraining(bsp.get(), dataset_, Options());
      if (!result.status.ok()) {
        verdict->violations.push_back("BSP twin failed: " +
                                      result.status.ToString());
      } else if (WeightsCrc(engine.FullModel()) !=
                 WeightsCrc(bsp->FullModel())) {
        verdict->violations.push_back(
            "slack-0 weights diverged from the BSP run");
      }
    }

    for (int64_t v : {acc.updates_sent, acc.updates_applied,
                      acc.max_staleness_observed, acc.stale_reads,
                      acc.drains}) {
      Fold(fingerprint, v);
    }
    for (const auto* matrix : {&acc.sent, &acc.applied}) {
      for (const std::vector<int32_t>& row : *matrix) {
        *fingerprint = ExtendCrc32c(*fingerprint, row.data(),
                                    row.size() * sizeof(int32_t));
      }
    }
  }

 private:
  /// Staleness bound; -1 draws slack in {0, 1, 2, 4} per seed.
  int64_t slack_ = -1;
};

}  // namespace

std::unique_ptr<Scenario> MakeTrainingScenario(const std::string& name) {
  if (name == "train") return std::make_unique<TrainScenario>();
  if (name == "membership") return std::make_unique<MembershipScenario>();
  if (name == "ssp") return std::make_unique<SspScenario>();
  return nullptr;
}

}  // namespace chaos
}  // namespace colsgd
