// colsgd_train: command-line training driver.
//
// Trains any supported model with any engine on either a libsvm file or a
// synthetic dataset, on a simulated cluster, and reports the loss trace and
// cost summary. Examples:
//
//   colsgd_train --data train.libsvm --model lr --engine columnsgd
//   colsgd_train --synthetic kddb-sim --model fm10 --engine mxnet
//                --iterations 500 --batch_size 1000 --lr 1.0
//   colsgd_train --synthetic avazu-sim --engine columnsgd --workers 16
//                --optimizer adam --lr 0.01 --trace_csv trace.csv
//   colsgd_train --synthetic tiny --engine columnsgd --staleness 2
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include <fstream>

#include "common/csv.h"
#include "common/flags.h"
#include "datagen/synthetic.h"
#include "engine/columnsgd.h"
#include "engine/model_io.h"
#include "engine/trainer.h"
#include "linalg/kernels/calibrate.h"
#include "model/factory.h"
#include "obs/bench/bench_result.h"
#include "obs/critpath/dag_json.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "storage/libsvm.h"
#include "storage/partitioner.h"

namespace colsgd {
namespace {

/// Parses "iter:worker[,iter:worker...]" into scripted worker failures.
Result<std::vector<FaultEvent>> ParseFailWorker(const std::string& spec) {
  std::vector<FaultEvent> events;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    const size_t colon = item.find(':');
    if (colon == std::string::npos) {
      return Status::InvalidArgument("--fail_worker wants iter:worker, got '" +
                                     item + "'");
    }
    FaultEvent event;
    event.iteration = std::atoll(item.substr(0, colon).c_str());
    event.worker = std::atoi(item.substr(colon + 1).c_str());
    event.kind = FaultKind::kWorkerFailure;
    events.push_back(event);
    pos = comma + 1;
  }
  return events;
}

/// Parses "start:len:w0+w1[,start:len:w2...]" into partition windows: for
/// `len` iterations starting at `start`, the '+'-joined workers are severed
/// from everyone else.
Result<std::vector<NetworkPartitionSpec>> ParsePartitionSpec(
    const std::string& spec) {
  std::vector<NetworkPartitionSpec> partitions;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    const size_t first = item.find(':');
    const size_t second =
        first == std::string::npos ? std::string::npos
                                   : item.find(':', first + 1);
    if (second == std::string::npos) {
      return Status::InvalidArgument(
          "--partition_spec wants start:len:w0+w1[,...], got '" + item + "'");
    }
    NetworkPartitionSpec partition;
    partition.start_iteration = std::atoll(item.substr(0, first).c_str());
    partition.iterations =
        std::atoll(item.substr(first + 1, second - first - 1).c_str());
    size_t wpos = second + 1;
    while (wpos <= item.size()) {
      size_t plus = item.find('+', wpos);
      if (plus == std::string::npos) plus = item.size();
      if (plus == wpos) {
        return Status::InvalidArgument(
            "--partition_spec has an empty worker id in '" + item + "'");
      }
      partition.side_a.push_back(std::atoi(item.substr(wpos, plus - wpos).c_str()));
      wpos = plus + 1;
    }
    partitions.push_back(std::move(partition));
    pos = comma + 1;
  }
  return partitions;
}

/// Parses "grow@iter[:rank][,shrink@iter[:worker]...]" into scripted
/// membership changes; the optional ':rank' pins the target, otherwise the
/// engine auto-picks (shrink: highest active, grow: lowest inactive).
Result<std::vector<MembershipChange>> ParseMembershipSpec(
    const std::string& spec) {
  std::vector<MembershipChange> changes;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    const size_t at = item.find('@');
    if (at == std::string::npos) {
      return Status::InvalidArgument(
          "--membership_spec wants kind@iter[:worker], got '" + item + "'");
    }
    MembershipChange change;
    const std::string kind = item.substr(0, at);
    if (kind == "grow") {
      change.kind = MembershipChange::Kind::kGrow;
    } else if (kind == "shrink") {
      change.kind = MembershipChange::Kind::kShrink;
    } else {
      return Status::InvalidArgument(
          "--membership_spec kind must be grow|shrink, got '" + kind + "'");
    }
    const size_t colon = item.find(':', at + 1);
    const size_t iter_end = colon == std::string::npos ? item.size() : colon;
    change.iteration =
        std::atoll(item.substr(at + 1, iter_end - at - 1).c_str());
    if (colon != std::string::npos) {
      change.worker = std::atoi(item.substr(colon + 1).c_str());
    }
    changes.push_back(change);
    pos = comma + 1;
  }
  return changes;
}

/// The --synthetic presets by name; empty means tiny.
Result<SyntheticSpec> SyntheticPreset(const std::string& name) {
  if (name == "avazu-sim") return AvazuSimSpec();
  if (name == "kddb-sim") return KddbSimSpec();
  if (name == "kdd12-sim") return Kdd12SimSpec();
  if (name == "wx-sim") return WxSimSpec();
  if (name.empty() || name == "tiny") return TinySpec();
  return Status::InvalidArgument(
      "--synthetic must be avazu-sim, kddb-sim, kdd12-sim, wx-sim or tiny, "
      "got '" + name + "'");
}

Result<Dataset> LoadData(const std::string& data_path,
                         const std::string& synthetic, bool zero_based) {
  if (!data_path.empty()) {
    return ReadLibsvmFile(data_path, zero_based);
  }
  SyntheticSpec spec;
  COLSGD_ASSIGN_OR_RETURN(spec, SyntheticPreset(synthetic));
  return GenerateSynthetic(spec);
}

int Run(int argc, char** argv) {
  FlagParser flags;
  std::string data_path;
  std::string synthetic;
  bool zero_based = false;
  std::string engine_name = "columnsgd";
  std::string model = "lr";
  std::string optimizer = "sgd";
  std::string partitioner = "round_robin";
  std::string trace_csv;
  double lr = 1.0;
  double l2 = 0.0;
  int64_t batch_size = 1000;
  int64_t iterations = 200;
  int64_t workers = 8;
  int64_t block_rows = 1024;
  int64_t eval_every = 50;
  int64_t seed = 13;
  bool cluster2 = false;

  flags.AddString("data", &data_path, "libsvm training file");
  flags.AddBool("zero_based", &zero_based, "libsvm indices are 0-based");
  flags.AddString("synthetic", &synthetic,
                  "synthetic dataset preset instead of --data: avazu-sim | "
                  "kddb-sim | kdd12-sim | wx-sim | tiny (the default)");
  flags.AddString("engine", &engine_name,
                  "columnsgd | mllib | mllib_star | petuum | mxnet");
  flags.AddString("model", &model, "lr | svm | lsq | mlr<C> | fm<F> | mlp<H>");
  flags.AddString("optimizer", &optimizer, "sgd | adagrad | adam");
  flags.AddString("partitioner", &partitioner,
                  "round_robin | range | block_cyclic_<chunk>");
  flags.AddDouble("lr", &lr, "learning rate");
  flags.AddDouble("l2", &l2, "L2 regularization strength");
  flags.AddInt64("batch_size", &batch_size, "SGD mini-batch size");
  flags.AddInt64("iterations", &iterations, "SGD iterations");
  flags.AddInt64("workers", &workers, "simulated workers");
  flags.AddInt64("block_rows", &block_rows, "rows per dispatched block");
  flags.AddInt64("eval_every", &eval_every,
                 "exact-loss evaluation period (0: never)");
  flags.AddInt64("seed", &seed, "random seed");
  flags.AddBool("cluster2", &cluster2,
                "use the 10 Gbps Cluster 2 preset instead of Cluster 1");
  flags.AddString("trace_csv", &trace_csv, "write the loss trace to this CSV");
  std::string trace_out;
  std::string phase_csv;
  std::string metrics_out;
  std::string dag_out;
  std::string fail_worker;
  double worker_mtbf_iters = 0.0;
  int64_t checkpoint_every = 0;
  double drop_prob = 0.0;
  double corrupt_prob = 0.0;
  std::string partition_spec;
  int64_t chaos_seed = -1;
  int64_t replication = -1;
  int64_t max_workers = 0;
  std::string membership_spec;
  flags.AddString("trace_out", &trace_out,
                  "write a Chrome trace-event JSON of the run (open in "
                  "Perfetto / chrome://tracing)");
  flags.AddString("phase_csv", &phase_csv,
                  "write the per-iteration phase breakdown to this CSV");
  flags.AddString("metrics_out", &metrics_out,
                  "dump the aggregated metrics registry as JSON to this file");
  flags.AddString("dag_out", &dag_out,
                  "record the causal critical-path DAG and write it as "
                  "colsgd.critdag/v1 JSON (analyze with colsgd_critpath)");
  flags.AddString("fail_worker", &fail_worker,
                  "scripted worker failures, 'iter:worker[,iter:worker...]'");
  flags.AddDouble("worker_mtbf_iters", &worker_mtbf_iters,
                  "mean iterations between worker failures (0: none)");
  flags.AddInt64("checkpoint_every", &checkpoint_every,
                 "checkpoint period in iterations (0: never)");
  flags.AddDouble("drop_prob", &drop_prob,
                  "per-message data-plane drop probability (0: none)");
  flags.AddDouble("corrupt_prob", &corrupt_prob,
                  "per-message bit-flip probability; corrupted frames are "
                  "caught by the CRC32C check and retransmitted (0: none)");
  flags.AddString("partition_spec", &partition_spec,
                  "network partition windows, "
                  "'start:len:w0+w1[,start:len:w2...]'");
  flags.AddInt64("chaos_seed", &chaos_seed,
                 "fault-plan seed for drop/corrupt/partition draws "
                 "(-1: reuse --seed)");
  flags.AddInt64("replication", &replication,
                 "elastic membership: extra in-memory copies per block (r); "
                 ">= 0 enables the block-replicated elastic path (-1: off "
                 "unless --membership_spec is given, then r defaults to 1)");
  flags.AddInt64("max_workers", &max_workers,
                 "elastic membership: pre-provisioned spare ranks a grow "
                 "can activate (0: no spares beyond --workers)");
  flags.AddString("membership_spec", &membership_spec,
                  "scripted grow/shrink events, "
                  "'grow@iter[:rank][,shrink@iter[:worker]...]'");
  int64_t staleness = -1;
  double ssp_jitter = 0.0;
  flags.AddInt64("staleness", &staleness,
                 "bounded-staleness slack s (DESIGN.md §15): workers may run "
                 "up to s iterations ahead of the slowest; 0 is pipelined "
                 "BSP (bitwise-identical weights), -1 disables SSP");
  flags.AddDouble("ssp_jitter", &ssp_jitter,
                  "SSP: deterministic per-(iteration, worker) compute-time "
                  "jitter fraction in [0, x)");
  std::string calibration_path;
  flags.AddString("calibration", &calibration_path,
                  "price simulated compute at the measured kernel rates "
                  "from this colsgd_calibrate profile instead of the "
                  "cluster preset");
  std::string save_model;
  flags.AddString("save_model", &save_model,
                  "write the trained model to this file (colsgd_predict "
                  "reads it)");
  auto faults_requested = [&] {
    return !fail_worker.empty() || worker_mtbf_iters > 0.0 ||
           checkpoint_every > 0 || drop_prob > 0.0 || corrupt_prob > 0.0 ||
           !partition_spec.empty() || !membership_spec.empty();
  };
  // Unknown names, and flags that would do nothing with the others given.
  flags.ParseOrExit(argc, argv, [&]() -> Status {
    COLSGD_RETURN_NOT_OK(CreateModel(model).status());
    const std::vector<std::string>& engines = EngineNames();
    if (std::find(engines.begin(), engines.end(), engine_name) ==
        engines.end()) {
      return Status::InvalidArgument("unknown engine: " + engine_name);
    }
    if (optimizer != "sgd" && optimizer != "adagrad" && optimizer != "adam") {
      return Status::InvalidArgument("unknown optimizer: " + optimizer);
    }
    // --block_rows 0 would cut blocks of no rows forever.
    if (workers < 1 || batch_size < 1 || block_rows < 1) {
      return Status::InvalidArgument(
          "--workers, --batch_size and --block_rows must be at least 1");
    }
    if (iterations < 0 || eval_every < 0) {
      return Status::InvalidArgument(
          "--iterations and --eval_every must not be negative");
    }
    // Zero leaves the model as it is and a negative step climbs the loss.
    if (!std::isfinite(lr) || lr <= 0.0) {
      return Status::InvalidArgument("--lr must be a finite number above 0");
    }
    if (engine_name == "columnsgd") {
      COLSGD_RETURN_NOT_OK(CreatePartitioner(partitioner, 1, 1).status());
    } else if (partitioner != "round_robin") {
      return Status::InvalidArgument(
          "--partitioner splits columns, so it applies to --engine "
          "columnsgd only; " + engine_name + " partitions rows");
    }
    if (ssp_jitter != 0.0 && staleness < 0) {
      return Status::InvalidArgument("--ssp_jitter needs --staleness");
    }
    if (chaos_seed >= 0 && !faults_requested()) {
      return Status::InvalidArgument(
          "--chaos_seed seeds the fault plan, so it needs a fault flag "
          "(--fail_worker, --worker_mtbf_iters, --checkpoint_every, "
          "--drop_prob, --corrupt_prob, --partition_spec or "
          "--membership_spec)");
    }
    const bool elastic = replication >= 0 || !membership_spec.empty();
    if ((elastic || max_workers > 0) &&
        (engine_name == "mllib" || engine_name == "mllib_star")) {
      return Status::InvalidArgument(
          "--replication, --max_workers and --membership_spec need an "
          "elastic engine (columnsgd, petuum or mxnet), not " + engine_name);
    }
    if (max_workers > 0 && !elastic) {
      return Status::InvalidArgument(
          "--max_workers provisions spares for elastic membership, so it "
          "needs --replication or --membership_spec");
    }
    if (max_workers > 0 && max_workers < workers) {
      return Status::InvalidArgument(
          "--max_workers must not be below --workers");
    }
    if (elastic && staleness >= 0 &&
        (engine_name == "petuum" || engine_name == "mxnet")) {
      return Status::InvalidArgument(
          "--staleness on " + engine_name + " runs on a fixed server set, so "
          "it excludes --replication and --membership_spec");
    }
    if (!data_path.empty()) {
      if (!synthetic.empty()) {
        return Status::InvalidArgument(
            "--data and --synthetic each name the training set; pass one");
      }
    } else {
      if (zero_based) {
        return Status::InvalidArgument(
            "--zero_based describes a --data file's indices");
      }
      COLSGD_ASSIGN_OR_RETURN(const SyntheticSpec preset,
                              SyntheticPreset(synthetic));
      // Row engines deal blocks to workers round-robin (LoadRowPartitioned),
      // so every worker gets rows exactly when there are at least as many
      // blocks as workers. A --data file keeps the engine's own error.
      const uint64_t rows = preset.num_rows;
      const uint64_t per_block = static_cast<uint64_t>(block_rows);
      const uint64_t blocks = rows / per_block + (rows % per_block != 0);
      if (engine_name != "columnsgd" &&
          blocks < static_cast<uint64_t>(workers)) {
        std::string message =
            "--engine " + engine_name + " deals blocks of --block_rows rows "
            "to the workers round-robin: " + preset.name + "'s " +
            std::to_string(rows) + " rows make " + std::to_string(blocks) +
            " block(s) for " + std::to_string(workers) + " workers";
        if (rows >= static_cast<uint64_t>(workers)) {
          message += "; use --block_rows " +
                     std::to_string((rows - 1) /
                                    static_cast<uint64_t>(workers - 1)) +
                     " or less";
        }
        return Status::InvalidArgument(message);
      }
    }
    return Status::OK();
  });

  Result<Dataset> data = LoadData(data_path, synthetic, zero_based);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }
  const Dataset& dataset = *data;
  std::printf("data: %zu rows, %llu features, %.1f nnz/row (rho=%.6f)\n",
              dataset.num_rows(),
              static_cast<unsigned long long>(dataset.num_features),
              dataset.AvgNnzPerRow(), dataset.Sparsity());

  ClusterSpec cluster = cluster2
                            ? ClusterSpec::Cluster2(static_cast<int>(workers))
                            : ClusterSpec::Cluster1();
  cluster.num_workers = static_cast<int>(workers);
  if (max_workers > 0) cluster.max_workers = static_cast<int>(max_workers);

  kernels::CalibrationProfile calibration;
  if (!calibration_path.empty()) {
    Result<kernels::CalibrationProfile> loaded =
        kernels::LoadCalibrationProfile(calibration_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 2;
    }
    calibration = *loaded;
    // Price counted FLOPs (and framed memory moves) at the measured rates.
    cluster.compute = kernels::ComputeModelFromCalibration(calibration);
    cluster.mem_bandwidth = calibration.mem_bandwidth_bytes_per_s;
  }

  TrainConfig config;
  config.model = model;
  config.optimizer = optimizer;
  config.learning_rate = lr;
  config.reg.l2 = l2;
  config.batch_size = static_cast<size_t>(batch_size);
  config.block_rows = static_cast<size_t>(block_rows);
  config.partitioner = partitioner;
  config.seed = static_cast<uint64_t>(seed);
  if (replication >= 0 || !membership_spec.empty()) {
    config.elastic.enabled = true;
    if (replication >= 0) {
      config.elastic.replication = static_cast<int>(replication);
    }
  }
  if (staleness >= 0) {
    config.ssp.enabled = true;
    config.ssp.slack = static_cast<int>(staleness);
    config.ssp.compute_jitter = ssp_jitter;
  }

  auto engine = MakeEngine(engine_name, cluster, config);

  if (faults_requested()) {
    FaultPlanConfig plan;
    plan.seed = chaos_seed >= 0 ? static_cast<uint64_t>(chaos_seed)
                                : static_cast<uint64_t>(seed);
    plan.worker_mtbf_iters = worker_mtbf_iters;
    plan.message_drop_prob = drop_prob;
    plan.message_corrupt_prob = corrupt_prob;
    if (!fail_worker.empty()) {
      Result<std::vector<FaultEvent>> events = ParseFailWorker(fail_worker);
      if (!events.ok()) {
        std::fprintf(stderr, "%s\n", events.status().ToString().c_str());
        return 2;
      }
      plan.scripted = *std::move(events);
    }
    if (!partition_spec.empty()) {
      Result<std::vector<NetworkPartitionSpec>> partitions =
          ParsePartitionSpec(partition_spec);
      if (!partitions.ok()) {
        std::fprintf(stderr, "%s\n", partitions.status().ToString().c_str());
        return 2;
      }
      plan.partitions = *std::move(partitions);
    }
    if (!membership_spec.empty()) {
      Result<std::vector<MembershipChange>> changes =
          ParseMembershipSpec(membership_spec);
      if (!changes.ok()) {
        std::fprintf(stderr, "%s\n", changes.status().ToString().c_str());
        return 2;
      }
      plan.membership = *std::move(changes);
    }
    Result<FaultPlan> fault_plan = FaultPlan::Create(plan);
    if (!fault_plan.ok()) {
      std::fprintf(stderr, "%s\n", fault_plan.status().ToString().c_str());
      return 2;
    }
    FaultConfig faults;
    faults.plan = *std::move(fault_plan);
    faults.checkpoint.every = checkpoint_every;
    Status fault_st = engine->set_faults(std::move(faults));
    if (!fault_st.ok()) {
      std::fprintf(stderr, "%s\n", fault_st.ToString().c_str());
      return 2;
    }
  }

  Tracer tracer;
  const bool tracing =
      !trace_out.empty() || !phase_csv.empty() || !metrics_out.empty();
  if (tracing) engine->set_tracer(&tracer);
  CritPathRecorder critpath;
  if (!dag_out.empty()) engine->set_critpath(&critpath);

  RunOptions options;
  options.iterations = iterations;
  options.eval_every = eval_every;
  TrainResult result = RunTraining(engine.get(), dataset, options);
  if (!result.status.ok()) {
    std::fprintf(stderr, "training failed: %s\n",
                 result.status.ToString().c_str());
    return 1;
  }

  std::printf("\n%10s %12s %12s %12s\n", "iteration", "sim_time(s)",
              "batch_loss", "eval_loss");
  const int64_t stride = std::max<int64_t>(1, iterations / 10);
  for (const IterationRecord& record : result.trace) {
    if (record.iteration % stride == 0 ||
        record.iteration + 1 == iterations) {
      std::printf("%10lld %12.4f %12.4f %12.4f\n",
                  static_cast<long long>(record.iteration), record.sim_time,
                  record.batch_loss, record.eval_loss);
    }
  }
  std::printf(
      "\nengine=%s model=%s: load %.3fs, train %.3fs (%.3f ms/iter), "
      "%.2f MB on the wire over %llu messages\n",
      engine->name().c_str(), model.c_str(), result.load_time,
      result.train_time, 1e3 * result.avg_iter_time,
      static_cast<double>(result.bytes_on_wire) / 1e6,
      static_cast<unsigned long long>(result.messages));
  if (calibration_path.empty()) {
    std::printf("kernel: compute priced at the %s preset (%.2f GFLOP/s)\n",
                cluster2 ? "Cluster2" : "Cluster1",
                cluster.compute.flops_per_second / 1e9);
  } else {
    std::printf("kernel: compute priced by %s "
                "(calibrated: %.2f GFLOP/s, %.2f GB/s)\n",
                calibration_path.c_str(), calibration.flops_per_second / 1e9,
                calibration.mem_bandwidth_bytes_per_s / 1e9);
  }

  if (faults_requested()) {
    const RecoveryMetrics& recovery = engine->recovery_metrics();
    std::printf(
        "faults: %lld task + %lld worker failures, %lld iterations lost, "
        "%.2f MB retransferred\n"
        "wire:   %lld dropped, %lld corrupted (CRC-caught), %lld "
        "retransmits, %lld partition-blocked sends\n"
        "disk:   %lld checkpoints (%lld corrupted, %lld restore fallbacks)\n",
        static_cast<long long>(recovery.task_failures),
        static_cast<long long>(recovery.worker_failures),
        static_cast<long long>(recovery.iterations_lost),
        static_cast<double>(recovery.bytes_retransferred) / 1e6,
        static_cast<long long>(recovery.messages_dropped),
        static_cast<long long>(recovery.messages_corrupted),
        static_cast<long long>(recovery.retransmits),
        static_cast<long long>(recovery.partition_blocked_sends),
        static_cast<long long>(recovery.checkpoints_taken),
        static_cast<long long>(recovery.checkpoints_corrupted),
        static_cast<long long>(recovery.checkpoint_fallbacks));
    if (config.elastic.enabled) {
      std::printf(
          "elastic: %lld grow(s), %lld planned departure(s), %lld crash "
          "removal(s) in %.3fs (%.2f MB moved)\n"
          "ladder:  %lld peer fetch(es) (%.2f MB, %lld CRC-rejected copies), "
          "%lld checkpoint restore read(s), %lld reseed(s)\n",
          static_cast<long long>(recovery.grows),
          static_cast<long long>(recovery.planned_departures),
          static_cast<long long>(recovery.crash_removals),
          recovery.membership_seconds,
          static_cast<double>(recovery.membership_bytes_moved) / 1e6,
          static_cast<long long>(recovery.peer_replica_fetches),
          static_cast<double>(recovery.peer_fetch_bytes) / 1e6,
          static_cast<long long>(recovery.replica_crc_rejections),
          static_cast<long long>(recovery.checkpoint_restore_reads),
          static_cast<long long>(recovery.reseeds));
    }
  }

  if (config.ssp.enabled) {
    const SspAccounting& ssp = engine->ssp_accounting();
    std::printf(
        "ssp: slack %lld, %lld updates sent / %lld applied, max staleness "
        "%lld, %lld stale read(s), %lld pipeline drain(s)\n",
        static_cast<long long>(config.ssp.slack),
        static_cast<long long>(ssp.updates_sent),
        static_cast<long long>(ssp.updates_applied),
        static_cast<long long>(ssp.max_staleness_observed),
        static_cast<long long>(ssp.stale_reads),
        static_cast<long long>(ssp.drains));
  }

  if (!save_model.empty()) {
    SavedModel saved;
    saved.model_name = model;
    saved.num_features = dataset.num_features;
    saved.weights = engine->FullModel();
    if (const auto* column = dynamic_cast<ColumnSgdEngine*>(engine.get())) {
      saved.shared = column->shared_params();
    }
    Status save_st = WriteModelFile(saved, save_model);
    if (!save_st.ok()) {
      std::fprintf(stderr, "%s\n", save_st.ToString().c_str());
      return 1;
    }
    std::printf("model written to %s\n", save_model.c_str());
  }

  if (tracing) {
    std::printf("\nphase breakdown (master clock, summed over %zu iters):\n",
                result.phase_trace.size());
    for (int p = 0; p < static_cast<int>(Phase::kNumPhases); ++p) {
      const double seconds = result.phase_totals.seconds[p];
      if (seconds <= 0.0) continue;
      std::printf("  %-14s %10.4fs (%5.1f%%)\n",
                  PhaseName(static_cast<Phase>(p)), seconds,
                  100.0 * seconds / result.phase_totals.total());
    }
    if (!trace_out.empty()) {
      Status trace_st = WriteChromeTrace(tracer, trace_out);
      if (!trace_st.ok()) {
        std::fprintf(stderr, "%s\n", trace_st.ToString().c_str());
        return 1;
      }
      std::printf("chrome trace written to %s (%zu events)\n",
                  trace_out.c_str(), tracer.events().size());
    }
    if (!phase_csv.empty()) {
      Status phase_st = WritePhaseCsv(tracer, phase_csv);
      if (!phase_st.ok()) {
        std::fprintf(stderr, "%s\n", phase_st.ToString().c_str());
        return 1;
      }
      std::printf("phase breakdown written to %s\n", phase_csv.c_str());
    }
    if (!metrics_out.empty()) {
      std::ofstream out(metrics_out, std::ios::binary);
      if (!out) {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     metrics_out.c_str());
        return 1;
      }
      out << MetricsRegistryJson(tracer.metrics());
      out.close();
      if (!out) {
        std::fprintf(stderr, "error writing %s\n", metrics_out.c_str());
        return 1;
      }
      std::printf("metrics written to %s\n", metrics_out.c_str());
    }
  }

  if (!dag_out.empty()) {
    const CritDag dag = critpath.Snapshot();
    Status dag_st = WriteCritDagFile(dag, dag_out);
    if (!dag_st.ok()) {
      std::fprintf(stderr, "%s\n", dag_st.ToString().c_str());
      return 1;
    }
    std::printf("causal DAG written to %s (%zu ops, fingerprint %08x)\n",
                dag_out.c_str(), dag.ops.size(), CritDagFingerprint(dag));
  }

  if (!trace_csv.empty()) {
    CsvWriter csv;
    Status csv_st =
        csv.Open(trace_csv, {"iteration", "sim_time", "batch_loss",
                             "eval_loss"});
    if (!csv_st.ok()) {
      std::fprintf(stderr, "%s\n", csv_st.ToString().c_str());
      return 1;
    }
    for (const IterationRecord& record : result.trace) {
      csv.WriteNumericRow({static_cast<double>(record.iteration),
                           record.sim_time, record.batch_loss,
                           record.eval_loss});
    }
    std::printf("trace written to %s\n", trace_csv.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace colsgd

int main(int argc, char** argv) { return colsgd::Run(argc, argv); }
