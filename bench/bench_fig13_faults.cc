// Fig. 13: fault tolerance — now driven by the cluster/fault subsystem.
//
//  (a)/(b) objective-vs-time traces of ColumnSGD through a task failure and
//          a worker failure while training LR on the kdd12 analog: a task
//          failure barely dents the curve; a worker failure pays a reload
//          stall and a temporary loss spike, then re-converges.
//  (c)     the same scripted worker failure in all four engines, with the
//          measured RecoveryMetrics side by side: ColumnSGD's recovery bytes
//          (one column partition) are orders of magnitude below RowSGD's
//          full-model re-broadcast + data reload.
//  (d)     a worker-MTBF sweep on ColumnSGD with periodic checkpointing:
//          failure rate vs. recovery overhead and iterations lost.
//  (e)     a message-corruption sweep on ColumnSGD: every corrupted frame is
//          caught by the receiver's CRC32C check and retransmitted, so the
//          final model is bit-identical to the clean run and only wire time
//          and bytes grow with the corruption rate.
//  (f)     a mid-run network partition window in all four engines: sends
//          across the split burn bounded retransmit backoff, degrading the
//          affected BSP rounds without livelocking or losing updates.
//  (g)     elastic recovery vs replication level r in {0,1,2,3}: a crash at
//          r = 0 descends the ladder to the last checkpoint; any r >= 1
//          promotes an in-memory peer replica (zero storage reads, zero
//          lost iterations).
//  (h)     shrink/grow handoff latency vs model size (LR vs FM factor
//          widths on the avazu analog): handoff bytes track the model
//          slice, protocol overhead stays fixed.
#include "bench/bench_runner.h"
#include "bench/bench_util.h"
#include "engine/columnsgd.h"

namespace colsgd {
namespace {

void RunTrace(const Dataset& d, FaultKind kind, int64_t fail_at,
              int64_t iterations, const std::string& csv_path,
              const char* label, const std::string& bench_name,
              bench::BenchRunner* runner) {
  TrainConfig config;
  config.model = "lr";
  config.batch_size = 1000;
  config.learning_rate = 512.0;  // Table III analog for kdd12-sim LR
  ColumnSgdEngine engine(ClusterSpec::Cluster1(), config);
  FaultConfig faults;
  faults.plan = FaultPlan::Scripted({{fail_at, 2, kind}});
  engine.set_faults(faults);
  COLSGD_CHECK_OK(engine.Setup(d));
  runner->BeginRun(bench_name, &engine);

  CsvWriter csv;
  COLSGD_CHECK_OK(csv.Open(csv_path, {"iteration", "sim_time", "loss"}));
  double spike = 0.0;
  double pre_failure = 0.0;
  double final_loss = 0.0;
  for (int64_t i = 0; i < iterations; ++i) {
    COLSGD_CHECK_OK(engine.RunIteration(i));
    const double t = engine.runtime().clock(engine.runtime().master());
    csv.WriteNumericRow({static_cast<double>(i), t,
                         engine.last_batch_loss()});
    if (i == fail_at - 1) pre_failure = engine.last_batch_loss();
    if (i == fail_at) spike = engine.last_batch_loss();
    final_loss = engine.last_batch_loss();
  }
  runner->EndRun();
  std::printf(
      "%-16s loss before failure %.4f, at failure %.4f, final %.4f\n", label,
      pre_failure, spike, final_loss);
}

// (c) One scripted worker failure, all four engines: recovery cost report.
void RunEngineComparison(const Dataset& d, int64_t fail_at,
                         int64_t iterations, const std::string& out_dir,
                         bench::BenchRunner* runner) {
  CsvWriter csv;
  COLSGD_CHECK_OK(csv.Open(
      out_dir + "/fig13c_engine_recovery.csv",
      {"engine", "detection_s", "recovery_s", "recovery_bytes",
       "iterations_lost", "final_loss"}));
  bench::PrintHeader("Fig 13c: one worker failure, all engines");
  bench::PrintRow({"engine", "detect_s", "recover_s", "recover_MB",
                   "iters_lost", "final_loss"});
  for (const char* name : {"columnsgd", "mllib", "mllib_star", "petuum"}) {
    TrainConfig config;
    config.model = "lr";
    config.batch_size = 1000;
    config.learning_rate = 512.0;
    auto engine = MakeEngine(name, ClusterSpec::Cluster1(), config);
    FaultConfig faults;
    faults.plan = FaultPlan::Scripted({{fail_at, 2, FaultKind::kWorkerFailure}});
    engine->set_faults(faults);

    RunOptions options;
    options.iterations = iterations;
    TrainResult result = runner->RunMeasured(
        std::string("worker_failure/") + name, engine.get(), d, options);
    COLSGD_CHECK_OK(result.status);
    const RecoveryMetrics& rm = result.recovery;
    const double final_loss = result.trace.back().batch_loss;
    csv.WriteRow({name, FormatDouble(rm.detection_seconds),
                  FormatDouble(rm.recovery_seconds),
                  std::to_string(rm.bytes_retransferred),
                  std::to_string(rm.iterations_lost),
                  FormatDouble(final_loss)});
    bench::PrintRow({name, bench::FormatSeconds(rm.detection_seconds),
                     bench::FormatSeconds(rm.recovery_seconds),
                     bench::FormatSeconds(rm.bytes_retransferred / 1e6),
                     std::to_string(rm.iterations_lost),
                     bench::FormatSeconds(final_loss)});
  }
  std::printf(
      "(ColumnSGD re-seeds one column partition; RowSGD re-reads its row "
      "partition and re-broadcasts the full model)\n");
}

// (d) Probabilistic worker failures at varying MTBF, with checkpointing.
void RunMtbfSweep(const Dataset& d, int64_t iterations,
                  const std::string& out_dir, bench::BenchRunner* runner) {
  CsvWriter csv;
  COLSGD_CHECK_OK(csv.Open(
      out_dir + "/fig13d_mtbf_sweep.csv",
      {"mtbf_iters", "worker_failures", "recovery_s", "checkpoint_s",
       "iterations_lost", "final_loss"}));
  bench::PrintHeader(
      "Fig 13d: ColumnSGD under random worker failures (checkpoint every 20)");
  bench::PrintRow({"mtbf_iters", "failures", "recover_s", "ckpt_s",
                   "iters_lost", "final_loss"});
  for (double mtbf : {0.0, 400.0, 200.0, 100.0}) {
    TrainConfig config;
    config.model = "lr";
    config.batch_size = 1000;
    config.learning_rate = 512.0;
    ColumnSgdEngine engine(ClusterSpec::Cluster1(), config);
    FaultConfig faults;
    FaultPlanConfig plan;
    plan.seed = 77;
    plan.worker_mtbf_iters = mtbf;  // 0 disables
    faults.plan = FaultPlan(plan);
    faults.checkpoint.every = 20;
    engine.set_faults(faults);

    RunOptions options;
    options.iterations = iterations;
    TrainResult result = runner->RunMeasured(
        "mtbf_" + std::to_string(static_cast<int64_t>(mtbf)), &engine, d,
        options);
    COLSGD_CHECK_OK(result.status);
    const RecoveryMetrics& rm = result.recovery;
    const double final_loss = result.trace.back().batch_loss;
    csv.WriteNumericRow({mtbf, static_cast<double>(rm.worker_failures),
                         rm.recovery_seconds, rm.checkpoint_seconds,
                         static_cast<double>(rm.iterations_lost), final_loss});
    bench::PrintRow({FormatDouble(mtbf), std::to_string(rm.worker_failures),
                     bench::FormatSeconds(rm.recovery_seconds),
                     bench::FormatSeconds(rm.checkpoint_seconds),
                     std::to_string(rm.iterations_lost),
                     bench::FormatSeconds(final_loss)});
  }
}

// (e) Message-corruption sweep: detected, retransmitted, never trained on.
void RunCorruptionSweep(const Dataset& d, int64_t iterations,
                        const std::string& out_dir,
                        bench::BenchRunner* runner) {
  CsvWriter csv;
  COLSGD_CHECK_OK(csv.Open(
      out_dir + "/fig13e_corruption_sweep.csv",
      {"corrupt_prob", "messages_corrupted", "retransmits", "wire_mb",
       "train_s", "final_loss"}));
  bench::PrintHeader(
      "Fig 13e: ColumnSGD under wire corruption (CRC32C catch + retransmit)");
  bench::PrintRow({"corrupt_p", "corrupted", "retransmits", "wire_MB",
                   "train_s", "final_loss"});
  for (double prob : {0.0, 0.01, 0.02, 0.05}) {
    TrainConfig config;
    config.model = "lr";
    config.batch_size = 1000;
    config.learning_rate = 512.0;
    ColumnSgdEngine engine(ClusterSpec::Cluster1(), config);
    if (prob > 0.0) {
      FaultConfig faults;
      FaultPlanConfig plan;
      plan.seed = 99;
      plan.message_corrupt_prob = prob;
      faults.plan = FaultPlan(plan);
      COLSGD_CHECK_OK(engine.set_faults(faults));
    }

    RunOptions options;
    options.iterations = iterations;
    char name[48];
    std::snprintf(name, sizeof(name), "corrupt_%g", prob);
    TrainResult result = runner->RunMeasured(name, &engine, d, options);
    COLSGD_CHECK_OK(result.status);
    const RecoveryMetrics& rm = result.recovery;
    const double wire_mb = static_cast<double>(result.bytes_on_wire) / 1e6;
    const double final_loss = result.trace.back().batch_loss;
    csv.WriteNumericRow({prob, static_cast<double>(rm.messages_corrupted),
                         static_cast<double>(rm.retransmits), wire_mb,
                         result.train_time, final_loss});
    bench::PrintRow({FormatDouble(prob),
                     std::to_string(rm.messages_corrupted),
                     std::to_string(rm.retransmits),
                     bench::FormatSeconds(wire_mb),
                     bench::FormatSeconds(result.train_time),
                     bench::FormatSeconds(final_loss)});
  }
  std::printf(
      "(corrupted frames never reach training: the final loss matches the "
      "clean row exactly; only time and wire bytes pay for the noise)\n");
}

// (f) One partition window, all four engines: bounded brown-out, no stall.
void RunPartitionComparison(const Dataset& d, int64_t start, int64_t window,
                            int64_t iterations, const std::string& out_dir,
                            bench::BenchRunner* runner) {
  CsvWriter csv;
  COLSGD_CHECK_OK(csv.Open(
      out_dir + "/fig13f_partition_window.csv",
      {"engine", "blocked_sends", "retransmits", "train_s", "final_loss"}));
  bench::PrintHeader("Fig 13f: 3-iteration network partition, all engines");
  bench::PrintRow({"engine", "blocked", "retransmits", "train_s",
                   "final_loss"});
  for (const char* name : {"columnsgd", "mllib", "mllib_star", "petuum"}) {
    TrainConfig config;
    config.model = "lr";
    config.batch_size = 1000;
    config.learning_rate = 512.0;
    auto engine = MakeEngine(name, ClusterSpec::Cluster1(), config);
    FaultConfig faults;
    FaultPlanConfig plan;
    plan.seed = 99;
    plan.partitions.push_back({start, window, {0, 1}});
    faults.plan = FaultPlan(plan);
    COLSGD_CHECK_OK(engine->set_faults(faults));

    RunOptions options;
    options.iterations = iterations;
    TrainResult result = runner->RunMeasured(
        std::string("partition/") + name, engine.get(), d, options);
    COLSGD_CHECK_OK(result.status);
    const RecoveryMetrics& rm = result.recovery;
    const double final_loss = result.trace.back().batch_loss;
    csv.WriteRow({name, std::to_string(rm.partition_blocked_sends),
                  std::to_string(rm.retransmits),
                  FormatDouble(result.train_time), FormatDouble(final_loss)});
    bench::PrintRow({name, std::to_string(rm.partition_blocked_sends),
                     std::to_string(rm.retransmits),
                     bench::FormatSeconds(result.train_time),
                     bench::FormatSeconds(final_loss)});
  }
  std::printf(
      "(the window costs bounded backoff on cross-split sends; every update "
      "still lands, so the loss curves rejoin after the brown-out)\n");
}

// (g) Elastic recovery ladder: one scripted crash at replication r in
// {0, 1, 2, 3}. r = 0 keeps a single copy and descends to the last
// checkpoint; any r >= 1 promotes an in-memory peer replica — zero
// checkpoint-storage reads and zero lost iterations.
void RunReplicationSweep(const Dataset& d, int64_t fail_at,
                         int64_t iterations, const std::string& out_dir,
                         bench::BenchRunner* runner) {
  CsvWriter csv;
  COLSGD_CHECK_OK(csv.Open(
      out_dir + "/fig13g_replication_sweep.csv",
      {"replication", "recovery_s", "peer_fetches", "peer_fetch_mb",
       "checkpoint_restore_reads", "reseeds", "iterations_lost",
       "final_loss"}));
  bench::PrintHeader(
      "Fig 13g: crash recovery vs replication r (elastic, ckpt every 20)");
  bench::PrintRow({"r", "recover_s", "fetches", "fetch_MB", "ckpt_reads",
                   "reseeds", "iters_lost", "final_loss"});
  for (int r : {0, 1, 2, 3}) {
    TrainConfig config;
    config.model = "lr";
    config.batch_size = 1000;
    config.learning_rate = 512.0;
    config.elastic.enabled = true;
    config.elastic.replication = r;
    ColumnSgdEngine engine(ClusterSpec::Cluster1(), config);
    FaultConfig faults;
    faults.plan =
        FaultPlan::Scripted({{fail_at, 2, FaultKind::kWorkerFailure}});
    faults.checkpoint.every = 20;
    COLSGD_CHECK_OK(engine.set_faults(faults));

    RunOptions options;
    options.iterations = iterations;
    TrainResult result = runner->RunMeasured(
        "replication_" + std::to_string(r), &engine, d, options);
    COLSGD_CHECK_OK(result.status);
    const RecoveryMetrics& rm = result.recovery;
    const double fetch_mb = static_cast<double>(rm.peer_fetch_bytes) / 1e6;
    const double final_loss = result.trace.back().batch_loss;
    csv.WriteNumericRow({static_cast<double>(r), rm.recovery_seconds,
                         static_cast<double>(rm.peer_replica_fetches),
                         fetch_mb,
                         static_cast<double>(rm.checkpoint_restore_reads),
                         static_cast<double>(rm.reseeds),
                         static_cast<double>(rm.iterations_lost), final_loss});
    bench::PrintRow({std::to_string(r),
                     bench::FormatSeconds(rm.recovery_seconds),
                     std::to_string(rm.peer_replica_fetches),
                     bench::FormatSeconds(fetch_mb),
                     std::to_string(rm.checkpoint_restore_reads),
                     std::to_string(rm.reseeds),
                     std::to_string(rm.iterations_lost),
                     bench::FormatSeconds(final_loss)});
  }
  std::printf(
      "(r = 0 re-reads the last checkpoint and loses the iterations since; "
      "any r >= 1 fetches the partition from a live peer instead)\n");
}

// (h) Shrink/grow handoff latency vs model size: the bytes a membership
// change must move scale with the model slice (and its optimizer state), so
// the handoff time grows with the factor width while the protocol overhead
// stays fixed.
void RunMembershipLatencySweep(const std::string& out_dir,
                               bench::BenchRunner* runner) {
  const Dataset& d = bench::GetDataset("avazu-sim");
  CsvWriter csv;
  COLSGD_CHECK_OK(csv.Open(
      out_dir + "/fig13h_membership_latency.csv",
      {"model", "event", "membership_s", "moved_mb", "final_loss"}));
  bench::PrintHeader(
      "Fig 13h: shrink/grow handoff latency vs model size (avazu-sim)");
  bench::PrintRow({"model", "event", "handoff_s", "moved_MB", "final_loss"});
  const int64_t iterations = 30;
  for (const char* model : {"lr", "fm2", "fm4", "fm8"}) {
    for (const bool grow : {false, true}) {
      TrainConfig config;
      config.model = model;
      config.batch_size = 1000;
      config.learning_rate = model[0] == 'f' ? 0.05 : 512.0;
      config.elastic.enabled = true;
      config.elastic.replication = 1;
      ClusterSpec cluster = ClusterSpec::Cluster1();
      cluster.max_workers = cluster.num_workers + 2;
      ColumnSgdEngine engine(cluster, config);
      FaultConfig faults;
      FaultPlanConfig plan;
      if (grow) {
        // A crash first (peer-replica recovery, not a membership event)
        // leaves a survivor owning two partitions, so the grow has real
        // rebalancing to do; membership_seconds/bytes measure the grow
        // handoff alone.
        plan.scripted.push_back({8, 2, FaultKind::kWorkerFailure});
        plan.membership.push_back({16, MembershipChange::Kind::kGrow, -1});
      } else {
        plan.membership.push_back(
            {10, MembershipChange::Kind::kShrink, -1});
      }
      faults.plan = FaultPlan(plan);
      COLSGD_CHECK_OK(engine.set_faults(faults));

      RunOptions options;
      options.iterations = iterations;
      const char* event = grow ? "grow" : "shrink";
      TrainResult result = runner->RunMeasured(
          std::string("membership_") + event + "/" + model, &engine, d,
          options);
      COLSGD_CHECK_OK(result.status);
      const RecoveryMetrics& rm = result.recovery;
      const double moved_mb =
          static_cast<double>(rm.membership_bytes_moved) / 1e6;
      const double final_loss = result.trace.back().batch_loss;
      csv.WriteRow({model, event, FormatDouble(rm.membership_seconds),
                    FormatDouble(moved_mb), FormatDouble(final_loss)});
      bench::PrintRow({model, event,
                       bench::FormatSeconds(rm.membership_seconds),
                       bench::FormatSeconds(moved_mb),
                       bench::FormatSeconds(final_loss)});
    }
  }
  std::printf(
      "(handoff bytes track the model slice: a shrink ships the departing "
      "rank's partitions, a grow rebalances one partition onto the new "
      "rank)\n");
}

}  // namespace
}  // namespace colsgd

int main(int argc, char** argv) {
  using namespace colsgd;
  FlagParser flags;
  int64_t iterations = 120;
  int64_t fail_at = 40;
  std::string out_dir = ".";
  std::string bench_out = ".";
  flags.AddInt64("iterations", &iterations, "total SGD iterations");
  flags.AddInt64("fail_at", &fail_at,
                 "iteration at which the failure fires, in [1, iterations)");
  flags.AddString("out_dir", &out_dir, "directory for CSV dumps");
  bench::AddBenchOutFlag(&flags, &bench_out);
  // Outside [1, iterations) the failure would never fire, or the trace
  // would print a loss before the failure that no iteration measured.
  flags.ParseOrExit(argc, argv, [&] {
    return fail_at >= 1 && fail_at < iterations
               ? Status::OK()
               : Status::InvalidArgument(
                     "--fail_at must be in [1, --iterations)");
  });
  bench::BenchRunner runner("fig13_faults", bench_out);
  runner.SetEnvInt("iterations", iterations);
  runner.SetEnvInt("fail_at", fail_at);

  const Dataset& d = bench::GetDataset("kdd12-sim");
  bench::PrintHeader("Fig 13: fault tolerance of ColumnSGD (kdd12-sim, LR)");
  RunTrace(d, FaultKind::kTaskFailure, fail_at, iterations,
           out_dir + "/fig13a_task_failure.csv", "task failure:",
           "task_failure/columnsgd", &runner);
  RunTrace(d, FaultKind::kWorkerFailure, fail_at, iterations,
           out_dir + "/fig13b_worker_failure.csv", "worker failure:",
           "worker_failure_trace/columnsgd", &runner);
  std::printf(
      "(paper shape: task failure is invisible; worker failure stalls ~data "
      "reload time, spikes the loss, then re-converges to the optimum)\n");
  RunEngineComparison(d, fail_at, iterations, out_dir, &runner);
  RunMtbfSweep(d, iterations, out_dir, &runner);
  RunCorruptionSweep(d, iterations, out_dir, &runner);
  RunPartitionComparison(d, fail_at, 3, iterations, out_dir, &runner);
  RunReplicationSweep(d, fail_at, iterations, out_dir, &runner);
  RunMembershipLatencySweep(out_dir, &runner);
  COLSGD_CHECK_OK(runner.Finish());
  return 0;
}
