// Ablations on the ColumnSGD update path (DESIGN.md section 6):
//
//  (a) Optimizer variants through the column framework — the Section III-A
//      remark that ColumnSGD supports Adam/AdaGrad by "tweaking the model
//      update" since optimizer state partitions with the model. Compares
//      convergence per iteration and confirms the per-iteration time is
//      unchanged (the statistics exchanged are identical).
//
//  (b) Statistics precision — shipping float32 instead of float64
//      statistics halves the (already batch-bound) traffic; this bench
//      quantifies both the time saving at large batches and the (absence
//      of) convergence penalty.
#include "bench/bench_runner.h"
#include "bench/bench_util.h"
#include "engine/columnsgd.h"

namespace colsgd {
namespace {

using bench::GetDataset;
using bench::PrintHeader;
using bench::PrintRow;

void OptimizerSweep(const Dataset& d, int64_t iterations,
                    const std::string& out_dir, bench::BenchRunner* runner) {
  PrintHeader("Ablation (a): optimizers through the column path (kddb-sim)");
  PrintRow({"optimizer", "lr", "final_loss", "sec/iter"});
  CsvWriter csv;
  COLSGD_CHECK_OK(csv.Open(out_dir + "/ablation_optimizer.csv",
                           {"optimizer", "iteration", "batch_loss"}));
  struct Variant {
    const char* name;
    double lr;
  };
  for (const Variant& v :
       {Variant{"sgd", 2.0}, Variant{"adagrad", 0.3}, Variant{"adam", 0.01}}) {
    TrainConfig config;
    config.model = "lr";
    config.optimizer = v.name;
    config.learning_rate = v.lr;
    config.batch_size = 1000;
    ColumnSgdEngine engine(ClusterSpec::Cluster1(), config);
    COLSGD_CHECK_OK(engine.Setup(d));
    runner->BeginRun(std::string("optimizer/") + v.name, &engine);
    const NodeId master = engine.runtime().master();
    const double start = engine.runtime().clock(master);
    double tail_loss = 0.0;
    for (int64_t i = 0; i < iterations; ++i) {
      COLSGD_CHECK_OK(engine.RunIteration(i));
      csv.WriteRow({v.name, std::to_string(i),
                    FormatDouble(engine.last_batch_loss())});
      if (i >= iterations - 10) tail_loss += engine.last_batch_loss();
    }
    const double per_iter =
        (engine.runtime().clock(master) - start) / iterations;
    runner->EndRun();
    PrintRow({v.name, FormatDouble(v.lr), FormatDouble(tail_loss / 10.0),
              bench::FormatSeconds(per_iter)});
  }
  std::printf(
      "(optimizer state partitions with the model: adaptive methods cost no "
      "extra communication and converge faster per iteration)\n");
}

void PrecisionSweep(const Dataset& d, const std::string& out_dir,
                    bench::BenchRunner* runner) {
  PrintHeader("Ablation (b): float32 vs float64 statistics");
  PrintRow({"batch", "fp64 s/iter", "fp32 s/iter", "fp64 loss", "fp32 loss"});
  CsvWriter csv;
  COLSGD_CHECK_OK(csv.Open(
      out_dir + "/ablation_stats_precision.csv",
      {"batch_size", "precision", "seconds_per_iter", "final_loss"}));
  for (size_t batch : {1000u, 100000u}) {
    std::vector<double> per_iter(2), final_loss(2);
    for (int fp32 = 0; fp32 < 2; ++fp32) {
      TrainConfig config;
      config.model = "lr";
      config.learning_rate = 2.0;
      config.batch_size = batch;
      ColumnSgdOptions options;
      options.fp32_statistics = fp32 != 0;
      ColumnSgdEngine engine(ClusterSpec::Cluster1(), config,
                             std::move(options));
      COLSGD_CHECK_OK(engine.Setup(d));
      BenchResult* result =
          runner->BeginRun("precision/B" + std::to_string(batch) +
                               (fp32 ? "/fp32" : "/fp64"),
                           &engine);
      result->env["precision"] = fp32 ? "fp32" : "fp64";
      const NodeId master = engine.runtime().master();
      const double start = engine.runtime().clock(master);
      const int64_t iters = 30;
      for (int64_t i = 0; i < iters; ++i) {
        COLSGD_CHECK_OK(engine.RunIteration(i));
      }
      runner->EndRun();
      per_iter[fp32] = (engine.runtime().clock(master) - start) / iters;
      final_loss[fp32] = engine.last_batch_loss();
      csv.WriteRow({std::to_string(batch), fp32 ? "fp32" : "fp64",
                    FormatDouble(per_iter[fp32]),
                    FormatDouble(final_loss[fp32])});
    }
    PrintRow({std::to_string(batch), bench::FormatSeconds(per_iter[0]),
              bench::FormatSeconds(per_iter[1]), FormatDouble(final_loss[0]),
              FormatDouble(final_loss[1])});
  }
  std::printf(
      "(fp32 statistics halve the payload — only visible once the batch is "
      "large enough to leave the latency-bound regime — and match fp64 "
      "convergence on these workloads)\n");
}

}  // namespace
}  // namespace colsgd

int main(int argc, char** argv) {
  colsgd::FlagParser flags;
  int64_t iterations = 150;
  std::string out_dir = ".";
  std::string bench_out = ".";
  flags.AddInt64("iterations", &iterations, "iterations per optimizer");
  flags.AddString("out_dir", &out_dir, "directory for CSV dumps");
  colsgd::bench::AddBenchOutFlag(&flags, &bench_out);
  flags.ParseOrExit(argc, argv);
  colsgd::bench::BenchRunner runner("ablation_optimizer", bench_out);
  runner.SetEnvInt("iterations", iterations);
  const colsgd::Dataset& d = colsgd::bench::GetDataset("kddb-sim");
  colsgd::OptimizerSweep(d, iterations, out_dir, &runner);
  colsgd::PrecisionSweep(d, out_dir, &runner);
  COLSGD_CHECK_OK(runner.Finish());
  return 0;
}
