// Fig. 4: impact of batch size on ColumnSGD (SVM on the kddb analog).
//  (a) training-loss-vs-iteration curves for B in {10, 100, 1k, 10k, 100k}:
//      small batches thrash, large batches overlap.
//  (b) per-iteration time vs batch size: flat while latency-bound, linear
//      once bandwidth-bound (beyond ~100k).
//  (c) convergence vs staleness bound (DESIGN.md §15): loss curves for
//      slack in {BSP, 0, 1, 2, 4} under a level-5 rotating straggler —
//      slack 0 reproduces BSP exactly and larger slacks track it closely
//      (bounded staleness does not stall convergence at these scales).
#include "bench/bench_runner.h"
#include "bench/bench_util.h"
#include "engine/columnsgd.h"

namespace colsgd {
namespace {

using bench::GetDataset;
using bench::PrintHeader;
using bench::PrintRow;

void LossCurves(const Dataset& d, int64_t iterations,
                const std::string& csv_path, bench::BenchRunner* runner) {
  PrintHeader("Fig 4(a): SVM train loss vs iteration, kddb-sim");
  const std::vector<size_t> batch_sizes = {10, 100, 1000, 10000, 100000};
  // Fixed learning rate found by grid search with large-batch GD, as in the
  // paper's protocol (kddb-sim SVM; see bench_util.h).
  const double lr = 128.0;

  std::vector<std::vector<double>> curves;
  for (size_t B : batch_sizes) {
    TrainConfig config;
    config.model = "svm";
    config.learning_rate = lr;
    config.batch_size = B;
    ColumnSgdEngine engine(ClusterSpec::Cluster1(), config);
    COLSGD_CHECK_OK(engine.Setup(d));
    runner->BeginRun("loss_curve/B" + std::to_string(B), &engine);
    std::vector<double> losses;
    for (int64_t i = 0; i < iterations; ++i) {
      COLSGD_CHECK_OK(engine.RunIteration(i));
      losses.push_back(engine.last_batch_loss());
    }
    runner->EndRun();
    curves.push_back(std::move(losses));
  }

  CsvWriter csv;
  COLSGD_CHECK_OK(csv.Open(
      csv_path, {"iteration", "B10", "B100", "B1k", "B10k", "B100k"}));
  for (int64_t i = 0; i < iterations; ++i) {
    std::vector<double> row = {static_cast<double>(i)};
    for (const auto& curve : curves) row.push_back(curve[i]);
    csv.WriteNumericRow(row);
  }

  // Summarize stability: stddev of the last 20 losses per curve — the
  // "thrash" the paper reports for tiny batches.
  PrintRow({"batch", "final_loss", "tail_stddev"});
  for (size_t c = 0; c < batch_sizes.size(); ++c) {
    double mean = 0.0;
    const int64_t tail = std::min<int64_t>(20, iterations);
    for (int64_t i = iterations - tail; i < iterations; ++i) {
      mean += curves[c][i];
    }
    mean /= tail;
    double var = 0.0;
    for (int64_t i = iterations - tail; i < iterations; ++i) {
      var += (curves[c][i] - mean) * (curves[c][i] - mean);
    }
    PrintRow({std::to_string(batch_sizes[c]), FormatDouble(mean),
              FormatDouble(std::sqrt(var / tail))});
  }
}

void PerIterationTime(const Dataset& d, int64_t max_batch,
                      const std::string& csv_path,
                      bench::BenchRunner* runner) {
  PrintHeader("Fig 4(b): ColumnSGD per-iteration time vs batch size");
  CsvWriter csv;
  COLSGD_CHECK_OK(csv.Open(csv_path, {"batch_size", "seconds_per_iter"}));
  PrintRow({"batch", "sec/iter"});
  for (int64_t B = 100; B <= max_batch; B *= 10) {
    TrainConfig config;
    config.model = "svm";
    config.learning_rate = 1.0;
    config.batch_size = static_cast<size_t>(B);
    ColumnSgdEngine engine(ClusterSpec::Cluster1(), config);
    COLSGD_CHECK_OK(engine.Setup(d));
    runner->BeginRun("time_sweep/B" + std::to_string(B), &engine);
    const int64_t iters = B >= 1000000 ? 2 : 5;
    const double start = engine.runtime().clock(engine.runtime().master());
    for (int64_t i = 0; i < iters; ++i) {
      COLSGD_CHECK_OK(engine.RunIteration(i));
    }
    const double per_iter =
        (engine.runtime().clock(engine.runtime().master()) - start) / iters;
    runner->EndRun();
    csv.WriteNumericRow({static_cast<double>(B), per_iter});
    PrintRow({std::to_string(B), bench::FormatSeconds(per_iter)});
  }
}

void SlackCurves(const Dataset& d, int64_t iterations,
                 const std::string& csv_path, bench::BenchRunner* runner) {
  PrintHeader(
      "Fig 4(c): SVM loss vs iteration under bounded staleness "
      "(level-5 rotating straggler)");
  struct Variant {
    const char* name;
    int slack;  // -1 = plain BSP
  };
  const std::vector<Variant> variants = {
      {"bsp", -1}, {"s0", 0}, {"s1", 1}, {"s2", 2}, {"s4", 4}};

  std::vector<std::vector<double>> curves;
  std::vector<double> train_seconds;
  for (const Variant& v : variants) {
    TrainConfig config;
    config.model = "svm";
    config.learning_rate = 128.0;
    config.batch_size = 1000;
    if (v.slack >= 0) {
      config.ssp.enabled = true;
      config.ssp.slack = v.slack;
    }
    ColumnSgdEngine engine(ClusterSpec::Cluster1(), config);
    FaultPlanConfig plan;
    plan.seed = 1234;
    plan.stragglers.mode = StragglerSpec::Mode::kRotating;
    plan.stragglers.level = 5.0;
    FaultConfig faults;
    faults.plan = FaultPlan(plan);
    engine.set_faults(faults);
    COLSGD_CHECK_OK(engine.Setup(d));
    BenchResult* result =
        runner->BeginRun(std::string("slack_curve/") + v.name, &engine);
    result->env["slack"] = std::to_string(v.slack);
    const NodeId master = engine.runtime().master();
    const double start = engine.runtime().clock(master);
    std::vector<double> losses;
    for (int64_t i = 0; i < iterations; ++i) {
      COLSGD_CHECK_OK(engine.RunIteration(i));
      losses.push_back(engine.last_batch_loss());
    }
    COLSGD_CHECK_OK(engine.FinishTraining());
    train_seconds.push_back(engine.runtime().clock(master) - start);
    runner->EndRun();
    curves.push_back(std::move(losses));
  }

  CsvWriter csv;
  COLSGD_CHECK_OK(
      csv.Open(csv_path, {"iteration", "bsp", "s0", "s1", "s2", "s4"}));
  for (int64_t i = 0; i < iterations; ++i) {
    std::vector<double> row = {static_cast<double>(i)};
    for (const auto& curve : curves) row.push_back(curve[i]);
    csv.WriteNumericRow(row);
  }

  // The per-iteration loss gap is the price of staleness; the simulated
  // train time is what it buys back under the straggler. Reading the two
  // together gives the paper-style verdict: at equal wall-clock a stale run
  // fits several times more iterations than BSP.
  PrintRow({"slack", "final_loss", "vs_bsp", "sim_seconds"});
  const double bsp_loss = curves.front().back();
  for (size_t c = 0; c < variants.size(); ++c) {
    PrintRow({variants[c].name, FormatDouble(curves[c].back()),
              FormatDouble(curves[c].back() - bsp_loss),
              bench::FormatSeconds(train_seconds[c])});
  }
}

}  // namespace
}  // namespace colsgd

int main(int argc, char** argv) {
  colsgd::FlagParser flags;
  int64_t iterations = 100;
  int64_t max_batch = 1000000;
  std::string out_dir = ".";
  std::string bench_out = ".";
  flags.AddInt64("iterations", &iterations, "iterations for the loss curves");
  flags.AddInt64("max_batch", &max_batch,
                 "largest batch size for the time sweep (paper: 10m)");
  flags.AddString("out_dir", &out_dir, "directory for CSV dumps");
  colsgd::bench::AddBenchOutFlag(&flags, &bench_out);
  flags.ParseOrExit(argc, argv);
  colsgd::bench::BenchRunner runner("fig4_batchsize", bench_out);
  runner.SetEnvInt("iterations", iterations);
  runner.SetEnvInt("max_batch", max_batch);

  const colsgd::Dataset& d = colsgd::bench::GetDataset("kddb-sim");
  colsgd::LossCurves(d, iterations, out_dir + "/fig4a_loss_vs_iter.csv",
                     &runner);
  colsgd::PerIterationTime(d, max_batch,
                           out_dir + "/fig4b_time_vs_batch.csv", &runner);
  colsgd::SlackCurves(d, iterations, out_dir + "/fig4c_loss_vs_slack.csv",
                      &runner);
  COLSGD_CHECK_OK(runner.Finish());
  return 0;
}
