// Fig. 11: scalability w.r.t. cluster size — LR on the WX analog over
// Cluster 2 (10 Gbps machines) with 10/20/30/40 workers:
//  (a) row-to-column data-transformation time (drops with more readers, with
//      diminishing returns because every block is split and shuffled);
//  (b) per-iteration time (roughly flat: less compute per worker, but more
//      statistics flows through the master).
#include "bench/bench_runner.h"
#include "bench/bench_util.h"
#include "engine/columnsgd.h"

namespace colsgd {
namespace {

struct ScalePoint {
  double load_seconds;
  double iter_seconds;
};

ScalePoint RunOne(const Dataset& d, int workers, int64_t iterations,
                  bench::BenchRunner* runner) {
  TrainConfig config;
  config.model = "lr";
  config.batch_size = 1000;
  config.learning_rate = 0.5;
  ColumnSgdEngine engine(ClusterSpec::Cluster2(workers), config);
  COLSGD_CHECK_OK(engine.Setup(d));
  if (runner != nullptr) {
    runner->BeginRun("workers_" + std::to_string(workers), &engine);
  }
  const NodeId master = engine.runtime().master();
  const double start = engine.runtime().clock(master);
  for (int64_t i = 0; i < iterations; ++i) {
    COLSGD_CHECK_OK(engine.RunIteration(i));
  }
  const ScalePoint point = {
      engine.load_time(),
      (engine.runtime().clock(master) - start) / iterations};
  if (runner != nullptr) runner->EndRun();
  return point;
}

}  // namespace
}  // namespace colsgd

int main(int argc, char** argv) {
  using namespace colsgd;
  FlagParser flags;
  int64_t iterations = 20;
  std::string out_dir = ".";
  std::string bench_out = ".";
  flags.AddInt64("iterations", &iterations, "iterations to average over");
  flags.AddString("out_dir", &out_dir, "directory for CSV dumps");
  bench::AddBenchOutFlag(&flags, &bench_out);
  flags.ParseOrExit(argc, argv);
  bench::BenchRunner runner("fig11_clustersize", bench_out);
  runner.SetEnvInt("iterations", iterations);

  const Dataset& d = bench::GetDataset("wx-sim");
  CsvWriter csv;
  COLSGD_CHECK_OK(
      csv.Open(out_dir + "/fig11_clustersize.csv",
               {"machines", "load_seconds", "seconds_per_iter"}));

  bench::PrintHeader("Fig 11: scalability w.r.t. cluster size (wx-sim, LR)");
  bench::PrintRow({"machines", "load(s)", "sec/iter"});
  double load10 = 0.0;
  for (int workers : {10, 20, 30, 40}) {
    const ScalePoint point = RunOne(d, workers, iterations, &runner);
    if (workers == 10) load10 = point.load_seconds;
    csv.WriteNumericRow({static_cast<double>(workers), point.load_seconds,
                         point.iter_seconds});
    bench::PrintRow({std::to_string(workers),
                     bench::FormatSeconds(point.load_seconds),
                     bench::FormatSeconds(point.iter_seconds)});
  }
  std::printf(
      "(paper shape: ~2x faster loading at 40 vs 10 machines (sublinear), "
      "per-iteration time roughly flat; 10->20 machines gave 1.4x; our "
      "10->40 loading speedup: %.2fx)\n",
      load10 > 0 ? load10 / RunOne(d, 40, 1, nullptr).load_seconds : 0.0);
  COLSGD_CHECK_OK(runner.Finish());
  return 0;
}
