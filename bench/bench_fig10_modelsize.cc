// Fig. 10: scalability w.r.t. model size — per-iteration time of ColumnSGD
// training LR on criteo-style synthetic datasets whose dimension sweeps from
// 10 to 10^8 (pass --max_dim=1000000000 for the paper's full 10^9 sweep;
// the 10^9 point alone peaks at about 8 GB of host RAM, so the default
// stops at 10^8). The number of non-zero features per row is held fixed, as
// in Boden et al.
#include "bench/bench_runner.h"
#include "bench/bench_util.h"
#include "engine/columnsgd.h"

namespace colsgd {
namespace {

double PerIterTime(uint64_t dims, int64_t iterations,
                   bench::BenchRunner* runner) {
  SyntheticSpec spec = CriteoSimSpec(dims);
  Dataset d = GenerateSynthetic(spec);
  TrainConfig config;
  config.model = "lr";
  config.batch_size = 1000;
  config.learning_rate = 1.0;
  ColumnSgdEngine engine(ClusterSpec::Cluster1(), config);
  COLSGD_CHECK_OK(engine.Setup(d));
  BenchResult* result =
      runner->BeginRun("dim_" + std::to_string(dims), &engine);
  result->env["dimension"] = std::to_string(dims);
  const NodeId master = engine.runtime().master();
  const double start = engine.runtime().clock(master);
  for (int64_t i = 0; i < iterations; ++i) {
    COLSGD_CHECK_OK(engine.RunIteration(i));
  }
  const double per_iter = (engine.runtime().clock(master) - start) / iterations;
  runner->EndRun();
  return per_iter;
}

}  // namespace
}  // namespace colsgd

int main(int argc, char** argv) {
  using namespace colsgd;
  FlagParser flags;
  int64_t iterations = 10;
  int64_t max_dim = 100000000;  // 10^8 by default; paper goes to 10^9
  std::string out_dir = ".";
  std::string bench_out = ".";
  flags.AddInt64("iterations", &iterations, "iterations to average over");
  flags.AddInt64("max_dim", &max_dim, "largest model dimension");
  flags.AddString("out_dir", &out_dir, "directory for CSV dumps");
  bench::AddBenchOutFlag(&flags, &bench_out);
  flags.ParseOrExit(argc, argv);
  bench::BenchRunner runner("fig10_modelsize", bench_out);
  runner.SetEnvInt("iterations", iterations);

  CsvWriter csv;
  COLSGD_CHECK_OK(csv.Open(out_dir + "/fig10_modelsize.csv",
                           {"dimension", "seconds_per_iter"}));

  bench::PrintHeader(
      "Fig 10: ColumnSGD per-iteration time vs model dimension (LR, B=1000)");
  bench::PrintRow({"dimension", "sec/iter"});
  for (uint64_t dims : {10ull, 1000ull, 100000ull, 10000000ull, 100000000ull,
                        1000000000ull}) {
    if (dims > static_cast<uint64_t>(max_dim)) break;
    const double seconds = PerIterTime(dims, iterations, &runner);
    csv.WriteNumericRow({static_cast<double>(dims), seconds});
    bench::PrintRow({std::to_string(dims), bench::FormatSeconds(seconds)});
  }
  std::printf(
      "(paper shape: flat from 10 to 10^9 dimensions — ColumnSGD's "
      "communication depends only on the batch size)\n");
  COLSGD_CHECK_OK(runner.Finish());
  return 0;
}
