// Table IV: average per-iteration time (simulated seconds) of training LR
// with B=1000 on MLlib / Petuum / MXNet / ColumnSGD, plus the speedup
// columns the paper reports (MLlib/Col, Petuum/Col, MXNet/Col), and — from
// the tracing subsystem — each engine's master-clock phase breakdown, which
// shows *where* the slow engines spend the gap (RowSGD: wire; PS: barrier).
#include "bench/bench_runner.h"
#include "bench/bench_util.h"
#include "obs/trace.h"

namespace colsgd {
namespace {

using bench::GetDataset;
using bench::PrintHeader;
using bench::PrintRow;

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
  bench::BenchRunner runner("table4_periter_lr", bench_out);
  runner.SetEnvInt("iterations", iterations);

  const std::vector<std::string> engines = {"mllib", "petuum", "mxnet",
                                            "columnsgd"};
  CsvWriter csv;
  COLSGD_CHECK_OK(csv.Open(out_dir + "/table4_periter_lr.csv",
                           {"dataset", "engine", "seconds_per_iter",
                            "serialization", "compute", "wire", "barrier"}));

  bench::PrintHeader(
      "Table IV: per-iteration time of LR (simulated seconds, B=1000)");
  bench::PrintRow({"dataset", "MLlib", "Petuum", "MXNet", "ColumnSGD",
                   "speedup(M/P/X)"},
                  16);
  std::vector<std::vector<std::string>> phase_rows;
  for (const char* dataset : {"avazu-sim", "kddb-sim", "kdd12-sim"}) {
    const Dataset& d = bench::GetDataset(dataset);
    std::map<std::string, double> per_iter;
    for (const auto& engine_name : engines) {
      TrainConfig config;
      config.model = "lr";
      config.batch_size = 1000;
      config.learning_rate = bench::LearningRateFor(dataset, "lr");
      auto engine = MakeEngine(engine_name, ClusterSpec::Cluster1(), config);
      Tracer tracer;
      engine->set_tracer(&tracer);
      RunOptions options;
      options.iterations = iterations;
      options.record_trace = false;
      TrainResult result =
          runner.RunMeasured(std::string(dataset) + "/lr/" + engine_name,
                             engine.get(), d, options);
      COLSGD_CHECK_OK(result.status);
      per_iter[engine_name] = result.avg_iter_time;
      // Average per-iteration seconds spent in each phase (master clock).
      const double n = static_cast<double>(iterations);
      PhaseBreakdown avg;
      for (int p = 0; p < static_cast<int>(Phase::kNumPhases); ++p) {
        avg.seconds[p] = result.phase_totals.seconds[p] / n;
      }
      csv.WriteRow({dataset, engine_name, FormatDouble(result.avg_iter_time),
                    FormatDouble(avg[Phase::kSerialization]),
                    FormatDouble(avg[Phase::kCompute]),
                    FormatDouble(avg[Phase::kWire]),
                    FormatDouble(avg[Phase::kBarrier])});
      phase_rows.push_back(
          {dataset, engine_name,
           bench::FormatSeconds(avg[Phase::kSerialization]),
           bench::FormatSeconds(avg[Phase::kCompute]),
           bench::FormatSeconds(avg[Phase::kWire]),
           bench::FormatSeconds(avg[Phase::kBarrier])});
    }
    char speedups[64];
    std::snprintf(speedups, sizeof(speedups), "%.0f/%.0f/%.1f",
                  per_iter["mllib"] / per_iter["columnsgd"],
                  per_iter["petuum"] / per_iter["columnsgd"],
                  per_iter["mxnet"] / per_iter["columnsgd"]);
    bench::PrintRow({dataset, bench::FormatSeconds(per_iter["mllib"]),
                     bench::FormatSeconds(per_iter["petuum"]),
                     bench::FormatSeconds(per_iter["mxnet"]),
                     bench::FormatSeconds(per_iter["columnsgd"]), speedups},
                    16);
  }
  std::printf(
      "(paper, real clusters: avazu 1.43/0.24/0.02/0.06 -> 24/4/0.3; kddb "
      "16.33/1.96/0.3/0.06 -> 233/28/5; kdd12 55.81/3.81/0.37/0.06 -> "
      "930/63/6)\n");

  bench::PrintHeader(
      "phase breakdown: avg seconds/iteration on the master clock");
  bench::PrintRow({"dataset", "engine", "serialization", "compute", "wire",
                   "barrier"},
                  16);
  for (const auto& row : phase_rows) bench::PrintRow(row, 16);
  COLSGD_CHECK_OK(runner.Finish());
  return 0;
}
