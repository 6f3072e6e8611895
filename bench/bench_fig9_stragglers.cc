// Fig. 9: per-iteration time of LR under stragglers, on the three public
// analogs: pure ColumnSGD, ColumnSGD with 1-backup computation, and
// ColumnSGD facing a straggler of level 1 and level 5 without backup.
// The SL5_s* variants rerun the level-5 straggler under bounded staleness
// (DESIGN.md §15) with slack 0/1/2/4: slack 0 matches plain BSP bit-for-bit
// while slack >= 2 pipelines past the straggler's slow iterations.
#include "bench/bench_runner.h"
#include "bench/bench_util.h"
#include "engine/columnsgd.h"

namespace colsgd {
namespace {

using bench::GetDataset;
using bench::PrintHeader;
using bench::PrintRow;

double PerIterTime(const Dataset& d, int backup, double straggler_level,
                   int slack, int64_t iterations,
                   const std::string& bench_name, bench::BenchRunner* runner) {
  TrainConfig config;
  config.model = "lr";
  config.batch_size = 1000;
  config.learning_rate = 2.0;
  if (slack >= 0) {
    config.ssp.enabled = true;
    config.ssp.slack = slack;
  }
  ClusterSpec cluster = ClusterSpec::Cluster1();
  ColumnSgdOptions options;
  options.backup = backup;
  ColumnSgdEngine engine(cluster, config, std::move(options));
  if (straggler_level > 0) {
    FaultPlanConfig plan;
    plan.seed = 1234;
    plan.stragglers.mode = StragglerSpec::Mode::kRotating;
    plan.stragglers.level = straggler_level;
    FaultConfig faults;
    faults.plan = FaultPlan(plan);
    engine.set_faults(faults);
  }
  COLSGD_CHECK_OK(engine.Setup(d));
  BenchResult* result = runner->BeginRun(bench_name, &engine);
  result->env["backup"] = std::to_string(backup);
  result->env["slack"] = std::to_string(slack);
  const NodeId master = engine.runtime().master();
  const double start = engine.runtime().clock(master);
  for (int64_t i = 0; i < iterations; ++i) {
    COLSGD_CHECK_OK(engine.RunIteration(i));
  }
  // Drain the SSP pipeline so a slack run pays for its in-flight
  // iterations; a no-op for BSP, keeping the comparison honest.
  COLSGD_CHECK_OK(engine.FinishTraining());
  const double per_iter = (engine.runtime().clock(master) - start) / iterations;
  runner->EndRun();
  return per_iter;
}

}  // namespace
}  // namespace colsgd

int main(int argc, char** argv) {
  using namespace colsgd;
  FlagParser flags;
  int64_t iterations = 50;
  std::string out_dir = ".";
  std::string bench_out = ".";
  flags.AddInt64("iterations", &iterations, "iterations to average over");
  flags.AddString("out_dir", &out_dir, "directory for CSV dumps");
  bench::AddBenchOutFlag(&flags, &bench_out);
  flags.ParseOrExit(argc, argv);
  bench::BenchRunner runner("fig9_stragglers", bench_out);
  runner.SetEnvInt("iterations", iterations);

  CsvWriter csv;
  COLSGD_CHECK_OK(csv.Open(out_dir + "/fig9_stragglers.csv",
                           {"dataset", "variant", "seconds_per_iter"}));

  bench::PrintHeader(
      "Fig 9: LR per-iteration time under stragglers (simulated seconds)");
  bench::PrintRow({"dataset", "pure", "backup", "SL1", "SL5", "SL5_s0",
                   "SL5_s1", "SL5_s2", "SL5_s4"});
  for (const char* dataset : {"avazu-sim", "kddb-sim", "kdd12-sim"}) {
    const Dataset& d = bench::GetDataset(dataset);
    struct Variant {
      const char* name;
      int backup;
      double level;
      int slack;
    };
    std::vector<std::string> row = {dataset};
    for (const Variant& v :
         {Variant{"pure", 0, 0.0, -1}, Variant{"backup", 1, 5.0, -1},
          Variant{"SL1", 0, 1.0, -1}, Variant{"SL5", 0, 5.0, -1},
          Variant{"SL5_s0", 0, 5.0, 0}, Variant{"SL5_s1", 0, 5.0, 1},
          Variant{"SL5_s2", 0, 5.0, 2}, Variant{"SL5_s4", 0, 5.0, 4}}) {
      const double seconds =
          PerIterTime(d, v.backup, v.level, v.slack, iterations,
                      std::string(dataset) + "/" + v.name, &runner);
      csv.WriteRow({dataset, v.name, FormatDouble(seconds)});
      row.push_back(bench::FormatSeconds(seconds));
    }
    bench::PrintRow(row);
  }
  std::printf(
      "(paper shape: SL1 ~2x and SL5 ~6x slower than pure; 1-backup matches "
      "pure even with a level-5 straggler present; SSP slack >= 2 recovers "
      "most of the SL5 slowdown without a backup group)\n");
  COLSGD_CHECK_OK(runner.Finish());
  return 0;
}
