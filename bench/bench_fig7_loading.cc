// Fig. 7: data-loading time of Naive-ColumnSGD, ColumnSGD (block-based
// column dispatching), MLlib, and MLlib-Repartition on the three public
// dataset analogs, plus a block-size ablation for the dispatcher.
#include "bench/bench_runner.h"
#include "bench/bench_util.h"
#include "storage/transform.h"

namespace colsgd {
namespace {

using bench::GetDataset;
using bench::PrintHeader;
using bench::PrintRow;

double TimeLoader(const std::string& loader, const Dataset& d,
                  size_t block_rows) {
  ClusterRuntime runtime(ClusterSpec::Cluster1());
  std::vector<RowBlock> blocks = MakeRowBlocks(d, block_rows);
  auto partitioner =
      MakePartitioner("round_robin", d.num_features, runtime.num_workers());
  TransformCostConfig cost;
  if (loader == "naive_columnsgd") {
    NaiveColumnLoad(blocks, *partitioner, &runtime, cost);
  } else if (loader == "columnsgd") {
    BlockColumnLoad(blocks, *partitioner, &runtime, cost);
  } else if (loader == "mllib") {
    LoadRowPartitioned(blocks, &runtime, cost);
  } else if (loader == "mllib_repartition") {
    LoadRowRepartitioned(blocks, &runtime, cost, /*shuffle_seed=*/7);
  } else {
    COLSGD_CHECK(false) << "unknown loader " << loader;
  }
  runtime.Barrier();
  return runtime.MaxClock();
}

}  // namespace
}  // namespace colsgd

int main(int argc, char** argv) {
  using namespace colsgd;
  FlagParser flags;
  int64_t block_rows = 1024;
  bool block_sweep = true;
  std::string out_dir = ".";
  std::string bench_out = ".";
  flags.AddInt64("block_rows", &block_rows, "rows per dispatched block");
  flags.AddBool("block_sweep", &block_sweep,
                "also run the block-size ablation");
  flags.AddString("out_dir", &out_dir, "directory for CSV dumps");
  bench::AddBenchOutFlag(&flags, &bench_out);
  flags.ParseOrExit(argc, argv);
  bench::BenchRunner runner("fig7_loading", bench_out);
  runner.SetEnvInt("block_rows", block_rows);

  const std::vector<std::string> loaders = {"naive_columnsgd", "columnsgd",
                                            "mllib", "mllib_repartition"};
  const std::vector<std::string> datasets = {"avazu-sim", "kddb-sim",
                                             "kdd12-sim"};

  CsvWriter csv;
  COLSGD_CHECK_OK(csv.Open(out_dir + "/fig7_loading.csv",
                           {"dataset", "loader", "seconds"}));

  bench::PrintHeader("Fig 7: data loading time (simulated seconds)");
  bench::PrintRow({"dataset", "naive", "columnsgd", "mllib", "repartition"});
  for (const auto& dataset : datasets) {
    const Dataset& d = bench::GetDataset(dataset);
    std::vector<std::string> row = {dataset};
    for (const auto& loader : loaders) {
      const double seconds =
          TimeLoader(loader, d, static_cast<size_t>(block_rows));
      csv.WriteRow({dataset, loader, FormatDouble(seconds)});
      BenchResult* result = runner.AddResult(dataset + "/" + loader);
      result->env["dataset"] = dataset;
      result->env["loader"] = loader;
      result->metrics["load_time"] = seconds;
      row.push_back(bench::FormatSeconds(seconds));
    }
    bench::PrintRow(row);
  }
  std::printf(
      "(paper shape: naive slowest by 2-5x; block-based ColumnSGD fastest, "
      "1.5-1.7x under MLlib; repartition adds ~40%% to MLlib)\n");

  if (block_sweep) {
    bench::PrintHeader("Ablation: dispatcher block size (kddb-sim)");
    bench::PrintRow({"block_rows", "seconds"});
    CsvWriter sweep;
    COLSGD_CHECK_OK(sweep.Open(out_dir + "/fig7_block_sweep.csv",
                               {"block_rows", "seconds"}));
    const Dataset& d = bench::GetDataset("kddb-sim");
    for (size_t rows : {16u, 64u, 256u, 1024u, 4096u, 16384u}) {
      const double seconds = TimeLoader("columnsgd", d, rows);
      sweep.WriteNumericRow({static_cast<double>(rows), seconds});
      BenchResult* result =
          runner.AddResult("block_sweep/" + std::to_string(rows));
      result->env["dataset"] = "kddb-sim";
      result->env["block_rows"] = std::to_string(rows);
      result->metrics["load_time"] = seconds;
      bench::PrintRow({std::to_string(rows), bench::FormatSeconds(seconds)});
    }
  }
  COLSGD_CHECK_OK(runner.Finish());
  return 0;
}
