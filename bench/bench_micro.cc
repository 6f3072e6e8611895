// Microbenchmarks (google-benchmark) of the performance-critical primitives:
// sparse dot products, CSR row access, gradient accumulation, workset
// serialization, block splitting, and two-phase sampling. These are the
// real-CPU hot paths of the simulator, as opposed to the simulated-time
// experiment harnesses in the other bench binaries.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "datagen/synthetic.h"
#include "model/factory.h"
#include "storage/partitioner.h"
#include "storage/sampler.h"
#include "storage/transform.h"

namespace colsgd {
namespace {

Dataset& BenchData() {
  static Dataset d = [] {
    SyntheticSpec spec;
    spec.num_rows = 20000;
    spec.num_features = 200000;
    spec.avg_nnz_per_row = 30;
    spec.seed = 9;
    return GenerateSynthetic(spec);
  }();
  return d;
}

void BM_SparseDot(benchmark::State& state) {
  const Dataset& d = BenchData();
  std::vector<double> model(d.num_features, 0.5);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.rows.Row(i).Dot(model));
    i = (i + 1) % d.num_rows();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SparseDot);

void BM_CsrRowAccess(benchmark::State& state) {
  const Dataset& d = BenchData();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.rows.Row(i).nnz);
    i = (i + 1) % d.num_rows();
  }
}
BENCHMARK(BM_CsrRowAccess);

void BM_GradAccumulate(benchmark::State& state) {
  const Dataset& d = BenchData();
  GradAccumulator grad(d.num_features, 1);
  size_t i = 0;
  for (auto _ : state) {
    const SparseVectorView row = d.rows.Row(i);
    for (size_t j = 0; j < row.nnz; ++j) {
      const double g = row.values[j];
      grad.Add(row.indices[j], &g);
    }
    i = (i + 1) % d.num_rows();
    if (grad.touched().size() > 100000) grad.Reset();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GradAccumulate);

void BM_LrPartialStats(benchmark::State& state) {
  const Dataset& d = BenchData();
  auto model = MakeModel("lr");
  std::vector<double> weights(d.num_features, 0.1);
  const size_t B = static_cast<size_t>(state.range(0));
  BatchView batch;
  for (size_t i = 0; i < B; ++i) {
    batch.rows.push_back(d.rows.Row(i % d.num_rows()));
    batch.labels.push_back(d.labels[i % d.num_rows()]);
  }
  std::vector<double> stats(B, 0.0);
  for (auto _ : state) {
    std::fill(stats.begin(), stats.end(), 0.0);
    model->ComputePartialStats(batch, weights, &stats, nullptr);
    benchmark::DoNotOptimize(stats.data());
  }
  state.SetItemsProcessed(state.iterations() * B);
}
BENCHMARK(BM_LrPartialStats)->Arg(100)->Arg(1000)->Arg(10000);

void BM_WorksetSerializeRoundTrip(benchmark::State& state) {
  const Dataset& d = BenchData();
  std::vector<RowBlock> blocks = MakeRowBlocks(d, 1024);
  auto partitioner = MakePartitioner("round_robin", d.num_features, 8);
  std::vector<Workset> worksets = SplitBlock(blocks[0], *partitioner);
  for (auto _ : state) {
    std::vector<uint8_t> wire = worksets[0].Serialize();
    auto result = Workset::Deserialize(wire.data(), wire.size());
    benchmark::DoNotOptimize(result.ok());
  }
  state.SetBytesProcessed(state.iterations() *
                          worksets[0].SerializedSize());
}
BENCHMARK(BM_WorksetSerializeRoundTrip);

void BM_SplitBlock(benchmark::State& state) {
  const Dataset& d = BenchData();
  std::vector<RowBlock> blocks = MakeRowBlocks(d, 1024);
  auto partitioner =
      MakePartitioner("round_robin", d.num_features, state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(SplitBlock(blocks[0], *partitioner));
  }
  state.SetItemsProcessed(state.iterations() * blocks[0].rows.nnz());
}
BENCHMARK(BM_SplitBlock)->Arg(4)->Arg(8)->Arg(40);

void BM_TwoPhaseSampling(benchmark::State& state) {
  const Dataset& d = BenchData();
  std::vector<RowBlock> blocks = MakeRowBlocks(d, 1024);
  BlockDirectory directory = MakeDirectory(blocks);
  BatchSampler sampler(&directory, 17);
  int64_t iter = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample(iter++, 1000));
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_TwoPhaseSampling);

void BM_RngNextBounded(benchmark::State& state) {
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.NextBounded(1000000));
  }
}
BENCHMARK(BM_RngNextBounded);

}  // namespace
}  // namespace colsgd

BENCHMARK_MAIN();
