// The executed kernel layer (DESIGN.md §18) and its calibration loop
// (DESIGN.md §12):
//  * every forward and dense kernel hits the bits of a plain ordered loop —
//    including empty rows, single-nnz rows, and dense columns — and the
//    scatter kernels keep touch order.
//  * the thread pool covers every index exactly once, also with concurrent
//    and nested callers.
//  * calibration profiles round-trip through JSON and reject garbage.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "linalg/kernels/calibrate.h"
#include "linalg/kernels/kernels.h"
#include "linalg/kernels/thread_pool.h"

namespace colsgd {
namespace {

// ---- Raw kernels against ordered references -------------------------------

/// A batch exercising the shapes column partitioning produces: empty rows,
/// single-nnz rows, runs of short rows, and one fully dense column/row.
CsrBatch EdgeCaseBatch(uint64_t dim, uint64_t seed) {
  Rng rng(seed);
  CsrBatch batch;
  batch.AppendEmptyRow();  // empty shard slice
  {
    const uint32_t idx = static_cast<uint32_t>(dim / 2);
    const float val = 2.5f;
    batch.AppendRow(&idx, &val, 1);  // single-nnz row
  }
  {
    std::vector<uint32_t> idx(dim);  // dense row: every column occupied
    std::vector<float> val(dim);
    for (uint64_t f = 0; f < dim; ++f) {
      idx[f] = static_cast<uint32_t>(f);
      val[f] = static_cast<float>(rng.NextDouble() * 2.0 - 1.0);
    }
    batch.AppendRow(idx.data(), val.data(), idx.size());
  }
  for (int i = 0; i < 61; ++i) {  // runs of short rows
    std::vector<uint32_t> idx;
    std::vector<float> val;
    const int nnz = 1 + static_cast<int>(rng.NextDouble() * 9.0);
    uint32_t f = static_cast<uint32_t>(rng.NextDouble() * 7.0);
    for (int j = 0; j < nnz && f < dim; ++j) {
      idx.push_back(f);
      val.push_back(static_cast<float>(rng.NextDouble() * 2.0 - 1.0));
      f += 1 + static_cast<uint32_t>(rng.NextDouble() * (dim / nnz));
    }
    batch.AppendRow(idx.data(), val.data(), idx.size());
  }
  batch.AppendEmptyRow();
  return batch;
}

std::vector<SparseVectorView> Views(const CsrBatch& batch) {
  std::vector<SparseVectorView> rows;
  for (size_t i = 0; i < batch.num_rows(); ++i) rows.push_back(batch.Row(i));
  return rows;
}

std::vector<double> DenseModel(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> model(n);
  for (double& w : model) w = rng.NextDouble() * 2.0 - 1.0;
  return model;
}

TEST(KernelEquivalenceTest, SpmvRowsMatchesOrderedReference) {
  const uint64_t dim = 257;
  const CsrBatch batch = EdgeCaseBatch(dim, 11);
  const std::vector<SparseVectorView> rows = Views(batch);
  const std::vector<double> model = DenseModel(dim, 5);

  // Each row's dot is one chain from 0.0, then added to its output.
  std::vector<double> reference(rows.size(), 0.125);
  for (size_t i = 0; i < rows.size(); ++i) {
    double dot = 0.0;
    for (size_t j = 0; j < rows[i].nnz; ++j) {
      dot += model[rows[i].indices[j]] * static_cast<double>(rows[i].values[j]);
    }
    reference[i] += dot;
  }
  std::vector<double> out(rows.size(), 0.125);
  kernels::SpmvRows(rows.data(), rows.size(), model.data(), out.data());
  EXPECT_EQ(out, reference);
  // Empty rows add exactly nothing, preserving the accumulator seed.
  EXPECT_EQ(out.front(), 0.125);
  EXPECT_EQ(out.back(), 0.125);
}

TEST(KernelEquivalenceTest, SpmvRowsMultiMatchesOrderedReference) {
  const uint64_t dim = 97;
  const int C = 5;
  const CsrBatch batch = EdgeCaseBatch(dim, 23);
  const std::vector<SparseVectorView> rows = Views(batch);
  const std::vector<double> model = DenseModel(dim * C, 7);

  std::vector<double> reference(rows.size() * C, 0.25);
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t j = 0; j < rows[i].nnz; ++j) {
      const double v = rows[i].values[j];
      for (int c = 0; c < C; ++c) {
        reference[i * C + c] += model[rows[i].indices[j] * C + c] * v;
      }
    }
  }
  std::vector<double> out(rows.size() * C, 0.25);
  kernels::SpmvRowsMulti(rows.data(), rows.size(), C, model.data(),
                         out.data());
  EXPECT_EQ(out, reference);
  for (int c = 0; c < C; ++c) {
    EXPECT_EQ(out[c], 0.25);
    EXPECT_EQ(out[(rows.size() - 1) * C + c], 0.25);
  }
}

TEST(KernelEquivalenceTest, FmForwardRowsMatchesOrderedReference) {
  const uint64_t dim = 67;
  const int F = 4;
  const int wpf = 1 + F;
  const CsrBatch batch = EdgeCaseBatch(dim, 31);
  const std::vector<SparseVectorView> rows = Views(batch);
  const std::vector<double> model = DenseModel(dim * wpf, 9);

  std::vector<double> reference(rows.size() * wpf, 0.5);
  for (size_t i = 0; i < rows.size(); ++i) {
    double* o = reference.data() + i * wpf;
    for (size_t j = 0; j < rows[i].nnz; ++j) {
      const double x = rows[i].values[j];
      const double* w = model.data() + rows[i].indices[j] * wpf;
      o[0] += w[0] * x;
      for (int c = 1; c <= F; ++c) o[0] -= 0.5 * w[c] * w[c] * (x * x);
      for (int c = 1; c <= F; ++c) o[c] += w[c] * x;
    }
  }
  std::vector<double> out(rows.size() * wpf, 0.5);
  kernels::FmForwardRows(rows.data(), rows.size(), F, model.data(),
                         out.data());
  EXPECT_EQ(out, reference);
  for (int c = 0; c < wpf; ++c) {
    EXPECT_EQ(out[c], 0.5);
    EXPECT_EQ(out[(rows.size() - 1) * wpf + c], 0.5);
  }
}

TEST(KernelEquivalenceTest, SparseDotMatchesOrderedReference) {
  const uint64_t dim = 129;
  const CsrBatch batch = EdgeCaseBatch(dim, 41);
  const std::vector<double> model = DenseModel(dim, 3);
  for (size_t i = 0; i < batch.num_rows(); ++i) {
    const SparseVectorView row = batch.Row(i);
    double reference = 0.0;  // the ascending-index chain the kernel must hit
    for (size_t j = 0; j < row.nnz; ++j) {
      reference += model[row.indices[j]] * static_cast<double>(row.values[j]);
    }
    EXPECT_EQ(kernels::SparseDot(row.indices, row.values, row.nnz,
                                 model.data()),
              reference);
  }
}

TEST(KernelEquivalenceTest, DenseKernelsMatchOrderedReference) {
  const size_t n = 10001;
  const std::vector<double> in = DenseModel(n, 13);
  std::vector<double> add = DenseModel(n, 17);
  std::vector<double> axpy = add;
  std::vector<double> reference_add = add;
  std::vector<double> reference_axpy = add;
  double reference_dot = 0.0;
  for (size_t i = 0; i < n; ++i) {
    reference_add[i] += in[i];
    reference_axpy[i] += -0.75 * in[i];
  }
  for (size_t i = 0; i < n; ++i) reference_dot += in[i] * reference_axpy[i];
  kernels::DenseAdd(in.data(), add.data(), n);
  kernels::DenseAxpy(-0.75, in.data(), axpy.data(), n);
  EXPECT_EQ(add, reference_add);
  EXPECT_EQ(axpy, reference_axpy);
  EXPECT_EQ(kernels::DenseDot(in.data(), axpy.data(), n), reference_dot);
}

TEST(KernelEquivalenceTest, ScatterRowPreservesTouchOrder) {
  // GradAccumulator's observable state includes first-touch order, so the
  // scatter must visit indices in ascending nnz order.
  struct OrderLoggingAcc {
    int block_width = 1;
    std::vector<std::pair<uint64_t, double>> touches;
    int width() const { return block_width; }
    void Add(uint64_t first_slot, const double* g) {
      for (int j = 0; j < block_width; ++j) {
        touches.emplace_back(first_slot + j, g[j]);
      }
    }
  };
  const uint32_t idx[] = {7, 3, 9, 3};  // duplicates stay in appearance order
  const float val[] = {1.0f, 2.0f, 3.0f, 4.0f};
  SparseVectorView row{idx, val, 4};
  OrderLoggingAcc acc;
  kernels::ScatterRow(row, 0.5, &acc);
  ASSERT_EQ(acc.touches.size(), 4u);
  EXPECT_EQ(acc.touches[0].first, 7u);
  EXPECT_EQ(acc.touches[3].second, 2.0);
  const double coeffs[] = {0.5, -1.5};
  double block[2];
  OrderLoggingAcc multi{2, {}};
  kernels::ScatterRowMulti(row, coeffs, 2, block, &multi);
  ASSERT_EQ(multi.touches.size(), 8u);
  EXPECT_EQ(multi.touches[0].first, 14u);  // idx 7 * C + class 0
  EXPECT_EQ(multi.touches[1].first, 15u);
  EXPECT_EQ(multi.touches[2].first, 6u);   // then idx 3, in appearance order
  EXPECT_EQ(multi.touches[7].second, -1.5 * 4.0);
}

// ---- Thread pool ----------------------------------------------------------

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  kernels::ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3);
  for (size_t n : {0ul, 1ul, 7ul, 64ul, 1000ul}) {
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    pool.ParallelFor(n, 16, [&](size_t begin, size_t end) {
      ASSERT_LE(begin, end);
      ASSERT_LE(end, n);
      for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
    });
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPoolTest, GrainBelowOneIsClamped) {
  kernels::ThreadPool pool(2);
  std::atomic<size_t> total{0};
  pool.ParallelFor(37, 0, [&](size_t begin, size_t end) {
    total.fetch_add(end - begin);
  });
  EXPECT_EQ(total.load(), 37u);
}

TEST(ThreadPoolTest, ReusableAcrossJobs) {
  kernels::ThreadPool pool(2);
  for (int job = 0; job < 50; ++job) {
    std::atomic<size_t> total{0};
    pool.ParallelFor(100 + job, 8, [&](size_t begin, size_t end) {
      total.fetch_add(end - begin);
    });
    ASSERT_EQ(total.load(), static_cast<size_t>(100 + job));
  }
}

TEST(ThreadPoolTest, ConcurrentCallersEachRunEveryIndexOnce) {
  // Two threads share one pool; every job of each must still cover each of
  // its indices exactly once (the pool holds one job at a time, so the
  // second caller waits instead of overwriting the first one's job).
  kernels::ThreadPool pool(3);
  constexpr size_t kN = 1000;
  constexpr int kJobs = 200;
  std::atomic<int> bad_jobs{0};
  auto caller = [&] {
    std::vector<std::atomic<int>> hits(kN);
    for (int job = 0; job < kJobs; ++job) {
      for (auto& h : hits) h.store(0);
      pool.ParallelFor(kN, 16, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      });
      for (const auto& h : hits) {
        if (h.load() != 1) {
          bad_jobs.fetch_add(1);
          break;
        }
      }
    }
  };
  std::thread first(caller);
  std::thread second(caller);
  first.join();
  second.join();
  EXPECT_EQ(bad_jobs.load(), 0);
}

TEST(ThreadPoolTest, NestedCallRunsInlineAndCoversEveryIndexOnce) {
  kernels::ThreadPool pool(3);
  constexpr size_t kOuter = 64;
  constexpr size_t kInner = 100;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(kOuter, 4, [&](size_t begin, size_t end) {
    for (size_t o = begin; o < end; ++o) {
      pool.ParallelFor(kInner, 8, [&](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i) hits[o * kInner + i].fetch_add(1);
      });
    }
  });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  // The pool is still usable from the top level afterwards.
  std::atomic<size_t> total{0};
  pool.ParallelFor(500, 8, [&](size_t begin, size_t end) {
    total.fetch_add(end - begin);
  });
  EXPECT_EQ(total.load(), 500u);
}

// ---- Calibration ----------------------------------------------------------

kernels::CalibrationProfile SampleProfile() {
  kernels::CalibrationProfile p;
  p.ns_per_nnz_fwd = 1.25;
  p.ns_per_nnz_grad = 2.5;
  p.ns_per_element_dense = 0.5;
  p.ns_per_element_update = 0.75;
  p.flops_per_second = 3.2e9;
  p.mem_bandwidth_bytes_per_s = 2.1e10;
  return p;
}

TEST(CalibrationProfileTest, JsonRoundTripIsExact) {
  const kernels::CalibrationProfile p = SampleProfile();
  const std::string text = kernels::SerializeCalibrationProfile(p);
  Result<kernels::CalibrationProfile> parsed =
      kernels::ParseCalibrationProfile(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->schema, p.schema);
  EXPECT_EQ(parsed->ns_per_nnz_fwd, p.ns_per_nnz_fwd);
  EXPECT_EQ(parsed->ns_per_nnz_grad, p.ns_per_nnz_grad);
  EXPECT_EQ(parsed->ns_per_element_dense, p.ns_per_element_dense);
  EXPECT_EQ(parsed->ns_per_element_update, p.ns_per_element_update);
  EXPECT_EQ(parsed->flops_per_second, p.flops_per_second);
  EXPECT_EQ(parsed->mem_bandwidth_bytes_per_s, p.mem_bandwidth_bytes_per_s);
  // Serialization is deterministic: same profile, same bytes.
  EXPECT_EQ(kernels::SerializeCalibrationProfile(*parsed), text);
}

TEST(CalibrationProfileTest, ParsesProfilesThatNameAKernelMode) {
  // Older profiles carry a kernel_mode key; the reader ignores it, so they
  // still load.
  Result<kernels::CalibrationProfile> parsed = kernels::ParseCalibrationProfile(
      R"({"schema":"colsgd.kernelcal/v1","kernel_mode":"threaded",)"
      R"("ns_per_nnz_fwd":1.25,"ns_per_nnz_grad":2.5,)"
      R"("ns_per_element_dense":0.5,"ns_per_element_update":0.75,)"
      R"("flops_per_second":3200000000,"mem_bandwidth_bytes_per_s":21000000000})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->ns_per_nnz_fwd, 1.25);
  EXPECT_EQ(parsed->flops_per_second, 3.2e9);
  EXPECT_EQ(parsed->mem_bandwidth_bytes_per_s, 2.1e10);
}

TEST(CalibrationProfileTest, RejectsWrongSchemaAndBadRates) {
  kernels::CalibrationProfile p = SampleProfile();
  p.schema = "colsgd.kernelcal/v0";
  EXPECT_FALSE(
      kernels::ParseCalibrationProfile(kernels::SerializeCalibrationProfile(p))
          .ok());
  p = SampleProfile();
  p.flops_per_second = 0.0;
  EXPECT_FALSE(p.Valid());
  EXPECT_FALSE(
      kernels::ParseCalibrationProfile(kernels::SerializeCalibrationProfile(p))
          .ok());
  EXPECT_FALSE(kernels::ParseCalibrationProfile("not json").ok());
  EXPECT_FALSE(kernels::ParseCalibrationProfile("{}").ok());
}

TEST(CalibrationProfileTest, FileRoundTripAndMissingFile) {
  const std::string path = ::testing::TempDir() + "/kernelcal.json";
  const kernels::CalibrationProfile p = SampleProfile();
  ASSERT_TRUE(kernels::SaveCalibrationProfile(p, path).ok());
  Result<kernels::CalibrationProfile> loaded =
      kernels::LoadCalibrationProfile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->flops_per_second, p.flops_per_second);
  std::remove(path.c_str());
  EXPECT_FALSE(kernels::LoadCalibrationProfile(path).ok());
}

TEST(CalibrationProfileTest, ComputeModelChargesAtCalibratedRate) {
  const kernels::CalibrationProfile p = SampleProfile();
  const ComputeModel model = kernels::ComputeModelFromCalibration(p);
  EXPECT_EQ(model.flops_per_second, p.flops_per_second);
  EXPECT_DOUBLE_EQ(model.SecondsFor(3'200'000'000ull), 1.0);
}

TEST(KernelCalibratorTest, TinyRunProducesValidProfile) {
  kernels::CalibratorOptions options;
  options.rows = 64;
  options.features = 512;
  options.nnz_per_row = 8;
  options.dense_elements = 4096;
  options.repeats = 1;
  options.inner_iters = 1;
  const kernels::KernelCalibrator calibrator(options);
  EXPECT_TRUE(calibrator.Run().Valid());
  // The counted-FLOP convention: 4 per nnz of the fused GLM iteration.
  EXPECT_EQ(calibrator.FusedIterationFlops(), 64u * 8u * 4u);
  EXPECT_EQ(calibrator.FusedIterationFlopsFor(128), 128u * 8u * 4u);
  EXPECT_GT(calibrator.MeasureFusedIterationSeconds(64), 0.0);
}

}  // namespace
}  // namespace colsgd
