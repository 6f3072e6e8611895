#include "linalg/kernels/kernels.h"

#include <atomic>
#include <cmath>
#include <vector>

#include "linalg/kernels/thread_pool.h"

namespace colsgd {
namespace kernels {

namespace {

std::atomic<KernelMode> g_mode{KernelMode::kScalar};

// Rows-per-chunk for threaded forward kernels. Outputs are per-row disjoint,
// so any grain is bitwise-equivalent; this one amortizes dispatch overhead
// on small batches.
constexpr size_t kRowGrain = 64;

// Scratch for the simd dot: products are computed vectorized, then summed
// in ascending order so the accumulation chain matches the scalar kernel
// bit for bit (the build pins -ffp-contract=off, so the buffered product
// is the same IEEE multiply the scalar chain performs).
thread_local std::vector<double> t_products;

double SparseDotSimd(const uint32_t* indices, const float* values, size_t nnz,
                     const double* dense) {
  if (t_products.size() < nnz) t_products.resize(nnz);
  double* p = t_products.data();
#pragma omp simd
  for (size_t i = 0; i < nnz; ++i) {
    p[i] = dense[indices[i]] * static_cast<double>(values[i]);
  }
  double acc = 0.0;
  for (size_t i = 0; i < nnz; ++i) acc += p[i];
  return acc;
}

double SparseDotScalar(const uint32_t* indices, const float* values,
                       size_t nnz, const double* dense) {
  double acc = 0.0;
  for (size_t i = 0; i < nnz; ++i) {
    acc += dense[indices[i]] * static_cast<double>(values[i]);
  }
  return acc;
}

void SpmvRowsRange(const SparseVectorView* rows, size_t begin, size_t end,
                   const double* model, double* out, bool simd) {
  for (size_t i = begin; i < end; ++i) {
    const SparseVectorView& r = rows[i];
    out[i] += simd ? SparseDotSimd(r.indices, r.values, r.nnz, model)
                   : SparseDotScalar(r.indices, r.values, r.nnz, model);
  }
}

void SpmvRowsMultiRange(const SparseVectorView* rows, size_t begin, size_t end,
                        int C, const double* model, double* out, bool simd) {
  for (size_t i = begin; i < end; ++i) {
    const SparseVectorView& row = rows[i];
    double* o = out + i * static_cast<size_t>(C);
    for (size_t j = 0; j < row.nnz; ++j) {
      const double v = row.values[j];
      const double* w =
          model + static_cast<size_t>(row.indices[j]) * static_cast<size_t>(C);
      if (simd) {
        // Each class accumulates an independent chain: vectorizing over c
        // reorders nothing within any chain.
#pragma omp simd
        for (int c = 0; c < C; ++c) o[c] += w[c] * v;
      } else {
        for (int c = 0; c < C; ++c) o[c] += w[c] * v;
      }
    }
  }
}

// Rows ahead of the one being computed whose weight blocks the FM forward
// asks the cache for: a paper-scale FM model is hundreds of MiB, so each
// block a row reads misses the cache.
constexpr size_t kFmPrefetchRows = 2;

void FmForwardRowsRange(const SparseVectorView* rows, size_t begin, size_t end,
                        int F, const double* model, double* out, bool simd) {
  const size_t wpf = static_cast<size_t>(1 + F);
  auto prefetch_row = [&](size_t i) {
    const SparseVectorView& row = rows[i];
    for (size_t j = 0; j < row.nnz; ++j) {
      Prefetch(model + static_cast<size_t>(row.indices[j]) * wpf, wpf);
    }
  };
  for (size_t i = begin; i < end && i < begin + kFmPrefetchRows; ++i) {
    prefetch_row(i);
  }
  for (size_t i = begin; i < end; ++i) {
    if (i + kFmPrefetchRows < end) prefetch_row(i + kFmPrefetchRows);
    const SparseVectorView& row = rows[i];
    double* o = out + i * wpf;
    for (size_t j = 0; j < row.nnz; ++j) {
      const double x = row.values[j];
      const double* w = model + static_cast<size_t>(row.indices[j]) * wpf;
      const double x2 = x * x;
      // o[0] is an ordered reduction over (j, c): sequential in all modes.
      o[0] += w[0] * x;
      for (int c = 1; c <= F; ++c) o[0] -= 0.5 * w[c] * w[c] * x2;
      if (simd) {
#pragma omp simd
        for (int c = 1; c <= F; ++c) o[c] += w[c] * x;
      } else {
        for (int c = 1; c <= F; ++c) o[c] += w[c] * x;
      }
    }
  }
}

}  // namespace

KernelMode CurrentMode() { return g_mode.load(std::memory_order_relaxed); }

void SetMode(KernelMode mode) { g_mode.store(mode, std::memory_order_relaxed); }

const char* KernelModeName(KernelMode mode) {
  switch (mode) {
    case KernelMode::kScalar:
      return "scalar";
    case KernelMode::kSimd:
      return "simd";
    case KernelMode::kThreaded:
      return "threaded";
  }
  return "scalar";
}

bool ParseKernelMode(const std::string& name, KernelMode* mode) {
  if (name == "scalar") {
    *mode = KernelMode::kScalar;
  } else if (name == "simd") {
    *mode = KernelMode::kSimd;
  } else if (name == "threaded") {
    *mode = KernelMode::kThreaded;
  } else {
    return false;
  }
  return true;
}

double SparseDot(const uint32_t* indices, const float* values, size_t nnz,
                 const double* dense) {
  // One dot is one ordered chain; only the product computation changes.
  if (CurrentMode() == KernelMode::kScalar) {
    return SparseDotScalar(indices, values, nnz, dense);
  }
  return SparseDotSimd(indices, values, nnz, dense);
}

void SpmvRows(const SparseVectorView* rows, size_t n, const double* model,
              double* out) {
  switch (CurrentMode()) {
    case KernelMode::kScalar:
      SpmvRowsRange(rows, 0, n, model, out, /*simd=*/false);
      break;
    case KernelMode::kSimd:
      SpmvRowsRange(rows, 0, n, model, out, /*simd=*/true);
      break;
    case KernelMode::kThreaded:
      SharedPool().ParallelFor(n, kRowGrain, [&](size_t b, size_t e) {
        SpmvRowsRange(rows, b, e, model, out, /*simd=*/true);
      });
      break;
  }
}

void SpmvRowsMulti(const SparseVectorView* rows, size_t n, int C,
                   const double* model, double* out) {
  switch (CurrentMode()) {
    case KernelMode::kScalar:
      SpmvRowsMultiRange(rows, 0, n, C, model, out, /*simd=*/false);
      break;
    case KernelMode::kSimd:
      SpmvRowsMultiRange(rows, 0, n, C, model, out, /*simd=*/true);
      break;
    case KernelMode::kThreaded:
      SharedPool().ParallelFor(n, kRowGrain, [&](size_t b, size_t e) {
        SpmvRowsMultiRange(rows, b, e, C, model, out, /*simd=*/true);
      });
      break;
  }
}

void FmForwardRows(const SparseVectorView* rows, size_t n, int num_factors,
                   const double* model, double* out) {
  switch (CurrentMode()) {
    case KernelMode::kScalar:
      FmForwardRowsRange(rows, 0, n, num_factors, model, out, /*simd=*/false);
      break;
    case KernelMode::kSimd:
      FmForwardRowsRange(rows, 0, n, num_factors, model, out, /*simd=*/true);
      break;
    case KernelMode::kThreaded:
      SharedPool().ParallelFor(n, kRowGrain, [&](size_t b, size_t e) {
        FmForwardRowsRange(rows, b, e, num_factors, model, out, /*simd=*/true);
      });
      break;
  }
}

void SparseAxpy(const uint32_t* indices, const float* values, size_t nnz,
                double scale, double* dense) {
  for (size_t j = 0; j < nnz; ++j) {
    dense[indices[j]] += scale * static_cast<double>(values[j]);
  }
}

void DenseAdd(const double* in, double* out, size_t n) {
  switch (CurrentMode()) {
    case KernelMode::kScalar:
      for (size_t i = 0; i < n; ++i) out[i] += in[i];
      break;
    case KernelMode::kSimd:
#pragma omp simd
      for (size_t i = 0; i < n; ++i) out[i] += in[i];
      break;
    case KernelMode::kThreaded:
      SharedPool().ParallelFor(n, 4096, [&](size_t b, size_t e) {
#pragma omp simd
        for (size_t i = b; i < e; ++i) out[i] += in[i];
      });
      break;
  }
}

void DenseAxpy(double scale, const double* in, double* out, size_t n) {
  switch (CurrentMode()) {
    case KernelMode::kScalar:
      for (size_t i = 0; i < n; ++i) out[i] += scale * in[i];
      break;
    case KernelMode::kSimd:
#pragma omp simd
      for (size_t i = 0; i < n; ++i) out[i] += scale * in[i];
      break;
    case KernelMode::kThreaded:
      SharedPool().ParallelFor(n, 4096, [&](size_t b, size_t e) {
#pragma omp simd
        for (size_t i = b; i < e; ++i) out[i] += scale * in[i];
      });
      break;
  }
}

double DenseDot(const double* a, const double* b, size_t n) {
  if (CurrentMode() == KernelMode::kScalar) {
    double acc = 0.0;
    for (size_t i = 0; i < n; ++i) acc += a[i] * b[i];
    return acc;
  }
  if (t_products.size() < n) t_products.resize(n);
  double* p = t_products.data();
#pragma omp simd
  for (size_t i = 0; i < n; ++i) p[i] = a[i] * b[i];
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) acc += p[i];
  return acc;
}

double LinkLoss(GlmLink link, double y, double s) {
  switch (link) {
    case GlmLink::kLogistic: {
      // log(1 + exp(-ys)) computed stably for large |ys|.
      const double z = y * s;
      if (z > 30.0) return std::exp(-z);
      if (z < -30.0) return -z;
      return std::log1p(std::exp(-z));
    }
    case GlmLink::kHinge: {
      const double margin = 1.0 - y * s;
      return margin > 0.0 ? margin : 0.0;
    }
    case GlmLink::kSquared:
      return 0.5 * (s - y) * (s - y);
  }
  return 0.0;
}

double LinkCoeff(GlmLink link, double y, double s) {
  switch (link) {
    case GlmLink::kLogistic: {
      // -y / (1 + exp(ys)), Equation 6 of the paper.
      const double z = y * s;
      if (z > 30.0) return -y * std::exp(-z);
      return -y / (1.0 + std::exp(z));
    }
    case GlmLink::kHinge:
      // Subgradient of the hinge loss, Equation 4 of the paper.
      return (1.0 - y * s > 0.0) ? -y : 0.0;
    case GlmLink::kSquared:
      return s - y;
  }
  return 0.0;
}

}  // namespace kernels
}  // namespace colsgd
