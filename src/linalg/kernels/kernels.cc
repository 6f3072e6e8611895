#include "linalg/kernels/kernels.h"

#include <cmath>

namespace colsgd {
namespace kernels {

namespace {

// Rows ahead of the one being computed whose weight blocks the FM forward
// asks the cache for: a paper-scale FM model is hundreds of MiB, so each
// block a row reads misses the cache.
constexpr size_t kFmPrefetchRows = 2;

}  // namespace

double SparseDot(const uint32_t* indices, const float* values, size_t nnz,
                 const double* dense) {
  double acc = 0.0;
  for (size_t i = 0; i < nnz; ++i) {
    acc += dense[indices[i]] * static_cast<double>(values[i]);
  }
  return acc;
}

void SpmvRows(const SparseVectorView* rows, size_t n, const double* model,
              double* out) {
  for (size_t i = 0; i < n; ++i) {
    const SparseVectorView& r = rows[i];
    out[i] += SparseDot(r.indices, r.values, r.nnz, model);
  }
}

void SpmvRowsMulti(const SparseVectorView* rows, size_t n, int C,
                   const double* model, double* out) {
  for (size_t i = 0; i < n; ++i) {
    const SparseVectorView& row = rows[i];
    double* o = out + i * static_cast<size_t>(C);
    for (size_t j = 0; j < row.nnz; ++j) {
      const double v = row.values[j];
      const double* w =
          model + static_cast<size_t>(row.indices[j]) * static_cast<size_t>(C);
      for (int c = 0; c < C; ++c) o[c] += w[c] * v;
    }
  }
}

void FmForwardRows(const SparseVectorView* rows, size_t n, int num_factors,
                   const double* model, double* out) {
  const int F = num_factors;
  const size_t wpf = static_cast<size_t>(1 + F);
  auto prefetch_row = [&](size_t i) {
    const SparseVectorView& row = rows[i];
    for (size_t j = 0; j < row.nnz; ++j) {
      Prefetch(model + static_cast<size_t>(row.indices[j]) * wpf, wpf);
    }
  };
  for (size_t i = 0; i < n && i < kFmPrefetchRows; ++i) prefetch_row(i);
  for (size_t i = 0; i < n; ++i) {
    if (i + kFmPrefetchRows < n) prefetch_row(i + kFmPrefetchRows);
    const SparseVectorView& row = rows[i];
    double* o = out + i * wpf;
    for (size_t j = 0; j < row.nnz; ++j) {
      const double x = row.values[j];
      const double* w = model + static_cast<size_t>(row.indices[j]) * wpf;
      const double x2 = x * x;
      // o[0] is an ordered reduction over (j, c).
      o[0] += w[0] * x;
      for (int c = 1; c <= F; ++c) o[0] -= 0.5 * w[c] * w[c] * x2;
      for (int c = 1; c <= F; ++c) o[c] += w[c] * x;
    }
  }
}

void SparseAxpy(const uint32_t* indices, const float* values, size_t nnz,
                double scale, double* dense) {
  for (size_t j = 0; j < nnz; ++j) {
    dense[indices[j]] += scale * static_cast<double>(values[j]);
  }
}

void DenseAdd(const double* in, double* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] += in[i];
}

void DenseAxpy(double scale, const double* in, double* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] += scale * in[i];
}

double DenseDot(const double* a, const double* b, size_t n) {
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) acc += a[i] * b[i];
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
