// Small dense vector helpers used by model partitions and optimizers.
// The element-wise ops route through the kernel layer (DESIGN.md §18), so
// statistics reduction and weight sweeps run the calibrated kernels.
#ifndef COLSGD_LINALG_DENSE_H_
#define COLSGD_LINALG_DENSE_H_

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "linalg/kernels/kernels.h"

namespace colsgd {

/// \brief Element-wise sum into `out` (used by statistics reduction).
inline void AddInto(const std::vector<double>& in, std::vector<double>* out) {
  COLSGD_CHECK_EQ(in.size(), out->size());
  kernels::DenseAdd(in.data(), out->data(), in.size());
}

inline double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  COLSGD_CHECK_EQ(a.size(), b.size());
  return kernels::DenseDot(a.data(), b.data(), a.size());
}

inline double SquaredNorm(const std::vector<double>& v) {
  double acc = 0.0;
  for (double x : v) acc += x * x;
  return acc;
}

}  // namespace colsgd

#endif  // COLSGD_LINALG_DENSE_H_
