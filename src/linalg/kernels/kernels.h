// Executed hot-path kernels (DESIGN.md §18).
//
// Every floating-point operation that can reach a trained bit runs through
// this layer: CSR SpMV forward kernels (row-major over a batch of sparse
// rows, multi-output variants for MLR/FM), the transpose scatter-add
// (gradient) kernels, dense element-wise kernels, and the GLM link
// functions. Each kernel is one plain loop.
//
// Fixed-order reduction contract: any reduction whose order affects the
// result (a dot product's accumulation chain, a scatter-add into a shared
// accumulator) executes in ascending (row, nnz-index) order. A kernel call
// is serial; callers that run several at once on the shared pool keep each
// slot's additions in the serial order (engine/row_step.h). The build pins
// `-ffp-contract=off`, so no product is fused into an accumulation chain.
//
// Simulated time never depends on this layer's wall-clock speed: engines
// charge counted FLOPs (DESIGN.md §12 closes the loop by calibrating the
// charged rate against these kernels' measured speed).
#ifndef COLSGD_LINALG_KERNELS_KERNELS_H_
#define COLSGD_LINALG_KERNELS_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "common/check.h"
#include "linalg/sparse.h"

namespace colsgd {
namespace kernels {

// One-value stub kept for hostbench, its only caller, which selects and
// prints the kernel mode in its provenance. Drop it with the next change to
// hostbench.
enum class KernelMode { kScalar };
inline void SetMode(KernelMode) {}
inline KernelMode CurrentMode() { return KernelMode::kScalar; }
inline const char* KernelModeName(KernelMode) { return "scalar"; }

// ---- Forward (SpMV) kernels ----------------------------------------------
//
// Row-major CSR SpMV over a batch of sparse row views (the column
// partitioner's shard slices and the row engines' sampled batches both
// arrive in this shape). The accumulation chain of each output runs in
// ascending nnz order.

/// \brief Ordered sparse·dense dot: sum_i dense[indices[i]] * values[i],
/// accumulated in ascending i order (bitwise SparseVectorView::Dot).
double SparseDot(const uint32_t* indices, const float* values, size_t nnz,
                 const double* dense);

/// \brief GLM forward: out[i] += dot(rows[i], model) for i in [0, n).
void SpmvRows(const SparseVectorView* rows, size_t n, const double* model,
              double* out);

/// \brief Multi-class forward (MLR layout: feature f owns slots
/// [f*C, (f+1)*C)): for each row i, nnz j in order, class c:
/// out[i*C + c] += model[indices[j]*C + c] * values[j].
void SpmvRowsMulti(const SparseVectorView* rows, size_t n, int C,
                   const double* model, double* out);

/// \brief Factorization-machine forward (wpf = 1 + F slots per feature):
/// for each row i, nnz j in order:
///   out[i*wpf]     += w[0]*x  then  -= 0.5*w[c]*w[c]*x^2 for c = 1..F
///   out[i*wpf + c] += w[c]*x                            for c = 1..F
void FmForwardRows(const SparseVectorView* rows, size_t n, int num_factors,
                   const double* model, double* out);

// ---- Transpose (scatter-add / gradient) kernels --------------------------
//
// The column-major side of SpMV: grad += A^T * coeff, handed to the target
// one feature block at a time: acc->Add(first_slot, block) adds the block's
// width() values to its consecutive slots, blocks in ascending nnz order.
// A GradAccumulator sums them and keeps first-touch order, which is
// observable; the row engines' GradTerms records them, and the engine
// later replays them, in the same order, into one accumulator per server
// shard on the shared pool (engine/row_step.h). So a kernel call is serial —
// one row's contribution — and any parallelism lives in the callers above
// it. A block adds its slots in the order the per-slot loop did, so the
// block form keeps every slot's bits (DESIGN.md §18).

/// \brief acc->Add(indices[j], {coeff * values[j]}) in ascending j order;
/// `acc` keeps blocks of width 1.
template <class Acc>
inline void ScatterRow(const SparseVectorView& row, double coeff, Acc* acc) {
  COLSGD_CHECK_EQ(acc->width(), 1);
  for (size_t j = 0; j < row.nnz; ++j) {
    const double g = coeff * static_cast<double>(row.values[j]);
    acc->Add(row.indices[j], &g);
  }
}

/// \brief Multi-class scatter: for each j in ascending order, the block of
/// feature indices[j] (slots indices[j]*C + c) gets coeffs[c] * values[j]
/// for c = 0, ..., C - 1; `acc` keeps blocks of width C. `block` is C
/// doubles of scratch.
template <class Acc>
inline void ScatterRowMulti(const SparseVectorView& row, const double* coeffs,
                            int C, double* block, Acc* acc) {
  COLSGD_CHECK_EQ(acc->width(), C);
  for (size_t j = 0; j < row.nnz; ++j) {
    const double v = row.values[j];
    for (int c = 0; c < C; ++c) block[c] = coeffs[c] * v;
    acc->Add(static_cast<uint64_t>(row.indices[j]) * C, block);
  }
}

/// \brief Asks the cache for the lines holding p[0, n) ahead of their use.
/// A prefetch changes no value, so it is bit-neutral.
inline void Prefetch(const double* p, size_t n) {
  constexpr uintptr_t kLine = 64;
  const uintptr_t first = reinterpret_cast<uintptr_t>(p) & ~(kLine - 1);
  const uintptr_t last = reinterpret_cast<uintptr_t>(p + n) - 1;
  for (uintptr_t line = first; line <= last; line += kLine) {
    __builtin_prefetch(reinterpret_cast<const void*>(line));
  }
}

/// \brief dense[indices[j]] += scale * values[j] in ascending j order
/// (bitwise SparseVectorView::AxpyInto).
void SparseAxpy(const uint32_t* indices, const float* values, size_t nnz,
                double scale, double* dense);

// ---- Dense element-wise kernels ------------------------------------------

/// \brief out[i] += in[i] (reduceStat and the serving score reduce).
void DenseAdd(const double* in, double* out, size_t n);

/// \brief out[i] += scale * in[i].
void DenseAxpy(double scale, const double* in, double* out, size_t n);

/// \brief Ordered dense dot: sum_i a[i] * b[i] in ascending i order.
double DenseDot(const double* a, const double* b, size_t n);

// ---- GLM link functions --------------------------------------------------
//
// The margin-based losses and their derivatives, shared by the binary GLMs
// and the factorization machine (which was duplicating the logistic
// formulas). Kept with the kernels so the fused forward+gradient path and
// the calibrator exercise the exact production link code.

enum class GlmLink {
  kLogistic,  // log(1 + exp(-y s)), stable for |y s| > 30
  kHinge,     // max(0, 1 - y s), subgradient
  kSquared,   // (s - y)^2 / 2 over real labels
};

/// \brief Loss of one point with label y and margin/score s.
double LinkLoss(GlmLink link, double y, double s);

/// \brief dLoss/ds — the coefficient multiplying the feature vector in the
/// gradient.
double LinkCoeff(GlmLink link, double y, double s);

}  // namespace kernels
}  // namespace colsgd

#endif  // COLSGD_LINALG_KERNELS_KERNELS_H_
