// Hardware calibration for the kernel layer (DESIGN.md §12).
//
// The simulator charges compute as counted FLOPs at an assumed rate
// (ComputeModel::flops_per_second, default 2e9). The KernelCalibrator
// replaces the assumption with a measurement: it times the REAL kernels —
// the same SpmvRows / SparseAxpy / DenseAdd code the engines execute — on a
// synthetic GLM workload, derives per-primitive rates (ns/nnz, ns/element)
// and an aggregate counted-FLOP rate, and emits a versioned profile that
// tools feed back into the simulated clock (`--calibration=<profile.json>`).
//
// Wall-clock timing is inherently host-dependent; profiles are artifacts of
// a host, never checked-in goldens. Everything here is min-of-repeats
// steady_clock timing — the standard defense against scheduler noise.
#ifndef COLSGD_LINALG_KERNELS_CALIBRATE_H_
#define COLSGD_LINALG_KERNELS_CALIBRATE_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/result.h"
#include "simnet/compute_model.h"

namespace colsgd {
namespace kernels {

/// \brief Measured kernel rates of one host. Schema "colsgd.kernelcal/v1";
/// all rates are > 0 in a valid profile.
struct CalibrationProfile {
  std::string schema = "colsgd.kernelcal/v1";
  // Per-primitive rates from the micro workloads.
  double ns_per_nnz_fwd = 0.0;      // SpmvRows: one nnz of forward SpMV
  double ns_per_nnz_grad = 0.0;     // SparseAxpy: one nnz of gradient scatter
  double ns_per_element_dense = 0.0;   // DenseAdd: one reduceStat element
  double ns_per_element_update = 0.0;  // DenseAxpy: one update-sweep element
  // Aggregate rate: counted FLOPs of a fused GLM iteration (2/nnz forward +
  // 2/nnz gradient, the engines' charging convention) divided by its
  // measured wall time. This is the drop-in replacement for
  // ComputeModel::flops_per_second.
  double flops_per_second = 0.0;
  // Streaming rate of DenseAdd (24 bytes moved per element), the drop-in
  // replacement for ClusterSpec::mem_bandwidth.
  double mem_bandwidth_bytes_per_s = 0.0;

  /// \brief All rates finite and positive.
  bool Valid() const;
};

/// \brief Synthetic-workload shape for calibration runs.
struct CalibratorOptions {
  int64_t rows = 4096;        // batch rows
  int64_t features = 16384;   // model dimension
  int64_t nnz_per_row = 32;   // uniform row density, distinct indices
  int64_t dense_elements = 1 << 18;  // DenseAdd / DenseAxpy vector length
  int64_t repeats = 5;        // timing repeats; the minimum is kept
  int64_t inner_iters = 8;    // workload passes per repeat (amortizes clock)
  uint64_t seed = 1;          // synthetic data seed

  /// \brief Every size and count >= 1, and nnz_per_row <= features (a row
  /// holds distinct features).
  static Status Validate(const CalibratorOptions& options);
};

/// \brief Times the executed kernels and derives a CalibrationProfile.
class KernelCalibrator {
 public:
  /// \param options must pass CalibratorOptions::Validate.
  explicit KernelCalibrator(CalibratorOptions options = {});

  /// \brief Runs every micro workload and returns the profile.
  CalibrationProfile Run() const;

  /// \brief Counted FLOPs of one fused-GLM-iteration pass of the synthetic
  /// workload (the engines' charging convention: 4 per nnz). Exposed so
  /// benches can compare `SecondsFor(counted)` against measured time.
  uint64_t FusedIterationFlops() const;

  /// \brief Measures one fused GLM iteration (forward + link + scatter)
  /// over `rows` rows drawn apart from Run's, returning seconds per pass
  /// (min over repeats). Used by bench_kernels to validate the profile on a
  /// workload it was not fitted to.
  double MeasureFusedIterationSeconds(size_t rows) const;

  /// \brief Counted FLOPs of one fused pass over `rows` rows.
  uint64_t FusedIterationFlopsFor(size_t rows) const;

  const CalibratorOptions& options() const { return options_; }

 private:
  CalibratorOptions options_;
};

/// \brief Deterministic JSON serialization of a profile (insertion-ordered
/// keys, round-trip-exact numbers).
std::string SerializeCalibrationProfile(const CalibrationProfile& profile);

/// \brief Parses a profile; rejects wrong schema or non-positive rates.
Result<CalibrationProfile> ParseCalibrationProfile(const std::string& text);

/// \brief Reads and parses a profile file.
Result<CalibrationProfile> LoadCalibrationProfile(const std::string& path);

/// \brief Writes a profile file (overwrites).
Status SaveCalibrationProfile(const CalibrationProfile& profile,
                              const std::string& path);

/// \brief ComputeModel charging counted FLOPs at the calibrated rate.
ComputeModel ComputeModelFromCalibration(const CalibrationProfile& profile);

}  // namespace kernels
}  // namespace colsgd

#endif  // COLSGD_LINALG_KERNELS_CALIBRATE_H_
