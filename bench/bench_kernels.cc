// Wall-clock gate of the executed kernel layer (DESIGN.md §18) and its
// calibration loop (§12). This bench
//
//  1. calibrates: times the real SpMV / scatter / dense kernels and derives
//     the per-primitive rates plus the counted-FLOP rate (the numbers
//     colsgd_calibrate ships into the simulator);
//  2. validates the loop closure: prices a fused GLM iteration the
//     calibrator was NOT fitted to (different row draws) with
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
#include <string>

#include "bench/bench_runner.h"
#include "bench/bench_util.h"
#include "linalg/kernels/calibrate.h"

namespace colsgd {
namespace {

void RunCalibration(const kernels::KernelCalibrator& calibrator,
                    size_t validate_rows, double tolerance, int64_t attempts,
                    bench::BenchRunner* runner) {
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
  for (int64_t attempt = 0; attempt < attempts; ++attempt) {
    const kernels::CalibrationProfile p = calibrator.Run();
    const double m = calibrator.MeasureFusedIterationSeconds(validate_rows);
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

  std::printf(
      "fwd %7.3f ns/nnz  grad %7.3f ns/nnz  dense %6.3f ns/elem  "
      "%7.3f GFLOP/s\n"
      "fused x%zu rows: measured %s, simulated %s (rel err %.1f%%, "
      "tolerance %.0f%%)\n",
      profile.ns_per_nnz_fwd, profile.ns_per_nnz_grad,
      profile.ns_per_element_dense, profile.flops_per_second / 1e9,
      validate_rows, bench::FormatSeconds(measured).c_str(),
      bench::FormatSeconds(simulated).c_str(), 100.0 * rel_err,
      100.0 * tolerance);

  // The checked-in baseline keys its gated zeros by this name.
  BenchResult* result = runner->AddResult("calibrate/scalar");
  // Host-independent gate metrics (all zero on a healthy host).
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
  colsgd::FlagParser flags;
  colsgd::kernels::CalibratorOptions options;
  int64_t validate_scale = 1;
  int64_t attempts = 5;
  double tolerance = 0.10;
  std::string bench_out = ".";
  flags.AddInt64("rows", &options.rows, "calibration batch rows");
  flags.AddInt64("features", &options.features, "calibration model dimension");
  flags.AddInt64("nnz_per_row", &options.nnz_per_row,
                 "non-zeros per row (at most --features)");
  flags.AddInt64("repeats", &options.repeats, "timing repeats (minimum kept)");
  flags.AddInt64("inner_iters", &options.inner_iters,
                 "workload passes per repeat");
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
  flags.ParseOrExit(argc, argv, [&]() -> colsgd::Status {
    COLSGD_RETURN_NOT_OK(colsgd::kernels::CalibratorOptions::Validate(options));
    if (validate_scale < 1 || attempts < 1) {
      return colsgd::Status::InvalidArgument(
          "--validate_scale and --attempts must be >= 1");
    }
    if (!std::isfinite(tolerance) || tolerance < 0.0) {
      return colsgd::Status::InvalidArgument(
          "--tolerance must be a finite number >= 0");
    }
    return colsgd::Status::OK();
  });

  const colsgd::kernels::KernelCalibrator calibrator(options);
  const size_t validate_rows = static_cast<size_t>(options.rows) *
                               static_cast<size_t>(validate_scale);

  colsgd::bench::BenchRunner runner("kernels", bench_out);
  runner.SetEnvInt("rows", options.rows);
  runner.SetEnvInt("features", options.features);
  runner.SetEnvInt("nnz_per_row", options.nnz_per_row);
  runner.SetEnvInt("validate_rows", static_cast<int64_t>(validate_rows));
  colsgd::bench::PrintHeader(
      "Kernel calibration (wall clock; rates are host artifacts)");
  colsgd::RunCalibration(calibrator, validate_rows, tolerance, attempts,
                         &runner);
  COLSGD_CHECK_OK(runner.Finish());
  return 0;
}
