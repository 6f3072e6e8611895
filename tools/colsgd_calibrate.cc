// colsgd_calibrate: measures the executed kernels on THIS host and writes a
// colsgd.kernelcal/v1 profile (DESIGN.md §12).
//
// The profile prices the simulator's counted FLOPs at the rate the real
// SpMV / scatter / dense kernels achieve here, closing the loop between the
// analytic cost model and the hardware underneath:
//
//   colsgd_calibrate --out host.kernelcal.json
//   colsgd_calibrate --rows 8192 --out big.kernelcal.json
//   colsgd_train --synthetic tiny --calibration host.kernelcal.json
//
// Profiles are host artifacts — re-run the calibrator on every machine;
// never commit one as a golden.
#include <cstdio>

#include "common/flags.h"
#include "linalg/kernels/calibrate.h"

namespace colsgd {
namespace {

int Run(int argc, char** argv) {
  FlagParser flags;
  std::string out;
  kernels::CalibratorOptions options;
  int64_t seed = static_cast<int64_t>(options.seed);

  flags.AddString("out", &out, "write the profile JSON here (required)");
  flags.AddInt64("rows", &options.rows, "calibration batch rows");
  flags.AddInt64("features", &options.features, "calibration model dimension");
  flags.AddInt64("nnz_per_row", &options.nnz_per_row,
                 "non-zeros per synthetic row (at most --features)");
  flags.AddInt64("dense_elements", &options.dense_elements,
                 "dense kernel vector length");
  flags.AddInt64("repeats", &options.repeats,
                 "timing repeats (minimum is kept)");
  flags.AddInt64("inner_iters", &options.inner_iters,
                 "workload passes per repeat");
  flags.AddInt64("seed", &seed, "synthetic workload seed");
  flags.ParseOrExit(argc, argv, [&] {
    if (out.empty()) return Status::InvalidArgument("--out is required");
    return kernels::CalibratorOptions::Validate(options);
  });
  options.seed = static_cast<uint64_t>(seed);

  const kernels::KernelCalibrator calibrator(options);
  std::printf("calibrating kernels: %lld rows x %lld nnz, dim %lld, "
              "dense %lld, %lld repeats x %lld passes...\n",
              static_cast<long long>(options.rows),
              static_cast<long long>(options.nnz_per_row),
              static_cast<long long>(options.features),
              static_cast<long long>(options.dense_elements),
              static_cast<long long>(options.repeats),
              static_cast<long long>(options.inner_iters));
  const kernels::CalibrationProfile profile = calibrator.Run();
  if (!profile.Valid()) {
    std::fprintf(stderr,
                 "calibration produced a degenerate profile (a kernel timed "
                 "at <= 0); raise --inner_iters and retry\n");
    return 1;
  }

  std::printf("  forward SpMV      %10.4f ns/nnz\n", profile.ns_per_nnz_fwd);
  std::printf("  gradient scatter  %10.4f ns/nnz\n", profile.ns_per_nnz_grad);
  std::printf("  reduceStat add    %10.4f ns/element\n",
              profile.ns_per_element_dense);
  std::printf("  update sweep      %10.4f ns/element\n",
              profile.ns_per_element_update);
  std::printf("  counted-FLOP rate %10.4f GFLOP/s  (simulator charges at "
              "this rate)\n",
              profile.flops_per_second / 1e9);
  std::printf("  memory bandwidth  %10.4f GB/s\n",
              profile.mem_bandwidth_bytes_per_s / 1e9);

  Status save = kernels::SaveCalibrationProfile(profile, out);
  if (!save.ok()) {
    std::fprintf(stderr, "%s\n", save.ToString().c_str());
    return 1;
  }
  std::printf("profile written to %s (feed it back with "
              "--calibration=%s)\n",
              out.c_str(), out.c_str());
  return 0;
}

}  // namespace
}  // namespace colsgd

int main(int argc, char** argv) { return colsgd::Run(argc, argv); }
