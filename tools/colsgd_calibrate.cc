// colsgd_calibrate: measures the executed kernels on THIS host and writes a
// colsgd.kernelcal/v1 profile (DESIGN.md §12).
//
// The profile prices the simulator's counted FLOPs at the rate the real
// SpMV / scatter / dense kernels achieve here, closing the loop between the
// analytic cost model and the hardware underneath:
//
//   colsgd_calibrate --out host.kernelcal.json
//   colsgd_calibrate --mode simd --rows 8192 --out simd.kernelcal.json
//   colsgd_train --synthetic tiny --calibration host.kernelcal.json
//
// Profiles are (host, kernel-mode) artifacts — re-run the calibrator on
// every machine; never commit one as a golden.
#include <cstdio>

#include "common/flags.h"
#include "linalg/kernels/calibrate.h"
#include "linalg/kernels/thread_pool.h"

namespace colsgd {
namespace {

int Run(int argc, char** argv) {
  FlagParser flags;
  std::string out;
  std::string mode_name = "scalar";
  kernels::CalibratorOptions options;
  int64_t rows = static_cast<int64_t>(options.rows);
  int64_t features = static_cast<int64_t>(options.features);
  int64_t nnz_per_row = static_cast<int64_t>(options.nnz_per_row);
  int64_t dense_elements = static_cast<int64_t>(options.dense_elements);
  int64_t repeats = options.repeats;
  int64_t inner_iters = options.inner_iters;
  int64_t seed = static_cast<int64_t>(options.seed);
  int64_t threads = 0;

  flags.AddString("out", &out, "write the profile JSON here (required)");
  flags.AddString("mode", &mode_name,
                  "kernel mode to calibrate: scalar | simd | threaded");
  flags.AddInt64("rows", &rows, "calibration batch rows");
  flags.AddInt64("features", &features, "calibration model dimension");
  flags.AddInt64("nnz_per_row", &nnz_per_row, "non-zeros per synthetic row");
  flags.AddInt64("dense_elements", &dense_elements,
                 "dense kernel vector length");
  flags.AddInt64("repeats", &repeats, "timing repeats (minimum is kept)");
  flags.AddInt64("inner_iters", &inner_iters, "workload passes per repeat");
  flags.AddInt64("seed", &seed, "synthetic workload seed");
  flags.AddInt64("threads", &threads,
                 "threaded mode: pool worker threads (0: hardware default)");
  flags.ParseOrExit(argc, argv, [&] {
    return out.empty() ? Status::InvalidArgument("--out is required")
                       : Status::OK();
  });
  kernels::KernelMode mode;
  if (!kernels::ParseKernelMode(mode_name, &mode)) {
    std::fprintf(stderr, "--mode must be scalar|simd|threaded, got '%s'\n",
                 mode_name.c_str());
    return 2;
  }
  if (threads > 0) kernels::SetKernelThreads(static_cast<int>(threads));

  options.rows = static_cast<size_t>(rows);
  options.features = static_cast<size_t>(features);
  options.nnz_per_row = static_cast<size_t>(nnz_per_row);
  options.dense_elements = static_cast<size_t>(dense_elements);
  options.repeats = static_cast<int>(repeats);
  options.inner_iters = static_cast<int>(inner_iters);
  options.seed = static_cast<uint64_t>(seed);

  const kernels::KernelCalibrator calibrator(options);
  std::printf("calibrating %s kernels: %lld rows x %lld nnz, dim %lld, "
              "dense %lld, %lld repeats x %lld passes...\n",
              kernels::KernelModeName(mode), static_cast<long long>(rows),
              static_cast<long long>(nnz_per_row),
              static_cast<long long>(features),
              static_cast<long long>(dense_elements),
              static_cast<long long>(repeats),
              static_cast<long long>(inner_iters));
  const kernels::CalibrationProfile profile = calibrator.Run(mode);
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
