#include "linalg/kernels/calibrate.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "linalg/kernels/kernels.h"
#include "obs/bench/json.h"

namespace colsgd {
namespace kernels {

namespace {

// Synthetic GLM workload: a CSR batch with uniform row density, a dense
// model, and ±1 labels. Indices are drawn without replacement per row so
// the scatter side never collides within a row (matching real data after
// dedup) and sorted ascending (the partitioner's shard layout).
struct Workload {
  std::vector<uint32_t> indices;
  std::vector<float> values;
  std::vector<SparseVectorView> rows;
  std::vector<float> labels;
  std::vector<double> model;

  void Build(size_t rows_n, size_t features, size_t nnz_per_row,
             uint64_t seed) {
    Rng rng(seed);
    indices.reserve(rows_n * nnz_per_row);
    values.reserve(rows_n * nnz_per_row);
    labels.reserve(rows_n);
    std::vector<uint32_t> pick;
    for (size_t i = 0; i < rows_n; ++i) {
      pick.clear();
      while (pick.size() < nnz_per_row) {
        const uint32_t f =
            static_cast<uint32_t>(rng.NextBounded(features));
        if (std::find(pick.begin(), pick.end(), f) == pick.end()) {
          pick.push_back(f);
        }
      }
      std::sort(pick.begin(), pick.end());
      for (uint32_t f : pick) {
        indices.push_back(f);
        values.push_back(static_cast<float>(rng.NextUniform(-1.0, 1.0)));
      }
      labels.push_back(rng.NextBernoulli(0.5) ? 1.0f : -1.0f);
    }
    rows.resize(rows_n);
    for (size_t i = 0; i < rows_n; ++i) {
      rows[i] = {indices.data() + i * nnz_per_row,
                 values.data() + i * nnz_per_row, nnz_per_row};
    }
    model.resize(features);
    for (size_t f = 0; f < features; ++f) {
      model[f] = rng.NextUniform(-0.5, 0.5);
    }
  }
};

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Times `body` (one full pass) `inner` times per repeat, keeping the
// fastest repeat. Returns seconds per single pass.
template <class Body>
double MinTimeSeconds(int64_t repeats, int64_t inner, const Body& body) {
  double best = 1e300;
  for (int64_t r = 0; r < repeats; ++r) {
    const double t0 = NowSeconds();
    for (int64_t k = 0; k < inner; ++k) body();
    const double dt = (NowSeconds() - t0) / static_cast<double>(inner);
    best = std::min(best, dt);
  }
  return best;
}

// Defeats dead-code elimination across timing loops.
volatile double g_sink = 0.0;

}  // namespace

bool CalibrationProfile::Valid() const {
  const double rates[] = {ns_per_nnz_fwd,      ns_per_nnz_grad,
                          ns_per_element_dense, ns_per_element_update,
                          flops_per_second,     mem_bandwidth_bytes_per_s};
  for (double r : rates) {
    if (!std::isfinite(r) || r <= 0.0) return false;
  }
  return schema == "colsgd.kernelcal/v1";
}

Status CalibratorOptions::Validate(const CalibratorOptions& options) {
  const std::pair<const char*, int64_t> counts[] = {
      {"rows", options.rows},
      {"features", options.features},
      {"nnz_per_row", options.nnz_per_row},
      {"dense_elements", options.dense_elements},
      {"repeats", options.repeats},
      {"inner_iters", options.inner_iters},
  };
  for (const auto& [name, value] : counts) {
    if (value < 1) {
      return Status::InvalidArgument(std::string(name) + " must be >= 1");
    }
  }
  if (options.nnz_per_row > options.features) {
    return Status::InvalidArgument(
        "nnz_per_row must be <= features (a row holds distinct features)");
  }
  return Status::OK();
}

KernelCalibrator::KernelCalibrator(CalibratorOptions options)
    : options_(options) {
  COLSGD_CHECK_OK(CalibratorOptions::Validate(options_));
}

uint64_t KernelCalibrator::FusedIterationFlops() const {
  return FusedIterationFlopsFor(options_.rows);
}

uint64_t KernelCalibrator::FusedIterationFlopsFor(size_t rows) const {
  // The engines' charging convention for one GLM point: 2 flops per nnz
  // forward (ComputePartialStats) + 2 per nnz gradient (AccumulateGrad).
  return 4 * static_cast<uint64_t>(rows) *
         static_cast<uint64_t>(options_.nnz_per_row);
}

double KernelCalibrator::MeasureFusedIterationSeconds(size_t rows) const {
  Workload w;
  w.Build(rows, static_cast<size_t>(options_.features),
          static_cast<size_t>(options_.nnz_per_row), options_.seed + 17);
  std::vector<double> scores(rows);
  std::vector<double> grad(static_cast<size_t>(options_.features), 0.0);
  const double t = MinTimeSeconds(options_.repeats, options_.inner_iters, [&] {
    std::fill(scores.begin(), scores.end(), 0.0);
    SpmvRows(w.rows.data(), rows, w.model.data(), scores.data());
    for (size_t i = 0; i < rows; ++i) {
      const double coeff =
          LinkCoeff(GlmLink::kLogistic, w.labels[i], scores[i]);
      const SparseVectorView& r = w.rows[i];
      SparseAxpy(r.indices, r.values, r.nnz, coeff, grad.data());
    }
    g_sink = g_sink + grad[0] + scores[rows - 1];
  });
  return t;
}

CalibrationProfile KernelCalibrator::Run() const {
  const size_t rows = static_cast<size_t>(options_.rows);
  Workload w;
  w.Build(rows, static_cast<size_t>(options_.features),
          static_cast<size_t>(options_.nnz_per_row), options_.seed);
  const uint64_t total_nnz = static_cast<uint64_t>(rows) *
                             static_cast<uint64_t>(options_.nnz_per_row);

  CalibrationProfile p;

  // Forward SpMV rate.
  std::vector<double> scores(rows);
  const double t_fwd =
      MinTimeSeconds(options_.repeats, options_.inner_iters, [&] {
        std::fill(scores.begin(), scores.end(), 0.0);
        SpmvRows(w.rows.data(), rows, w.model.data(), scores.data());
        g_sink = g_sink + scores[rows - 1];
      });
  p.ns_per_nnz_fwd = t_fwd * 1e9 / static_cast<double>(total_nnz);

  // Gradient scatter rate (coefficients precomputed so only the scatter is
  // timed).
  std::vector<double> coeffs(rows);
  for (size_t i = 0; i < rows; ++i) {
    coeffs[i] = LinkCoeff(GlmLink::kLogistic, w.labels[i], scores[i]);
  }
  std::vector<double> grad(static_cast<size_t>(options_.features), 0.0);
  const double t_grad =
      MinTimeSeconds(options_.repeats, options_.inner_iters, [&] {
        for (size_t i = 0; i < rows; ++i) {
          const SparseVectorView& r = w.rows[i];
          SparseAxpy(r.indices, r.values, r.nnz, coeffs[i], grad.data());
        }
        g_sink = g_sink + grad[0];
      });
  p.ns_per_nnz_grad = t_grad * 1e9 / static_cast<double>(total_nnz);

  // Dense element-wise rates.
  const size_t n = static_cast<size_t>(options_.dense_elements);
  std::vector<double> a(n, 1.0), b(n, 0.5);
  const double t_add =
      MinTimeSeconds(options_.repeats, options_.inner_iters, [&] {
        DenseAdd(a.data(), b.data(), n);
        g_sink = g_sink + b[n - 1];
      });
  p.ns_per_element_dense = t_add * 1e9 / static_cast<double>(n);
  // DenseAdd streams in + out reads and the out write: 24 bytes/element.
  p.mem_bandwidth_bytes_per_s = 24.0 * static_cast<double>(n) / t_add;

  const double t_axpy =
      MinTimeSeconds(options_.repeats, options_.inner_iters, [&] {
        DenseAxpy(1e-9, a.data(), b.data(), n);
        g_sink = g_sink + b[0];
      });
  p.ns_per_element_update = t_axpy * 1e9 / static_cast<double>(n);

  // Aggregate counted-FLOP rate from the fused iteration.
  const double t_fused = MeasureFusedIterationSeconds(rows);
  p.flops_per_second =
      static_cast<double>(FusedIterationFlops()) / t_fused;
  return p;
}

std::string SerializeCalibrationProfile(const CalibrationProfile& profile) {
  JsonValue obj = JsonValue::Object();
  obj.Set("schema", JsonValue::String(profile.schema));
  obj.Set("ns_per_nnz_fwd", JsonValue::Number(profile.ns_per_nnz_fwd));
  obj.Set("ns_per_nnz_grad", JsonValue::Number(profile.ns_per_nnz_grad));
  obj.Set("ns_per_element_dense",
          JsonValue::Number(profile.ns_per_element_dense));
  obj.Set("ns_per_element_update",
          JsonValue::Number(profile.ns_per_element_update));
  obj.Set("flops_per_second", JsonValue::Number(profile.flops_per_second));
  obj.Set("mem_bandwidth_bytes_per_s",
          JsonValue::Number(profile.mem_bandwidth_bytes_per_s));
  return obj.Serialize() + "\n";
}

Result<CalibrationProfile> ParseCalibrationProfile(const std::string& text) {
  Result<JsonValue> parsed = ParseJson(text);
  if (!parsed.ok()) return parsed.status();
  const JsonValue& obj = *parsed;
  if (!obj.is_object()) {
    return Status::InvalidArgument("calibration profile is not an object");
  }
  CalibrationProfile p;
  const JsonValue* schema = obj.Find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->string_value() != p.schema) {
    return Status::InvalidArgument(
        "calibration profile schema is not colsgd.kernelcal/v1");
  }
  struct Field {
    const char* key;
    double* slot;
  };
  const Field fields[] = {
      {"ns_per_nnz_fwd", &p.ns_per_nnz_fwd},
      {"ns_per_nnz_grad", &p.ns_per_nnz_grad},
      {"ns_per_element_dense", &p.ns_per_element_dense},
      {"ns_per_element_update", &p.ns_per_element_update},
      {"flops_per_second", &p.flops_per_second},
      {"mem_bandwidth_bytes_per_s", &p.mem_bandwidth_bytes_per_s},
  };
  for (const Field& f : fields) {
    const JsonValue* v = obj.Find(f.key);
    if (v == nullptr || !v->is_number()) {
      return Status::InvalidArgument(std::string("calibration profile lacks ") +
                                     f.key);
    }
    *f.slot = v->number_value();
  }
  if (!p.Valid()) {
    return Status::InvalidArgument(
        "calibration profile has non-positive or non-finite rates");
  }
  return p;
}

Result<CalibrationProfile> LoadCalibrationProfile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return ParseCalibrationProfile(text);
}

Status SaveCalibrationProfile(const CalibrationProfile& profile,
                              const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out << SerializeCalibrationProfile(profile);
  out.flush();
  if (!out) return Status::IOError("write to " + path + " failed");
  return Status::OK();
}

ComputeModel ComputeModelFromCalibration(const CalibrationProfile& profile) {
  ComputeModel model;
  model.flops_per_second = profile.flops_per_second;
  model.per_task_overhead = 0.0;
  return model;
}

}  // namespace kernels
}  // namespace colsgd
