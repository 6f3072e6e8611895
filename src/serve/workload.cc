#include "serve/workload.h"

#include <cmath>

#include "common/check.h"
#include "common/rng.h"
#include "model/factory.h"

namespace colsgd {

Status WorkloadConfig::Validate(const WorkloadConfig& config) {
  if (config.arrivals != "poisson" && config.arrivals != "burst" &&
      config.arrivals != "diurnal" && config.arrivals != "flash") {
    return Status::InvalidArgument("unknown arrival process: " +
                                   config.arrivals);
  }
  if (!(config.rate > 0.0)) {
    return Status::InvalidArgument("rate must be positive");
  }
  if (config.num_requests < 0) {
    return Status::InvalidArgument("num_requests must be >= 0");
  }
  if (config.arrivals == "burst") {
    if (!(config.burst_period > 0.0) || !(config.burst_duration > 0.0) ||
        config.burst_duration > config.burst_period) {
      return Status::InvalidArgument(
          "burst needs 0 < burst_duration <= burst_period");
    }
    if (!(config.burst_factor >= 1.0)) {
      return Status::InvalidArgument("burst_factor must be >= 1");
    }
  }
  if (config.arrivals == "diurnal") {
    if (!(config.diurnal_period > 0.0)) {
      return Status::InvalidArgument("diurnal_period must be positive");
    }
    if (!(config.diurnal_amplitude >= 0.0) ||
        !(config.diurnal_amplitude <= 1.0)) {
      return Status::InvalidArgument("diurnal_amplitude must be in [0, 1]");
    }
    if (!(config.diurnal_phase >= 0.0) || !(config.diurnal_phase < 1.0)) {
      return Status::InvalidArgument("diurnal_phase must be in [0, 1)");
    }
  }
  if (config.arrivals == "flash") {
    if (!(config.flash_at >= 0.0) || !(config.flash_duration > 0.0)) {
      return Status::InvalidArgument(
          "flash needs flash_at >= 0 and flash_duration > 0");
    }
    if (!(config.flash_factor >= 1.0)) {
      return Status::InvalidArgument("flash_factor must be >= 1");
    }
  }
  return Status::OK();
}

double WorkloadRateAt(const WorkloadConfig& config, double t) {
  if (config.arrivals == "burst") {
    const double phase = std::fmod(t, config.burst_period);
    return phase < config.burst_duration ? config.rate * config.burst_factor
                                         : config.rate;
  }
  if (config.arrivals == "diurnal") {
    constexpr double kTwoPi = 6.283185307179586;
    const double swing = std::sin(
        kTwoPi * (t / config.diurnal_period + config.diurnal_phase));
    const double rate = config.rate * (1.0 + config.diurnal_amplitude * swing);
    // The trough never goes fully dark: a deployed service keeps a floor of
    // background traffic, and a zero rate would make the next gap infinite.
    return std::max(rate, 0.05 * config.rate);
  }
  if (config.arrivals == "flash") {
    const bool inside = t >= config.flash_at &&
                        t < config.flash_at + config.flash_duration;
    return inside ? config.rate * config.flash_factor : config.rate;
  }
  return config.rate;
}

std::vector<ServeRequest> GenerateArrivals(const WorkloadConfig& config,
                                           size_t num_query_rows) {
  COLSGD_CHECK_OK(WorkloadConfig::Validate(config));
  COLSGD_CHECK_GT(num_query_rows, 0u);

  Rng gap_rng = Rng(config.seed).Split(1);
  Rng row_rng = Rng(config.seed).Split(2);

  std::vector<ServeRequest> requests;
  requests.reserve(static_cast<size_t>(config.num_requests));
  double t = 0.0;
  for (int64_t i = 0; i < config.num_requests; ++i) {
    // Exponential gap at the instantaneous rate. For the square-wave this
    // is an inhomogeneous-process approximation (the gap is drawn at the
    // rate in effect when it starts), which keeps generation O(1) per
    // request and exactly reproducible.
    double u = gap_rng.NextDouble();
    if (u < 1e-300) u = 1e-300;
    t += -std::log(u) / WorkloadRateAt(config, t);
    ServeRequest req;
    req.id = static_cast<uint64_t>(i);
    req.arrival = t;
    req.row = static_cast<uint32_t>(row_rng.NextBounded(num_query_rows));
    requests.push_back(req);
  }
  return requests;
}

SavedModel PlantedModel(const std::string& model_name, uint64_t num_features,
                        uint64_t seed) {
  std::unique_ptr<ModelSpec> spec = MakeModel(model_name);
  SavedModel model;
  model.model_name = model_name;
  model.num_features = num_features;
  model.weights.resize(num_features *
                       static_cast<uint64_t>(spec->weights_per_feature()));
  for (uint64_t slot = 0; slot < model.weights.size(); ++slot) {
    model.weights[slot] = 0.05 * GaussianFromHash(slot + 1, seed);
  }
  model.shared.resize(spec->num_shared_params());
  for (size_t i = 0; i < model.shared.size(); ++i) {
    model.shared[i] = 0.01 * GaussianFromHash(0x51a3edULL + i, seed);
  }
  return model;
}

}  // namespace colsgd
