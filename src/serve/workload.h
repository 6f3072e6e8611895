// Open-loop workload generation for the serving plane.
//
// Arrivals are generated ahead of time from a seed — the load does not
// react to the system (open loop), which is what makes queueing delay
// visible when the frontend falls behind. Four processes:
//
//  * "poisson": homogeneous Poisson arrivals at `rate` requests/second
//    (exponential inter-arrival gaps);
//  * "burst": a piecewise-constant-rate Poisson process that alternates
//    between the base rate and rate * burst_factor for burst_duration
//    seconds out of every burst_period — a repeating square wave;
//  * "diurnal": a sinusoidal rate curve, rate * (1 + amplitude *
//    sin(2*pi*(t/period + phase))) clamped to >= 5% of the base rate — a
//    compressed day/night traffic cycle;
//  * "flash": the base rate with ONE flash crowd: rate * flash_factor for
//    flash_duration seconds starting at flash_at — the scenario a routing
//    tier must shed load through (DESIGN.md §17 degradation ladder).
//
// Each request references one row of a query dataset (drawn uniformly from
// an independent RNG stream), so online scores are directly comparable with
// the offline kernel over the same rows. PlantedModel is the model such a
// workload serves when nothing was trained: the CLI, the serving bench, the
// chaos scenarios and the tests all draw it from a seed.
#ifndef COLSGD_SERVE_WORKLOAD_H_
#define COLSGD_SERVE_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/model_io.h"

namespace colsgd {

/// \brief One inference request: a query-dataset row arriving at a
/// simulated time.
struct ServeRequest {
  uint64_t id = 0;
  double arrival = 0.0;  // simulated seconds
  uint32_t row = 0;      // index into the query dataset
};

struct WorkloadConfig {
  // "poisson" | "burst" | "diurnal" | "flash"
  std::string arrivals = "poisson";
  double rate = 2000.0;  // base arrival rate, requests/second
  int64_t num_requests = 1000;
  uint64_t seed = 1;
  // Burst shape (arrivals == "burst").
  double burst_period = 0.050;    // seconds from burst start to burst start
  double burst_duration = 0.010;  // seconds of elevated rate per period
  double burst_factor = 8.0;      // rate multiplier inside a burst
  // Diurnal shape (arrivals == "diurnal").
  double diurnal_period = 0.200;   // seconds per simulated "day"
  double diurnal_amplitude = 0.8;  // peak-to-base swing, in [0, 1]
  double diurnal_phase = 0.0;      // fraction of a period, [0, 1)
  // Flash-crowd shape (arrivals == "flash").
  double flash_at = 0.050;        // seconds; start of the flash crowd
  double flash_duration = 0.020;  // seconds of elevated rate
  double flash_factor = 10.0;     // rate multiplier inside the flash

  static Status Validate(const WorkloadConfig& config);
};

/// \brief Instantaneous request rate of `config` at time `t` (the shape the
/// thinning generator draws gaps from; exposed for tests and benches).
double WorkloadRateAt(const WorkloadConfig& config, double t);

/// \brief Generates `config.num_requests` arrivals, sorted by time, with
/// rows drawn uniformly from [0, num_query_rows). Deterministic in the seed.
std::vector<ServeRequest> GenerateArrivals(const WorkloadConfig& config,
                                           size_t num_query_rows);

/// \brief A `model_name` model over `num_features` features with planted
/// Gaussian parameters drawn from `seed`: weights 0.05 x N(0, 1), shared
/// parameters 0.01 x N(0, 1). `model_name` must name a known model.
SavedModel PlantedModel(const std::string& model_name, uint64_t num_features,
                        uint64_t seed);

}  // namespace colsgd

#endif  // COLSGD_SERVE_WORKLOAD_H_
