// Training driver: runs an engine for T iterations and collects the trace
// and summary statistics used by the benchmark harnesses.
#ifndef COLSGD_ENGINE_TRAINER_H_
#define COLSGD_ENGINE_TRAINER_H_

#include <memory>
#include <string>
#include <vector>

#include "engine/api.h"
#include "storage/dataset.h"

namespace colsgd {

struct RunOptions {
  int64_t iterations = 100;
  /// Every `eval_every` iterations, additionally evaluate the exact average
  /// loss of the current model on the first `eval_rows` rows of the dataset.
  /// This is instrumentation (not charged to simulated time). 0 disables.
  int64_t eval_every = 0;
  size_t eval_rows = 10000;
  bool record_trace = true;
};

/// \brief Runs Setup + `iterations` SGD iterations; never dies on an engine
/// error (e.g. OutOfMemory), which is reported in the result's status.
TrainResult RunTraining(Engine* engine, const Dataset& dataset,
                        const RunOptions& options);

/// \brief Exact average data loss of a full (global-layout) model over the
/// first `max_rows` rows.
double EvaluateLoss(const ModelSpec& model, const std::vector<double>& weights,
                    const Dataset& dataset, size_t max_rows);

/// \brief Engine factory for benches/examples: "columnsgd", "mllib",
/// "mllib_star", "petuum" (dense PS), "mxnet" (sparse-pull PS).
std::unique_ptr<Engine> MakeEngine(const std::string& name,
                                   const ClusterSpec& cluster_spec,
                                   const TrainConfig& config);

/// \brief The names MakeEngine accepts, so a tool can reject a bad name
/// before any work starts.
const std::vector<std::string>& EngineNames();

}  // namespace colsgd

#endif  // COLSGD_ENGINE_TRAINER_H_
