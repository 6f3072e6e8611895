#include "engine/trainer.h"

#include <algorithm>

#include "engine/columnsgd.h"
#include "engine/mllib_star.h"
#include "engine/ps.h"
#include "engine/rowsgd.h"

namespace colsgd {

double EvaluateLoss(const ModelSpec& model, const std::vector<double>& weights,
                    const Dataset& dataset, size_t max_rows) {
  const size_t rows = std::min(max_rows, dataset.num_rows());
  COLSGD_CHECK_GT(rows, 0u);
  double loss = 0.0;
  for (size_t i = 0; i < rows; ++i) {
    loss += model.RowLoss(dataset.rows.Row(i), dataset.labels[i], weights,
                          nullptr);
  }
  return loss / static_cast<double>(rows);
}

TrainResult RunTraining(Engine* engine, const Dataset& dataset,
                        const RunOptions& options) {
  TrainResult result;
  result.engine = engine->name();

  result.status = engine->Setup(dataset);
  if (!result.status.ok()) return result;
  result.load_time = engine->load_time();

  // Timing is read at the master: its clock marks when each iteration's
  // statistics/gradients are in and the next can be dispatched. (MaxClock
  // would instead track the slowest laggard, which under backup computation
  // is exactly the straggler the protocol is designed not to wait for.)
  ClusterRuntime& runtime = engine->runtime();
  const TrafficStats before = runtime.net().TotalStats();
  const SimTime train_start = runtime.clock(runtime.master());

  for (int64_t iter = 0; iter < options.iterations; ++iter) {
    result.status = engine->RunIteration(iter);
    if (!result.status.ok()) return result;
    if (options.record_trace) {
      IterationRecord record;
      record.iteration = iter;
      record.sim_time = runtime.clock(runtime.master());
      record.batch_loss = engine->last_batch_loss();
      if (options.eval_every > 0 && engine->model().SupportsRowPath() &&
          (iter % options.eval_every == 0 || iter + 1 == options.iterations)) {
        record.eval_loss = EvaluateLoss(engine->model(), engine->FullModel(),
                                        dataset, options.eval_rows);
        if (engine->recorder() != nullptr) {
          engine->recorder()->SetEvalLoss(iter, record.eval_loss);
        }
      }
      result.trace.push_back(record);
    }
  }

  // Under SSP this drains the in-flight update pipeline so the final model
  // reflects every sent update; a no-op for BSP engines. Runs before the
  // timing reads so train_time includes the drain.
  result.status = engine->FinishTraining();
  if (!result.status.ok()) return result;

  const TrafficStats after = runtime.net().TotalStats();
  result.train_time = runtime.clock(runtime.master()) - train_start;
  result.avg_iter_time =
      result.train_time / static_cast<double>(options.iterations);
  result.bytes_on_wire = after.bytes_sent - before.bytes_sent;
  result.messages = after.messages_sent - before.messages_sent;
  result.recovery = engine->recovery_metrics();
  if (engine->tracer() != nullptr) {
    result.phase_trace = engine->tracer()->iterations();
    for (const IterationPhases& iter : result.phase_trace) {
      for (int p = 0; p < static_cast<int>(Phase::kNumPhases); ++p) {
        result.phase_totals.seconds[p] += iter.phases.seconds[p];
      }
    }
  }
  if (engine->recorder() != nullptr) {
    result.series = engine->recorder()->samples();
  }
  return result;
}

std::unique_ptr<Engine> MakeEngine(const std::string& name,
                                   const ClusterSpec& cluster_spec,
                                   const TrainConfig& config) {
  if (name == "columnsgd") {
    return std::make_unique<ColumnSgdEngine>(cluster_spec, config);
  }
  if (name == "mllib") {
    return std::make_unique<MllibEngine>(cluster_spec, config);
  }
  if (name == "mllib_star") {
    return std::make_unique<MllibStarEngine>(cluster_spec, config);
  }
  if (name == "petuum") {
    PsOptions options;
    options.sparse_pull = false;
    return std::make_unique<PsEngine>(cluster_spec, config, options);
  }
  if (name == "mxnet") {
    PsOptions options;
    options.sparse_pull = true;
    return std::make_unique<PsEngine>(cluster_spec, config, options);
  }
  COLSGD_CHECK(false) << "unknown engine: " << name;
  return nullptr;
}

const std::vector<std::string>& EngineNames() {
  static const std::vector<std::string> names = {
      "columnsgd", "mllib", "mllib_star", "petuum", "mxnet"};
  return names;
}

}  // namespace colsgd
