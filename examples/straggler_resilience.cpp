// Straggler resilience with backup computation (Section IV-B / Fig. 6).
//
// Runs the same LR workload four ways — no stragglers, a level-5 straggler
// with no defense, and 1-backup computation without and with the straggler —
// and shows that (a) backup restores the per-iteration time and (b) the
// 1-backup model is bit-for-bit unaffected by the straggler: the backup
// replica recovers the statistics exactly. The comparison is between the two
// 1-backup runs because backup halves the column groups (8 -> 4), and the
// statistics of 4 groups are reduced in another order than those of 8.
// Exits 1 if the two 1-backup models differ in any bit.
#include <cstdio>
#include <cstring>

#include "datagen/synthetic.h"
#include "engine/columnsgd.h"

namespace {

struct RunOutcome {
  double ms_per_iter;
  std::vector<double> model;
};

RunOutcome Run(const colsgd::Dataset& dataset, int backup,
               double straggler_level) {
  using namespace colsgd;
  TrainConfig config;
  config.model = "lr";
  config.learning_rate = 1.0;
  config.batch_size = 1000;
  ClusterSpec cluster = ClusterSpec::Cluster1();
  ColumnSgdOptions options;
  options.backup = backup;
  ColumnSgdEngine engine(cluster, config, std::move(options));
  if (straggler_level > 0) {
    FaultPlanConfig plan;
    plan.seed = 4242;
    plan.stragglers.mode = StragglerSpec::Mode::kRotating;
    plan.stragglers.level = straggler_level;
    FaultConfig faults;
    faults.plan = FaultPlan(plan);
    engine.set_faults(faults);
  }
  COLSGD_CHECK_OK(engine.Setup(dataset));
  const NodeId master = engine.runtime().master();
  const double start = engine.runtime().clock(master);
  const int iters = 50;
  for (int i = 0; i < iters; ++i) {
    COLSGD_CHECK_OK(engine.RunIteration(i));
  }
  return {1e3 * (engine.runtime().clock(master) - start) / iters,
          engine.FullModel()};
}

}  // namespace

int main() {
  using namespace colsgd;
  SyntheticSpec spec = KddbSimSpec();
  spec.num_rows = 40000;
  Dataset dataset = GenerateSynthetic(spec);

  std::printf("%-28s %12s\n", "configuration", "ms/iter");
  const RunOutcome pure = Run(dataset, /*backup=*/0, /*straggler_level=*/0);
  std::printf("%-28s %12.2f\n", "no stragglers", pure.ms_per_iter);
  const RunOutcome straggled = Run(dataset, 0, 5.0);
  std::printf("%-28s %12.2f\n", "level-5 straggler, no backup",
              straggled.ms_per_iter);
  const RunOutcome backup_pure = Run(dataset, 1, 0);
  std::printf("%-28s %12.2f\n", "no stragglers, 1-backup",
              backup_pure.ms_per_iter);
  const RunOutcome backed = Run(dataset, 1, 5.0);
  std::printf("%-28s %12.2f\n", "level-5 straggler, 1-backup",
              backed.ms_per_iter);

  // The recovery is exact: the model equals the straggler-free 1-backup
  // run's in every bit.
  COLSGD_CHECK_EQ(backup_pure.model.size(), backed.model.size());
  size_t differing = 0;
  for (size_t i = 0; i < backup_pure.model.size(); ++i) {
    differing += std::memcmp(&backup_pure.model[i], &backed.model[i],
                             sizeof(double)) != 0;
  }
  std::printf(
      "\n1-backup models with and without the straggler: %zu of %zu slots "
      "differ (backup recovers the statistics exactly; only the timing "
      "changes)\n",
      differing, backup_pure.model.size());
  std::printf(
      "slowdown without defense: %.1fx; with 1-backup: %.2fx\n",
      straggled.ms_per_iter / pure.ms_per_iter,
      backed.ms_per_iter / pure.ms_per_iter);
  return differing == 0 ? 0 : 1;
}
