// MLlib* baseline (Zhang et al., ICDE 2019): model averaging with an
// AllReduce, the strongest Spark-based RowSGD contender in the paper.
//
// Every worker keeps a full model replica; per outer iteration each worker
// takes `local_steps` mini-batch SGD steps on its own partition, then the
// replicas are averaged with a ring AllReduce (2(K-1) pipelined chunk
// exchanges, ~2*m/K bytes per node per step — bandwidth-optimal, unlike the
// master-centric broadcast of plain MLlib).
#ifndef COLSGD_ENGINE_MLLIB_STAR_H_
#define COLSGD_ENGINE_MLLIB_STAR_H_

#include <memory>
#include <vector>

#include "engine/api.h"
#include "engine/row_step.h"

namespace colsgd {

struct MllibStarOptions {
  /// Local SGD steps between averaging rounds (model averaging); 1 recovers
  /// synchronized parallel mini-batch SGD with an AllReduce.
  int local_steps = 2;
};

class MllibStarEngine : public Engine {
 public:
  MllibStarEngine(const ClusterSpec& cluster_spec, const TrainConfig& config,
                  MllibStarOptions options = {});

  std::string name() const override { return "mllib_star"; }
  Status Setup(const Dataset& dataset) override;
  /// \brief The averaged model (all replicas are equal right after an
  /// iteration's AllReduce).
  std::vector<double> FullModel() const override { return replicas_[0]; }

 protected:
  Status DoRunIteration(int64_t iteration) override;
  /// \brief Ring repair: the failed worker's ring successor ships it a full
  /// replica (all replicas are equal after each iteration's average, so no
  /// updates are lost), the worker re-reads its row partition, and a fresh
  /// averaging round re-establishes the invariant.
  void RecoverWorkerFailure(const FaultEvent& event) override;

 private:
  void RingAllReduceAverage(int64_t iteration);

  MllibStarOptions options_;
  uint64_t num_features_ = 0;
  std::vector<std::vector<double>> replicas_;  // one model copy per worker
  std::vector<std::vector<double>> opt_states_;
  std::vector<std::unique_ptr<Optimizer>> optimizers_;
  std::unique_ptr<GradAccumulator> grad_;  // shared scratch, reset per step
  std::unique_ptr<GradTerms> terms_;       // one local step's terms
  RowPartitions data_;
};

}  // namespace colsgd

#endif  // COLSGD_ENGINE_MLLIB_STAR_H_
