// Generalized linear models: Logistic Regression and linear SVM
// (Appendix VIII-A/B of the paper).
//
// Both share the same statistics — the dot product <w, x> per data point —
// and differ only in the loss and its derivative, so they share one base
// class parameterized by the margin-based loss.
#ifndef COLSGD_MODEL_GLM_H_
#define COLSGD_MODEL_GLM_H_

#include "linalg/kernels/kernels.h"
#include "model/model_spec.h"

namespace colsgd {

/// \brief Base for binary margin-based GLMs (labels +-1, one weight per
/// feature, statistics = dot products). All math executes through the
/// kernel layer (linalg/kernels); the loss family is named by link().
class BinaryGlm : public ModelSpec {
 public:
  int weights_per_feature() const override { return 1; }
  int stats_per_point() const override { return 1; }

  void ComputePartialStats(const BatchView& batch,
                           const std::vector<double>& local_model,
                           std::vector<double>* stats,
                           FlopCounter* flops) const override;

  void AccumulateGradFromStats(const BatchView& batch,
                               const std::vector<double>& agg_stats,
                               const std::vector<double>& local_model,
                               GradAccumulator* grad,
                               FlopCounter* flops) const override;

  double BatchLossFromStats(const std::vector<double>& agg_stats,
                            const std::vector<float>& labels) const override;

  void AccumulateRowGradient(const SparseVectorView& row, float label,
                             const std::vector<double>& model,
                             GradAccumulator* grad,
                             FlopCounter* flops) const override;

  double RowLoss(const SparseVectorView& row, float label,
                 const std::vector<double>& model,
                 FlopCounter* flops) const override;

  void RowBatchForwardGrad(const BatchView& batch,
                           const std::vector<double>& model, GradTerms* terms,
                           double* row_losses,
                           FlopCounter* flops) const override;

  /// \brief The margin <w, x>.
  double RowScore(const SparseVectorView& row,
                  const std::vector<double>& model) const override {
    return kernels::SparseDot(row.indices, row.values, row.nnz, model.data());
  }

  /// \brief The margin is exactly the (single) aggregated statistic.
  double ScoreFromStats(const double* stats) const override {
    return stats[0];
  }

  /// \brief The margin-based loss family (kernel-layer link functions).
  virtual kernels::GlmLink link() const = 0;

  /// \brief Loss of one point given label y in {-1,+1} and margin score s.
  double PointLoss(double y, double s) const {
    return kernels::LinkLoss(link(), y, s);
  }
  /// \brief dLoss/ds — the per-point coefficient multiplying the feature
  /// vector in the gradient.
  double PointCoeff(double y, double s) const {
    return kernels::LinkCoeff(link(), y, s);
  }
};

/// \brief Logistic regression: loss log(1 + exp(-y s)).
class LogisticRegression : public BinaryGlm {
 public:
  std::string name() const override { return "lr"; }
  kernels::GlmLink link() const override {
    return kernels::GlmLink::kLogistic;
  }
};

/// \brief Linear SVM with hinge loss max(0, 1 - y s) (subgradient SGD).
class LinearSvm : public BinaryGlm {
 public:
  std::string name() const override { return "svm"; }
  kernels::GlmLink link() const override { return kernels::GlmLink::kHinge; }
};

/// \brief Least-squares regression: loss (s - y)^2 / 2 over real labels
/// (the first GLM the paper names in Section II-C's applicability list).
class LeastSquares : public BinaryGlm {
 public:
  std::string name() const override { return "lsq"; }
  kernels::GlmLink link() const override {
    return kernels::GlmLink::kSquared;
  }
};

}  // namespace colsgd

#endif  // COLSGD_MODEL_GLM_H_
