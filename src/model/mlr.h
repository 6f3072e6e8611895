// Multinomial Logistic Regression (Appendix VIII-C of the paper).
//
// The model is an m x C matrix; feature f owns C consecutive weight slots.
// Statistics per data point are the C dot products <w_c, x>; after
// aggregation every worker recovers the softmax locally.
#ifndef COLSGD_MODEL_MLR_H_
#define COLSGD_MODEL_MLR_H_

#include "model/model_spec.h"

namespace colsgd {

class MultinomialLogisticRegression : public ModelSpec {
 public:
  explicit MultinomialLogisticRegression(int num_classes)
      : num_classes_(num_classes) {
    COLSGD_CHECK_GE(num_classes, 2);
  }

  std::string name() const override {
    return "mlr" + std::to_string(num_classes_);
  }
  int weights_per_feature() const override { return num_classes_; }
  int stats_per_point() const override { return num_classes_; }
  int num_classes() const { return num_classes_; }

  /// \brief Every label must be an integer class id in [0, C).
  Status CheckLabels(const std::vector<float>& labels) const override;

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

  /// \brief The predicted class: argmax over the C aggregated dot products
  /// (the softmax is monotone, so no exponentials are needed). Ties break
  /// toward the smaller class id.
  double ScoreFromStats(const double* stats) const override {
    int best = 0;
    for (int c = 1; c < num_classes_; ++c) {
      if (stats[c] > stats[best]) best = c;
    }
    return static_cast<double>(best);
  }

 private:
  /// \brief Softmax probabilities from the C scores of one point.
  void Softmax(const double* scores, std::vector<double>* probs) const;
  /// \brief The class id of a label that passed CheckLabels.
  int Target(float label) const {
    const int target = static_cast<int>(label);
    COLSGD_CHECK_GE(target, 0);
    COLSGD_CHECK_LT(target, num_classes_);
    return target;
  }

  int num_classes_;
};

}  // namespace colsgd

#endif  // COLSGD_MODEL_MLR_H_
