// Degree-2 Factorization Machine with logistic loss
// (Appendix VIII-D of the paper; Rendle 2010).
//
// Feature f owns 1 + F weight slots: [w_f, v_{f,1}, ..., v_{f,F}].
// Using the paper's Equation 10 rewrite,
//
//   y(x) = sum_f w_f x_f - 1/2 sum_c sum_f v_{f,c}^2 x_f^2
//          + 1/2 sum_c (sum_f v_{f,c} x_f)^2
//
// the statistics per data point are F+1 numbers that are additive across
// column partitions:
//   stat_0   = sum_f (w_f x_f - 1/2 sum_c v_{f,c}^2 x_f^2)
//   stat_c   = sum_f v_{f,c} x_f,   c = 1..F
// so y(x) = stat_0 + 1/2 sum_c stat_c^2 after aggregation.
#ifndef COLSGD_MODEL_FM_H_
#define COLSGD_MODEL_FM_H_

#include "model/model_spec.h"

namespace colsgd {

class FactorizationMachine : public ModelSpec {
 public:
  /// \param num_factors F, the latent dimensionality.
  /// \param init_scale  stddev of the latent-factor initialization.
  explicit FactorizationMachine(int num_factors, double init_scale = 0.01)
      : num_factors_(num_factors), init_scale_(init_scale) {
    COLSGD_CHECK_GE(num_factors, 1);
  }

  std::string name() const override {
    return "fm" + std::to_string(num_factors_);
  }
  int weights_per_feature() const override { return 1 + num_factors_; }
  int stats_per_point() const override { return 1 + num_factors_; }
  int num_factors() const { return num_factors_; }

  /// \brief w starts at 0; latent factors at small hash-seeded Gaussians
  /// (a zero V would have zero gradient and never move).
  double InitWeight(uint64_t feature, int j, uint64_t seed) const override;

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

  /// \brief The FM output y(x) of Equation 9/10.
  double RowScore(const SparseVectorView& row,
                  const std::vector<double>& model) const override;

  /// \brief y(x) = stat_0 + 1/2 sum_c stat_c^2 from one point's aggregated
  /// statistics.
  double ScoreFromStats(const double* stats) const override;

 private:
  /// \brief Logistic loss/coefficient on the FM score.
  static double PointLoss(double y, double score);
  static double PointCoeff(double y, double score);

  int num_factors_;
  double init_scale_;
};

}  // namespace colsgd

#endif  // COLSGD_MODEL_FM_H_
