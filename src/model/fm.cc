#include "model/fm.h"

#include <cmath>

#include "common/rng.h"
#include "linalg/kernels/kernels.h"

namespace colsgd {

double FactorizationMachine::InitWeight(uint64_t feature, int j,
                                        uint64_t seed) const {
  if (j == 0) return 0.0;
  const uint64_t slot = feature * static_cast<uint64_t>(1 + num_factors_) +
                        static_cast<uint64_t>(j);
  return init_scale_ * GaussianFromHash(slot, seed);
}

void FactorizationMachine::ComputePartialStats(
    const BatchView& batch, const std::vector<double>& local_model,
    std::vector<double>* stats, FlopCounter* flops) const {
  const int F = num_factors_;
  const int wpf = 1 + F;
  COLSGD_CHECK_EQ(stats->size(), batch.size() * static_cast<size_t>(wpf));
  kernels::FmForwardRows(batch.rows.data(), batch.size(), F,
                         local_model.data(), stats->data());
  uint64_t work = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    work += batch.rows[i].nnz * (4 + 5 * static_cast<uint64_t>(F));
  }
  if (flops != nullptr) flops->Add(work);
}

double FactorizationMachine::ScoreFromStats(const double* stats) const {
  double score = stats[0];
  for (int c = 1; c <= num_factors_; ++c) {
    score += 0.5 * stats[c] * stats[c];
  }
  return score;
}

double FactorizationMachine::PointLoss(double y, double score) {
  return kernels::LinkLoss(kernels::GlmLink::kLogistic, y, score);
}

double FactorizationMachine::PointCoeff(double y, double score) {
  return kernels::LinkCoeff(kernels::GlmLink::kLogistic, y, score);
}

void FactorizationMachine::AccumulateGradFromStats(
    const BatchView& batch, const std::vector<double>& agg_stats,
    const std::vector<double>& local_model, GradAccumulator* grad,
    FlopCounter* flops) const {
  const int F = num_factors_;
  const int wpf = 1 + F;
  COLSGD_CHECK_EQ(agg_stats.size(), batch.size() * static_cast<size_t>(wpf));
  COLSGD_CHECK_EQ(grad->width(), wpf);
  std::vector<double> block(wpf);
  uint64_t work = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    const double* stats = agg_stats.data() + i * wpf;
    const double coeff = PointCoeff(batch.labels[i], ScoreFromStats(stats));
    if (coeff == 0.0) continue;
    const SparseVectorView& row = batch.rows[i];
    for (size_t j = 0; j < row.nnz; ++j) {
      const double x = row.values[j];
      const uint64_t base = static_cast<uint64_t>(row.indices[j]) * wpf;
      const double* w = local_model.data() + base;
      // Equation 12: dL/dw_f = coeff * x_f.
      block[0] = coeff * x;
      // Equation 13: dL/dv_{f,c} = coeff * (x_f * stat_c - v_{f,c} x_f^2),
      // where stat_c = sum_j v_{j,c} x_j is the aggregated dot product.
      const double x2 = x * x;
      for (int c = 1; c <= F; ++c) {
        block[c] = coeff * (x * stats[c] - w[c] * x2);
      }
      grad->Add(base, block.data());
    }
    work += row.nnz * (3 + 5 * static_cast<uint64_t>(F));
  }
  if (flops != nullptr) flops->Add(work);
}

double FactorizationMachine::BatchLossFromStats(
    const std::vector<double>& agg_stats,
    const std::vector<float>& labels) const {
  const int wpf = 1 + num_factors_;
  COLSGD_CHECK_EQ(agg_stats.size(), labels.size() * static_cast<size_t>(wpf));
  double loss = 0.0;
  for (size_t i = 0; i < labels.size(); ++i) {
    loss += PointLoss(labels[i], ScoreFromStats(agg_stats.data() + i * wpf));
  }
  return loss;
}

void FactorizationMachine::AccumulateRowGradient(const SparseVectorView& row,
                                                 float label,
                                                 const std::vector<double>& model,
                                                 GradAccumulator* grad,
                                                 FlopCounter* flops) const {
  // Single-node version: compute the F+1 statistics of this row, then reuse
  // the stats-based gradient. This is exactly what the column path does with
  // one partition, which keeps the two paths trivially consistent.
  const int wpf = 1 + num_factors_;
  std::vector<double> stats(wpf, 0.0);
  BatchView batch;
  batch.rows = {row};
  batch.labels = {label};
  ComputePartialStats(batch, model, &stats, flops);
  AccumulateGradFromStats(batch, stats, model, grad, flops);
}

double FactorizationMachine::RowScore(const SparseVectorView& row,
                                      const std::vector<double>& model) const {
  const int wpf = 1 + num_factors_;
  std::vector<double> stats(wpf, 0.0);
  BatchView batch;
  batch.rows = {row};
  batch.labels = {0.0f};
  ComputePartialStats(batch, model, &stats, nullptr);
  return ScoreFromStats(stats.data());
}

double FactorizationMachine::RowLoss(const SparseVectorView& row, float label,
                                     const std::vector<double>& model,
                                     FlopCounter* flops) const {
  const int wpf = 1 + num_factors_;
  std::vector<double> stats(wpf, 0.0);
  BatchView batch;
  batch.rows = {row};
  batch.labels = {label};
  ComputePartialStats(batch, model, &stats, flops);
  return PointLoss(label, ScoreFromStats(stats.data()));
}

void FactorizationMachine::RowBatchForwardGrad(const BatchView& batch,
                                               const std::vector<double>& model,
                                               GradTerms* terms,
                                               double* row_losses,
                                               FlopCounter* flops) const {
  const int F = num_factors_;
  const int wpf = 1 + F;
  const size_t n = batch.size();
  // One kernel forward for the whole batch. The seed path ran the forward
  // once for the loss and again for the gradient, so the charge below keeps
  // both passes; the statistics themselves are the same ordered chains.
  std::vector<double> stats(n * static_cast<size_t>(wpf), 0.0);
  kernels::FmForwardRows(batch.rows.data(), n, F, model.data(), stats.data());
  const uint64_t fwd_flops_per_nnz = 4 + 5 * static_cast<uint64_t>(F);
  const uint64_t grad_flops_per_nnz = 3 + 5 * static_cast<uint64_t>(F);
  COLSGD_CHECK_EQ(terms->width(), wpf);
  std::vector<double> block(wpf);
  uint64_t work = 0;
  for (size_t i = 0; i < n; ++i) {
    const double* s = stats.data() + i * wpf;
    const double score = ScoreFromStats(s);
    const SparseVectorView& row = batch.rows[i];
    if (row_losses != nullptr) {
      row_losses[i] = PointLoss(batch.labels[i], score);
      work += row.nnz * fwd_flops_per_nnz;  // the loss pass's forward
    }
    work += row.nnz * fwd_flops_per_nnz;  // the gradient pass's forward
    const double coeff = PointCoeff(batch.labels[i], score);
    if (coeff == 0.0) continue;
    for (size_t j = 0; j < row.nnz; ++j) {
      const double x = row.values[j];
      const uint64_t base = static_cast<uint64_t>(row.indices[j]) * wpf;
      const double* w = model.data() + base;
      block[0] = coeff * x;
      const double x2 = x * x;
      for (int c = 1; c <= F; ++c) {
        block[c] = coeff * (x * s[c] - w[c] * x2);
      }
      terms->Add(base, block.data());
    }
    work += row.nnz * grad_flops_per_nnz;
  }
  if (flops != nullptr) flops->Add(work);
}

}  // namespace colsgd
