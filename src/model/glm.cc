#include "model/glm.h"

#include <vector>

namespace colsgd {

void BinaryGlm::ComputePartialStats(const BatchView& batch,
                                    const std::vector<double>& local_model,
                                    std::vector<double>* stats,
                                    FlopCounter* flops) const {
  COLSGD_CHECK_EQ(stats->size(), batch.size());
  kernels::SpmvRows(batch.rows.data(), batch.size(), local_model.data(),
                    stats->data());
  uint64_t work = 0;
  for (size_t i = 0; i < batch.size(); ++i) work += 2 * batch.rows[i].nnz;
  if (flops != nullptr) flops->Add(work);
}

void BinaryGlm::AccumulateGradFromStats(const BatchView& batch,
                                        const std::vector<double>& agg_stats,
                                        const std::vector<double>& local_model,
                                        GradAccumulator* grad,
                                        FlopCounter* flops) const {
  (void)local_model;
  COLSGD_CHECK_EQ(agg_stats.size(), batch.size());
  const kernels::GlmLink lk = link();
  uint64_t work = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    const double coeff = kernels::LinkCoeff(lk, batch.labels[i], agg_stats[i]);
    if (coeff == 0.0) continue;  // e.g. hinge loss outside the margin
    kernels::ScatterRow(batch.rows[i], coeff, grad);
    work += 2 * batch.rows[i].nnz;
  }
  if (flops != nullptr) flops->Add(work);
}

double BinaryGlm::BatchLossFromStats(const std::vector<double>& agg_stats,
                                     const std::vector<float>& labels) const {
  COLSGD_CHECK_EQ(agg_stats.size(), labels.size());
  const kernels::GlmLink lk = link();
  double loss = 0.0;
  for (size_t i = 0; i < labels.size(); ++i) {
    loss += kernels::LinkLoss(lk, labels[i], agg_stats[i]);
  }
  return loss;
}

void BinaryGlm::AccumulateRowGradient(const SparseVectorView& row, float label,
                                      const std::vector<double>& model,
                                      GradAccumulator* grad,
                                      FlopCounter* flops) const {
  const double s =
      kernels::SparseDot(row.indices, row.values, row.nnz, model.data());
  const double coeff = kernels::LinkCoeff(link(), label, s);
  if (coeff != 0.0) kernels::ScatterRow(row, coeff, grad);
  if (flops != nullptr) flops->Add(4 * row.nnz);
}

double BinaryGlm::RowLoss(const SparseVectorView& row, float label,
                          const std::vector<double>& model,
                          FlopCounter* flops) const {
  if (flops != nullptr) flops->Add(2 * row.nnz);
  return kernels::LinkLoss(
      link(), label,
      kernels::SparseDot(row.indices, row.values, row.nnz, model.data()));
}

void BinaryGlm::RowBatchForwardGrad(const BatchView& batch,
                                    const std::vector<double>& model,
                                    GradTerms* terms, double* row_losses,
                                    FlopCounter* flops) const {
  const size_t n = batch.size();
  // Forward once per row (the seed path computed each dot twice); the score
  // is the same ordered chain, so loss and coefficient are bit-identical.
  std::vector<double> scores(n, 0.0);
  kernels::SpmvRows(batch.rows.data(), n, model.data(), scores.data());
  const kernels::GlmLink lk = link();
  uint64_t work = 0;
  for (size_t i = 0; i < n; ++i) {
    if (row_losses != nullptr) {
      row_losses[i] = kernels::LinkLoss(lk, batch.labels[i], scores[i]);
      work += 2 * batch.rows[i].nnz;
    }
    const double coeff = kernels::LinkCoeff(lk, batch.labels[i], scores[i]);
    if (coeff != 0.0) kernels::ScatterRow(batch.rows[i], coeff, terms);
    work += 4 * batch.rows[i].nnz;
  }
  if (flops != nullptr) flops->Add(work);
}

}  // namespace colsgd
