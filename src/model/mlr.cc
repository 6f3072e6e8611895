#include "model/mlr.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "linalg/kernels/kernels.h"

namespace colsgd {

void MultinomialLogisticRegression::Softmax(const double* scores,
                                            std::vector<double>* probs) const {
  probs->resize(num_classes_);
  double max_score = scores[0];
  for (int c = 1; c < num_classes_; ++c) {
    max_score = std::max(max_score, scores[c]);
  }
  double sum = 0.0;
  for (int c = 0; c < num_classes_; ++c) {
    (*probs)[c] = std::exp(scores[c] - max_score);
    sum += (*probs)[c];
  }
  for (int c = 0; c < num_classes_; ++c) (*probs)[c] /= sum;
}

Status MultinomialLogisticRegression::CheckLabels(
    const std::vector<float>& labels) const {
  for (size_t i = 0; i < labels.size(); ++i) {
    const float label = labels[i];
    if (!(label >= 0.0f && label < static_cast<float>(num_classes_) &&
          label == std::floor(label))) {
      return Status::InvalidArgument(
          "row " + std::to_string(i) + ": label " + std::to_string(label) +
          " is not a class id in [0, " + std::to_string(num_classes_) +
          ") for " + name());
    }
  }
  return Status::OK();
}

void MultinomialLogisticRegression::ComputePartialStats(
    const BatchView& batch, const std::vector<double>& local_model,
    std::vector<double>* stats, FlopCounter* flops) const {
  const int C = num_classes_;
  COLSGD_CHECK_EQ(stats->size(), batch.size() * static_cast<size_t>(C));
  kernels::SpmvRowsMulti(batch.rows.data(), batch.size(), C,
                         local_model.data(), stats->data());
  uint64_t work = 0;
  for (size_t i = 0; i < batch.size(); ++i) work += 2 * batch.rows[i].nnz * C;
  if (flops != nullptr) flops->Add(work);
}

void MultinomialLogisticRegression::AccumulateGradFromStats(
    const BatchView& batch, const std::vector<double>& agg_stats,
    const std::vector<double>& local_model, GradAccumulator* grad,
    FlopCounter* flops) const {
  (void)local_model;
  const int C = num_classes_;
  COLSGD_CHECK_EQ(agg_stats.size(), batch.size() * static_cast<size_t>(C));
  std::vector<double> probs;
  std::vector<double> block(C);
  uint64_t work = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    Softmax(agg_stats.data() + i * C, &probs);
    const int target = Target(batch.labels[i]);
    // Equation 8: grad_{w_c} = (softmax_c - t_c) * x.
    probs[target] -= 1.0;
    kernels::ScatterRowMulti(batch.rows[i], probs.data(), C, block.data(),
                             grad);
    work += (2 * batch.rows[i].nnz + 3) * C;
  }
  if (flops != nullptr) flops->Add(work);
}

double MultinomialLogisticRegression::BatchLossFromStats(
    const std::vector<double>& agg_stats,
    const std::vector<float>& labels) const {
  const int C = num_classes_;
  COLSGD_CHECK_EQ(agg_stats.size(), labels.size() * static_cast<size_t>(C));
  std::vector<double> probs;
  double loss = 0.0;
  for (size_t i = 0; i < labels.size(); ++i) {
    Softmax(agg_stats.data() + i * C, &probs);
    const int target = Target(labels[i]);
    loss += -std::log(std::max(probs[target], 1e-300));
  }
  return loss;
}

void MultinomialLogisticRegression::AccumulateRowGradient(
    const SparseVectorView& row, float label, const std::vector<double>& model,
    GradAccumulator* grad, FlopCounter* flops) const {
  const int C = num_classes_;
  std::vector<double> scores(C, 0.0);
  kernels::SpmvRowsMulti(&row, 1, C, model.data(), scores.data());
  std::vector<double> probs;
  Softmax(scores.data(), &probs);
  probs[Target(label)] -= 1.0;
  std::vector<double> block(C);
  kernels::ScatterRowMulti(row, probs.data(), C, block.data(), grad);
  if (flops != nullptr) flops->Add(4 * row.nnz * C);
}

double MultinomialLogisticRegression::RowLoss(const SparseVectorView& row,
                                              float label,
                                              const std::vector<double>& model,
                                              FlopCounter* flops) const {
  const int C = num_classes_;
  std::vector<double> scores(C, 0.0);
  kernels::SpmvRowsMulti(&row, 1, C, model.data(), scores.data());
  std::vector<double> probs;
  Softmax(scores.data(), &probs);
  if (flops != nullptr) flops->Add(2 * row.nnz * C);
  return -std::log(std::max(probs[Target(label)], 1e-300));
}

void MultinomialLogisticRegression::RowBatchForwardGrad(
    const BatchView& batch, const std::vector<double>& model,
    GradTerms* terms, double* row_losses, FlopCounter* flops) const {
  const int C = num_classes_;
  const size_t n = batch.size();
  // Forward once per row (the seed path ran the class dots twice); softmax
  // and scatter stay serial in batch order.
  std::vector<double> scores(n * static_cast<size_t>(C), 0.0);
  kernels::SpmvRowsMulti(batch.rows.data(), n, C, model.data(), scores.data());
  std::vector<double> probs;
  std::vector<double> block(C);
  uint64_t work = 0;
  for (size_t i = 0; i < n; ++i) {
    Softmax(scores.data() + i * C, &probs);
    const int target = Target(batch.labels[i]);
    if (row_losses != nullptr) {
      row_losses[i] = -std::log(std::max(probs[target], 1e-300));
      work += 2 * batch.rows[i].nnz * C;
    }
    probs[target] -= 1.0;
    kernels::ScatterRowMulti(batch.rows[i], probs.data(), C, block.data(),
                             terms);
    work += 4 * batch.rows[i].nnz * C;
  }
  if (flops != nullptr) flops->Add(work);
}

}  // namespace colsgd
