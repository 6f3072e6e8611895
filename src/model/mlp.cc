#include "model/mlp.h"

#include <cmath>

#include "common/rng.h"

namespace colsgd {

namespace {

double LogisticLoss(double y, double o) {
  const double z = y * o;
  if (z > 30.0) return std::exp(-z);
  if (z < -30.0) return -z;
  return std::log1p(std::exp(-z));
}

double LogisticCoeff(double y, double o) {
  const double z = y * o;
  if (z > 30.0) return -y * std::exp(-z);
  return -y / (1.0 + std::exp(z));
}

}  // namespace

double MlpModel::InitWeight(uint64_t feature, int j, uint64_t seed) const {
  const uint64_t slot =
      feature * static_cast<uint64_t>(hidden_) + static_cast<uint64_t>(j);
  return init_scale_ * GaussianFromHash(slot, seed);
}

double MlpModel::InitSharedParam(size_t index, uint64_t seed) const {
  const size_t h = static_cast<size_t>(hidden_);
  if (index < h) {  // w2: small random so hidden units differentiate
    return init_scale_ * GaussianFromHash(0xABCD0000ull + index, seed);
  }
  return 0.0;  // b2 and b1 start at zero
}

void MlpModel::ComputePartialStats(const BatchView& batch,
                                   const std::vector<double>& local_model,
                                   std::vector<double>* stats,
                                   FlopCounter* flops) const {
  const int H = hidden_;
  COLSGD_CHECK_EQ(stats->size(), batch.size() * static_cast<size_t>(H));
  uint64_t work = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    const SparseVectorView& row = batch.rows[i];
    double* out = stats->data() + i * H;
    for (size_t j = 0; j < row.nnz; ++j) {
      const double x = row.values[j];
      const double* w =
          local_model.data() + static_cast<size_t>(row.indices[j]) * H;
      for (int h = 0; h < H; ++h) out[h] += w[h] * x;
    }
    work += 2 * row.nnz * H;
  }
  if (flops != nullptr) flops->Add(work);
}

double MlpModel::Forward(const double* stats, const std::vector<double>& shared,
                         std::vector<double>* activations) const {
  const int H = hidden_;
  const double* w2 = shared.data();
  const double b2 = shared[H];
  const double* b1 = shared.data() + H + 1;
  activations->resize(H);
  double o = b2;
  for (int h = 0; h < H; ++h) {
    (*activations)[h] = std::tanh(stats[h] + b1[h]);
    o += w2[h] * (*activations)[h];
  }
  return o;
}

double MlpModel::BatchLossFromStatsShared(
    const std::vector<double>& agg_stats, const std::vector<float>& labels,
    const std::vector<double>& shared) const {
  COLSGD_CHECK_EQ(agg_stats.size(),
                  labels.size() * static_cast<size_t>(hidden_));
  COLSGD_CHECK_EQ(shared.size(), num_shared_params());
  std::vector<double> activations;
  double loss = 0.0;
  for (size_t i = 0; i < labels.size(); ++i) {
    const double o =
        Forward(agg_stats.data() + i * hidden_, shared, &activations);
    loss += LogisticLoss(labels[i], o);
  }
  return loss;
}

void MlpModel::AccumulateGradFromStatsShared(
    const BatchView& batch, const std::vector<double>& agg_stats,
    const std::vector<double>& local_model, const std::vector<double>& shared,
    GradAccumulator* grad, std::vector<double>* shared_grad,
    FlopCounter* flops) const {
  (void)local_model;
  const int H = hidden_;
  COLSGD_CHECK_EQ(agg_stats.size(), batch.size() * static_cast<size_t>(H));
  COLSGD_CHECK_EQ(shared.size(), num_shared_params());
  COLSGD_CHECK_EQ(shared_grad->size(), num_shared_params());
  const double* w2 = shared.data();
  double* dw2 = shared_grad->data();
  double* db2 = shared_grad->data() + H;
  double* db1 = shared_grad->data() + H + 1;

  COLSGD_CHECK_EQ(grad->width(), H);
  std::vector<double> activations;
  std::vector<double> delta_h(H);
  std::vector<double> block(H);
  uint64_t work = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    const double* stats = agg_stats.data() + i * H;
    const double o = Forward(stats, shared, &activations);
    const double delta_o = LogisticCoeff(batch.labels[i], o);
    for (int h = 0; h < H; ++h) {
      // dL/dw2 = delta_o * a;  dL/dz1 = delta_o * w2 * (1 - a^2).
      dw2[h] += delta_o * activations[h];
      delta_h[h] =
          delta_o * w2[h] * (1.0 - activations[h] * activations[h]);
      db1[h] += delta_h[h];
    }
    *db2 += delta_o;
    const SparseVectorView& row = batch.rows[i];
    for (size_t j = 0; j < row.nnz; ++j) {
      const double x = row.values[j];
      for (int h = 0; h < H; ++h) block[h] = delta_h[h] * x;
      grad->Add(static_cast<uint64_t>(row.indices[j]) * H, block.data());
    }
    work += (2 * row.nnz + 8) * H;
  }
  if (flops != nullptr) flops->Add(work);
}

double MlpModel::BatchLossFromStats(const std::vector<double>&,
                                    const std::vector<float>&) const {
  COLSGD_CHECK(false) << "MLP loss needs the shared layer; use "
                         "BatchLossFromStatsShared";
  return 0.0;
}

void MlpModel::AccumulateGradFromStats(const BatchView&,
                                       const std::vector<double>&,
                                       const std::vector<double>&,
                                       GradAccumulator*, FlopCounter*) const {
  COLSGD_CHECK(false) << "MLP gradients need the shared layer; use "
                         "AccumulateGradFromStatsShared";
}

void MlpModel::AccumulateRowGradient(const SparseVectorView&, float,
                                     const std::vector<double>&,
                                     GradAccumulator*, FlopCounter*) const {
  COLSGD_CHECK(false)
      << "the MLP is only implemented for the column framework "
         "(Section III-C); RowSGD baselines cover GLMs and FMs";
}

double MlpModel::RowLoss(const SparseVectorView&, float,
                         const std::vector<double>&, FlopCounter*) const {
  COLSGD_CHECK(false)
      << "the MLP is only implemented for the column framework "
         "(Section III-C); RowSGD baselines cover GLMs and FMs";
  return 0.0;
}

}  // namespace colsgd
