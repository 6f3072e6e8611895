// Optimizers applied per weight slot, with per-slot state that partitions by
// columns exactly like the model (Section III-A remark: ColumnSGD supports
// SGD variants such as AdaGrad and Adam by tweaking the model update).
//
// Updates are sparse: only slots touched by the current batch are updated,
// and regularization is applied to touched slots only (the standard lazy
// treatment for sparse data; documented in DESIGN.md).
#ifndef COLSGD_OPTIM_OPTIMIZER_H_
#define COLSGD_OPTIM_OPTIMIZER_H_

#include <cmath>
#include <memory>
#include <string>

namespace colsgd {

/// \brief Regularization Omega(w): l2/2 * |w|^2 + l1 * |w|.
struct RegularizerConfig {
  double l2 = 0.0;
  double l1 = 0.0;

  /// \brief Subgradient of Omega at weight w.
  double Grad(double w) const {
    double g = l2 * w;
    if (l1 != 0.0) g += w > 0.0 ? l1 : (w < 0.0 ? -l1 : 0.0);
    return g;
  }
};

/// \brief Per-slot update rule. Each slot owns `state_per_slot()` doubles of
/// state (zero-initialized).
class Optimizer {
 public:
  virtual ~Optimizer() = default;
  virtual std::string name() const = 0;
  virtual int state_per_slot() const = 0;
  /// \brief Called once per iteration before any ApplyBlock. Everything an
  /// iteration's updates share (step counters, bias corrections) changes
  /// here and only here.
  virtual void BeginStep() {}
  /// \brief Updates `n` consecutive slots in ascending order: slot k has
  /// weight `w[k]`, batch-averaged gradient `g[k]` (regularization included)
  /// and state `s + k * state_per_slot()`. After BeginStep it must be safe to
  /// call concurrently on distinct blocks: it may write only the block's
  /// weights and state (the row engines apply their server shards in
  /// parallel, engine/row_step.h). ApplyUpdate is the call on one slot.
  virtual void ApplyBlock(double* w, const double* g, double* s, size_t n) = 0;
  void ApplyUpdate(double* w, double g, double* s) { ApplyBlock(w, &g, s, 1); }
  /// \brief Fresh instance with the same hyperparameters (one per worker or
  /// replica; each keeps its own step counter).
  virtual std::unique_ptr<Optimizer> Clone() const = 0;
};

/// \brief Plain SGD: w -= lr_t * g with lr_t = lr / (1 + decay * t).
class SgdOptimizer : public Optimizer {
 public:
  explicit SgdOptimizer(double lr, double decay = 0.0)
      : lr_(lr), decay_(decay) {}

  std::string name() const override { return "sgd"; }
  int state_per_slot() const override { return 0; }
  void BeginStep() override {
    current_lr_ = lr_ / (1.0 + decay_ * static_cast<double>(step_++));
  }
  void ApplyBlock(double* w, const double* g, double*, size_t n) override {
    for (size_t k = 0; k < n; ++k) w[k] -= current_lr_ * g[k];
  }
  std::unique_ptr<Optimizer> Clone() const override {
    return std::make_unique<SgdOptimizer>(lr_, decay_);
  }

 private:
  double lr_;
  double decay_;
  double current_lr_ = 0.0;
  int64_t step_ = 0;
};

/// \brief AdaGrad (Duchi et al. 2011): h += g^2; w -= lr * g / (sqrt(h)+eps).
class AdaGradOptimizer : public Optimizer {
 public:
  explicit AdaGradOptimizer(double lr, double eps = 1e-8)
      : lr_(lr), eps_(eps) {}

  std::string name() const override { return "adagrad"; }
  int state_per_slot() const override { return 1; }
  void ApplyBlock(double* w, const double* g, double* s, size_t n) override {
    for (size_t k = 0; k < n; ++k) {
      s[k] += g[k] * g[k];
      w[k] -= lr_ * g[k] / (std::sqrt(s[k]) + eps_);
    }
  }
  std::unique_ptr<Optimizer> Clone() const override {
    return std::make_unique<AdaGradOptimizer>(lr_, eps_);
  }

 private:
  double lr_;
  double eps_;
};

/// \brief Adam (Kingma & Ba 2014) with global-step bias correction; touched
/// slots update once per batch (the usual sparse-Adam treatment).
class AdamOptimizer : public Optimizer {
 public:
  AdamOptimizer(double lr, double beta1 = 0.9, double beta2 = 0.999,
                double eps = 1e-8)
      : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {}

  std::string name() const override { return "adam"; }
  int state_per_slot() const override { return 2; }
  void BeginStep() override {
    ++step_;
    bias1_ = 1.0 - std::pow(beta1_, static_cast<double>(step_));
    bias2_ = 1.0 - std::pow(beta2_, static_cast<double>(step_));
  }
  void ApplyBlock(double* w, const double* g, double* s, size_t n) override {
    for (size_t k = 0; k < n; ++k, s += 2) {
      s[0] = beta1_ * s[0] + (1.0 - beta1_) * g[k];         // m
      s[1] = beta2_ * s[1] + (1.0 - beta2_) * g[k] * g[k];  // v
      const double m_hat = s[0] / bias1_;
      const double v_hat = s[1] / bias2_;
      w[k] -= lr_ * m_hat / (std::sqrt(v_hat) + eps_);
    }
  }
  std::unique_ptr<Optimizer> Clone() const override {
    return std::make_unique<AdamOptimizer>(lr_, beta1_, beta2_, eps_);
  }

 private:
  double lr_;
  double beta1_;
  double beta2_;
  double eps_;
  int64_t step_ = 0;
  double bias1_ = 1.0;
  double bias2_ = 1.0;
};

/// \brief Factory: "sgd", "adagrad", "adam" with the given base rate.
std::unique_ptr<Optimizer> MakeOptimizer(const std::string& name, double lr);

}  // namespace colsgd

#endif  // COLSGD_OPTIM_OPTIMIZER_H_
