// Tests for optimizers and regularization.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "optim/optimizer.h"

namespace colsgd {
namespace {

TEST(RegularizerTest, L2GradientIsLinear) {
  RegularizerConfig reg;
  reg.l2 = 0.5;
  EXPECT_DOUBLE_EQ(reg.Grad(2.0), 1.0);
  EXPECT_DOUBLE_EQ(reg.Grad(-2.0), -1.0);
  EXPECT_DOUBLE_EQ(reg.Grad(0.0), 0.0);
}

TEST(RegularizerTest, L1GradientIsSign) {
  RegularizerConfig reg;
  reg.l1 = 0.1;
  EXPECT_DOUBLE_EQ(reg.Grad(3.0), 0.1);
  EXPECT_DOUBLE_EQ(reg.Grad(-3.0), -0.1);
  EXPECT_DOUBLE_EQ(reg.Grad(0.0), 0.0);
}

TEST(SgdTest, PlainStep) {
  SgdOptimizer sgd(0.1);
  sgd.BeginStep();
  double w = 1.0;
  sgd.ApplyUpdate(&w, 2.0, nullptr);
  EXPECT_DOUBLE_EQ(w, 1.0 - 0.1 * 2.0);
  EXPECT_EQ(sgd.state_per_slot(), 0);
}

TEST(SgdTest, DecaySchedule) {
  SgdOptimizer sgd(1.0, /*decay=*/1.0);
  double w = 0.0;
  sgd.BeginStep();  // t=0: lr = 1
  sgd.ApplyUpdate(&w, 1.0, nullptr);
  EXPECT_DOUBLE_EQ(w, -1.0);
  sgd.BeginStep();  // t=1: lr = 1/2
  sgd.ApplyUpdate(&w, 1.0, nullptr);
  EXPECT_DOUBLE_EQ(w, -1.5);
}

TEST(AdaGradTest, ShrinksStepOnRepeatedGradients) {
  AdaGradOptimizer opt(1.0);
  double w = 0.0;
  double state = 0.0;
  opt.BeginStep();
  opt.ApplyUpdate(&w, 2.0, &state);
  const double first_step = std::fabs(w);
  EXPECT_NEAR(first_step, 2.0 / (2.0 + 1e-8), 1e-9);
  const double w_before = w;
  opt.ApplyUpdate(&w, 2.0, &state);
  EXPECT_LT(std::fabs(w - w_before), first_step);
  EXPECT_DOUBLE_EQ(state, 8.0);  // accumulated g^2
}

TEST(AdamTest, FirstStepIsApproxLearningRate) {
  AdamOptimizer opt(0.01);
  double w = 0.0;
  double state[2] = {0.0, 0.0};
  opt.BeginStep();
  opt.ApplyUpdate(&w, 5.0, state);
  // With bias correction, the first Adam step is ~lr regardless of |g|.
  EXPECT_NEAR(std::fabs(w), 0.01, 1e-4);
}

TEST(AdamTest, StatePerSlotIsTwo) {
  EXPECT_EQ(AdamOptimizer(0.1).state_per_slot(), 2);
  EXPECT_EQ(AdaGradOptimizer(0.1).state_per_slot(), 1);
}

TEST(OptimizerTest, CloneIsFreshButEquivalent) {
  AdamOptimizer original(0.01);
  original.BeginStep();
  double w1 = 0.0, w2 = 0.0;
  double s1[2] = {0, 0}, s2[2] = {0, 0};
  original.ApplyUpdate(&w1, 1.0, s1);

  auto clone = original.Clone();
  clone->BeginStep();  // clone starts at step 1, like a fresh optimizer
  clone->ApplyUpdate(&w2, 1.0, s2);
  EXPECT_DOUBLE_EQ(w1, w2);
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// One ApplyBlock over n consecutive slots leaves the same weight and state
// bits as n one-slot updates, round after round, on gradients that include
// signed zeros, subnormals and a value whose square overflows.
TEST(OptimizerTest, BlockUpdateIsPerSlotUpdateBitForBit) {
  const double kGrads[] = {0.75, -0.0,    0.0,  4.9e-324, -3.5,     1e200,
                           -2.2e-308, 0.125, -1e-3, 7.0,   1.0 / 3.0, -0.0};
  const size_t kNumGrads = sizeof(kGrads) / sizeof(kGrads[0]);
  std::vector<std::unique_ptr<Optimizer>> prototypes;
  prototypes.push_back(std::make_unique<SgdOptimizer>(0.1, /*decay=*/0.5));
  prototypes.push_back(std::make_unique<AdaGradOptimizer>(0.1));
  prototypes.push_back(std::make_unique<AdamOptimizer>(0.01));
  for (const auto& prototype : prototypes) {
    for (const size_t n : {size_t{1}, size_t{3}, size_t{11}}) {
      SCOPED_TRACE(prototype->name() + " n=" + std::to_string(n));
      std::unique_ptr<Optimizer> block = prototype->Clone();
      std::unique_ptr<Optimizer> slots = prototype->Clone();
      const size_t sps = static_cast<size_t>(block->state_per_slot());
      std::vector<double> block_w(n), slot_w(n);
      for (size_t k = 0; k < n; ++k) {
        block_w[k] = slot_w[k] = 0.25 * static_cast<double>(k) - 1.0;
      }
      std::vector<double> block_state(n * sps, 0.0), slot_state(n * sps, 0.0);
      std::vector<double> grads(n);
      for (size_t round = 0; round < 4; ++round) {
        for (size_t k = 0; k < n; ++k) {
          grads[k] = kGrads[(k + 5 * round) % kNumGrads];
        }
        block->BeginStep();
        block->ApplyBlock(block_w.data(), grads.data(),
                          sps > 0 ? block_state.data() : nullptr, n);
        slots->BeginStep();
        for (size_t k = 0; k < n; ++k) {
          slots->ApplyUpdate(&slot_w[k], grads[k],
                             sps > 0 ? slot_state.data() + k * sps : nullptr);
        }
        ASSERT_TRUE(SameBits(block_w, slot_w)) << "round " << round;
        ASSERT_TRUE(SameBits(block_state, slot_state)) << "round " << round;
      }
    }
  }
}

TEST(OptimizerTest, FactoryBuildsByName) {
  EXPECT_EQ(MakeOptimizer("sgd", 0.1)->name(), "sgd");
  EXPECT_EQ(MakeOptimizer("adagrad", 0.1)->name(), "adagrad");
  EXPECT_EQ(MakeOptimizer("adam", 0.1)->name(), "adam");
  EXPECT_DEATH(MakeOptimizer("lbfgs", 0.1), "unknown optimizer");
}

// A 1-D convex problem must converge for every optimizer: f(w) = (w-3)^2.
class OptimizerConvergenceTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(OptimizerConvergenceTest, MinimizesQuadratic) {
  auto opt = MakeOptimizer(GetParam(), GetParam() == "sgd" ? 0.1 : 0.3);
  double w = 0.0;
  std::vector<double> state(opt->state_per_slot(), 0.0);
  for (int t = 0; t < 500; ++t) {
    opt->BeginStep();
    const double grad = 2.0 * (w - 3.0);
    opt->ApplyUpdate(&w, grad, state.empty() ? nullptr : state.data());
  }
  EXPECT_NEAR(w, 3.0, 0.05) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllOptimizers, OptimizerConvergenceTest,
                         ::testing::Values("sgd", "adagrad", "adam"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace colsgd
