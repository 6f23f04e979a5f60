// Properties of the paper's Eq. 4 loss: piecewise values, continuity at
// both kinks, asymmetry orientation, and the training-level consequence
// (systematic over-estimation when theta_under > theta_over).
#include "nn/loss.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"

namespace graf::nn {
namespace {

constexpr double kThetaUnder = 0.3;
constexpr double kThetaOver = 0.1;

TEST(AsymHuber, QuadraticInsideBounds) {
  EXPECT_DOUBLE_EQ(asym_huber_value(0.05, kThetaUnder, kThetaOver), 0.0025);
  EXPECT_DOUBLE_EQ(asym_huber_value(-0.2, kThetaUnder, kThetaOver), 0.04);
  EXPECT_DOUBLE_EQ(asym_huber_value(0.0, kThetaUnder, kThetaOver), 0.0);
}

TEST(AsymHuber, LinearOutsideBounds) {
  // Right side: theta*(2x - theta).
  EXPECT_DOUBLE_EQ(asym_huber_value(0.5, kThetaUnder, kThetaOver),
                   kThetaOver * (2.0 * 0.5 - kThetaOver));
  // Left side: theta*(-2x - theta).
  EXPECT_DOUBLE_EQ(asym_huber_value(-0.5, kThetaUnder, kThetaOver),
                   kThetaUnder * (1.0 - kThetaUnder));
}

TEST(AsymHuber, ContinuousAtBothKinks) {
  const double eps = 1e-9;
  EXPECT_NEAR(asym_huber_value(kThetaOver - eps, kThetaUnder, kThetaOver),
              asym_huber_value(kThetaOver + eps, kThetaUnder, kThetaOver), 1e-8);
  EXPECT_NEAR(asym_huber_value(-kThetaUnder - eps, kThetaUnder, kThetaOver),
              asym_huber_value(-kThetaUnder + eps, kThetaUnder, kThetaOver), 1e-8);
}

TEST(AsymHuber, PenalizesUnderestimationMore) {
  // With theta_under > theta_over the *under*-estimation branch stays
  // quadratic longer and has the steeper linear slope, so for equal |x|
  // beyond both kinks the under-estimate costs more.
  for (double mag : {0.35, 0.5, 1.0, 3.0}) {
    EXPECT_GT(asym_huber_value(-mag, kThetaUnder, kThetaOver),
              asym_huber_value(mag, kThetaUnder, kThetaOver))
        << "at |x| = " << mag;
  }
}

TEST(AsymHuber, SymmetricWhenThetasEqual) {
  for (double mag : {0.05, 0.2, 0.8}) {
    EXPECT_DOUBLE_EQ(asym_huber_value(-mag, 0.15, 0.15),
                     asym_huber_value(mag, 0.15, 0.15));
  }
}

TEST(AsymHuber, MonotoneAwayFromZero) {
  double prev = 0.0;
  for (double x = 0.0; x < 2.0; x += 0.01) {
    const double v = asym_huber_value(x, kThetaUnder, kThetaOver);
    EXPECT_GE(v, prev - 1e-12);
    prev = v;
  }
  prev = 0.0;
  for (double x = 0.0; x > -2.0; x -= 0.01) {
    const double v = asym_huber_value(x, kThetaUnder, kThetaOver);
    EXPECT_GE(v, prev - 1e-12);
    prev = v;
  }
}

TEST(AsymHuber, RejectsNonPositiveThetas) {
  Tape t;
  Var x = t.leaf(Tensor{{0.1}});
  EXPECT_THROW(asym_huber(x, 0.0, 0.1), std::invalid_argument);
  EXPECT_THROW(asym_huber(x, 0.1, -0.2), std::invalid_argument);
}

TEST(AsymHuberLoss, TapeValueMatchesScalarHelper) {
  Tape t;
  Var pred = t.leaf(Tensor{{120.0, 60.0, 100.0}});
  Var target = t.constant(Tensor{{100.0, 100.0, 100.0}});
  Var loss = asym_huber_pct_loss(pred, target, kThetaUnder, kThetaOver);
  const double expected = (asym_huber_value(0.2, kThetaUnder, kThetaOver) +
                           asym_huber_value(-0.4, kThetaUnder, kThetaOver) +
                           asym_huber_value(0.0, kThetaUnder, kThetaOver)) /
                          3.0;
  EXPECT_NEAR(t.value(loss).item(), expected, 1e-12);
}

TEST(AsymHuberLoss, GradientPushesPredictionsUp) {
  // Start exactly on target: a small symmetric wiggle should prefer upward
  // movement, i.e. minimizing a one-parameter model over symmetric noise
  // settles above the mean. Check the gradient asymmetry directly:
  Tape t;
  Var under = t.leaf(Tensor{{60.0}});
  Var lu = asym_huber_pct_loss(under, t.constant(Tensor{{100.0}}), kThetaUnder,
                               kThetaOver);
  t.backward(lu);
  const double grad_under = t.grad(under)(0, 0);

  Tape t2;
  Var over = t2.leaf(Tensor{{140.0}});
  Var lo = asym_huber_pct_loss(over, t2.constant(Tensor{{100.0}}), kThetaUnder,
                               kThetaOver);
  t2.backward(lo);
  const double grad_over = t2.grad(over)(0, 0);

  EXPECT_LT(grad_under, 0.0);  // pull up
  EXPECT_GT(grad_over, 0.0);   // pull down
  EXPECT_GT(std::abs(grad_under), std::abs(grad_over));  // asymmetric pull
}

}  // namespace
}  // namespace graf::nn
