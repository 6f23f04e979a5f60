#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/optim.h"

namespace graf::nn {
namespace {

TEST(Linear, OutputShapeAndAffine) {
  Rng rng{1};
  Linear lin{3, 2, rng};
  // Force known weights.
  lin.weight().value = Tensor{{1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}};
  lin.bias().value = Tensor{{0.5, -0.5}};
  Tape t;
  Var x = t.constant(Tensor{{1.0, 2.0, 3.0}});
  const Tensor& y = t.value(lin.forward(t, x));
  ASSERT_EQ(y.rows(), 1u);
  ASSERT_EQ(y.cols(), 2u);
  EXPECT_DOUBLE_EQ(y(0, 0), 1.0 + 3.0 + 0.5);
  EXPECT_DOUBLE_EQ(y(0, 1), 2.0 + 3.0 - 0.5);
}

TEST(Linear, ParamsExposed) {
  Rng rng{2};
  Linear lin{4, 5, rng};
  EXPECT_EQ(lin.params().size(), 2u);
  EXPECT_EQ(lin.param_count(), 4u * 5u + 5u);
}

TEST(Mlp, DimsValidated) {
  Rng rng{3};
  EXPECT_THROW((Mlp{{4}, 0.0, rng}), std::invalid_argument);
}

TEST(Mlp, ForwardShape) {
  Rng rng{4};
  Mlp mlp{{3, 8, 8, 2}, 0.0, rng};
  Tape t;
  Var x = t.constant(Tensor{5, 3});
  const Tensor& y = t.value(mlp.forward(t, x, rng, false));
  EXPECT_EQ(y.rows(), 5u);
  EXPECT_EQ(y.cols(), 2u);
}

TEST(Mlp, EvalModeDeterministic) {
  Rng rng{5};
  Mlp mlp{{2, 16, 16, 1}, 0.5, rng};
  Tensor x0{{0.3, -0.7}};
  Tape t1;
  const double a = t1.value(mlp.forward(t1, t1.constant(x0), rng, false)).item();
  Tape t2;
  const double b = t2.value(mlp.forward(t2, t2.constant(x0), rng, false)).item();
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(Mlp, LearnsLinearFunction) {
  // y = 2a - 3b + 1 learned to high accuracy by a small MLP with Adam.
  Rng rng{6};
  Mlp mlp{{2, 16, 16, 1}, 0.0, rng};
  Adam opt{mlp.params(), {.lr = 5e-3}};
  Rng data_rng{7};
  Tape tape;
  double final_loss = 1e9;
  for (int it = 0; it < 1500; ++it) {
    Tensor x{32, 2};
    Tensor y{32, 1};
    for (std::size_t i = 0; i < 32; ++i) {
      x(i, 0) = data_rng.uniform(-1.0, 1.0);
      x(i, 1) = data_rng.uniform(-1.0, 1.0);
      y(i, 0) = 2.0 * x(i, 0) - 3.0 * x(i, 1) + 1.0;
    }
    tape.reset();
    Var pred = mlp.forward(tape, tape.constant(x), rng, true);
    Var loss = mse_loss(pred, y);
    mlp.zero_grad();
    tape.backward(loss);
    opt.step();
    final_loss = tape.value(loss).item();
  }
  EXPECT_LT(final_loss, 0.01);
}

TEST(Adam, ConvergesOnQuadratic) {
  Param p{Tensor::scalar(10.0)};
  Adam opt{{&p}, {.lr = 0.2}};
  Tape tape;
  for (int i = 0; i < 500; ++i) {
    tape.reset();
    Var v = tape.param(p);
    Var d = add_scalar(v, 4.0);  // minimize (p+4)^2
    tape.backward(sum_all(mul(d, d)));
    opt.step();
  }
  EXPECT_NEAR(p.value.item(), -4.0, 1e-3);
}

TEST(Adam, StepIsBoundedByLearningRate) {
  // ADAM's first step magnitude is ~lr regardless of gradient scale.
  Param p{Tensor::scalar(0.0)};
  Adam opt{{&p}, {.lr = 0.5}};
  p.grad = Tensor::scalar(1e6);
  opt.step();
  EXPECT_NEAR(std::abs(p.value.item()), 0.5, 0.01);
}

}  // namespace
}  // namespace graf::nn
