#include "nn/loss.h"

#include <algorithm>
#include <stdexcept>

namespace graf::nn {

Var mse_loss(Var pred, const Tensor& target) {
  Tape& t = *pred.tape;
  if (!t.value(pred).same_shape(target))
    throw std::invalid_argument{"mse_loss: shape mismatch"};
  Var tgt = t.constant(target);
  Var d = sub(pred, tgt);
  return mean_all(mul(d, d));
}

Var percentage_error(Var pred, Var target, double eps) {
  Var diff = sub(pred, target);  // checks the tape and the shapes
  Tape& t = *pred.tape;
  const Tensor& y = t.value(target);
  Tensor& inv = t.stage(y.rows(), y.cols());
  for (std::size_t i = 0; i < y.size(); ++i)
    inv.data()[i] = 1.0 / std::max(y.data()[i], eps);
  return mul(diff, t.commit_constant());
}

Var asym_huber_pct_loss(Var pred, Var target, double theta_under, double theta_over) {
  // x = (pred - target)/target; under-estimation is x < 0, so theta_under
  // is the negative-side theta.
  Var x = percentage_error(pred, target);
  return mean_all(asym_huber(x, theta_under, theta_over));
}

double asym_huber_value(double x, double theta_neg, double theta_pos) {
  if (x < -theta_neg) return theta_neg * (-2.0 * x - theta_neg);
  if (x < theta_pos) return x * x;
  return theta_pos * (2.0 * x - theta_pos);
}

}  // namespace graf::nn
