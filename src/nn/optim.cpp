#include "nn/optim.h"

#include <cmath>

namespace graf::nn {

Adam::Adam(std::vector<Param*> params) : Adam{std::move(params), Config{}} {}

Adam::Adam(std::vector<Param*> params, Config cfg)
    : params_{std::move(params)}, cfg_{cfg} {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Param* p : params_) {
    m_.emplace_back(p->value.rows(), p->value.cols());
    v_.emplace_back(p->value.rows(), p->value.cols());
  }
}

void Adam::step() {
  ++t_;
  const double bc1 = 1.0 - std::pow(cfg_.beta1, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(cfg_.beta2, static_cast<double>(t_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Param& p = *params_[i];
    Tensor& m = m_[i];
    Tensor& v = v_[i];
    for (std::size_t k = 0; k < p.value.size(); ++k) {
      const double g = p.grad.data()[k];
      m.data()[k] = cfg_.beta1 * m.data()[k] + (1.0 - cfg_.beta1) * g;
      v.data()[k] = cfg_.beta2 * v.data()[k] + (1.0 - cfg_.beta2) * g * g;
      const double mhat = m.data()[k] / bc1;
      const double vhat = v.data()[k] / bc2;
      p.value.data()[k] -= cfg_.lr * mhat / (std::sqrt(vhat) + cfg_.eps);
    }
    p.zero_grad();
  }
}

}  // namespace graf::nn
