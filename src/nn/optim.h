// Optimizer. The paper trains its latency prediction model and runs its
// configuration solver with ADAM [Kingma & Ba 2014].
#pragma once

#include <vector>

#include "nn/autodiff.h"
#include "nn/tensor.h"

namespace graf::nn {

class Adam {
 public:
  struct Config {
    double lr = 2e-4;  // paper Table 1 default
    double beta1 = 0.9;
    double beta2 = 0.999;
    double eps = 1e-8;
  };

  explicit Adam(std::vector<Param*> params);
  Adam(std::vector<Param*> params, Config cfg);
  /// Apply one update from accumulated gradients, then clear them.
  void step();

  double learning_rate() const { return cfg_.lr; }
  void set_learning_rate(double lr) { cfg_.lr = lr; }

 private:
  std::vector<Param*> params_;
  Config cfg_;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
  long long t_ = 0;
};

}  // namespace graf::nn
