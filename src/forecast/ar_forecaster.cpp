#include "forecast/ar_forecaster.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace graf::forecast {

namespace {

nn::Tensor init_weight(std::size_t order, std::uint64_t seed) {
  // Start at the running-average predictor (all lags weighted equally) plus
  // a seeded jitter: sane forecasts from the very first refit, and distinct
  // seeds stay distinct streams.
  Rng rng{seed};
  nn::Tensor w{order, 1};
  const double base = 1.0 / static_cast<double>(order);
  for (std::size_t i = 0; i < order; ++i)
    w(i, 0) = base + rng.uniform(-0.1, 0.1) * base;
  return w;
}

}  // namespace

ArForecaster::ArForecaster(ArConfig cfg)
    : cfg_{cfg},
      w_{init_weight(std::max<std::size_t>(cfg.order, 1), cfg.seed)},
      b_{nn::Tensor{1, 1}} {
  cfg_.order = std::max<std::size_t>(cfg_.order, 1);
  cfg_.window = std::max(cfg_.window, cfg_.order + 2);
  cfg_.refit_every = std::max<std::size_t>(cfg_.refit_every, 1);
  cfg_.iterations = std::max<std::size_t>(cfg_.iterations, 1);
  cfg_.min_history = std::max(cfg_.min_history, cfg_.order + 4);
  adam_ = std::make_unique<nn::Adam>(std::vector<nn::Param*>{&w_, &b_},
                                     nn::Adam::Config{.lr = cfg_.lr});
}

void ArForecaster::reset() {
  w_.value = init_weight(cfg_.order, cfg_.seed);
  w_.zero_grad();
  b_.value.zero();
  b_.zero_grad();
  adam_ = std::make_unique<nn::Adam>(std::vector<nn::Param*>{&w_, &b_},
                                     nn::Adam::Config{.lr = cfg_.lr});
  history_.clear();
  count_ = 0;
  scale_ = 1.0;
  sigma_ = 0.0;
  fitted_ = false;
  refits_ = 0;
}

void ArForecaster::observe(double value) {
  if (!std::isfinite(value)) return;  // ignore poisoned scrapes
  history_.push_back(value);
  const std::size_t cap = cfg_.window + cfg_.order;
  if (history_.size() > cap)
    history_.erase(history_.begin(),
                   history_.begin() + static_cast<std::ptrdiff_t>(history_.size() - cap));
  ++count_;
  if (count_ >= cfg_.min_history && count_ % cfg_.refit_every == 0) refit();
}

void ArForecaster::refit() {
  const std::size_t p = cfg_.order;
  if (history_.size() < p + 2) return;
  const std::size_t n = history_.size() - p;

  double mean = 0.0;
  for (double v : history_) mean += v;
  mean /= static_cast<double>(history_.size());
  scale_ = std::max(mean, 1e-6);

  x_.resize_zero(n, p);
  y_.resize_zero(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < p; ++j) x_(i, j) = history_[i + j] / scale_;
    y_(i, 0) = history_[i + p] / scale_;
  }

  for (std::size_t it = 0; it < cfg_.iterations; ++it) {
    tape_.reset();
    nn::Var x = tape_.constant_ref(x_);
    nn::Var y = tape_.constant_ref(y_);
    nn::Var pred = nn::add_row_broadcast(nn::matmul(x, tape_.param(w_)),
                                         tape_.param(b_));
    nn::Var err = nn::sub(pred, y);
    nn::Var loss = nn::mean_all(nn::mul(err, err));
    tape_.backward(loss);
    adam_->step();
  }

  // A diverged fit (exploding lr on a pathological series) must not poison
  // the control plane: roll the weights back to the average predictor and
  // stay unfitted until the next refit — predict() reports invalid.
  bool finite = true;
  for (std::size_t i = 0; i < p; ++i) finite = finite && std::isfinite(w_.value(i, 0));
  finite = finite && std::isfinite(b_.value(0, 0));
  if (!finite) {
    w_.value = init_weight(p, cfg_.seed);
    b_.value.zero();
    w_.zero_grad();
    b_.zero_grad();
    adam_ = std::make_unique<nn::Adam>(std::vector<nn::Param*>{&w_, &b_},
                                       nn::Adam::Config{.lr = cfg_.lr});
    fitted_ = false;
    return;
  }

  double sq = 0.0;
  std::vector<double> lags(p);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < p; ++j) lags[j] = x_(i, j);
    const double resid = (step_normalized(lags) - y_(i, 0)) * scale_;
    sq += resid * resid;
  }
  sigma_ = std::sqrt(sq / static_cast<double>(n));
  fitted_ = true;
  ++refits_;
}

double ArForecaster::step_normalized(const std::vector<double>& lags) const {
  double v = b_.value(0, 0);
  for (std::size_t j = 0; j < cfg_.order; ++j) v += lags[j] * w_.value(j, 0);
  return v;
}

Forecast ArForecaster::predict(std::size_t steps) const {
  Forecast out;
  if (!fitted_ || steps == 0 || history_.size() < cfg_.order) return out;
  std::vector<double> lags(cfg_.order);
  for (std::size_t j = 0; j < cfg_.order; ++j)
    lags[j] = history_[history_.size() - cfg_.order + j] / scale_;
  double v = 0.0;
  for (std::size_t s = 0; s < steps; ++s) {
    v = std::max(step_normalized(lags), 0.0);  // workloads are non-negative
    std::rotate(lags.begin(), lags.begin() + 1, lags.end());
    lags.back() = v;
  }
  const double mean = v * scale_;
  if (!std::isfinite(mean)) return out;
  const double half = cfg_.band_z * sigma_ * std::sqrt(static_cast<double>(steps));
  out.mean = std::max(mean, 0.0);
  out.lo = std::max(mean - half, 0.0);
  out.hi = std::max(mean + half, 0.0);
  out.valid = std::isfinite(out.hi);
  return out;
}

}  // namespace graf::forecast
