// Learned forecaster: a linear autoregressor AR(p) trained online on the
// src/nn tensor/autodiff stack.
//
// LSRAM's thesis (PAPERS.md) — lightweight learned allocators beat
// heavyweight per-service models — argues for the smallest model that can
// track the series: here p lag weights plus a bias, fit by Adam on a
// sliding window every `refit_every` observations. Training runs on one
// persistent Tape whose arena is rewound each iteration, so steady-state
// refits touch no heap (DESIGN.md §3.9); inference is a plain dot product,
// no tape at all. Multi-step forecasts are recursive (predictions feed back
// as inputs), with bands from the window's residual RMS widened by sqrt(h).
//
// Deterministic: weight init comes from the config seed, refits happen at
// fixed observation counts with a fixed iteration budget, and nothing here
// touches the thread pool — identical (config, seed, series) triples yield
// bit-identical predictions at any thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "forecast/forecaster.h"
#include "nn/autodiff.h"
#include "nn/optim.h"
#include "nn/tensor.h"

namespace graf::forecast {

struct ArConfig {
  std::size_t order = 8;        ///< lag count p
  std::size_t window = 96;      ///< training window, in ticks
  std::size_t refit_every = 8;  ///< refit cadence, in observations
  std::size_t iterations = 200; ///< Adam steps per refit (full-batch)
  /// Conservative on purpose: the full-batch loss on a near-collinear lag
  /// matrix oscillates under aggressive Adam steps; 0.01 converges to
  /// machine precision on smooth ramps within one refit's budget.
  double lr = 0.01;
  std::uint64_t seed = 1;
  /// Observations before the first refit; floored at order + 4.
  std::size_t min_history = 16;
  /// Band half-width in residual standard deviations (1.96 ~ 95%).
  double band_z = 1.96;
};

class ArForecaster final : public Forecaster {
 public:
  explicit ArForecaster(ArConfig cfg = {});

  void observe(double value) override;
  Forecast predict(std::size_t steps) const override;
  bool ready() const override { return fitted_; }
  void reset() override;
  std::size_t observations() const override { return count_; }
  std::string name() const override { return "ar_linear"; }

  std::uint64_t refits() const { return refits_; }

 private:
  void refit();
  /// One-step prediction from `lags` (normalized, size order).
  double step_normalized(const std::vector<double>& lags) const;

  ArConfig cfg_;
  nn::Param w_;
  nn::Param b_;
  std::unique_ptr<nn::Adam> adam_;
  nn::Tape tape_;
  nn::Tensor x_;  ///< training design matrix, reused across refits
  nn::Tensor y_;  ///< training targets, reused across refits
  std::vector<double> history_;  ///< last window + order raw values
  std::size_t count_ = 0;
  double scale_ = 1.0;  ///< normalization (window mean) at the last refit
  double sigma_ = 0.0;  ///< residual RMS on the window, raw units
  bool fitted_ = false;
  std::uint64_t refits_ = 0;
};

}  // namespace graf::forecast
