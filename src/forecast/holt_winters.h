// Seasonal-decomposition forecaster: additive Holt-Winters triple
// exponential smoothing (level + trend + optional seasonal component), the
// classic closed-form forecaster. O(1) state and O(1) per observation —
// cheap enough to run inside every control tick of every tenant.
//
// Uncertainty bands come from an exponentially-weighted variance of the
// one-step-ahead forecast error, widened by sqrt(h) for an h-step horizon
// (the standard SES band approximation). Entirely deterministic: no
// randomness is consumed at all.
#pragma once

#include <cstddef>
#include <vector>

#include "forecast/forecaster.h"

namespace graf::forecast {

struct HoltWintersConfig {
  double alpha = 0.45;  ///< level smoothing in (0, 1]
  double beta = 0.25;   ///< trend smoothing in [0, 1]
  double gamma = 0.3;   ///< seasonal smoothing in [0, 1]
  /// Season length in ticks; 0 disables the seasonal component (plain
  /// Holt's linear trend). The Azure trace's diurnal period is 24 minutes,
  /// so a per-minute series would use season = 24.
  std::size_t season = 0;
  /// Observations before ready(); raised to season + 2 when seasonal.
  std::size_t min_history = 4;
  /// Band half-width in one-step error standard deviations (1.96 ~ 95%).
  double band_z = 1.96;
  /// EWMA weight for the one-step squared-error variance estimate.
  double err_smoothing = 0.1;
};

class HoltWinters final : public Forecaster {
 public:
  explicit HoltWinters(HoltWintersConfig cfg = {});

  void observe(double value) override;
  Forecast predict(std::size_t steps) const override;
  bool ready() const override;
  void reset() override;
  std::size_t observations() const override { return count_; }
  std::string name() const override { return "holt_winters"; }

  double level() const { return level_; }
  double trend() const { return trend_; }
  /// Current one-step forecast-error standard deviation.
  double sigma() const;

 private:
  HoltWintersConfig cfg_;
  double level_ = 0.0;
  double trend_ = 0.0;
  std::vector<double> seasonal_;  ///< size cfg_.season (empty when 0)
  double err_var_ = 0.0;
  std::size_t count_ = 0;
};

}  // namespace graf::forecast
