#include "forecast/gate.h"

#include <cmath>
#include <utility>

namespace graf::forecast {

ForecastGate::ForecastGate(std::shared_ptr<Forecaster> forecaster,
                           ForecastGateConfig cfg)
    : forecaster_{std::move(forecaster)}, cfg_{cfg} {
  if (!forecaster_) forecaster_ = std::make_shared<HoltWinters>();
  if (cfg_.horizon_steps == 0) cfg_.horizon_steps = 1;
  if (!(cfg_.max_boost >= 1.0)) cfg_.max_boost = 1.0;
}

// A unique_ptr handed over, not make_shared: make_shared's smaller cold code
// moved the end-to-end driver's host-speed kernel off its 64-byte phase
// (ROADMAP item 1).
ForecastGate::ForecastGate(const ForecastSpec& spec)
    : ForecastGate{
          std::shared_ptr<Forecaster>{std::make_unique<HoltWinters>(spec.holt_winters)},
          spec.gate} {}

void ForecastGate::set_metrics(telemetry::MetricsRegistry* registry) {
  if (registry == nullptr) {
    tel_predictions_ = tel_prewarms_ = tel_not_ready_ = tel_invalid_ =
        tel_capped_ = tel_errors_ = nullptr;
    tel_predicted_ = tel_boost_ = nullptr;
    return;
  }
  tel_predictions_ = &registry->counter("forecast.predictions_total");
  tel_prewarms_ = &registry->counter("forecast.prewarm_ticks");
  tel_not_ready_ = &registry->counter("forecast.fallbacks_total",
                                      {{"cause", "not_ready"}});
  tel_invalid_ = &registry->counter("forecast.fallbacks_total",
                                    {{"cause", "invalid"}});
  tel_errors_ = &registry->counter("forecast.fallbacks_total",
                                   {{"cause", "error"}});
  tel_capped_ = &registry->counter("forecast.boost_capped_total");
  tel_predicted_ = &registry->gauge("forecast.predicted_qps");
  tel_boost_ = &registry->gauge("forecast.boost");
}

std::vector<Qps> ForecastGate::fallback(const std::vector<Qps>& observed,
                                        telemetry::Counter* cause) {
  ++fallbacks_;
  if (cause != nullptr) cause->add();
  last_boost_ = 1.0;
  if (tel_boost_ != nullptr) tel_boost_->set(1.0);
  return observed;
}

std::vector<Qps> ForecastGate::plan_qps(const std::vector<Qps>& observed) {
  double total = 0.0;
  for (Qps q : observed) total += q;
  if (!std::isfinite(total) || total <= 0.0) return observed;

  try {
    forecaster_->observe(total);
    if (!forecaster_->ready()) return fallback(observed, tel_not_ready_);

    const Forecast fc = forecaster_->predict(cfg_.horizon_steps);
    const double target = cfg_.use_upper_band ? fc.hi : fc.mean;
    if (!fc.valid || !std::isfinite(target) || target < 0.0)
      return fallback(observed, tel_invalid_);

    ++predictions_;
    if (tel_predictions_ != nullptr) tel_predictions_->add();
    if (tel_predicted_ != nullptr) tel_predicted_->set(target);

    double boost = target / total;
    if (boost > cfg_.max_boost) {
      boost = cfg_.max_boost;
      if (tel_capped_ != nullptr) tel_capped_->add();
    }
    last_boost_ = std::max(boost, 1.0);
    if (tel_boost_ != nullptr) tel_boost_->set(last_boost_);
    if (boost <= 1.0) return observed;  // plan for max(observed, predicted)

    ++prewarms_;
    if (tel_prewarms_ != nullptr) tel_prewarms_->add();
    std::vector<Qps> planned = observed;
    for (Qps& q : planned) q *= boost;  // preserve the API mix
    return planned;
  } catch (...) {
    // Degradation contract: the crystal ball never takes down the loop.
    return fallback(observed, tel_errors_);
  }
}

}  // namespace graf::forecast
