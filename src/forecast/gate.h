// ForecastGate: the control-plane adapter between a Forecaster and a
// planner.
//
// Every control tick the gate observes the total front-end workload,
// predicts it `horizon_steps` ticks ahead (the horizon covers the
// simulator's ~5.5 s instance-creation delay), and returns the per-API qps
// vector to plan for: observed scaled by max(1, predicted / observed), the
// API mix preserved. Planning for the *returned* vector is what pre-warms
// capacity — and it is also what keeps the ResourceController's plan-cache
// key honest, because the cache quantizes whatever workload plan() is
// handed, i.e. the planned-for (post-max) demand, never the raw observation.
//
// Degradation contract: plan_qps() never throws. A forecaster that is not
// ready, returns non-finite numbers, or explodes past the sanity cap makes
// the gate fall back to the observed vector (plan-alone semantics) and
// count the cause under forecast.* — the control loop cannot be taken down
// by its own crystal ball.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/units.h"
#include "forecast/forecaster.h"
#include "forecast/holt_winters.h"
#include "telemetry/metrics.h"

namespace graf::forecast {

struct ForecastGateConfig {
  /// Control ticks of lookahead; with the default 5 s control interval,
  /// 2 ticks (10 s) covers the 5.5 s creation delay with margin.
  std::size_t horizon_steps = 2;
  /// Plan for the band's upper edge (pre-warm against the uncertainty)
  /// instead of the mean.
  bool use_upper_band = true;
  /// Sanity cap on predicted/observed: a forecaster demanding more than
  /// this multiple of the observed load is clamped (and counted).
  double max_boost = 4.0;
};

/// The forecaster a declarative spec (fleet TenantSpec, examples) builds.
/// Holt-Winters is the only kind; ForecastSpec::kind stays so that specs
/// which name it still compile.
enum class ForecastKind { kHoltWinters };

/// Declarative forecast-mode configuration: embeddable in TenantSpec and
/// enough to construct the whole gate.
struct ForecastSpec {
  bool enabled = false;
  ForecastKind kind = ForecastKind::kHoltWinters;
  HoltWintersConfig holt_winters;
  ForecastGateConfig gate;
};

class ForecastGate {
 public:
  ForecastGate(std::shared_ptr<Forecaster> forecaster, ForecastGateConfig cfg);
  /// Build forecaster and gate from the declarative spec (spec.enabled is
  /// the caller's business — the gate itself is always live).
  explicit ForecastGate(const ForecastSpec& spec);

  /// Observe this tick's workload and return the vector to plan for:
  /// observed * max(1, predicted_at_horizon / observed). Falls back to
  /// `observed` (copied unchanged) on any forecaster failure. Never throws.
  std::vector<Qps> plan_qps(const std::vector<Qps>& observed);

  /// Publish forecast.* instruments (counters for predictions / pre-warm
  /// ticks / fallback causes, gauges for the predicted total and the boost
  /// in force). nullptr detaches.
  void set_metrics(telemetry::MetricsRegistry* registry);

  const ForecastGateConfig& config() const { return cfg_; }

  /// Ticks where the forecast raised the planned-for workload.
  std::uint64_t prewarms() const { return prewarms_; }
  /// Ticks answered with the observed vector (not ready / invalid / error).
  std::uint64_t fallbacks() const { return fallbacks_; }
  std::uint64_t predictions() const { return predictions_; }
  /// The boost applied on the last plan_qps() (1.0 = plan-alone).
  double last_boost() const { return last_boost_; }

 private:
  std::vector<Qps> fallback(const std::vector<Qps>& observed,
                            telemetry::Counter* cause);

  std::shared_ptr<Forecaster> forecaster_;
  ForecastGateConfig cfg_;

  std::uint64_t predictions_ = 0;
  std::uint64_t prewarms_ = 0;
  std::uint64_t fallbacks_ = 0;
  double last_boost_ = 1.0;

  telemetry::Counter* tel_predictions_ = nullptr;
  telemetry::Counter* tel_prewarms_ = nullptr;
  telemetry::Counter* tel_not_ready_ = nullptr;
  telemetry::Counter* tel_invalid_ = nullptr;
  telemetry::Counter* tel_capped_ = nullptr;
  telemetry::Counter* tel_errors_ = nullptr;
  telemetry::Gauge* tel_predicted_ = nullptr;
  telemetry::Gauge* tel_boost_ = nullptr;
};

}  // namespace graf::forecast
