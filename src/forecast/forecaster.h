// Workload forecasting (ROADMAP "forecast-driven proactive planning").
//
// GRAF is proactive *within* a control tick — it plans every service from
// the front-end workload it has already observed — but it still pays the
// ~5.5 s instance-creation delay whenever load moves faster than the loop.
// Graph-PHPA (PAPERS.md) shows the next rung: forecast the workload and
// scale for the *predicted* load. Following LSRAM's lightweight-allocator
// thesis, the forecaster here is compact — a seasonal Holt-Winters
// (src/forecast/holt_winters.h) — not a second GNN.
//
// Determinism contract (DESIGN.md §3.11): a forecaster's predictions are a
// pure function of (config, seed, observed series). Implementations consume
// no global randomness, no wall clock, and no thread pool, so faulted and
// fleet runs that feed identical series replay bit-identically at any
// thread count.
#pragma once

#include <cstddef>
#include <string>

namespace graf::forecast {

/// One per-horizon prediction with an uncertainty band. Workloads are
/// non-negative, so `mean` and `lo` are clamped at zero.
struct Forecast {
  double mean = 0.0;
  double lo = 0.0;  ///< mean - z * sigma_h (z from the forecaster's config)
  double hi = 0.0;  ///< mean + z * sigma_h
  /// False until the forecaster has enough history (or after a numeric
  /// failure): callers must fall back to plan-alone, never extrapolate.
  bool valid = false;
};

/// Interface over the per-tick front-end workload series. observe() is
/// called once per control tick with the tick's total front-end qps;
/// predict(h) extrapolates h ticks past the last observation.
///
/// Implementations must never throw from observe()/predict(): a forecaster
/// that cannot produce a number reports Forecast::valid = false (the
/// ForecastGate then degrades to plan-alone and counts the cause).
/// Non-finite observations are ignored (no state change) for the same
/// reason — one poisoned scrape must not corrupt the whole series.
class Forecaster {
 public:
  virtual ~Forecaster() = default;

  /// Append one tick of the uniformly-spaced workload series.
  virtual void observe(double value) = 0;

  /// Prediction `steps` ticks ahead of the last observation (steps >= 1).
  virtual Forecast predict(std::size_t steps) const = 0;

  /// Enough history to predict (predict() before ready() returns invalid).
  virtual bool ready() const = 0;

  /// Forget all history (reuse across scenario replays).
  virtual void reset() = 0;

  /// Observations consumed since construction/reset().
  virtual std::size_t observations() const = 0;

  virtual std::string name() const = 0;
};

}  // namespace graf::forecast
