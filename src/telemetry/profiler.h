// Scoped wall-time profiling spans feeding log-histograms in a registry.
//
// The design goal is near-zero cost when telemetry is detached: every
// instrumented hot path (MPNN forward/backward, solver descent iterations,
// event-queue pops, ResourceController::plan) holds a cached LogHistogram*
// that is nullptr until a registry is attached, and ScopedTimer{nullptr}
// is a no-op that never reads the clock — one predictable branch per scope.
//
// Durations are recorded in microseconds (the `*_us` naming convention),
// using steady_clock wall time: profiling measures the reproduction's own
// compute cost, while the Scraper's time axis is the *simulated* clock.
#pragma once

#include <chrono>

#include "telemetry/metrics.h"

namespace graf::telemetry {

class ScopedTimer {
 public:
  /// Starts timing iff `target` is non-null.
  explicit ScopedTimer(LogHistogram* target) : target_{target} {
    if (target_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() { stop(); }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Record now instead of at scope exit; returns the elapsed microseconds
  /// (0 when disarmed). Idempotent.
  double stop() {
    if (target_ == nullptr) return 0.0;
    const auto end = std::chrono::steady_clock::now();
    const double us =
        std::chrono::duration<double, std::micro>(end - start_).count();
    target_->record(us);
    target_ = nullptr;
    return us;
  }

 private:
  LogHistogram* target_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace graf::telemetry
