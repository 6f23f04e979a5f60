// GRAF's end-to-end control loop (paper §3.1 / §3.8) on a simulated
// cluster, packaged as an Autoscaler so benchmarks can swap it against the
// K8s HPA and FIRM-like baselines. It is a FleetServer holding one tenant:
// every control tick reads *only the front-end workload* — nothing
// downstream — and pushes it as one TelemetryUpdate, the tenant decides
// exactly as a daemon tenant does (signal loss, forecast gate, hysteresis,
// degraded re-solve, failure isolation), and each notified plan change
// lands on every service at once. That is the proactive behaviour that
// defeats the cascading effect.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "autoscalers/autoscaler.h"
#include "fleet/fleet_server.h"
#include "telemetry/log_histogram.h"
#include "telemetry/metrics.h"

namespace graf::fleet {

struct GrafControllerConfig {
  Seconds control_interval = 5.0;
  Seconds rate_window = 5.0;
};

class GrafController : public autoscalers::Autoscaler {
 public:
  /// Admits `spec` as the loop's tenant (TenantSpec validation applies).
  /// The SLO, change threshold and forecast mode come from the spec.
  explicit GrafController(const TenantSpec& spec, GrafControllerConfig cfg = {});

  // Scheduled ticks and the apply subscription hold `this`.
  GrafController(const GrafController&) = delete;
  GrafController& operator=(const GrafController&) = delete;

  /// Applies the plan in force to `cluster` (a re-attach would otherwise
  /// wait for the next plan change to be notified) and starts a fresh tick
  /// chain; the previous attachment's chain dies. Throws
  /// std::invalid_argument when the cluster's API or service count differs
  /// from the spec's.
  void attach(sim::Cluster& cluster, Seconds until) override;
  std::string name() const override { return "graf"; }

  /// Publish `core.measured_p99_ms`: when the attached cluster has
  /// telemetry, the per-control-interval e2e p99 derived from its mergeable
  /// log-histogram via snapshot deltas (the Prometheus
  /// histogram_quantile(rate(...)) idiom). The plan-path instruments live
  /// in tenant().metrics(), as a daemon tenant's do. nullptr detaches.
  void set_metrics(telemetry::MetricsRegistry* registry);

  /// Control ticks executed since the last attach() (exactly one tick
  /// chain may be live per attachment).
  std::uint64_t ticks() const { return ticks_; }
  /// The loop's tenant: plan state, counters, controller, forecast gate.
  Tenant& tenant() { return *fleet_.tenant(id_); }

 private:
  void tick(std::uint64_t generation);
  void record_measured_tail();
  /// Snapshot the cluster's e2e histogram as the interval baseline (no
  /// publish): the first tick after attach()/set_metrics() must report its
  /// own interval, not the cluster's cumulative history.
  void seed_tail_baseline();

  GrafControllerConfig cfg_;
  std::size_t apis_;
  std::size_t services_;
  FleetServer fleet_;
  TenantId id_;
  SubscriptionToken apply_token_;
  sim::Cluster* cluster_ = nullptr;
  Seconds until_ = 0.0;
  /// Bumped by every attach(); stale scheduled ticks check it and die.
  std::uint64_t generation_ = 0;
  std::uint64_t ticks_ = 0;
  telemetry::Gauge* measured_p99_ = nullptr;
  /// e2e histogram state at the previous tick, for interval percentiles.
  telemetry::HistogramSnapshot last_e2e_;
  bool have_last_e2e_ = false;
};

}  // namespace graf::fleet
