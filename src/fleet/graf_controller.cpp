#include "fleet/graf_controller.h"

#include <stdexcept>
#include <utility>

namespace graf::fleet {

GrafController::GrafController(const TenantSpec& spec, GrafControllerConfig cfg)
    : cfg_{cfg},
      apis_{spec.fanout.size()},
      services_{spec.lo.size()},
      id_{fleet_.add_tenant(spec)} {
  apply_token_ = fleet_.subscribe(
      [this](const PlanUpdate& update) {
        core::ResourceController::apply(*cluster_, update.plan);
      },
      id_);
}

void GrafController::set_metrics(telemetry::MetricsRegistry* registry) {
  measured_p99_ =
      registry != nullptr ? &registry->gauge("core.measured_p99_ms") : nullptr;
  // Re-baseline against whatever the cluster's histogram holds right now, so
  // the next tick publishes a true interval percentile.
  seed_tail_baseline();
}

void GrafController::seed_tail_baseline() {
  have_last_e2e_ = false;
  if (cluster_ == nullptr) return;
  telemetry::LogHistogram* hist = cluster_->e2e_histogram();
  if (hist == nullptr) return;
  last_e2e_ = hist->snapshot();
  have_last_e2e_ = true;
}

void GrafController::record_measured_tail() {
  if (measured_p99_ == nullptr || cluster_ == nullptr) return;
  telemetry::LogHistogram* hist = cluster_->e2e_histogram();
  if (hist == nullptr) return;
  // Interval p99 from bucket-count deltas: O(buckets), no copy, no sort.
  // The baseline snapshot is seeded at attach(), so even the first tick
  // reports only its own interval — never the cluster's cumulative history
  // from before this controller was attached.
  telemetry::HistogramSnapshot now = hist->snapshot();
  if (have_last_e2e_) {
    const telemetry::HistogramSnapshot interval = now.delta_since(last_e2e_);
    if (!interval.empty()) measured_p99_->set(interval.percentile(99.0));
  }
  last_e2e_ = std::move(now);
  have_last_e2e_ = true;
}

void GrafController::attach(sim::Cluster& cluster, Seconds until) {
  // A shape mismatch would surface only inside the apply subscription,
  // where the fleet swallows it as a subscriber failure.
  if (cluster.api_count() != apis_ || cluster.service_count() != services_)
    throw std::invalid_argument("GrafController: cluster shape differs from the spec");
  cluster_ = &cluster;
  until_ = until;
  // Notification is change-only: a plan already in force would never reach
  // a newly attached cluster on its own.
  if (tenant().has_plan()) core::ResourceController::apply(cluster, tenant().last_plan());
  // Kill any tick chain from a previous attach() (stale lambdas in the old
  // event queue must not keep double-planning against the new cluster), and
  // baseline the tail-latency snapshot at the moment of attachment.
  const std::uint64_t generation = ++generation_;
  ticks_ = 0;
  seed_tail_baseline();
  cluster.events().schedule_in(cfg_.control_interval,
                               [this, generation] { tick(generation); });
}

void GrafController::tick(std::uint64_t generation) {
  if (generation != generation_) return;  // superseded by a newer attach()
  if (cluster_->now() > until_) return;
  ++ticks_;
  TelemetryUpdate update{.tenant = id_, .now = cluster_->now()};
  update.api_qps.reserve(apis_);
  for (std::size_t a = 0; a < apis_; ++a)
    update.api_qps.push_back(cluster_->api_qps(static_cast<int>(a), cfg_.rate_window));
  fleet_.push(std::move(update));
  fleet_.step();
  record_measured_tail();
  cluster_->events().schedule_in(cfg_.control_interval,
                                 [this, generation] { tick(generation); });
}

}  // namespace graf::fleet
