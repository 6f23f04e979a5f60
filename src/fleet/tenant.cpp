#include "fleet/tenant.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "gnn/batched_latency_model.h"

namespace graf::fleet {

void Tenant::validate(const TenantSpec& spec) {
  const auto reject = [](const char* what) {
    throw std::invalid_argument(std::string{"fleet: TenantSpec."} + what);
  };
  if (spec.model == nullptr) reject("model is required");
  if (spec.fanout.empty()) reject("fanout is required");
  const std::size_t services = spec.model->node_count();
  if (spec.lo.size() != services || spec.hi.size() != services ||
      spec.unit.size() != services)
    reject("lo/hi/unit must match the model's service count");
  // NaN fails every comparison, so each check is written to pass only a
  // finite value in range.
  if (!(std::isfinite(spec.slo_ms) && spec.slo_ms > 0.0))
    reject("slo_ms must be finite and positive");
  for (std::size_t i = 0; i < services; ++i) {
    if (!(std::isfinite(spec.lo[i]) && std::isfinite(spec.hi[i]) && spec.lo[i] > 0.0 &&
          spec.lo[i] <= spec.hi[i] && std::isfinite(1.0 / spec.lo[i])))
      reject("lo/hi must be finite with 0 < lo <= hi and 1/lo finite");
    if (!(std::isfinite(spec.unit[i]) && spec.unit[i] > 0.0))
      reject("unit must be finite and positive");
  }
  for (const auto& row : spec.fanout) {
    if (row.size() != services) reject("fanout rows must have one entry per service");
    for (double f : row)
      if (!(std::isfinite(f) && f >= 0.0))
        reject("fanout must be finite and non-negative");
  }
  if (!spec.max_instances.empty()) {
    if (spec.max_instances.size() != services)
      reject("max_instances must be empty or have one entry per service");
    for (int m : spec.max_instances)
      if (m < 1) reject("max_instances entries must be >= 1");
  }
  // The §3.6 scale reference and the surrogate's distillation region read
  // every service's workload of every sample.
  for (const auto& sample : spec.training_reference)
    if (sample.workload.size() != services ||
        !std::all_of(sample.workload.begin(), sample.workload.end(),
                     [](double w) { return std::isfinite(w) && w >= 0.0; }))
      reject("training_reference workloads must be one finite, non-negative entry per "
             "service");
  if (!(std::isfinite(spec.change_threshold) && spec.change_threshold >= 0.0))
    reject("change_threshold must be finite and non-negative");
  // The descent's step, penalty and margined target: NaN or zero in any of
  // them degrades every plan, so each solver the tenant runs is checked.
  const auto descends = [](const core::SolverConfig& c) {
    return std::isfinite(c.rho) && c.rho > 0.0 && std::isfinite(c.slo_margin) &&
           c.slo_margin > 0.0 && std::isfinite(c.lr_mc) && c.lr_mc > 0.0;
  };
  if (!descends(spec.solver) ||
      (spec.surrogate.enabled && !descends(spec.surrogate.planner.solver)))
    reject("solver (and surrogate.planner.solver): rho, slo_margin and lr_mc must be "
           "finite and positive");
  if (spec.surrogate.enabled) {
    // The planner refuses a zero trust band only after distillation has run,
    // and a NaN band escalates every plan: check it before publishing.
    const double band = spec.surrogate.planner.trust_band_pct;
    if (!(std::isfinite(band) && band > 0.0))
      reject("surrogate.planner.trust_band_pct must be finite and positive");
    // Admission distillation trains on this config: reject what cannot run
    // now, not after v1 is published.
    core::TieredPlanner::check_distill(spec.surrogate.distill);
  }
  // The online trainer's drift baseline: NaN would disable drift detection.
  if (!std::isfinite(spec.meta.val_error_pct))
    reject("meta.val_error_pct must be finite");
}

Tenant::Tenant(TenantId id, const TenantSpec& spec, serve::ModelRegistry& registry)
    : id_{id},
      key_{spec.application, spec.slo_ms},
      registry_{&registry},
      slo_ms_{spec.slo_ms},
      change_threshold_{spec.change_threshold} {
  validate(spec);
  const std::size_t services = spec.model->node_count();

  // v1: the admission model, published and promoted. This tenant's serving
  // handle attaches only at the end, once nothing can reject the spec: a
  // throwing constructor never runs ~Tenant, so a handle attached earlier
  // would stay registered after its storage is freed.
  const std::uint64_t v = registry.publish(key_, *spec.model, spec.meta);
  registry.promote(key_, v);
  model_ = registry.active(key_);

  analyzer_ = std::make_unique<core::WorkloadAnalyzer>(spec.fanout.size(), services);
  analyzer_->set_fanout(spec.fanout);
  solver_ = std::make_unique<core::ConfigurationSolver>(*model_, spec.solver);
  controller_ = std::make_unique<core::ResourceController>(
      *model_, *solver_, *analyzer_, spec.lo, spec.hi, spec.unit);
  if (!spec.training_reference.empty())
    controller_->set_training_reference(spec.training_reference);
  if (!spec.max_instances.empty())
    controller_->set_max_instances(spec.max_instances);
  controller_->set_plan_cache_capacity(spec.plan_cache_capacity);
  controller_->set_metrics(&metrics_);

  if (spec.surrogate.enabled) {
    // Admission distillation: sample the operating region — the training
    // reference's per-node maxima when given, else the teacher's trained
    // region (w_scale is 1/max trained workload) — and distill the
    // promoted v1 into this tenant's private surrogate, fixed from here on.
    std::vector<double> region(services, 0.0);
    if (!spec.training_reference.empty()) {
      for (const auto& s : spec.training_reference)
        for (std::size_t i = 0; i < services; ++i)
          region[i] = std::max(region[i], s.workload[i]);
    } else {
      const double wmax = 1.0 / model_->scalers().w_scale;
      for (double& r : region) r = wmax;
    }
    gnn::SurrogateDistiller::Result distilled = core::TieredPlanner::distill_for_planner(
        *model_, region, spec.lo, spec.hi, spec.slo_ms, spec.surrogate.distill,
        spec.surrogate.planner.solver);
    tiered_ = std::make_unique<core::TieredPlanner>(
        std::make_shared<gnn::SurrogateModel>(std::move(distilled.model)),
        spec.surrogate.planner);
    tiered_->set_metrics(&metrics_);
    controller_->set_tiered_planner(tiered_.get());
    surrogate_fingerprint_ = gnn::SurrogateModel::fingerprint(tiered_->active_surrogate());
  }

  if (spec.forecast.enabled) {
    gate_ = std::make_unique<forecast::ForecastGate>(spec.forecast);
    gate_->set_metrics(&metrics_);
  }

  tel_plans_ = &metrics_.counter("fleet.tenant.plans");
  tel_changes_ = &metrics_.counter("fleet.tenant.plan_changes");
  tel_failures_ = &metrics_.counter("fleet.tenant.plan_failures");
  tel_signal_loss_ = &metrics_.counter("fleet.tenant.signal_losses");
  tel_degraded_ = &metrics_.gauge("fleet.tenant.degraded");

  registry.attach_handle(key_, &handle_);
  controller_->set_serving_handle(&handle_);
}

Tenant::~Tenant() {
  // The registry outlives tenants (FleetServer member order), but this
  // handle does not outlive the registry entry — unhook before dying so a
  // later promote for the same key can't swap a dead handle.
  registry_->detach_handle(key_, &handle_);
}

void Tenant::set_slo(double slo_ms) {
  slo_ms_ = slo_ms;
  slo_dirty_ = true;  // hysteresis must not mask a retargeted objective
}

void Tenant::enable_online_training(const serve::OnlineTrainerConfig& cfg) {
  trainer_ = std::make_unique<serve::OnlineTrainer>(*registry_, handle_, key_, cfg);
  trainer_->set_metrics(&metrics_);
}

void Tenant::prepare() {
  needs_solve_ = false;
  if (!pending_) {
    outcome_ = Outcome::kIdle;
    return;
  }
  try {
    double total = 0.0;
    for (Qps q : pending_qps_) total += q;
    if (!(total > 0.0)) {
      // Workload signal vanished (telemetry blackout / all-zero push): hold
      // the last plan instead of solving for a phantom zero workload that
      // would scale everything to the floor.
      outcome_ = Outcome::kSignalLost;
      return;
    }
    // Forecast mode: the vector handed to the hysteresis check, plan()'s
    // cache key, and the committed last_solved_qps_ is the planned-for
    // (post-max) workload, while the forecaster itself keeps observing the
    // raw pending vector (pending_qps_ is left untouched, so a samples-only
    // push can't feed a boosted value back in as an observation).
    // plan_qps() never throws; on forecaster failure it returns the
    // observed vector unchanged.
    planned_qps_ = gate_ != nullptr ? gate_->plan_qps(pending_qps_) : pending_qps_;
    // Hysteresis: coast on the current plan while every API's relative
    // change stays inside the band — unless the SLO moved, the tenant is
    // degraded (recovery should re-solve ASAP), or the shape changed.
    if (has_plan_ && !degraded_ && !slo_dirty_ &&
        planned_qps_.size() == last_solved_qps_.size()) {
      double worst = 0.0;
      for (std::size_t i = 0; i < planned_qps_.size(); ++i) {
        const double base = std::max(last_solved_qps_[i], 1e-9);
        worst = std::max(worst, std::abs(planned_qps_[i] - last_solved_qps_[i]) / base);
      }
      if (worst < change_threshold_) {
        outcome_ = Outcome::kCoasted;
        return;
      }
    }
    prep_ = controller_->begin_plan(planned_qps_, slo_ms_);
    if (prep_.done) {
      // Cache hit or degraded fallback — the plan is already final.
      computed_ = std::move(prep_.plan);
      outcome_ = Outcome::kPlanned;
      return;
    }
    needs_solve_ = true;
  } catch (...) {
    // A throwing tenant degrades alone; the fleet's ordered pass records
    // the failure and its siblings' results stand.
    outcome_ = Outcome::kFailed;
  }
}

void Tenant::finish_solve(core::SolverResult solved) {
  needs_solve_ = false;
  try {
    computed_ = controller_->finish_plan(std::move(prep_), std::move(solved));
    outcome_ = Outcome::kPlanned;
  } catch (...) {
    outcome_ = Outcome::kFailed;
  }
}

std::uint64_t Tenant::model_fingerprint() {
  const std::uint64_t generation = controller_->model_generation();
  if (!fingerprint_valid_ || fingerprint_generation_ != generation) {
    fingerprint_ =
        gnn::BatchedLatencyModel::fingerprint(controller_->current_model());
    fingerprint_generation_ = generation;
    fingerprint_valid_ = true;
  }
  return fingerprint_;
}

}  // namespace graf::fleet
