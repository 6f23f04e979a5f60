#include "core/resource_controller.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "core/tiered_planner.h"
#include "serve/serving_handle.h"
#include "telemetry/profiler.h"

namespace graf::core {
namespace {

/// ~2% relative quantization: workloads within a bucket share a cached plan.
/// log1p keeps zero workloads in a bucket of their own.
std::int32_t workload_bucket(double w) {
  return static_cast<std::int32_t>(std::llround(std::log1p(w) * 50.0));
}

}  // namespace

ResourceController::ResourceController(gnn::LatencyModel& model,
                                       ConfigurationSolver& solver,
                                       WorkloadAnalyzer& analyzer,
                                       std::vector<Millicores> lo,
                                       std::vector<Millicores> hi,
                                       std::vector<Millicores> unit_mc)
    : model_{&model}, solver_{solver}, analyzer_{analyzer}, lo_{std::move(lo)},
      hi_{std::move(hi)}, unit_{std::move(unit_mc)} {
  const std::size_t n = model_->node_count();
  if (lo_.size() != n || hi_.size() != n || unit_.size() != n)
    throw std::invalid_argument{"ResourceController: bound/unit dimension mismatch"};
  train_max_workload_.assign(n, 0.0);
}

void ResourceController::set_metrics(telemetry::MetricsRegistry* registry) {
  if (registry == nullptr) {
    plan_timer_ = nullptr;
    plans_total_ = nullptr;
    solver_iterations_ = predicted_p99_ = scale_factor_ = planned_quota_ = nullptr;
    degraded_gauge_ = saturated_gauge_ = nullptr;
    fault_model_mismatch_ = fault_analyzer_ = fault_nan_ = fault_infeasible_ = nullptr;
    fault_invalid_workload_ = nullptr;
    cache_hits_counter_ = cache_misses_counter_ = cache_evictions_counter_ = nullptr;
    cache_saved_us_ = nullptr;
  } else {
    plan_timer_ = &registry->histogram("core.plan_us");
    plans_total_ = &registry->counter("core.plans_total");
    solver_iterations_ = &registry->gauge("core.solver_iterations");
    predicted_p99_ = &registry->gauge("core.predicted_p99_ms");
    scale_factor_ = &registry->gauge("core.scale_factor");
    planned_quota_ = &registry->gauge("core.planned_quota_mc");
    // The last plan's fallback flag. A fleet tenant's fleet.tenant.degraded
    // also covers signal loss and plans that threw.
    degraded_gauge_ = &registry->gauge("core.degraded");
    saturated_gauge_ = &registry->gauge("core.plan_saturated");
    fault_model_mismatch_ = &registry->counter("faults.model_shape_mismatch");
    fault_analyzer_ = &registry->counter("faults.analyzer_not_ready");
    fault_nan_ = &registry->counter("faults.solver_nan");
    fault_infeasible_ = &registry->counter("faults.solver_infeasible");
    fault_invalid_workload_ = &registry->counter("faults.invalid_workload");
    cache_hits_counter_ = &registry->counter("core.plan_cache.hits");
    cache_misses_counter_ = &registry->counter("core.plan_cache.misses");
    cache_evictions_counter_ = &registry->counter("core.plan_cache.evictions");
    cache_saved_us_ = &registry->counter("core.plan_cache.saved_us");
  }
  solver_.set_metrics(registry);
  metrics_registry_ = registry;
  if (tiered_ != nullptr) tiered_->set_metrics(registry);
}

void ResourceController::set_tiered_planner(TieredPlanner* planner) {
  tiered_ = planner;
  planner_mode_ = planner != nullptr ? PlannerMode::kSurrogateVerified
                                     : PlannerMode::kFull;
  if (tiered_ != nullptr) tiered_->set_metrics(metrics_registry_);
  // No cache clear needed: planner_bits diverge, so entries written by the
  // other mode simply stop matching (and become valid again if it returns).
}

void ResourceController::set_serving_handle(serve::ServingHandle* handle) {
  handle_ = handle;
  refresh_model();
}

void ResourceController::refresh_model() {
  if (handle_ == nullptr) return;
  std::shared_ptr<gnn::LatencyModel> current = handle_->acquire();
  if (current == nullptr || current.get() == model_) return;
  if (current->node_count() != lo_.size()) {
    // A registry published a model for a different topology. Throwing here
    // used to take the whole control loop down mid-tick; instead keep the
    // previously pinned (correct-shape) model and answer from the degraded
    // path until a compatible model is served.
    model_mismatch_ = true;
    if (fault_model_mismatch_ != nullptr) fault_model_mismatch_->add();
    return;
  }
  model_mismatch_ = false;
  // Rebind before dropping the old pin: rebind() sanity-checks the new
  // model's node count against the solver's current one, and if this
  // controller holds the last reference (the handle already swapped the
  // old model out), reassigning pinned_ first would free what that check
  // reads. Rebind also leaves the controller untouched if it throws.
  solver_.rebind(*current);
  pinned_ = std::move(current);
  model_ = pinned_.get();
  // New weights mean cached plans no longer describe what the solver would
  // produce; the generation bump also poisons any key already handed out.
  invalidate_plan_cache();
}

void ResourceController::invalidate_plan_cache() {
  plan_cache_.clear();
  ++model_generation_;
}

void ResourceController::set_plan_cache_capacity(std::size_t capacity) {
  plan_cache_capacity_ = capacity;
  invalidate_plan_cache();
}

gnn::LatencyModel& ResourceController::active_model() {
  refresh_model();
  return *model_;
}

void ResourceController::set_training_reference(const gnn::Dataset& train) {
  const std::size_t n = model_->node_count();
  train_max_workload_.assign(n, 0.0);
  for (const auto& s : train)
    for (std::size_t i = 0; i < n; ++i)
      train_max_workload_[i] = std::max(train_max_workload_[i], s.workload[i]);
  invalidate_plan_cache();  // the scale factor k changes with the reference
}

void ResourceController::set_max_instances(std::vector<int> max_instances) {
  if (!max_instances.empty() && max_instances.size() != unit_.size())
    throw std::invalid_argument{"ResourceController: max_instances dimension mismatch"};
  for (int m : max_instances)
    if (m < 1) throw std::invalid_argument{"ResourceController: max_instances must be >= 1"};
  max_instances_ = std::move(max_instances);
  invalidate_plan_cache();  // clamping rules are part of the cached result
}

AllocationPlan ResourceController::degraded_plan(telemetry::Counter* cause,
                                                 bool keep_cache) {
  ++degraded_plans_;
  if (cause != nullptr) cause->add();
  // Entering degraded mode signals the solve pipeline can't be trusted
  // (model mismatch, analyzer blackout, NaN, infeasible) — stop serving
  // cached products of that same pipeline until a clean solve lands.
  if (!keep_cache) invalidate_plan_cache();
  AllocationPlan plan;
  if (have_last_good_) {
    plan = last_good_;
  } else {
    // No feasible plan yet (fault before the first clean solve): provision
    // at the hi bounds — the most conservative allocation inside the
    // trained region, close to what a best-effort solve would land on.
    const std::size_t n = lo_.size();
    plan.quota = hi_;
    plan.instances.assign(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      plan.instances[i] =
          std::max(1, static_cast<int>(std::ceil(plan.quota[i] / unit_[i])));
      if (!max_instances_.empty())
        plan.instances[i] = std::min(plan.instances[i], max_instances_[i]);
    }
    plan.feasible = false;
  }
  plan.degraded = true;
  publish_plan(plan);
  return plan;
}

void ResourceController::publish_plan(const AllocationPlan& plan) {
  if (plans_total_ == nullptr) return;
  plans_total_->add();
  solver_iterations_->set(static_cast<double>(plan.solver.iterations));
  predicted_p99_->set(plan.predicted_ms);
  scale_factor_->set(plan.scale_factor);
  double total_mc = 0.0;
  for (double q : plan.quota) total_mc += q;
  planned_quota_->set(total_mc);
  degraded_gauge_->set(plan.degraded ? 1.0 : 0.0);
  saturated_gauge_->set(plan.saturated ? 1.0 : 0.0);
}

AllocationPlan ResourceController::plan(std::span<const Qps> api_qps, double slo_ms) {
  telemetry::ScopedTimer plan_timer{plan_timer_};
  PlanPrep prep = begin_plan(api_qps, slo_ms);
  if (prep.done) return std::move(prep.plan);
  SolverResult solved = solve_prepared(prep);
  return finish_plan(std::move(prep), std::move(solved));
}

PlanPrep ResourceController::begin_plan(std::span<const Qps> api_qps, double slo_ms) {
  PlanPrep prep;
  prep.slo_ms = slo_ms;
  refresh_model();  // pick up any model hot-swapped since the last decision
  if (model_mismatch_) {
    prep.plan = degraded_plan(fault_model_mismatch_);
    prep.done = true;
    return prep;
  }
  if (!analyzer_.ready()) {
    // No fan-out observed (tracing blackout since attach, or cold start):
    // distribute() would place zero workload everywhere and the solve would
    // starve every service.
    prep.plan = degraded_plan(fault_analyzer_);
    prep.done = true;
    return prep;
  }
  const std::size_t n = model_->node_count();
  std::vector<double> node_workload = analyzer_.distribute(api_qps);
  // A NaN, infinite or negative rate is bad input, not a fault of the
  // pipeline: answer from the fallback before it reaches a cache key
  // (workload_bucket's llround(log1p(w))) or the solver, and keep the cache.
  for (double w : node_workload) {
    if (!std::isfinite(w) || w < 0.0) {
      prep.plan = degraded_plan(fault_invalid_workload_, /*keep_cache=*/true);
      prep.done = true;
      return prep;
    }
  }

  // Plan-cache lookup: post-distribute workloads fold fan-out/topology
  // effects into the key, so two ticks that quantize alike would solve
  // alike. A hit skips the solver outright (sub-millisecond tick).
  prep.key.resize(n);
  for (std::size_t i = 0; i < n; ++i) prep.key[i] = workload_bucket(node_workload[i]);
  prep.slo_bits = std::bit_cast<std::uint64_t>(slo_ms);
  prep.planner_bits = planner_bits();
  for (CachedPlan& entry : plan_cache_) {
    if (entry.generation != model_generation_ || entry.slo_bits != prep.slo_bits ||
        entry.planner_bits != prep.planner_bits ||
        entry.workload_buckets != prep.key)
      continue;
    entry.last_used = ++cache_tick_;
    ++cache_hits_;
    if (cache_hits_counter_ != nullptr) cache_hits_counter_->add();
    if (cache_saved_us_ != nullptr) cache_saved_us_->add(entry.solve_seconds * 1e6);
    last_good_ = entry.plan;  // cached plans are feasible by construction
    have_last_good_ = true;
    publish_plan(entry.plan);
    prep.plan = entry.plan;
    prep.done = true;
    return prep;
  }
  ++cache_misses_;
  if (cache_misses_counter_ != nullptr) cache_misses_counter_->add();

  // Workload scaling (§3.6): shrink into the trained region by a common
  // factor; quotas are scaled back up by the same factor afterwards.
  for (std::size_t i = 0; i < n; ++i) {
    if (train_max_workload_[i] > 0.0)
      prep.k = std::max(prep.k, node_workload[i] / train_max_workload_[i]);
  }
  prep.scaled = std::move(node_workload);
  for (double& w : prep.scaled) w /= prep.k;
  return prep;
}

std::uint64_t ResourceController::planner_bits() {
  if (planner_mode_ != PlannerMode::kSurrogateVerified || tiered_ == nullptr)
    return 0;
  // surrogate_generation() re-acquires the serving handle, so a registry
  // promote/rollback lands here — before the cache is consulted.
  return (std::uint64_t{1} << 63) |
         (tiered_->surrogate_generation() & ~(std::uint64_t{1} << 63));
}

SolverResult ResourceController::solve_prepared(const PlanPrep& prep) {
  if (planner_mode_ == PlannerMode::kSurrogateVerified && tiered_ != nullptr)
    return tiered_->solve(*model_, solver_, prep.scaled, prep.slo_ms, lo_, hi_);
  return solver_.solve(prep.scaled, prep.slo_ms, lo_, hi_);
}

AllocationPlan ResourceController::finish_plan(PlanPrep prep, SolverResult solved) {
  const std::size_t n = model_->node_count();
  const double k = prep.k;
  AllocationPlan plan;
  plan.scale_factor = k;
  plan.solver = std::move(solved);
  plan.predicted_ms = plan.solver.predicted_ms;

  // A corrupted model (mid-fine-tune swap, numerical blowup) can hand back
  // NaN/inf quotas or predictions; applying them would wreck the cluster.
  bool finite = std::isfinite(plan.predicted_ms);
  for (double q : plan.solver.quota) finite = finite && std::isfinite(q);
  if (!finite) return degraded_plan(fault_nan_);

  plan.quota.assign(n, 0.0);
  plan.instances.assign(n, 0);
  std::vector<double> clamped_scaled_quota(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    plan.quota[i] = plan.solver.quota[i] * k;
    // Eq. 7: round the continuous quota up to whole instance units.
    plan.instances[i] =
        std::max(1, static_cast<int>(std::ceil(plan.quota[i] / unit_[i])));
    // Clamp to the replica cap here, where the prediction can follow, rather
    // than letting Service::scale_to clamp silently after the fact.
    if (!max_instances_.empty() && plan.instances[i] > max_instances_[i]) {
      plan.instances[i] = max_instances_[i];
      plan.quota[i] =
          std::min(plan.quota[i], unit_[i] * static_cast<double>(max_instances_[i]));
      plan.saturated = true;
    }
    clamped_scaled_quota[i] = plan.quota[i] / k;
  }
  if (plan.saturated) {
    // predicted_ms must describe the allocation that actually lands.
    plan.predicted_ms = model_->predict(prep.scaled, clamped_scaled_quota);
    if (!std::isfinite(plan.predicted_ms)) return degraded_plan(fault_nan_);
  }

  plan.feasible = plan.predicted_ms <= prep.slo_ms;
  if (!plan.feasible) {
    // The solver itself reports this point misses the SLO: don't walk the
    // cluster onto it when a feasible allocation is still in hand.
    if (have_last_good_) return degraded_plan(fault_infeasible_);
    if (fault_infeasible_ != nullptr) fault_infeasible_->add();
    // Nothing to fall back on: apply the best effort, flagged infeasible.
  } else {
    last_good_ = plan;
    have_last_good_ = true;
    // Only clean, feasible plans are worth replaying. LRU-evict at capacity.
    if (plan_cache_capacity_ > 0) {
      if (plan_cache_.size() >= plan_cache_capacity_) {
        std::size_t victim = 0;
        for (std::size_t e = 1; e < plan_cache_.size(); ++e)
          if (plan_cache_[e].last_used < plan_cache_[victim].last_used) victim = e;
        plan_cache_[victim] = plan_cache_.back();
        plan_cache_.pop_back();
        ++cache_evictions_;
        if (cache_evictions_counter_ != nullptr) cache_evictions_counter_->add();
      }
      CachedPlan entry;
      entry.workload_buckets = std::move(prep.key);
      entry.slo_bits = prep.slo_bits;
      entry.generation = model_generation_;
      entry.planner_bits = prep.planner_bits;
      entry.plan = plan;
      entry.solve_seconds = plan.solver.solve_seconds;
      entry.last_used = ++cache_tick_;
      plan_cache_.push_back(std::move(entry));
    }
  }
  publish_plan(plan);
  return plan;
}

void ResourceController::apply(sim::Cluster& cluster, const AllocationPlan& plan) {
  if (plan.instances.size() != cluster.service_count())
    throw std::invalid_argument{"ResourceController::apply: plan/cluster mismatch"};
  for (std::size_t s = 0; s < plan.instances.size(); ++s) {
    sim::Service& svc = cluster.service(static_cast<int>(s));
    if (plan.instances[s] != svc.target_count()) svc.scale_to(plan.instances[s]);
  }
}

}  // namespace graf::core
