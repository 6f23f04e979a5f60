// Resource controller (paper §3.6): bridges the continuous world of the
// solver and the discrete world of the cluster.
//
//  1. Scales the observed workload down into the region the GNN was
//     trained on (factor k = max_i l_i / l_i^train-max, floored at 1),
//  2. runs the configuration solver on the scaled workload,
//  3. scales the resulting quotas back up by k (even-distribution
//     assumption), and
//  4. converts quotas to replica counts: instances = ceil(quota/unit)
//     (Eq. 7), applied through the normal deployment pipeline.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/units.h"
#include "core/configuration_solver.h"
#include "core/workload_analyzer.h"
#include "gnn/latency_model.h"
#include "serve/serving_handle.h"
#include "sim/cluster.h"

namespace graf::core {

class TieredPlanner;

struct AllocationPlan {
  std::vector<Millicores> quota;   ///< per-service CPU quota (post-rescale)
  std::vector<int> instances;      ///< Eq. 7 replica counts
  double predicted_ms = 0.0;       ///< model estimate at the *scaled* point
  double scale_factor = 1.0;       ///< k applied to workload and quota
  SolverResult solver;             ///< raw solver diagnostics
  /// predicted_ms meets the SLO (at the clamped point when saturated).
  bool feasible = true;
  /// Some quota/replica count hit a cap (hi bound x k, or max_instances);
  /// predicted_ms was re-evaluated at the clamped allocation.
  bool saturated = false;
  /// Fallback plan: the solve could not be trusted (NaN/infeasible result,
  /// analyzer not ready, served-model shape mismatch) or its input was
  /// invalid (a NaN, infinite or negative distributed workload), and the
  /// controller reused its last feasible plan (or the hi-bound default).
  bool degraded = false;
};

/// The front half of a plan() in flight (DESIGN.md §3.13): everything
/// plan() decides *before* the solver runs. When `done` is set the plan is
/// already final (cache hit or degraded fallback) and `plan` holds it;
/// otherwise `scaled`/`slo_ms` are the solve inputs and key/slo_bits/k the
/// state finish_plan needs to complete the decision. Produced by
/// begin_plan(), consumed exactly once by finish_plan().
struct PlanPrep {
  bool done = false;
  AllocationPlan plan;
  double slo_ms = 0.0;
  double k = 1.0;                  ///< §3.6 workload scale factor
  std::vector<double> scaled;      ///< node workload / k — the solver input
  std::vector<std::int32_t> key;   ///< plan-cache key (quantized workload)
  std::uint64_t slo_bits = 0;
};

class ResourceController {
 public:
  /// `lo`/`hi` are the Algorithm-1 per-service bounds the model was trained
  /// within; `unit_mc` the per-service instance CPU units (Eq. 7).
  ResourceController(gnn::LatencyModel& model, ConfigurationSolver& solver,
                     WorkloadAnalyzer& analyzer, std::vector<Millicores> lo,
                     std::vector<Millicores> hi, std::vector<Millicores> unit_mc);

  /// Record the per-node workload maxima of the training set (the "region
  /// where GNN is trained" that observed workloads are scaled into).
  void set_training_reference(const gnn::Dataset& train);

  /// Per-service replica caps (the cluster's ServiceConfig::max_instances).
  /// plan() clamps to these and re-predicts at the clamped point instead of
  /// letting Service::scale_to silently clamp later — the published
  /// predicted_ms must describe the allocation that actually lands. Empty
  /// (the default) means uncapped.
  void set_max_instances(std::vector<int> max_instances);

  /// Produce the allocation plan for observed per-API workloads and an SLO.
  /// Exactly begin_plan + solve_prepared + finish_plan, in that order.
  AllocationPlan plan(std::span<const Qps> api_qps, double slo_ms);

  // The split plan pipeline (fleet-batched solving, DESIGN.md §3.13): the
  // fleet runs begin_plan on the fan-out, coalesces same-model tenants'
  // prepared solves into one ConfigurationSolver::solve_batch call, then
  // finishes each with finish_plan. begin + solve_prepared + finish is
  // operation-for-operation the body of plan(), so the two paths produce
  // bit-identical plans, cache state, and counters.

  /// Model refresh, degraded checks, workload distribution, cache lookup,
  /// and §3.6 scaling. On a cache hit or degraded fallback the returned
  /// prep is `done` (counters and publish already applied).
  PlanPrep begin_plan(std::span<const Qps> api_qps, double slo_ms);
  /// The solver call plan() would make for a prepared (not-done) plan.
  SolverResult solve_prepared(const PlanPrep& prep);
  /// Eq. 7 discretization, saturation re-predict, feasibility bookkeeping,
  /// cache insert, publish — the back half of plan().
  AllocationPlan finish_plan(PlanPrep prep, SolverResult solved);

  /// Bumped whenever cached plans stop describing what the solver would
  /// produce (hot-swap, reference/caps/capacity/planner changes, degraded
  /// entry). The fleet keys per-tenant model fingerprints on it.
  std::uint64_t model_generation() const { return model_generation_; }
  /// The model plan() last refreshed to — no handle refresh, unlike
  /// active_model(). Valid only after a begin_plan/plan on this tick.
  gnn::LatencyModel& current_model() { return *model_; }

  /// Push a plan to the cluster (scale_to via the deployment pipeline).
  static void apply(sim::Cluster& cluster, const AllocationPlan& plan);

  const std::vector<Millicores>& lower_bounds() const { return lo_; }
  const std::vector<Millicores>& upper_bounds() const { return hi_; }

  /// Serve the model published through `handle` instead of the constructor
  /// model: every plan() starts by acquiring the handle's current model, so
  /// the online trainer can hot-swap between allocation decisions without
  /// pausing the control loop. Pass nullptr to detach.
  void set_serving_handle(serve::ServingHandle* handle);

  /// The model the next plan() will solve through.
  gnn::LatencyModel& active_model();

  /// Route every solve through the two-tier surrogate planner (DESIGN.md
  /// §3.14); nullptr detaches and reverts to the full-GNN descent. Clears
  /// the plan cache: cached plans came from the previous planner. Forwards
  /// the current metrics registry to the planner.
  void set_tiered_planner(TieredPlanner* planner);
  TieredPlanner* tiered_planner() { return tiered_; }

  /// Publish planning telemetry: `core.plan_us` (wall time per plan()),
  /// `core.plans_total`, and gauges for the last plan's solver iterations,
  /// predicted p99, scale factor, and total quota; degraded-mode visibility
  /// via the `core.degraded` / `core.plan_saturated` gauges and the
  /// `faults.model_shape_mismatch` / `faults.analyzer_not_ready` /
  /// `faults.solver_nan` / `faults.solver_infeasible` /
  /// `faults.invalid_workload` counters. Also
  /// forwards to the solver's per-iteration profiling. nullptr detaches
  /// (default).
  void set_metrics(telemetry::MetricsRegistry* registry);

  /// Plans answered from the fallback path since construction.
  std::uint64_t degraded_plans() const { return degraded_plans_; }
  /// A feasible (non-degraded) plan exists to fall back on.
  bool has_last_good() const { return have_last_good_; }

  // ---- Plan cache ----------------------------------------------------------
  //
  // plan() memoizes feasible, non-degraded results keyed by (the observed
  // node workload quantized into ~2% log buckets, the SLO bits, the model
  // generation). A repeat of a recent workload answers from the cache and
  // skips the solve entirely — the expected steady state, where the
  // controller re-plans every sync period but traffic only drifts. The
  // generation counter bumps (and the cache clears) on model hot-swap,
  // set_training_reference, set_max_instances, set_tiered_planner, and
  // every degraded-plan transition except an invalid-workload rejection
  // (the pipeline is still sound), so a stale model, topology or planner
  // can never serve a cached plan.

  /// Max cached plans, LRU-evicted (0 disables caching; clears the cache).
  void set_plan_cache_capacity(std::size_t capacity);
  std::uint64_t plan_cache_hits() const { return cache_hits_; }
  std::uint64_t plan_cache_misses() const { return cache_misses_; }
  std::uint64_t plan_cache_evictions() const { return cache_evictions_; }

 private:
  struct CachedPlan {
    std::vector<std::int32_t> workload_buckets;
    std::uint64_t slo_bits = 0;
    std::uint64_t generation = 0;
    AllocationPlan plan;
    double solve_seconds = 0.0;  ///< what a hit saves (telemetry)
    std::uint64_t last_used = 0;
  };

  void refresh_model();
  void invalidate_plan_cache();
  /// Fallback: last feasible plan if one exists, else the hi-bound default
  /// (quota = hi — the most conservative allocation inside the trained
  /// region, approximating what a best-effort solve would reach). Clears
  /// the plan cache unless `keep_cache` (bad input, healthy pipeline).
  AllocationPlan degraded_plan(telemetry::Counter* cause, bool keep_cache = false);
  void publish_plan(const AllocationPlan& plan);

  gnn::LatencyModel* model_;
  ConfigurationSolver& solver_;
  WorkloadAnalyzer& analyzer_;
  serve::ServingHandle* handle_ = nullptr;
  /// Keeps the hot-swapped model alive while plans reference it.
  std::shared_ptr<gnn::LatencyModel> pinned_;
  std::vector<Millicores> lo_;
  std::vector<Millicores> hi_;
  std::vector<Millicores> unit_;
  std::vector<int> max_instances_;  // empty = uncapped
  TieredPlanner* tiered_ = nullptr;
  /// Remembered so a planner attached after set_metrics still gets wired.
  telemetry::MetricsRegistry* metrics_registry_ = nullptr;
  std::vector<double> train_max_workload_;
  /// True while the served model's shape doesn't match this controller's
  /// topology: plans degrade instead of solving through the wrong graph.
  bool model_mismatch_ = false;
  AllocationPlan last_good_;
  bool have_last_good_ = false;
  std::uint64_t degraded_plans_ = 0;
  telemetry::LogHistogram* plan_timer_ = nullptr;
  telemetry::Counter* plans_total_ = nullptr;
  telemetry::Gauge* solver_iterations_ = nullptr;
  telemetry::Gauge* predicted_p99_ = nullptr;
  telemetry::Gauge* scale_factor_ = nullptr;
  telemetry::Gauge* planned_quota_ = nullptr;
  telemetry::Gauge* degraded_gauge_ = nullptr;
  telemetry::Gauge* saturated_gauge_ = nullptr;
  telemetry::Counter* fault_model_mismatch_ = nullptr;
  telemetry::Counter* fault_analyzer_ = nullptr;
  telemetry::Counter* fault_nan_ = nullptr;
  telemetry::Counter* fault_infeasible_ = nullptr;
  telemetry::Counter* fault_invalid_workload_ = nullptr;

  std::vector<CachedPlan> plan_cache_;
  std::size_t plan_cache_capacity_ = 64;
  std::uint64_t model_generation_ = 0;
  std::uint64_t cache_tick_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
  std::uint64_t cache_evictions_ = 0;
  telemetry::Counter* cache_hits_counter_ = nullptr;
  telemetry::Counter* cache_misses_counter_ = nullptr;
  telemetry::Counter* cache_evictions_counter_ = nullptr;
  /// Solve time skipped by cache hits, microseconds.
  telemetry::Counter* cache_saved_us_ = nullptr;
};

}  // namespace graf::core
