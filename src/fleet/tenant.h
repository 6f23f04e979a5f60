// One (application, SLO) tenant inside the fleet server.
//
// A tenant bundles everything PR 1-5 built for a single cluster — a
// registry-backed serving model behind a hot-swappable ServingHandle, a
// ConfigurationSolver + WorkloadAnalyzer + ResourceController pipeline with
// its own plan cache, an optional drift-triggered OnlineTrainer — plus the
// fleet bookkeeping that makes many of them coexist on one daemon: a
// pending-telemetry slot the ingest path fills, a plan slot the parallel
// fan-out writes, per-tenant hysteresis / signal-loss state, and a private
// MetricsRegistry so worker threads never race on shared instruments
// (DESIGN.md §3.7: shared instruments are coordinator-only; the fleet
// server merges per-tenant registries into one snapshot).
//
// Tenants are addressed by TenantId, a (slot, generation) handle: slots
// live in a stable vector that never rehashes, and removing a tenant bumps
// the slot's generation so a stale id can never dereference a recycled
// tenant — the "dangling pointers into rehashed maps" bug class the
// exemplar's post-mortem warns about is unrepresentable.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/units.h"
#include "core/configuration_solver.h"
#include "core/resource_controller.h"
#include "core/tiered_planner.h"
#include "core/workload_analyzer.h"
#include "forecast/gate.h"
#include "gnn/latency_model.h"
#include "serve/model_registry.h"
#include "serve/online_trainer.h"
#include "serve/serving_handle.h"
#include "telemetry/metrics.h"

namespace graf::fleet {

/// Stable tenant handle: a slot index plus the slot's generation at issue
/// time. Slots are recycled after remove_tenant(); the generation mismatch
/// makes every copy of the old id inert instead of dangling.
struct TenantId {
  std::uint32_t slot = 0;
  std::uint32_t generation = 0;

  bool operator==(const TenantId&) const = default;
};

/// One telemetry push from an ingest thread: the tenant's observed per-API
/// front-end rates at simulation/telemetry time `now`, plus optional live
/// (workload, quota, latency) observations for the tenant's online trainer.
struct TelemetryUpdate {
  TenantId tenant;
  Seconds now = 0.0;
  std::vector<Qps> api_qps;
  gnn::Dataset samples;
};

/// Everything needed to admit a tenant. `model` is published (deep copy)
/// into the fleet's shared ModelRegistry as version 1 under
/// (application, slo_ms) and promoted; the spec keeps no ownership.
struct TenantSpec {
  std::string application;
  double slo_ms = 200.0;
  /// Trained latency model for this tenant's topology (required).
  gnn::LatencyModel* model = nullptr;
  /// Checkpoint metadata stored with the published v1.
  serve::CheckpointMeta meta;
  /// Algorithm-1 per-service bounds and Eq.-7 instance units.
  std::vector<Millicores> lo;
  std::vector<Millicores> hi;
  std::vector<Millicores> unit;
  /// Optional per-service replica caps (empty = uncapped).
  std::vector<int> max_instances;
  /// Fan-out matrix [api][service] for the workload analyzer.
  std::vector<std::vector<double>> fanout;
  /// Optional training-region reference for §3.6 workload rescaling.
  gnn::Dataset training_reference;
  /// Relative per-API workload change that triggers a re-solve; smaller
  /// deltas coast on the current plan (the hysteresis band; 0 re-plans
  /// every tick).
  double change_threshold = 0.10;
  /// Per-tenant plan-cache capacity (LRU entries; 0 disables caching) —
  /// small tenants can run lean while hot tenants keep a deep cache.
  std::size_t plan_cache_capacity = 64;
  core::SolverConfig solver;
  /// Two-tier surrogate planning (off by default, DESIGN.md §3.14): at
  /// admission the tenant distills its model into a fast surrogate and
  /// routes every solve through a TieredPlanner — surrogate multi-start
  /// descent, one full-GNN verification, escalation on trust-band misses.
  /// Fingerprint-equal surrogate tenants share stacked fleet batches.
  core::TieredSpec surrogate;
  /// Forecast mode (off by default): when `forecast.enabled`, the tenant
  /// plans for max(observed, predicted_at_horizon) — the pre-warm that
  /// covers the simulator's instance-creation delay. Forecaster state is
  /// per-tenant and fed only from this tenant's committed pushes, so fleet
  /// replays stay bit-identical at any thread count.
  forecast::ForecastSpec forecast;
};

class FleetServer;

class Tenant {
 public:
  /// Publishes spec.model into `registry` under (application, slo_ms),
  /// promotes it, and attaches this tenant's ServingHandle. Throws
  /// std::invalid_argument, before publishing anything, on a spec that
  /// validate() rejects.
  Tenant(TenantId id, const TenantSpec& spec, serve::ModelRegistry& registry);

  /// Throws std::invalid_argument unless `spec` is admissible: a model, a
  /// fan-out and per-service bounds of the model's size; a finite positive
  /// SLO and units; finite bounds with 0 < lo <= hi; finite non-negative
  /// fan-out entries and change threshold; no replica caps, or one cap
  /// >= 1 per service; training-reference workloads of the model's size,
  /// finite and non-negative; a finite meta.val_error_pct;
  /// finite positive rho, slo_margin and lr_mc in solver; and, when the
  /// surrogate tier is on, the same in surrogate.planner.solver, a finite
  /// positive surrogate.planner.trust_band_pct and a distillation config
  /// that TieredPlanner::check_distill accepts.
  static void validate(const TenantSpec& spec);
  ~Tenant();

  Tenant(const Tenant&) = delete;
  Tenant& operator=(const Tenant&) = delete;

  TenantId id() const { return id_; }
  const serve::ModelKey& key() const { return key_; }
  const std::string& application() const { return key_.application; }
  double slo_ms() const { return slo_ms_; }
  /// Retarget the SLO; the next update re-solves regardless of hysteresis.
  /// (The registry key — the serving-model identity — is fixed at admission.)
  void set_slo(double slo_ms);

  serve::ServingHandle& handle() { return handle_; }
  core::ResourceController& controller() { return *controller_; }
  /// The tenant's two-tier planner (nullptr unless TenantSpec.surrogate
  /// was enabled at admission). Fleet-local: its surrogate is distilled at
  /// admission and never swapped.
  core::TieredPlanner* tiered_planner() { return tiered_.get(); }

  /// Per-tenant metrics (plan cache, solver, degraded-mode counters). The
  /// fleet server merges these into its snapshot; workers touch only their
  /// own tenant's instruments during the fan-out (DESIGN.md §3.7).
  telemetry::MetricsRegistry& metrics() { return metrics_; }
  const telemetry::MetricsRegistry& metrics() const { return metrics_; }

  /// Attach the drift -> fine-tune -> validate -> promote loop to this
  /// tenant. Samples arriving in TelemetryUpdate::samples feed it; a
  /// promotion hot-swaps the handle and the next plan() solves through the
  /// new model. Replaces any previous trainer.
  void enable_online_training(const serve::OnlineTrainerConfig& cfg);
  serve::OnlineTrainer* trainer() { return trainer_.get(); }

  /// The live forecast gate (nullptr unless TenantSpec.forecast.enabled);
  /// tests and the fleet snapshot read its prewarm/fallback counters.
  forecast::ForecastGate* forecast_gate() { return gate_.get(); }

  // -- plan state (written by the fleet server's step loop) ------------------
  const core::AllocationPlan& last_plan() const { return last_plan_; }
  bool has_plan() const { return has_plan_; }
  /// Coasting on a stale plan: degraded solve, a thrown plan, or a workload
  /// signal that vanished mid-run. Clears on the next clean solve.
  bool degraded() const { return degraded_; }
  std::uint64_t plans() const { return plans_; }
  std::uint64_t plan_changes() const { return plan_changes_; }
  /// Plan computations that threw (swallowed; siblings unaffected).
  std::uint64_t failures() const { return failures_; }
  /// Ticks whose workload signal read zero (telemetry blackout).
  std::uint64_t signal_losses() const { return signal_losses_; }
  /// Monotonic per-tenant sequence, bumped on every notified plan change.
  std::uint64_t seq() const { return seq_; }

 private:
  friend class FleetServer;

  /// Outcome of one fan-out slot computation (worker thread).
  enum class Outcome { kIdle, kPlanned, kCoasted, kSignalLost, kFailed };

  /// Consume the pending update on a pool worker: signal-loss detection,
  /// hysteresis, begin_plan. Only this tenant's state is touched, so tenants
  /// prepare concurrently yet each is bit-identical at any thread count.
  /// When the plan resolved without a solve (idle/coast/cache hit/degraded)
  /// the outcome is final; otherwise needs_solve_ is set and prep_ holds the
  /// prepared solve the fleet's group solve completes.
  void prepare();
  /// Complete a prepared plan with this tenant's result from the fleet's
  /// group solve.
  void finish_solve(core::SolverResult solved);
  /// Content fingerprint of the active model, cached per controller model
  /// generation — how the fleet decides two tenants may share a batch
  /// (registry deep copies fingerprint equal; pointer identity never
  /// groups). Coordinator-only: call between fan-outs.
  std::uint64_t model_fingerprint();

  TenantId id_;
  serve::ModelKey key_;
  serve::ModelRegistry* registry_;
  double slo_ms_;
  double change_threshold_;

  telemetry::MetricsRegistry metrics_;
  serve::ServingHandle handle_;
  std::shared_ptr<gnn::LatencyModel> model_;  ///< pins the promoted v1
  std::unique_ptr<core::WorkloadAnalyzer> analyzer_;
  std::unique_ptr<core::ConfigurationSolver> solver_;
  std::unique_ptr<core::ResourceController> controller_;
  std::unique_ptr<core::TieredPlanner> tiered_;
  std::unique_ptr<serve::OnlineTrainer> trainer_;
  std::unique_ptr<forecast::ForecastGate> gate_;

  // Pending-telemetry slot: filled by the step loop's drain (coalescing
  // repeated pushes, last-wins for qps, samples appended), consumed by
  // prepare(). Never touched by producers directly.
  bool pending_ = false;
  std::vector<Qps> pending_qps_;
  Seconds pending_now_ = 0.0;
  gnn::Dataset pending_samples_;
  /// The vector prepare() actually planned on (forecast-adjusted when the
  /// gate is live); the commit pass copies it into last_solved_qps_.
  std::vector<Qps> planned_qps_;

  // Fan-out result slot, read back by the ordered pass.
  Outcome outcome_ = Outcome::kIdle;
  core::AllocationPlan computed_;

  // Prepared-solve slot (batched planning, DESIGN.md §3.13): prepare()
  // fills these when the plan still needs a solver run.
  core::PlanPrep prep_;
  bool needs_solve_ = false;

  // Model-fingerprint cache, keyed on the controller's model generation so
  // a hot-swap re-fingerprints and anything else reuses the cached value.
  std::uint64_t fingerprint_ = 0;
  std::uint64_t fingerprint_generation_ = 0;
  bool fingerprint_valid_ = false;

  // Content fingerprint of the tiered planner's surrogate, taken at
  // admission (the surrogate never changes): the extra grouping key
  // surrogate-mode tenants need before sharing a stacked tier-1 descent.
  std::uint64_t surrogate_fingerprint_ = 0;

  // Hysteresis / signal-loss state (prepare()'s coast and hold rules).
  std::vector<Qps> last_solved_qps_;
  bool slo_dirty_ = true;
  bool signal_lost_ = false;

  core::AllocationPlan last_plan_;
  bool has_plan_ = false;
  bool degraded_ = false;
  std::vector<int> last_notified_instances_;
  bool last_notified_degraded_ = false;
  std::uint64_t plans_ = 0;
  std::uint64_t plan_changes_ = 0;
  std::uint64_t failures_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t signal_losses_ = 0;

  // Plan-cache counter baselines, so the fleet can mirror per-tenant cache
  // activity into shared fleet.plan_cache.* counters as deltas.
  std::uint64_t seen_cache_hits_ = 0;
  std::uint64_t seen_cache_misses_ = 0;
  std::uint64_t seen_cache_evictions_ = 0;

  // Per-tenant instruments (interned once at admission, coordinator-set;
  // prepare() only writes this tenant's own instruments).
  telemetry::Counter* tel_plans_ = nullptr;
  telemetry::Counter* tel_changes_ = nullptr;
  telemetry::Counter* tel_failures_ = nullptr;
  telemetry::Counter* tel_signal_loss_ = nullptr;
  telemetry::Gauge* tel_degraded_ = nullptr;
};

}  // namespace graf::fleet
