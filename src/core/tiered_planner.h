// Two-tier surrogate-verified planning (DESIGN.md §3.14).
//
// The planner solves on the distilled surrogate first — the solver's own
// descent kernel (identical start draws, loss terms, ADAM trajectory,
// convergence bookkeeping, winner rule), but through a frozen pass orders
// of magnitude smaller — then *verifies* the winning candidate with exactly
// one full-GNN forward. If the full model's prediction at the candidate
// disagrees with the surrogate's beyond a trust band (or predicts an SLO
// breach), the planner escalates to the full-GNN solve and feeds the miss
// back as a distillation sample into a bounded window. refresh_now()
// fine-tunes a clone on that window and adopts it only if it beats the
// incumbent there (the OnlineTrainer's holdout-gate semantics); nothing
// refreshes on its own.
//
// Accepted fast-path plans report the *full model's* prediction as
// predicted_ms — truth flows downstream (feasibility checks, telemetry,
// k-scaling), the surrogate only steers the descent.
//
// Determinism contract: a solve is a pure function of (surrogate bits,
// solver config, trust band, full model bits, inputs). The fleet stacks
// fingerprint-equal tenants' surrogate descents into one pass via
// solve_items(); item t's result is bit-identical to the tenant's own
// solo solve, the same §3.13 property the full-GNN batch path proves.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/units.h"
#include "core/configuration_solver.h"
#include "gnn/latency_model.h"
#include "gnn/surrogate_model.h"
#include "serve/surrogate_store.h"
#include "telemetry/metrics.h"

namespace graf::core {

struct TieredPlannerConfig {
  /// Surrogate-tier descent shape. Shares SolverConfig so the fast path
  /// inherits multi-start, decay, and termination semantics unchanged.
  SolverConfig solver;
  /// Accept the surrogate candidate when |surrogate - full| / full * 100
  /// stays within this band AND the full model deems the candidate within
  /// SLO; otherwise escalate.
  double trust_band_pct = 10.0;
  /// Retained escalation-miss samples (teacher-labelled) for refresh_now().
  std::size_t refresh_window = 256;
  /// Short fine-tune schedule for the refresh clone. Symmetric thetas for
  /// the same reason as DistillConfig::train: the trust band is symmetric.
  gnn::TrainConfig refresh_train{.iterations = 400,
                                 .batch_size = 64,
                                 .lr = 1e-3,
                                 .lr_decay_every = 150,
                                 .lr_decay_factor = 0.5,
                                 .theta_under = 0.1,
                                 .theta_over = 0.1,
                                 .eval_every = 100,
                                 .seed = 29,
                                 .select_best = true,
                                 .shard_rows = 32};
};

/// Solver-in-the-loop distillation (TieredPlanner::distill_for_planner).
/// A plain SurrogateDistiller::distill() pass fits the operating region
/// uniformly, but the fast path then *optimizes against* the surrogate and
/// lands on the thin level set `predicted == slo_margin * slo` — exactly
/// where uniform coverage is thinnest, with an adversarial bias toward
/// wherever the surrogate under-predicts. Each refinement round rolls the
/// surrogate descent out over fresh region workloads, labels the winning
/// candidates with the teacher, folds them into the training set, and
/// fine-tunes — so by the last round the surrogate is accurate precisely
/// where the planner will query it.
struct SolverDistillConfig {
  /// The plain offline pass (phase 1).
  gnn::DistillConfig base;
  /// Rollout-label-refit rounds (0 = plain distillation only).
  std::size_t rounds = 2;
  /// Surrogate-descent rollouts per round, batched as one stacked pass.
  std::size_t queries_per_round = 256;
  /// Extra teacher labels per rollout at jittered quotas around the winner
  /// (each coordinate scaled by uniform(1 - jitter_pct, 1 + jitter_pct),
  /// clamped to [lo, hi]). The fine-tune shifts the model — and with it the
  /// next descent's landing spot — so labeling a neighborhood instead of a
  /// point keeps the drifted queries on trained terrain.
  std::size_t jitter_per_query = 2;
  double jitter_pct = 0.10;
  /// Seed for the rollout workload draws (derive_seed(seed, round, query)).
  std::uint64_t seed = 4099;
  /// Short fine-tune schedule applied after each round's fold-in
  /// (symmetric thetas — see gnn::DistillConfig::train).
  gnn::TrainConfig refine{.iterations = 1200,
                          .batch_size = 128,
                          .lr = 1e-3,
                          .lr_decay_every = 400,
                          .lr_decay_factor = 0.6,
                          .theta_under = 0.1,
                          .theta_over = 0.1,
                          .eval_every = 200,
                          .seed = 13,
                          .select_best = false,
                          .shard_rows = 32};
};

/// Per-tenant two-tier planning spec (fleet admission, fleet/tenant.h):
/// when enabled, the tenant distills its model into a surrogate at
/// admission (solver-in-the-loop, against the tenant's own SLO) and routes
/// every solve through a TieredPlanner.
struct TieredSpec {
  bool enabled = false;
  SolverDistillConfig distill;
  TieredPlannerConfig planner;
};

class TieredPlanner {
 public:
  /// The planner serves `surrogate` until a handle swap or an adopted
  /// refresh replaces it.
  TieredPlanner(std::shared_ptr<gnn::SurrogateModel> surrogate,
                TieredPlannerConfig cfg);

  const TieredPlannerConfig& config() const { return cfg_; }

  /// Serve the surrogate through a hot-swappable handle: every solve (and
  /// surrogate_generation()) re-acquires, so registry promotes/rollbacks
  /// land between control ticks. A swap to a different instance bumps the
  /// generation — plan-cache entries keyed on it can never go stale.
  void set_handle(serve::SurrogateHandle* handle);

  /// The surrogate a solve would descend right now (refreshes from the
  /// handle first). Single-writer like the rest of the planner.
  gnn::SurrogateModel& active_surrogate();
  /// Monotone counter bumped whenever the served surrogate instance
  /// changes (handle swap or adopted refresh) — the plan-cache key
  /// component (ResourceController planner_bits).
  std::uint64_t surrogate_generation();

  /// Two-tier solve: surrogate multi-start descent, one full-GNN verify,
  /// escalate to full_solver.solve() on a trust-band miss. Bit-identical
  /// to a fleet-batched solve_items() over fingerprint-equal surrogates.
  SolverResult solve(gnn::LatencyModel& verifier, ConfigurationSolver& full_solver,
                     std::span<const double> workload, double slo_ms,
                     std::span<const Millicores> lo, std::span<const Millicores> hi);

  /// One tenant's request inside a stacked surrogate batch. Spans alias
  /// caller storage for the duration of solve_items; planner/verifier/
  /// full_solver are the *tenant's own* (counters, escalated solves, and
  /// miss windows stay per-tenant).
  struct Item {
    TieredPlanner* planner = nullptr;
    gnn::LatencyModel* verifier = nullptr;
    ConfigurationSolver* full_solver = nullptr;
    std::span<const double> workload;
    double slo_ms = 0.0;
    std::span<const Millicores> lo;
    std::span<const Millicores> hi;
  };

  /// Descend every item's surrogate multi-starts as rows of ONE pass
  /// through `surrogate` (which must be fingerprint-equal to each item
  /// planner's active surrogate), then verify/escalate per item. Item t's
  /// result is bit-identical to items[t].planner->solve(...) alone: the
  /// rows never mix in the descent kernel, and verification and escalation
  /// run per item. Static because the batch spans tenants.
  static std::vector<SolverResult> solve_items(gnn::SurrogateModel& surrogate,
                                               const SolverConfig& cfg,
                                               std::span<const Item> items);

  /// Fine-tune a clone on the miss window and adopt it if it beats the
  /// incumbent there (holdout-gate semantics, serve/online_trainer.h): it
  /// swaps into the attached handle, else serves directly. Returns true
  /// when the refreshed surrogate was adopted.
  bool refresh_now();

  /// Solver-in-the-loop distillation (see SolverDistillConfig): plain
  /// distill, then `rounds` x { batched surrogate-descent rollout over
  /// region workloads at `slo_ms`, teacher-label the winners, fold in,
  /// fine-tune }. `solver` should be the config the planner will descend
  /// with (TieredPlannerConfig::solver) so the rollouts reproduce the
  /// production query distribution. Deterministic at any GRAF_THREADS:
  /// rollout draws are per-(round, query) derived streams and the descent
  /// is the same single-pass path solve() runs.
  static gnn::SurrogateDistiller::Result distill_for_planner(
      gnn::LatencyModel& teacher, std::span<const double> workload_hi,
      std::span<const Millicores> lo, std::span<const Millicores> hi,
      double slo_ms, const SolverDistillConfig& cfg, const SolverConfig& solver);
  /// Throws std::invalid_argument unless distill_for_planner can run `cfg`:
  /// gnn::SurrogateDistiller::check(cfg.base), queries_per_round > 0 when
  /// rounds > 0, jitter_pct in [0, 1) and refine.batch_size > 0. Fleet
  /// admission runs it before publishing anything (fleet::Tenant::validate).
  static void check_distill(const SolverDistillConfig& cfg);

  /// Intern core.surrogate.* instruments (nullptr detaches):
  /// fast_hits / escalations / distill_samples / refreshes counters,
  /// trust_band_pct and last disagreement gauges.
  void set_metrics(telemetry::MetricsRegistry* registry);

  std::uint64_t fast_hits() const { return fast_hits_; }
  std::uint64_t escalations() const { return escalations_; }
  std::uint64_t distill_samples() const { return distill_samples_; }
  std::uint64_t refreshes() const { return refreshes_; }
  std::size_t miss_window_size() const { return window_.size(); }

 private:
  /// The pure surrogate tier: every item's multi-starts descend as rows of
  /// one SurrogateModel::Pass through the solver's descent kernel, scored by
  /// the pass's stacked forward. Shared by solve_items() and the distillation
  /// rollouts, so both see the exact same query distribution.
  static std::vector<BatchItemResult> descend(gnn::SurrogateModel& surrogate,
                                              const SolverConfig& cfg,
                                              std::span<const BatchItem> items);

  void note_fast_hit(double disagreement_pct);
  void note_escalation(double disagreement_pct);
  /// Record a teacher-labelled miss sample in the refresh window.
  void note_miss_sample(std::span<const double> workload,
                        std::span<const Millicores> quota, double teacher_ms);
  void adopt(gnn::SurrogateModel&& candidate);

  TieredPlannerConfig cfg_;
  std::shared_ptr<gnn::SurrogateModel> served_;
  std::uint64_t generation_ = 1;

  serve::SurrogateHandle* handle_ = nullptr;

  gnn::Dataset window_;  // bounded FIFO of escalation-miss samples

  std::uint64_t fast_hits_ = 0;
  std::uint64_t escalations_ = 0;
  std::uint64_t distill_samples_ = 0;
  std::uint64_t refreshes_ = 0;

  telemetry::Counter* fast_hits_counter_ = nullptr;
  telemetry::Counter* escalations_counter_ = nullptr;
  telemetry::Counter* distill_samples_counter_ = nullptr;
  telemetry::Counter* refreshes_counter_ = nullptr;
  telemetry::Gauge* trust_band_gauge_ = nullptr;
  telemetry::Gauge* disagreement_gauge_ = nullptr;
};

}  // namespace graf::core
