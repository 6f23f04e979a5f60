// Two-tier surrogate-verified planning (DESIGN.md §3.14).
//
// The planner solves on the distilled surrogate first — the solver's own
// descent kernel (identical start draws, loss terms, ADAM trajectory,
// convergence bookkeeping, winner rule), but through a frozen pass orders
// of magnitude smaller — then *verifies* the winning candidate with exactly
// one full-GNN forward. If the full model's prediction at the candidate
// disagrees with the surrogate's beyond a trust band (or predicts an SLO
// breach), the planner escalates to the full-GNN solve. A planner serves
// the surrogate it is built with (fleet tenants distill it at admission,
// distill_for_planner) for its whole lifetime.
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
};

/// Solver-in-the-loop distillation (TieredPlanner::distill_for_planner).
/// The plain pass (rounds = 0) fits the operating region uniformly, but the
/// fast path then *optimizes against* the surrogate and lands on the thin
/// level set `predicted == slo_margin * slo` — exactly where uniform
/// coverage is thinnest, with an adversarial bias toward
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
  /// The planner serves `surrogate` for its whole lifetime.
  TieredPlanner(std::shared_ptr<gnn::SurrogateModel> surrogate,
                TieredPlannerConfig cfg);

  const TieredPlannerConfig& config() const { return cfg_; }

  /// The surrogate every solve descends. Single-writer like the rest of
  /// the planner.
  gnn::SurrogateModel& active_surrogate() { return *served_; }

  /// Two-tier solve: surrogate multi-start descent, one full-GNN verify,
  /// escalate to full_solver.solve() on a trust-band miss. Bit-identical
  /// to a fleet-batched solve_items() over fingerprint-equal surrogates.
  SolverResult solve(gnn::LatencyModel& verifier, ConfigurationSolver& full_solver,
                     std::span<const double> workload, double slo_ms,
                     std::span<const Millicores> lo, std::span<const Millicores> hi);

  /// One tenant's request inside a stacked surrogate batch. Spans alias
  /// caller storage for the duration of solve_items; planner/verifier/
  /// full_solver are the *tenant's own* (counters and escalated solves stay
  /// per-tenant).
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

  /// Solver-in-the-loop distillation (see SolverDistillConfig): the plain
  /// pass (sample the teacher, hold out the tail, copy the teacher's scalers
  /// into a fresh surrogate, fit, report held-out fidelity), then `rounds` x
  /// { batched surrogate-descent rollout over region workloads at `slo_ms`,
  /// teacher-label the winners, fold in, fine-tune }. Throws
  /// std::invalid_argument unless check_distill accepts `cfg` and, when
  /// rounds > 0, slo_ms > 0. At rounds = 0 it is the plain pass alone, and
  /// `slo_ms` and `solver` go unused, so any value will do. `solver` should
  /// be the config the planner will descend with
  /// (TieredPlannerConfig::solver) so the rollouts reproduce the production
  /// query distribution. Deterministic at any GRAF_THREADS:
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
  /// fast_hits / escalations counters, trust_band_pct and last disagreement
  /// gauges.
  void set_metrics(telemetry::MetricsRegistry* registry);

  std::uint64_t fast_hits() const { return fast_hits_; }
  std::uint64_t escalations() const { return escalations_; }

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

  TieredPlannerConfig cfg_;
  std::shared_ptr<gnn::SurrogateModel> served_;

  std::uint64_t fast_hits_ = 0;
  std::uint64_t escalations_ = 0;

  telemetry::Counter* fast_hits_counter_ = nullptr;
  telemetry::Counter* escalations_counter_ = nullptr;
  telemetry::Gauge* trust_band_gauge_ = nullptr;
  telemetry::Gauge* disagreement_gauge_ = nullptr;
};

}  // namespace graf::core
