#include "core/tiered_planner.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace graf::core {

TieredPlanner::TieredPlanner(std::shared_ptr<gnn::SurrogateModel> surrogate,
                             TieredPlannerConfig cfg)
    : cfg_{cfg}, served_{std::move(surrogate)} {
  if (served_ == nullptr)
    throw std::invalid_argument{"TieredPlanner: surrogate must not be null"};
  // Negated so a NaN fails too: `disagreement <= NaN` would escalate every
  // plan.
  if (!(cfg_.trust_band_pct > 0.0))
    throw std::invalid_argument{"TieredPlanner: trust_band_pct must be > 0"};
  if (!(cfg_.solver.rho > 0.0))
    throw std::invalid_argument{"SolverConfig: rho must be > 0"};
}

void TieredPlanner::set_metrics(telemetry::MetricsRegistry* registry) {
  fast_hits_counter_ =
      registry != nullptr ? &registry->counter("core.surrogate.fast_hits") : nullptr;
  escalations_counter_ =
      registry != nullptr ? &registry->counter("core.surrogate.escalations") : nullptr;
  trust_band_gauge_ =
      registry != nullptr ? &registry->gauge("core.surrogate.trust_band_pct") : nullptr;
  disagreement_gauge_ =
      registry != nullptr ? &registry->gauge("core.surrogate.disagreement_pct")
                          : nullptr;
  if (trust_band_gauge_ != nullptr) trust_band_gauge_->set(cfg_.trust_band_pct);
}

void TieredPlanner::note_fast_hit(double disagreement_pct) {
  ++fast_hits_;
  if (fast_hits_counter_ != nullptr) fast_hits_counter_->add();
  if (disagreement_gauge_ != nullptr) disagreement_gauge_->set(disagreement_pct);
}

void TieredPlanner::note_escalation(double disagreement_pct) {
  ++escalations_;
  if (escalations_counter_ != nullptr) escalations_counter_->add();
  if (disagreement_gauge_ != nullptr) disagreement_gauge_->set(disagreement_pct);
}

SolverResult TieredPlanner::solve(gnn::LatencyModel& verifier,
                                  ConfigurationSolver& full_solver,
                                  std::span<const double> workload, double slo_ms,
                                  std::span<const Millicores> lo,
                                  std::span<const Millicores> hi) {
  Item item{this, &verifier, &full_solver, workload, slo_ms, lo, hi};
  std::vector<SolverResult> out = solve_items(active_surrogate(), cfg_.solver, {&item, 1});
  return std::move(out.front());
}

std::vector<BatchItemResult> TieredPlanner::descend(gnn::SurrogateModel& surrogate,
                                                    const SolverConfig& cfg,
                                                    std::span<const BatchItem> items) {
  const std::size_t n = surrogate.node_count();
  const std::size_t starts = std::max<std::size_t>(1, cfg.multi_starts);
  // Every start row of item t reads item t's workload.
  nn::Tensor workload_rows{items.size() * starts, n};
  for (std::size_t t = 0; t < items.size(); ++t) {
    if (items[t].workload.size() != n)
      throw std::invalid_argument{"solve_items: dimension mismatch"};
    for (std::size_t k = 0; k < starts; ++k)
      for (std::size_t i = 0; i < n; ++i)
        workload_rows(t * starts + k, i) = items[t].workload[i];
  }
  gnn::SurrogateModel::Pass pass{surrogate, workload_rows};
  return ConfigurationSolver::descend_rows(cfg, items, pass);
}

std::vector<SolverResult> TieredPlanner::solve_items(gnn::SurrogateModel& surrogate,
                                                     const SolverConfig& cfg,
                                                     std::span<const Item> items) {
  for (const Item& item : items)
    if (item.planner == nullptr || item.verifier == nullptr ||
        item.full_solver == nullptr)
      throw std::invalid_argument{"solve_items: null item member"};

  std::vector<BatchItem> requests;
  requests.reserve(items.size());
  for (const Item& item : items)
    requests.push_back({item.workload, item.slo_ms, item.lo, item.hi});
  std::vector<BatchItemResult> descents = descend(surrogate, cfg, requests);

  std::vector<SolverResult> out;
  out.reserve(items.size());
  for (std::size_t t = 0; t < items.size(); ++t) {
    const Item& item = items[t];
    SolverResult winner = std::move(descents[t].result);
    const double surrogate_ms = winner.predicted_ms;

    // The verification tier: exactly one full-GNN forward at the candidate.
    const double full_ms = item.verifier->predict(item.workload, winner.quota);
    const double disagreement_pct = std::abs(surrogate_ms - full_ms) /
                                    std::max(std::abs(full_ms), 1e-9) * 100.0;
    const bool trusted = disagreement_pct <= item.planner->cfg_.trust_band_pct &&
                         full_ms <= item.slo_ms;
    item.full_solver->note_external_iterations(descents[t].total_iterations);
    if (trusted) {
      // Truth flows downstream: the accepted plan reports the full model's
      // prediction, so finish_plan's feasibility/saturation logic behaves
      // exactly as in full mode.
      winner.predicted_ms = full_ms;
      item.planner->note_fast_hit(disagreement_pct);
      out.push_back(std::move(winner));
      continue;
    }

    // Trust-band miss: the full solver takes over.
    item.planner->note_escalation(disagreement_pct);
    SolverResult full =
        item.full_solver->solve(item.workload, item.slo_ms, item.lo, item.hi);
    out.push_back(std::move(full));
  }
  return out;
}

void TieredPlanner::check_distill(const SolverDistillConfig& cfg) {
  gnn::SurrogateDistiller::check(cfg.base);
  if (cfg.rounds > 0 && cfg.queries_per_round == 0)
    throw std::invalid_argument{
        "distill_for_planner: queries_per_round must be > 0 with rounds > 0"};
  if (!(cfg.jitter_pct >= 0.0 && cfg.jitter_pct < 1.0))
    throw std::invalid_argument{"distill_for_planner: jitter_pct must be in [0, 1)"};
  if (cfg.refine.batch_size == 0)
    throw std::invalid_argument{"distill_for_planner: refine.batch_size must be > 0"};
}

gnn::SurrogateDistiller::Result TieredPlanner::distill_for_planner(
    gnn::LatencyModel& teacher, std::span<const double> workload_hi,
    std::span<const Millicores> lo, std::span<const Millicores> hi, double slo_ms,
    const SolverDistillConfig& cfg, const SolverConfig& solver) {
  check_distill(cfg);
  // Only the rollouts read the SLO; negated so a NaN fails too.
  if (cfg.rounds > 0 && !(slo_ms > 0.0))
    throw std::invalid_argument{"distill_for_planner: slo must be > 0 with rounds > 0"};

  // Phase 1 — the plain operating-region pass: sample the teacher, hold out
  // the tail (samples are i.i.d., so the split is unbiased), copy the
  // teacher's scalers into a fresh surrogate and fit. The rounds below fold
  // fresh samples into the live training set.
  gnn::Dataset train = gnn::SurrogateDistiller::sample_teacher(
      teacher, workload_hi, lo, hi, cfg.base.samples, cfg.base.seed,
      cfg.base.workload_floor, cfg.base.correlated_fraction, cfg.base.low_quota_bias);
  const std::size_t val_count =
      std::min(train.size() - 1,
               static_cast<std::size_t>(std::llround(
                   cfg.base.val_fraction * static_cast<double>(train.size()))));
  gnn::Dataset val{train.end() - static_cast<std::ptrdiff_t>(val_count), train.end()};
  train.resize(train.size() - val_count);

  gnn::SurrogateModel model{teacher.node_count(), cfg.base.model,
                            derive_seed(cfg.base.seed, 1)};
  model.set_scalers(teacher.scalers());

  gnn::DistillReport report;
  report.samples = cfg.base.samples;
  report.history = model.fit(train, val, cfg.base.train);

  // Phase 2 — rollout, label, fold in, fine-tune. Each round's queries
  // descend as one stacked pass through the *current* surrogate, so round
  // k covers the level set the round-(k-1) model steers to; the teacher
  // labels land exactly where the planner's verification forward will look.
  const std::size_t n = teacher.node_count();
  for (std::size_t round = 0; round < cfg.rounds; ++round) {
    std::vector<std::vector<double>> queries(cfg.queries_per_round);
    for (std::size_t qi = 0; qi < cfg.queries_per_round; ++qi) {
      Rng rng{derive_seed(derive_seed(cfg.seed, round), qi)};
      queries[qi] = gnn::SurrogateDistiller::draw_workload(
          rng, workload_hi, cfg.base.workload_floor, cfg.base.correlated_fraction);
    }
    std::vector<BatchItem> requests;
    requests.reserve(queries.size());
    for (const std::vector<double>& w : queries)
      requests.push_back({w, slo_ms, lo, hi});
    std::vector<BatchItemResult> descents = descend(model, solver, requests);
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      gnn::Sample s;
      s.workload = queries[qi];
      s.quota = std::move(descents[qi].result.quota);
      s.latency_ms = teacher.predict(s.workload, s.quota);
      // Jittered neighbors first (they read s.quota), then the winner.
      for (std::size_t j = 0; j < cfg.jitter_per_query; ++j) {
        Rng jrng{derive_seed(derive_seed(derive_seed(cfg.seed, round), qi), j + 1)};
        gnn::Sample neighbor;
        neighbor.workload = s.workload;
        neighbor.quota.resize(n);
        for (std::size_t k = 0; k < n; ++k)
          neighbor.quota[k] = std::clamp(
              s.quota[k] * jrng.uniform(1.0 - cfg.jitter_pct, 1.0 + cfg.jitter_pct),
              lo[k], hi[k]);
        neighbor.latency_ms = teacher.predict(neighbor.workload, neighbor.quota);
        train.push_back(std::move(neighbor));
      }
      train.push_back(std::move(s));
    }
    report.samples += queries.size() * (1 + cfg.jitter_per_query);
    gnn::TrainConfig refine = cfg.refine;
    refine.seed = derive_seed(cfg.refine.seed, round);
    model.fit(train, val, refine);
  }

  if (!val.empty())
    report.val_mean_abs_pct_error = model.evaluate_accuracy(val).mean_abs_pct_error;
  return {std::move(model), std::move(report)};
}

}  // namespace graf::core
