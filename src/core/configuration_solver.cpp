#include "core/configuration_solver.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "nn/optim.h"
#include "telemetry/profiler.h"

namespace graf::core {

std::size_t ConfigurationSolver::pick_winner(std::span<const SolverResult> runs,
                                             double target_ms) {
  auto total_quota = [](const SolverResult& r) {
    double t = 0.0;
    for (double q : r.quota) t += q;
    return t;
  };
  std::size_t best = 0;
  for (std::size_t k = 1; k < runs.size(); ++k) {
    const bool best_ok = runs[best].predicted_ms <= target_ms;
    const bool k_ok = runs[k].predicted_ms <= target_ms;
    if (k_ok != best_ok) {
      if (k_ok) best = k;
      continue;
    }
    if (k_ok ? total_quota(runs[k]) < total_quota(runs[best])
             : runs[k].predicted_ms < runs[best].predicted_ms)
      best = k;
  }
  return best;
}

ConfigurationSolver::ConfigurationSolver(gnn::LatencyModel& model, SolverConfig cfg)
    : model_{&model}, cfg_{cfg} {
  if (!(cfg_.rho > 0.0)) throw std::invalid_argument{"SolverConfig: rho must be > 0"};
}

void ConfigurationSolver::set_metrics(telemetry::MetricsRegistry* registry) {
  iter_timer_ = registry != nullptr ? &registry->histogram("core.solver_iter_us") : nullptr;
  iter_counter_ =
      registry != nullptr ? &registry->counter("core.solver_iterations_total") : nullptr;
}

void ConfigurationSolver::rebind(gnn::LatencyModel& model) {
  if (model.node_count() != model_->node_count())
    throw std::invalid_argument{"ConfigurationSolver::rebind: node count mismatch"};
  model_ = &model;
}

void ConfigurationSolver::note_external_iterations(std::size_t iterations) {
  if (iter_counter_ != nullptr) iter_counter_->add(static_cast<double>(iterations));
}

SolverResult ConfigurationSolver::solve(std::span<const double> workload,
                                        double slo_ms,
                                        std::span<const Millicores> lo,
                                        std::span<const Millicores> hi) {
  gnn::BatchedLatencyModel batched{*model_, std::max<std::size_t>(1, cfg_.multi_starts)};
  const BatchItem item{workload, slo_ms, lo, hi};
  BatchItemResult out = std::move(solve_batch(batched, cfg_, {&item, 1}, iter_timer_).front());
  note_external_iterations(out.total_iterations);
  return std::move(out.result);
}

std::vector<BatchItemResult> ConfigurationSolver::solve_batch(
    gnn::BatchedLatencyModel& batched, const SolverConfig& cfg,
    std::span<const BatchItem> items, telemetry::LogHistogram* iter_timer) {
  const std::size_t starts = std::max<std::size_t>(1, cfg.multi_starts);
  if (batched.rows_per_graph() != starts)
    throw std::invalid_argument{
        "solve_batch: batched model rows_per_graph must equal the start count"};
  if (batched.graph_count() != 0)
    throw std::invalid_argument{"solve_batch: batched model must start empty"};
  // A single start reports predict() — the division-form feature path — as
  // its final prediction; several starts keep the stacked frozen forward.
  RowScore score;
  if (starts == 1)
    score = [&batched](std::size_t item, std::span<const double> quota) {
      return batched.predict(item, quota);
    };
  for (const BatchItem& item : items) batched.add_graph(item.workload);
  gnn::LatencyModel::Pass pass = batched.pass();
  return descend_rows(cfg, items, pass, score, iter_timer);
}

std::vector<BatchItemResult> ConfigurationSolver::descend_rows(
    const SolverConfig& cfg, std::span<const BatchItem> items, gnn::QuotaPass& pass,
    const RowScore& score, telemetry::LogHistogram* iter_timer) {
  if (!(cfg.rho > 0.0)) throw std::invalid_argument{"SolverConfig: rho must be > 0"};
  const std::size_t n = pass.node_count();
  for (const BatchItem& item : items) {
    if (item.workload.size() != n || item.lo.size() != n || item.hi.size() != n)
      throw std::invalid_argument{"solve: dimension mismatch"};
    if (!(item.slo_ms > 0.0)) throw std::invalid_argument{"solve: slo must be > 0"};
    // NaN fails every comparison, so the check passes only finite bounds
    // with 0 < lo <= hi, and a lo whose 1/q feature is finite.
    for (std::size_t i = 0; i < n; ++i)
      if (!(item.lo[i] > 0.0 && item.lo[i] <= item.hi[i] && std::isfinite(item.hi[i]) &&
            std::isfinite(1.0 / item.lo[i])))
        throw std::invalid_argument{"solve: need finite 0 < lo <= hi with 1/lo finite"};
  }
  if (items.empty()) return {};

  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t tenants = items.size();
  const std::size_t starts = std::max<std::size_t>(1, cfg.multi_starts);
  const std::size_t rows = tenants * starts;
  if (pass.rows() != rows)
    throw std::invalid_argument{"descend_rows: the pass must carry every start of every item"};

  // Row t*K+k is item t's start k: k == 0 the hi bounds, k >= 1 uniform
  // draws whose stream depends only on k (the draws on the item's bounds).
  // Alongside, each row's quota normalizer and inverse margined target.
  nn::Tensor starts_mat{rows, n};
  std::vector<double> qnorm(rows);
  std::vector<double> inv_target(rows);
  std::vector<double> target(tenants, 0.0);
  for (std::size_t t = 0; t < tenants; ++t) {
    const BatchItem& item = items[t];
    double hi_total = 0.0;
    for (double h : item.hi) hi_total += h;
    const double quota_norm = 1.0 / hi_total;
    target[t] = item.slo_ms * cfg.slo_margin;
    const double inv = 1.0 / target[t];
    for (std::size_t k = 0; k < starts; ++k) {
      const std::size_t row = t * starts + k;
      qnorm[row] = quota_norm;
      inv_target[row] = inv;
      Rng start_rng{derive_seed(cfg.multi_start_seed, k)};
      for (std::size_t i = 0; i < n; ++i)
        starts_mat(row, i) = k == 0 ? item.hi[i]
                                    : start_rng.uniform(item.lo[i], item.hi[i]);
    }
  }

  nn::Param r{std::move(starts_mat)};
  nn::Adam adam{{&r}, {.lr = cfg.lr_mc}};

  // One ADAM over the whole block equals one ADAM per row: updates are
  // elementwise, moments never mix entries, and the shared bias-correction
  // counter equals every active row's own iteration index — all rows step
  // every iteration, and converged rows are re-pinned to their frozen value
  // right after, so extra steps can't change their outcome. Rows never mix
  // in the pass either (DESIGN.md §3.9), so each row's gradient is exactly
  // the one a lone descent would see.
  std::vector<SolverResult> runs(rows);
  std::vector<double> prev_loss(rows, std::numeric_limits<double>::infinity());
  std::vector<std::size_t> calm(rows, 0);
  std::vector<char> done(rows, 0);
  nn::Tensor frozen{rows, n};
  std::vector<double> loss_vals(rows);
  nn::Tensor dpred{rows, 1};
  std::size_t active = rows;

  for (std::size_t it = 1; it <= cfg.max_iterations && active > 0; ++it) {
    telemetry::ScopedTimer timer{iter_timer};
    // Per row, Eq. 5 as the tape evaluated it:
    //   loss = sum(q)·qnorm + rho·relu(pred·inv_target - 1),
    // and its gradient in the tape's reverse order: d/d(pred) lands in a
    // fresh (+0) gradient, then d/d(q) is the quota term's qnorm first and
    // the model's gradient second. (qnorm > 0, so that sum is never -0 and
    // equals its accumulation into the zeroed Param::grad.)
    const nn::Tensor& pred = pass.forward(r.value);
    bool penalty_idle = true;  // every live row under target, its prediction finite
    for (std::size_t row = 0; row < rows; ++row) {
      double sum_q = 0.0;
      for (std::size_t i = 0; i < n; ++i) sum_q += r.value(row, i);
      const double v = pred(row, 0) * inv_target[row] - 1.0;
      const double violation = v > 0.0 ? v : 0.0;
      loss_vals[row] = sum_q * qnorm[row] + violation * cfg.rho;
      dpred(row, 0) = 0.0 + (v > 0.0 ? cfg.rho : 0.0) * inv_target[row];
      penalty_idle = penalty_idle && (done[row] != 0 || (dpred(row, 0) == 0.0 &&
                                                         std::isfinite(pred(row, 0))));
    }
    // Then each live row's model gradient is exactly +0 whenever the pass
    // keeps zero rows zero, and qnorm + (+0) is qnorm: the backward would
    // change no bit a live row reads. Converged rows' gradients feed only
    // their own ADAM moments, and their values are re-pinned below.
    if (penalty_idle && pass.zero_rows_stay_zero()) {
      for (std::size_t row = 0; row < rows; ++row)
        for (std::size_t i = 0; i < n; ++i) r.grad(row, i) = qnorm[row];
    } else {
      const nn::Tensor& model_grad = pass.backward(dpred);
      for (std::size_t row = 0; row < rows; ++row)
        for (std::size_t i = 0; i < n; ++i)
          r.grad(row, i) = qnorm[row] + model_grad(row, i);
    }
    adam.step();
    if (cfg.lr_decay_every > 0 && it % cfg.lr_decay_every == 0)
      adam.set_learning_rate(adam.learning_rate() * cfg.lr_decay_factor);

    for (std::size_t row = 0; row < rows; ++row) {
      const BatchItem& item = items[row / starts];
      for (std::size_t i = 0; i < n; ++i)
        r.value(row, i) = done[row] ? frozen(row, i)
                                    : std::clamp(r.value(row, i), item.lo[i], item.hi[i]);
      if (done[row]) continue;
      const double loss_val = loss_vals[row];
      runs[row].iterations = it;
      runs[row].loss = loss_val;
      if (std::abs(loss_val - prev_loss[row]) < cfg.tolerance) {
        if (++calm[row] >= cfg.patience) {
          runs[row].converged = true;
          done[row] = 1;
          --active;
          for (std::size_t i = 0; i < n; ++i) frozen(row, i) = r.value(row, i);
          continue;
        }
      } else {
        calm[row] = 0;
      }
      prev_loss[row] = loss_val;
    }
  }

  for (std::size_t row = 0; row < rows; ++row) {
    runs[row].quota.resize(n);
    for (std::size_t i = 0; i < n; ++i) runs[row].quota[i] = r.value(row, i);
  }
  if (score) {
    for (std::size_t row = 0; row < rows; ++row)
      runs[row].predicted_ms = score(row / starts, runs[row].quota);
  } else {
    const nn::Tensor& pred = pass.forward(r.value);
    for (std::size_t row = 0; row < rows; ++row) runs[row].predicted_ms = pred(row, 0);
  }

  const double solve_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  std::vector<BatchItemResult> out(tenants);
  for (std::size_t t = 0; t < tenants; ++t) {
    const std::span<SolverResult> item_runs{runs.data() + t * starts, starts};
    for (const SolverResult& run : item_runs) out[t].total_iterations += run.iterations;
    out[t].result = std::move(item_runs[pick_winner(item_runs, target[t])]);
    out[t].result.solve_seconds = solve_seconds;
  }
  return out;
}

double ConfigurationSolver::loss_at(std::span<const double> workload, double slo_ms,
                                    std::span<const Millicores> quota,
                                    std::span<const Millicores> hi) const {
  double hi_total = 0.0;
  for (double h : hi) hi_total += h;
  double total = 0.0;
  for (double q : quota) total += q;
  const double pred = model_->predict(workload, quota);
  // Same margined target as solve(): the reported landscape must be the
  // objective the descent actually minimizes, or loss_at() shows a flat
  // penalty region exactly where solve() still sees a gradient.
  const double target_ms = slo_ms * cfg_.slo_margin;
  return total / hi_total + cfg_.rho * std::max(0.0, pred / target_ms - 1.0);
}

}  // namespace graf::core
