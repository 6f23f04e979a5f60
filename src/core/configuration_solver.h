// Configuration solver (paper §3.5): gradient-descent (ADAM) optimization
// of per-service CPU quotas through the trained latency prediction model.
//
//   Loss(r, SLO) = sum(r)  +  rho * max(0, L(w, r) - SLO)        (Eq. 5/6)
//
// Both terms are normalized to O(1) (total quota by the upper bounds, the
// penalty by the SLO) so one penalty coefficient works across applications.
// Every solve — one tenant, its multi-starts, a fleet group, the surrogate
// tier — runs the same row-batched kernel (descend_rows): each start of each
// item is one quota row of a single frozen pass through the model
// (gnn::QuotaPass), stepped by one ADAM, projected back into the
// per-service bounds from Algorithm 1, and frozen once its loss change stays
// below `tolerance` for `patience` consecutive steps — the paper's
// termination rule.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "common/units.h"
#include "gnn/batched_latency_model.h"
#include "gnn/latency_model.h"
#include "telemetry/metrics.h"

namespace graf::core {

struct SolverConfig {
  double rho = 50.0;              ///< penalty coefficient (Eq. 5)
  double lr_mc = 15.0;            ///< ADAM step, in millicores
  std::size_t max_iterations = 2500;
  double tolerance = 1e-4;        ///< |loss_t - loss_{t-1}| threshold
  std::size_t patience = 10;      ///< consecutive small deltas to converge
  /// Halve-style step decay so the descent settles at the SLO boundary
  /// instead of oscillating around it (0 disables).
  std::size_t lr_decay_every = 400;
  double lr_decay_factor = 0.6;
  /// The solver targets slo_margin * SLO internally. The paper relies on
  /// the model's ~+5% over-estimation for the same safety effect; an
  /// explicit margin makes it robust to an unbiased model (set to 1.0 for
  /// the paper's exact objective).
  double slo_margin = 0.93;
  /// Independent descents, each one row of the same pass; the feasible
  /// minimum-quota result wins (ties broken by start index). Start 0
  /// descends from the upper bounds; starts k >= 1 from uniform draws in
  /// [lo, hi] seeded by derive_seed(multi_start_seed, k). 1 keeps the
  /// single-descent behavior.
  std::size_t multi_starts = 1;
  std::uint64_t multi_start_seed = 17;

  /// Equal configs shape descent trajectories identically, so the fleet may
  /// stack their tenants into one batch.
  bool operator==(const SolverConfig&) const = default;
};

struct SolverResult {
  std::vector<Millicores> quota;  ///< per-service CPU quota
  double predicted_ms = 0.0;      ///< model's latency estimate at `quota`
  double loss = 0.0;
  std::size_t iterations = 0;
  bool converged = false;
  double solve_seconds = 0.0;     ///< wall-clock solve time
};

/// One tenant's solve request inside a fleet batch (DESIGN.md §3.13). The
/// spans alias caller storage and must stay valid for the solve_batch call.
struct BatchItem {
  std::span<const double> workload;
  double slo_ms = 0.0;
  std::span<const Millicores> lo;
  std::span<const Millicores> hi;
};

struct BatchItemResult {
  SolverResult result;  ///< the winning start, exactly as solve() returns it
  /// Iterations summed over the item's starts — what a solo solve adds to
  /// core.solver_iterations_total (fleet callers mirror it through
  /// note_external_iterations on the tenant's own solver).
  std::size_t total_iterations = 0;
};

/// Final-score override for one row: (item index, quota) -> latency (ms).
using RowScore = std::function<double(std::size_t, std::span<const double>)>;

class ConfigurationSolver {
 public:
  ConfigurationSolver(gnn::LatencyModel& model, SolverConfig cfg = {});

  /// Minimize total quota for per-*node* workloads `workload` subject to
  /// predicted latency <= slo_ms, within [lo, hi] per service: a batch of
  /// one through solve_batch. Profiles each iteration into
  /// core.solver_iter_us and counts every start's iterations in
  /// core.solver_iterations_total when metrics are attached.
  SolverResult solve(std::span<const double> workload, double slo_ms,
                     std::span<const Millicores> lo, std::span<const Millicores> hi);

  /// Descend every item's multi-starts as rows of ONE frozen pass through
  /// the shared block-diagonal batched model (fleet fan-in, DESIGN.md §3.13).
  /// `batched` must be freshly constructed over the shared model with
  /// rows_per_graph == max(1, cfg.multi_starts); the items' graphs are
  /// added here in item order. Item t's result is bit-identical to what
  /// `ConfigurationSolver{model, cfg}.solve(items[t]...)` returns — only
  /// solve_seconds (shared batch wall time) differs. A single start scores
  /// its result with predict() (division-form features), several starts
  /// with the stacked frozen forward. `iter_timer` (optional) profiles each
  /// iteration. Static because the batch spans tenants: no single solver
  /// instance owns it.
  static std::vector<BatchItemResult> solve_batch(
      gnn::BatchedLatencyModel& batched, const SolverConfig& cfg,
      std::span<const BatchItem> items, telemetry::LogHistogram* iter_timer = nullptr);

  /// The one projected-ADAM descent kernel (DESIGN.md §3.9). Row t*K+k
  /// (K = max(1, cfg.multi_starts)) is item t's start k: start 0 descends
  /// from the item's hi bounds, starts k >= 1 from the
  /// derive_seed(multi_start_seed, k) uniform draws in [lo, hi]. All rows
  /// descend through `pass`, which must carry item t's workload on rows
  /// t*K..t*K+K-1. Each iteration runs one forward of the pass, and its
  /// backward unless no live (unconverged) row is over its target and the
  /// pass keeps zero rows zero (QuotaPass::zero_rows_stay_zero): then every
  /// live row's quota gradient is qnorm, the bits the backward would give.
  /// The loss, its prediction gradient and the quota term's gradient
  /// are computed here per row, in the order the autodiff tape used, so the
  /// bits are the tape's. Each row is projected into its item's bounds and
  /// frozen at its final value once converged. Rows are scored by one
  /// stacked forward of the pass, or by `score` when given, and each item's
  /// winner is picked by pick_winner. Items must have node_count-wide
  /// workloads and bounds.
  static std::vector<BatchItemResult> descend_rows(
      const SolverConfig& cfg, std::span<const BatchItem> items, gnn::QuotaPass& pass,
      const RowScore& score = {}, telemetry::LogHistogram* iter_timer = nullptr);

  /// Winner rule shared by every multi-start descent: feasible minimum
  /// total quota; if no start is feasible, least-infeasible (lowest
  /// predicted latency). Strict comparisons keep the first (lowest index)
  /// winner on ties.
  static std::size_t pick_winner(std::span<const SolverResult> runs, double target_ms);

  /// Mirror iterations a fleet group solve executed on this tenant's behalf
  /// into core.solver_iterations_total, so the counter reads what solve()
  /// would have counted.
  void note_external_iterations(std::size_t iterations);

  /// Eq. 5 value at a specific configuration (Fig. 12 loss landscape).
  /// Applies the same slo_margin as solve(), so the landscape matches the
  /// objective the descent actually minimizes.
  double loss_at(std::span<const double> workload, double slo_ms,
                 std::span<const Millicores> quota,
                 std::span<const Millicores> hi) const;

  const SolverConfig& config() const { return cfg_; }

  /// Swap the model the solver descends through (hot-swap path, src/serve).
  /// The new model must predict over the same node count.
  void rebind(gnn::LatencyModel& model);

  /// Profile each descent iteration into `core.solver_iter_us` and count
  /// them in `core.solver_iterations_total`. nullptr detaches (default).
  void set_metrics(telemetry::MetricsRegistry* registry);

 private:
  gnn::LatencyModel* model_;
  SolverConfig cfg_;
  telemetry::LogHistogram* iter_timer_ = nullptr;
  telemetry::Counter* iter_counter_ = nullptr;
};

}  // namespace graf::core
