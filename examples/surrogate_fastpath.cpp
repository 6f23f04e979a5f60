// Distilled fast-path surrogate planning (DESIGN.md §3.14): train a teacher
// MPNN on an analytic latency surface of the Social Network topology, distill it
// into a small dense surrogate with the solver in the loop (rollout rounds
// re-label exactly the level set the fast path lands on), then answer a
// stream of planning queries twice — through the two-tier planner
// (surrogate descent + one full-GNN verification forward, escalating on
// trust-band misses) and through the full-GNN solver — and compare wall
// clock, escalation rate, and plan quality.
//
// Re-runs the whole pipeline (distillation + every tiered solve) at 1 and
// at 8 worker threads and exits non-zero if the exact-bits digests diverge:
// distillation and tiered planning are pure functions of (teacher bits,
// config, inputs), never of the thread count.
#include <bit>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <vector>

#include "apps/catalog.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "core/configuration_solver.h"
#include "core/tiered_planner.h"
#include "gnn/latency_model.h"
#include "gnn/surrogate_model.h"

namespace {

using namespace graf;

constexpr std::size_t kSolves = 40;

/// Analytic M/M/1-flavored latency surface (same shape as the surrogate
/// suite's fixture): quota buys capacity, latency blows up near saturation.
double truth_ms(const std::vector<double>& w, const std::vector<double>& q,
                const std::vector<double>& demand) {
  double total = 0.0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    const double cores = q[i] / 1000.0;
    const double base = demand[i] / std::min(cores, 1.0);
    const double capacity = cores * 1000.0 / demand[i];
    const double utilization = std::min(w[i] / capacity, 0.95);
    total += base / (1.0 - utilization);
  }
  return total;
}

gnn::LatencyModel train_teacher(const apps::Topology& topo,
                                const std::vector<double>& demand) {
  const std::size_t n = topo.service_count();
  gnn::LatencyModel teacher{apps::make_dag(topo),
                            {.node_features = 4, .embed_dim = 8, .mpnn_hidden = 8,
                             .readout_hidden = 24, .message_steps = 2,
                             .dropout_p = 0.05, .use_mpnn = true},
                            7};
  Rng rng{41};
  gnn::Dataset data;
  for (int s = 0; s < 1500; ++s) {
    gnn::Sample sample;
    const double w = rng.uniform(20.0, 100.0);
    sample.workload.assign(n, w);
    sample.quota.resize(n);
    for (double& q : sample.quota) q = rng.uniform(200.0, 2000.0);
    sample.latency_ms = truth_ms(sample.workload, sample.quota, demand);
    data.push_back(std::move(sample));
  }
  teacher.fit(data, {}, {.iterations = 1200, .batch_size = 64, .lr = 3e-3,
                         .lr_decay_every = 400, .eval_every = 200, .seed = 3});
  return teacher;
}

std::uint64_t mix(std::uint64_t h, double v) {
  h ^= std::bit_cast<std::uint64_t>(v);
  h *= 1099511628211ULL;
  return h;
}

struct RunResult {
  double distill_seconds = 0.0;
  double tiered_seconds = 0.0;
  double full_seconds = 0.0;
  double fidelity_pct = 0.0;      // surrogate-vs-teacher held-out MAPE
  std::uint64_t fast_hits = 0;
  std::uint64_t escalations = 0;
  /// Mean extra total quota the tiered plans allocate vs the full plans —
  /// the resource cost of steering the descent with the surrogate (the two
  /// descents land on different-but-equivalent quota mixes; what matters
  /// downstream is the total bill, and that every accepted plan's
  /// full-model prediction meets the SLO).
  double quota_overhead_pct = 0.0;
  std::uint64_t digest = 1469598103934665603ULL;
};

RunResult run(gnn::LatencyModel& teacher, double slo_ms) {
  using clock = std::chrono::steady_clock;
  const std::size_t n = teacher.node_count();
  const std::vector<double> region(n, 100.0);
  const std::vector<Millicores> lo(n, 200.0);
  const std::vector<Millicores> hi(n, 2000.0);

  core::SolverConfig scfg;
  scfg.max_iterations = 400;

  // Solver-in-the-loop distillation at the production SLO and solver
  // config, so the rollout rounds reproduce the exact query distribution
  // the planner will put on the surrogate.
  core::SolverDistillConfig dcfg;
  dcfg.base.samples = 512 * n;
  dcfg.base.model.hidden = 96;
  dcfg.base.workload_floor = 0.2;
  dcfg.rounds = 2;
  dcfg.queries_per_round = 192;
  const auto t0 = clock::now();
  gnn::SurrogateDistiller::Result distilled =
      core::TieredPlanner::distill_for_planner(teacher, region, lo, hi, slo_ms,
                                               dcfg, scfg);

  RunResult out;
  out.distill_seconds = std::chrono::duration<double>(clock::now() - t0).count();
  out.fidelity_pct = distilled.report.val_mean_abs_pct_error;
  out.digest = mix(out.digest,
                   static_cast<double>(gnn::SurrogateModel::fingerprint(distilled.model)));

  core::ConfigurationSolver full{teacher, scfg};
  core::TieredPlanner planner{
      std::make_shared<gnn::SurrogateModel>(std::move(distilled.model)),
      {.solver = scfg, .trust_band_pct = 10.0}};

  // The same frontend-driven workload ray both arms plan for.
  std::vector<std::vector<double>> queries;
  Rng wdraw{17};
  for (std::size_t s = 0; s < kSolves; ++s)
    queries.emplace_back(n, wdraw.uniform(30.0, 90.0));

  std::vector<core::SolverResult> tiered_plans;
  const auto t1 = clock::now();
  for (const auto& w : queries)
    tiered_plans.push_back(planner.solve(teacher, full, w, slo_ms, lo, hi));
  out.tiered_seconds = std::chrono::duration<double>(clock::now() - t1).count();
  out.fast_hits = planner.fast_hits();
  out.escalations = planner.escalations();

  core::ConfigurationSolver reference{teacher, scfg};
  std::vector<core::SolverResult> full_plans;
  const auto t2 = clock::now();
  for (const auto& w : queries)
    full_plans.push_back(reference.solve(w, slo_ms, lo, hi));
  out.full_seconds = std::chrono::duration<double>(clock::now() - t2).count();

  for (std::size_t s = 0; s < kSolves; ++s) {
    double tiered_total = 0.0;
    double full_total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      tiered_total += tiered_plans[s].quota[i];
      full_total += full_plans[s].quota[i];
      out.digest = mix(out.digest, tiered_plans[s].quota[i]);
    }
    out.quota_overhead_pct += 100.0 * (tiered_total - full_total) / full_total;
    out.digest = mix(out.digest, tiered_plans[s].predicted_ms);
  }
  out.quota_overhead_pct /= static_cast<double>(kSolves);
  out.digest = mix(out.digest, static_cast<double>(out.fast_hits));
  out.digest = mix(out.digest, static_cast<double>(out.escalations));
  return out;
}

}  // namespace

int main() {
  const apps::Topology topo = apps::social_network();
  const std::size_t n = topo.service_count();
  std::vector<double> demand(n);
  for (std::size_t i = 0; i < n; ++i) demand[i] = topo.services[i].demand_mean_ms;
  // Generous-but-real SLO: 1.5x the analytic latency of the fully
  // provisioned system at the top of the query workload range.
  const double slo_ms =
      1.5 * truth_ms(std::vector<double>(n, 90.0), std::vector<double>(n, 2000.0),
                     demand);

  std::cerr << "surrogate_fastpath: training the teacher MPNN (" << topo.name
            << ", " << n << " services)...\n";
  gnn::LatencyModel teacher = train_teacher(topo, demand);

  std::cerr << "surrogate_fastpath: distilling + planning at 1 thread...\n";
  set_global_threads(1);
  const RunResult single = run(teacher, slo_ms);
  std::cerr << "surrogate_fastpath: distilling + planning at 8 threads...\n";
  set_global_threads(8);
  const RunResult eight = run(teacher, slo_ms);
  set_global_threads(0);

  Table table{"Two-tier surrogate planning vs full-GNN solve (" + topo.name +
              ", SLO " + Table::num(slo_ms, 0) + " ms, " +
              Table::integer(static_cast<long long>(kSolves)) + " plans)"};
  table.header({"arm", "wall s", "plans/s", "fast hits", "escalations"});
  table.row({"tiered (surrogate+verify)", Table::num(eight.tiered_seconds, 2),
             Table::num(static_cast<double>(kSolves) / eight.tiered_seconds, 1),
             Table::integer(static_cast<long long>(eight.fast_hits)),
             Table::integer(static_cast<long long>(eight.escalations))});
  table.row({"full-GNN solve", Table::num(eight.full_seconds, 2),
             Table::num(static_cast<double>(kSolves) / eight.full_seconds, 1),
             "-", "-"});
  table.print(std::cout);
  std::cout << "Speedup " << Table::num(eight.full_seconds / eight.tiered_seconds, 1)
            << "x; surrogate-vs-teacher fidelity "
            << Table::num(eight.fidelity_pct, 2) << "% MAPE; mean total-quota "
            << "overhead vs the full plans "
            << Table::num(eight.quota_overhead_pct, 1) << "%.\n"
            << "Distillation cost " << Table::num(eight.distill_seconds, 1) << " s up front — ";
  // A short timed run can read the tiered arm no faster than the full one;
  // then no plan count pays the distillation back.
  const double saving_per_plan =
      (eight.full_seconds - eight.tiered_seconds) / static_cast<double>(kSolves);
  if (saving_per_plan > 0.0)
    std::cout << "earned back after "
              << Table::integer(static_cast<long long>(eight.distill_seconds / saving_per_plan + 1.0))
              << " plans at this rate.\n";
  else
    std::cout << "not earned back at this rate (the tiered arm was not faster).\n";

  const bool replay_ok = single.digest == eight.digest;
  std::cout << "Determinism: distillation + tiered replay at 1 vs 8 threads "
            << (replay_ok ? "bit-identical" : "DIVERGED") << ".\n";
  return replay_ok ? 0 : 1;
}
