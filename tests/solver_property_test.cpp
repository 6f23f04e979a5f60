// Property sweep over the configuration solver: for random SLOs and
// workloads the solution must stay within bounds, be (weakly) monotone in
// the SLO, and keep its latency estimate consistent with the request.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/configuration_solver.h"
#include "gnn/latency_model.h"

namespace graf::core {
namespace {

gnn::Dag diamond() {
  gnn::Dag d;
  d.add_node("fe");
  d.add_node("a");
  d.add_node("b");
  d.add_node("sink");
  d.add_edge(0, 1);
  d.add_edge(0, 2);
  d.add_edge(1, 3);
  d.add_edge(2, 3);
  return d;
}

/// Analytic monotone ground truth over the diamond; branch a || b, so the
/// slower branch dominates the middle stage.
double truth(const std::vector<double>& w, const std::vector<double>& q) {
  auto stage = [&](int i, double demand) {
    return demand * 1000.0 / q[static_cast<std::size_t>(i)] +
           0.5 * w[static_cast<std::size_t>(i)];
  };
  return stage(0, 15.0) + std::max(stage(1, 30.0), stage(2, 60.0)) + stage(3, 25.0);
}

gnn::LatencyModel& model() {
  static gnn::LatencyModel m = [] {
    gnn::MpnnConfig cfg;
    cfg.embed_dim = 10;
    cfg.mpnn_hidden = 10;
    cfg.readout_hidden = 32;
    cfg.dropout_p = 0.0;
    gnn::LatencyModel lm{diamond(), cfg, 23};
    Rng rng{29};
    gnn::Dataset data;
    for (int i = 0; i < 3000; ++i) {
      gnn::Sample s;
      const double w = rng.uniform(20.0, 80.0);
      s.workload = {w, w, w, w};
      s.quota.resize(4);
      for (auto& q : s.quota) q = rng.uniform(300.0, 2000.0);
      s.latency_ms = truth(s.workload, s.quota);
      data.push_back(std::move(s));
    }
    gnn::TrainConfig tc;
    tc.iterations = 3000;
    tc.batch_size = 64;
    tc.lr = 2e-3;
    tc.lr_decay_every = 800;
    tc.eval_every = 300;
    lm.fit(data, {}, tc);
    return lm;
  }();
  return m;
}

class SolverSweep : public ::testing::TestWithParam<int> {};

TEST_P(SolverSweep, BoundsAndConsistency) {
  Rng rng{static_cast<std::uint64_t>(GetParam()) * 31 + 5};
  ConfigurationSolver solver{model(), {}};
  const double w = rng.uniform(25.0, 75.0);
  std::vector<double> workload{w, w, w, w};
  std::vector<double> lo(4, 350.0);
  std::vector<double> hi(4, 1900.0);
  const double slo = rng.uniform(120.0, 400.0);

  const auto res = solver.solve(workload, slo, lo, hi);
  ASSERT_EQ(res.quota.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_GE(res.quota[i], lo[i] - 1e-9);
    EXPECT_LE(res.quota[i], hi[i] + 1e-9);
  }
  EXPECT_GT(res.iterations, 0u);
  // The model's own estimate of the solution never exceeds the SLO by more
  // than the convergence slack (it may sit below when bounds bind).
  EXPECT_LT(res.predicted_ms, slo * 1.10);
}

TEST_P(SolverSweep, WeaklyMonotoneInSlo) {
  Rng rng{static_cast<std::uint64_t>(GetParam()) * 37 + 11};
  ConfigurationSolver solver{model(), {}};
  const double w = rng.uniform(25.0, 75.0);
  std::vector<double> workload{w, w, w, w};
  std::vector<double> lo(4, 350.0);
  std::vector<double> hi(4, 1900.0);
  const double slo = rng.uniform(150.0, 300.0);

  auto total = [&](double s) {
    const auto res = solver.solve(workload, s, lo, hi);
    double t = 0.0;
    for (double q : res.quota) t += q;
    return t;
  };
  // 25% SLO relaxation should not require more CPU (5% numeric slack).
  EXPECT_LE(total(slo * 1.25), total(slo) * 1.05);
}

TEST_P(SolverSweep, SlackBranchGetsLessCpu) {
  // Service b is 2x as expensive as its parallel sibling a; a has slack, so
  // the solver must not give a more CPU than b.
  ConfigurationSolver solver{model(), {}};
  Rng rng{static_cast<std::uint64_t>(GetParam()) * 41 + 13};
  const double w = rng.uniform(30.0, 70.0);
  std::vector<double> workload{w, w, w, w};
  std::vector<double> lo(4, 350.0);
  std::vector<double> hi(4, 1900.0);
  const auto res = solver.solve(workload, rng.uniform(170.0, 280.0), lo, hi);
  EXPECT_LE(res.quota[1], res.quota[2] * 1.15);
}

INSTANTIATE_TEST_SUITE_P(RandomSlos, SolverSweep, ::testing::Range(0, 6));

// A multi-start solve is the one-item case of a stacked fleet batch: the
// same item inside a batch with other tenants (different workloads and
// SLOs) must land on the same winner, loss, and per-start bookkeeping, down
// to the last bit (DESIGN.md §3.9 explains why stacked rows stay exact).
TEST(BatchedMultiStart, SoloSolveMatchesStackedBatchBitwise) {
  std::vector<double> workload{50.0, 50.0, 50.0, 50.0};
  std::vector<double> other{35.0, 60.0, 45.0, 70.0};
  std::vector<double> lo(4, 350.0);
  std::vector<double> hi(4, 1900.0);
  for (double slo : {160.0, 240.0, 330.0}) {
    SolverConfig scfg;
    scfg.multi_starts = 4;
    ConfigurationSolver solo{model(), scfg};
    const auto rs = solo.solve(workload, slo, lo, hi);

    gnn::BatchedLatencyModel batched{model(), scfg.multi_starts};
    const std::vector<BatchItem> items{{other, slo * 1.2, lo, hi},
                                       {workload, slo, lo, hi}};
    const auto rb = ConfigurationSolver::solve_batch(batched, scfg, items)[1].result;
    ASSERT_EQ(rb.quota.size(), rs.quota.size());
    for (std::size_t i = 0; i < rb.quota.size(); ++i)
      EXPECT_EQ(rb.quota[i], rs.quota[i]) << "slo=" << slo << " i=" << i;
    EXPECT_EQ(rb.loss, rs.loss) << "slo=" << slo;
    EXPECT_EQ(rb.predicted_ms, rs.predicted_ms) << "slo=" << slo;
    EXPECT_EQ(rb.iterations, rs.iterations) << "slo=" << slo;
    EXPECT_EQ(rb.converged, rs.converged) << "slo=" << slo;
  }
}

}  // namespace
}  // namespace graf::core
