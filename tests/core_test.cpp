#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>

#include "apps/catalog.h"
#include "core/configuration_solver.h"
#include "core/cost_model.h"
#include "core/latency_predictor.h"
#include "core/resource_controller.h"
#include "core/sample_collector.h"
#include "core/workload_analyzer.h"
#include "serve/serving_handle.h"
#include "telemetry/metrics.h"
#include "workload/open_loop.h"

namespace graf::core {
namespace {

// ---- WorkloadAnalyzer -------------------------------------------------------

TEST(WorkloadAnalyzer, DistributeIsLinear) {
  WorkloadAnalyzer wa{2, 3};
  wa.set_fanout({{1.0, 2.0, 0.0}, {1.0, 0.0, 1.5}});
  std::vector<double> w{10.0, 20.0};
  const auto l = wa.distribute(w);
  EXPECT_DOUBLE_EQ(l[0], 30.0);   // both APIs hit service 0 once
  EXPECT_DOUBLE_EQ(l[1], 20.0);   // 10 * 2
  EXPECT_DOUBLE_EQ(l[2], 30.0);   // 20 * 1.5
}

TEST(WorkloadAnalyzer, ValidatesShapes) {
  WorkloadAnalyzer wa{2, 3};
  EXPECT_THROW(wa.set_fanout({{1.0, 2.0, 0.0}}), std::invalid_argument);
  std::vector<double> w{1.0};
  EXPECT_THROW(wa.distribute(w), std::invalid_argument);
}

TEST(WorkloadAnalyzer, ReadyAfterFanout) {
  WorkloadAnalyzer wa{1, 2};
  EXPECT_FALSE(wa.ready());
  wa.set_fanout({{1.0, 0.5}});
  EXPECT_TRUE(wa.ready());
}

TEST(WorkloadAnalyzer, UpdateFromLiveTraces) {
  auto topo = apps::online_boutique();
  sim::Cluster c = apps::make_cluster(topo, {.seed = 3});
  workload::OpenLoopConfig g;
  g.rate = workload::Schedule::constant(50.0);
  g.api_weights = topo.api_weights;
  workload::OpenLoopGenerator gen{c, g};
  gen.start(15.0);
  c.run_until(16.0);
  WorkloadAnalyzer wa{c.api_count(), c.service_count()};
  wa.update(c.tracer());
  EXPECT_TRUE(wa.ready());
  // cart-page (api 0) visits every service of the chain exactly once.
  EXPECT_DOUBLE_EQ(wa.fanout()[0][0], 1.0);
  EXPECT_DOUBLE_EQ(wa.fanout()[0][4], 1.0);
}

TEST(ExpectedFanout, WeighsProbabilisticBranches) {
  const auto topo = apps::online_boutique();
  const auto f = expected_fanout(topo);
  // home-page calls cart with probability 0.6.
  EXPECT_NEAR(f[2][2], 0.6, 1e-12);
  // product-page reaches product directly once plus 0.8x via recommendation.
  EXPECT_NEAR(f[1][3], 1.8, 1e-12);
}

// ---- ConfigurationSolver ----------------------------------------------------

gnn::Dag chain2() {
  gnn::Dag d;
  d.add_node("a");
  d.add_node("b");
  d.add_edge(0, 1);
  return d;
}

/// Train a tiny model on an analytic monotone function once for the suite.
gnn::LatencyModel& solver_model() {
  static gnn::LatencyModel model = [] {
    gnn::MpnnConfig cfg;
    cfg.embed_dim = 8;
    cfg.mpnn_hidden = 8;
    cfg.readout_hidden = 24;
    cfg.dropout_p = 0.0;
    gnn::LatencyModel m{chain2(), cfg, 13};
    Rng rng{17};
    gnn::Dataset data;
    for (int i = 0; i < 2500; ++i) {
      gnn::Sample s;
      const double w = rng.uniform(20.0, 80.0);
      s.workload = {w, w};
      s.quota = {rng.uniform(300.0, 2000.0), rng.uniform(300.0, 2000.0)};
      // latency ~ sum of demand/quota hyperbolae, ms
      s.latency_ms = 40.0 * 1000.0 / s.quota[0] + 80.0 * 1000.0 / s.quota[1] +
                     0.8 * w;
      data.push_back(std::move(s));
    }
    gnn::TrainConfig tc;
    tc.iterations = 2500;
    tc.batch_size = 64;
    tc.lr = 2e-3;
    tc.lr_decay_every = 800;
    tc.eval_every = 250;
    m.fit(data, {}, tc);
    return m;
  }();
  return model;
}

TEST(ConfigurationSolver, RespectsBounds) {
  ConfigurationSolver solver{solver_model(), {}};
  std::vector<double> w{50.0, 50.0};
  std::vector<double> lo{400.0, 400.0};
  std::vector<double> hi{1800.0, 1800.0};
  const auto res = solver.solve(w, 200.0, lo, hi);
  ASSERT_EQ(res.quota.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_GE(res.quota[i], lo[i] - 1e-9);
    EXPECT_LE(res.quota[i], hi[i] + 1e-9);
  }
}

TEST(ConfigurationSolver, TighterSloCostsMoreCpu) {
  ConfigurationSolver solver{solver_model(), {}};
  std::vector<double> w{50.0, 50.0};
  std::vector<double> lo{300.0, 300.0};
  std::vector<double> hi{2000.0, 2000.0};
  const auto tight = solver.solve(w, 150.0, lo, hi);
  const auto loose = solver.solve(w, 280.0, lo, hi);
  const double total_tight = tight.quota[0] + tight.quota[1];
  const double total_loose = loose.quota[0] + loose.quota[1];
  EXPECT_GT(total_tight, total_loose);
}

TEST(ConfigurationSolver, AllocatesMoreToExpensiveService) {
  // Service b has 2x the demand of a; minimizing total quota under the SLO
  // must give b more CPU.
  ConfigurationSolver solver{solver_model(), {}};
  std::vector<double> w{50.0, 50.0};
  std::vector<double> lo{300.0, 300.0};
  std::vector<double> hi{2000.0, 2000.0};
  const auto res = solver.solve(w, 180.0, lo, hi);
  EXPECT_GT(res.quota[1], res.quota[0]);
}

TEST(ConfigurationSolver, PredictionNearSloWhenBinding) {
  ConfigurationSolver solver{solver_model(), {}};
  std::vector<double> w{60.0, 60.0};
  std::vector<double> lo{300.0, 300.0};
  std::vector<double> hi{2000.0, 2000.0};
  const double slo = 160.0;
  const auto res = solver.solve(w, slo, lo, hi);
  // The solver minimizes until the (margin-adjusted) SLO binds.
  EXPECT_LT(res.predicted_ms, slo * 1.05);
  EXPECT_GT(res.predicted_ms, slo * 0.6);
}

TEST(ConfigurationSolver, ValidatesInputs) {
  ConfigurationSolver solver{solver_model(), {}};
  std::vector<double> w{50.0, 50.0};
  std::vector<double> lo{300.0, 300.0};
  std::vector<double> hi{200.0, 2000.0};  // lo > hi
  EXPECT_THROW(solver.solve(w, 100.0, lo, hi), std::invalid_argument);
  std::vector<double> hi_ok{2000.0, 2000.0};
  EXPECT_THROW(solver.solve(w, -5.0, lo, hi_ok), std::invalid_argument);
  std::vector<double> w_bad{50.0};
  EXPECT_THROW(solver.solve(w_bad, 100.0, lo, hi_ok), std::invalid_argument);
}

// A NaN hi fails both halves of a `!(lo > 0) || lo > hi` check and an
// infinite one passes it; either would descend to a NaN plan. A subnormal
// lo passes any ordering check, but 1/q overflows at the floor.
TEST(ConfigurationSolver, RejectsNonFiniteHiAndSubnormalLo) {
  ConfigurationSolver solver{solver_model(), {}};
  const std::vector<double> w{50.0, 50.0};
  const std::vector<double> lo{200.0, 200.0};
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    const std::vector<double> hi{bad, 2000.0};
    EXPECT_THROW(solver.solve(w, 100.0, lo, hi), std::invalid_argument) << bad;
  }
  const std::vector<double> hi{2000.0, 2000.0};
  const std::vector<double> subnormal{1e-310, 200.0};
  EXPECT_THROW(solver.solve(w, 100.0, subnormal, hi), std::invalid_argument);
  const std::vector<double> tiny{1e-300, 200.0};
  EXPECT_NO_THROW(solver.solve(w, 100.0, tiny, hi));
}

TEST(ConfigurationSolver, LossAtMatchesStructure) {
  ConfigurationSolver solver{solver_model(), {.rho = 50.0, .slo_margin = 1.0}};
  std::vector<double> w{50.0, 50.0};
  std::vector<double> hi{2000.0, 2000.0};
  std::vector<double> generous{2000.0, 2000.0};
  std::vector<double> starved{300.0, 300.0};
  // Generous quotas: no penalty, loss == normalized quota == 1.
  EXPECT_NEAR(solver.loss_at(w, 1e6, generous, hi), 1.0, 1e-9);
  // Starved quotas at an impossible SLO: penalty dominates.
  EXPECT_GT(solver.loss_at(w, 10.0, starved, hi), 1.0);
}

TEST(ConfigurationSolver, LossAtAppliesSloMargin) {
  // Regression: loss_at() used to penalize against the raw SLO while solve()
  // descends against slo_margin * SLO, so a prediction sitting between the
  // margined target and the SLO reported a deceptively flat (zero-penalty)
  // landscape. Place the prediction at 95% of the SLO with a 0.9 margin:
  // the margin-aware loss must show a positive penalty there.
  auto& model = solver_model();
  std::vector<double> w{50.0, 50.0};
  std::vector<double> hi{2000.0, 2000.0};
  std::vector<double> quota{800.0, 800.0};
  const double pred = model.predict(w, quota);
  const double slo = pred / 0.95;
  const double base = (quota[0] + quota[1]) / (hi[0] + hi[1]);

  ConfigurationSolver margined{model, {.rho = 50.0, .slo_margin = 0.9}};
  const double loss = margined.loss_at(w, slo, quota, hi);
  EXPECT_NEAR(loss, base + 50.0 * (pred / (0.9 * slo) - 1.0), 1e-9);
  EXPECT_GT(loss, base + 1e-6);

  // With a unit margin the prediction is below target: pure quota term,
  // exactly the objective solve() sees.
  ConfigurationSolver unit{model, {.rho = 50.0, .slo_margin = 1.0}};
  EXPECT_NEAR(unit.loss_at(w, slo, quota, hi), base, 1e-9);
}

// ---- ResourceController -----------------------------------------------------

TEST(ResourceController, Eq7CeilsToInstanceUnits) {
  auto& model = solver_model();
  ConfigurationSolver solver{model, {}};
  WorkloadAnalyzer analyzer{1, 2};
  analyzer.set_fanout({{1.0, 1.0}});
  ResourceController rc{model, solver, analyzer, {300.0, 300.0}, {2000.0, 2000.0},
                        {1000.0, 1000.0}};
  gnn::Dataset ref;
  gnn::Sample s;
  s.workload = {60.0, 60.0};
  s.quota = {1000.0, 1000.0};
  s.latency_ms = 100.0;
  ref.push_back(s);
  rc.set_training_reference(ref);

  std::vector<Qps> api{50.0};
  const auto plan = rc.plan(api, 200.0);
  ASSERT_EQ(plan.instances.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(plan.instances[i],
              static_cast<int>(std::ceil(plan.quota[i] / 1000.0)));
    EXPECT_GE(plan.instances[i], 1);
  }
  EXPECT_DOUBLE_EQ(plan.scale_factor, 1.0);  // within trained region
}

TEST(ResourceController, WorkloadScalingKicksInBeyondTrainedRegion) {
  auto& model = solver_model();
  ConfigurationSolver solver{model, {}};
  WorkloadAnalyzer analyzer{1, 2};
  analyzer.set_fanout({{1.0, 1.0}});
  ResourceController rc{model, solver, analyzer, {300.0, 300.0}, {2000.0, 2000.0},
                        {1000.0, 1000.0}};
  gnn::Dataset ref;
  gnn::Sample s;
  s.workload = {60.0, 60.0};
  s.quota = {1000.0, 1000.0};
  s.latency_ms = 100.0;
  ref.push_back(s);
  rc.set_training_reference(ref);

  std::vector<Qps> in_region{50.0};
  std::vector<Qps> beyond{240.0};  // 4x the trained max
  const auto base = rc.plan(in_region, 200.0);
  const auto scaled = rc.plan(beyond, 200.0);
  EXPECT_NEAR(scaled.scale_factor, 4.0, 1e-9);
  // Quota scales roughly with the factor (same solver point rescaled).
  const double base_total = base.quota[0] + base.quota[1];
  const double scaled_total = scaled.quota[0] + scaled.quota[1];
  EXPECT_GT(scaled_total, 2.0 * base_total);
}

TEST(ResourceController, ApplyScalesCluster) {
  auto topo = apps::bookinfo();
  sim::Cluster c = apps::make_cluster(topo, {.seed = 9});
  AllocationPlan plan;
  plan.instances = {3, 2, 4, 1};
  plan.quota = {3000.0, 2000.0, 4000.0, 1000.0};
  ResourceController::apply(c, plan);
  EXPECT_EQ(c.service(0).target_count(), 3);
  EXPECT_EQ(c.service(2).target_count(), 4);
}

// Regression: after workload-scaling by k, quota[i] = solver.quota[i] * k
// could exceed the replica cap that Service::scale_to silently enforces —
// so the published predicted_ms described an allocation that never landed.
// The plan must clamp, flag saturation, and re-predict at the clamped point.
TEST(ResourceController, SaturatedPlanClampsAndRePredicts) {
  auto& model = solver_model();
  ConfigurationSolver solver{model, {}};
  WorkloadAnalyzer analyzer{1, 2};
  analyzer.set_fanout({{1.0, 1.0}});
  ResourceController rc{model, solver, analyzer, {300.0, 300.0}, {2000.0, 2000.0},
                        {1000.0, 1000.0}};
  gnn::Dataset ref;
  gnn::Sample s;
  s.workload = {60.0, 60.0};
  s.quota = {1000.0, 1000.0};
  s.latency_ms = 100.0;
  ref.push_back(s);
  rc.set_training_reference(ref);
  rc.set_max_instances({1, 1});  // 1 replica x 1000 mc cap per service

  std::vector<Qps> beyond{240.0};  // k = 4: unclamped quota >= 4 * lo = 1200 mc
  const auto plan = rc.plan(beyond, 200.0);
  EXPECT_TRUE(plan.saturated);
  ASSERT_EQ(plan.instances.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(plan.instances[i], 1);
    EXPECT_LE(plan.quota[i], 1000.0 + 1e-9);
  }
  // predicted_ms reflects the clamped allocation (scaled back into the
  // trained region by k), not the solver's unclamped optimum.
  const double repredicted =
      model.predict(std::vector<double>{60.0, 60.0},
                    std::vector<double>{plan.quota[0] / 4.0, plan.quota[1] / 4.0});
  EXPECT_NEAR(plan.predicted_ms, repredicted, 1e-9);
  // Less CPU than the solver wanted cannot be faster (monotone model).
  EXPECT_GE(plan.predicted_ms, plan.solver.predicted_ms - 1e-9);
}

TEST(ResourceController, DegradesWhenAnalyzerNotReady) {
  auto& model = solver_model();
  ConfigurationSolver solver{model, {}};
  WorkloadAnalyzer analyzer{1, 2};  // no fan-out observed yet (cold start)
  ResourceController rc{model, solver, analyzer, {300.0, 300.0}, {2000.0, 2000.0},
                        {1000.0, 1000.0}};
  std::vector<Qps> api{50.0};
  const auto plan = rc.plan(api, 200.0);
  EXPECT_TRUE(plan.degraded);
  EXPECT_FALSE(plan.feasible);
  // With no feasible plan in hand, the fallback provisions at the hi bounds.
  ASSERT_EQ(plan.quota.size(), 2u);
  EXPECT_DOUBLE_EQ(plan.quota[0], 2000.0);
  EXPECT_EQ(plan.instances[0], 2);
  EXPECT_EQ(rc.degraded_plans(), 1u);
}

TEST(ResourceController, InfeasibleSolveFallsBackToLastFeasiblePlan) {
  auto& model = solver_model();
  ConfigurationSolver solver{model, {}};
  WorkloadAnalyzer analyzer{1, 2};
  analyzer.set_fanout({{1.0, 1.0}});
  ResourceController rc{model, solver, analyzer, {300.0, 300.0}, {2000.0, 2000.0},
                        {1000.0, 1000.0}};
  gnn::Dataset ref;
  gnn::Sample s;
  s.workload = {60.0, 60.0};
  s.quota = {1000.0, 1000.0};
  s.latency_ms = 100.0;
  ref.push_back(s);
  rc.set_training_reference(ref);

  std::vector<Qps> api{50.0};
  const auto good = rc.plan(api, 280.0);  // loose SLO: comfortably feasible
  ASSERT_TRUE(good.feasible);
  ASSERT_FALSE(good.degraded);
  ASSERT_TRUE(rc.has_last_good());

  const auto fallback = rc.plan(api, 1.0);  // impossible SLO: solve infeasible
  EXPECT_TRUE(fallback.degraded);
  EXPECT_EQ(fallback.instances, good.instances);
  EXPECT_EQ(fallback.quota, good.quota);
  EXPECT_EQ(rc.degraded_plans(), 1u);
}

TEST(ResourceController, ServedModelShapeMismatchDegradesInsteadOfThrowing) {
  auto& model = solver_model();
  ConfigurationSolver solver{model, {}};
  WorkloadAnalyzer analyzer{1, 2};
  analyzer.set_fanout({{1.0, 1.0}});
  ResourceController rc{model, solver, analyzer, {300.0, 300.0}, {2000.0, 2000.0},
                        {1000.0, 1000.0}};
  gnn::Dataset ref;
  gnn::Sample s;
  s.workload = {60.0, 60.0};
  s.quota = {1000.0, 1000.0};
  s.latency_ms = 100.0;
  ref.push_back(s);
  rc.set_training_reference(ref);
  std::vector<Qps> api{50.0};
  const auto good = rc.plan(api, 280.0);
  ASSERT_FALSE(good.degraded);

  // Serve a model trained for a different topology (3 nodes, not 2).
  gnn::Dag wrong;
  wrong.add_node("a");
  wrong.add_node("b");
  wrong.add_node("c");
  wrong.add_edge(0, 1);
  wrong.add_edge(1, 2);
  serve::ServingHandle handle{
      std::make_shared<gnn::LatencyModel>(wrong, gnn::MpnnConfig{}, 7)};
  rc.set_serving_handle(&handle);  // must not throw anymore

  const auto plan = rc.plan(api, 280.0);
  EXPECT_TRUE(plan.degraded);
  EXPECT_EQ(plan.instances, good.instances);  // last feasible plan reused

  // A compatible model heals the loop: back to clean solves.
  handle.swap(std::make_shared<gnn::LatencyModel>(model.clone()));
  const auto healed = rc.plan(api, 280.0);
  EXPECT_FALSE(healed.degraded);
}

// Regression: a negative rate used to be solved and committed as a
// feasible plan pinned at the lower bounds, and an inf/NaN rate ran every
// descent iteration on NaN features, counted as faults.solver_nan, and
// cleared the plan cache. Bad input must be rejected before the cache
// probe, without a solver iteration, and leave the cache intact.
TEST(ResourceController, NonFiniteOrNegativeWorkloadsDegradeWithoutSolving) {
  auto& model = solver_model();
  ConfigurationSolver solver{model, {}};
  WorkloadAnalyzer analyzer{1, 2};
  analyzer.set_fanout({{1.0, 1.0}});
  ResourceController rc{model, solver, analyzer, {300.0, 300.0}, {2000.0, 2000.0},
                        {1000.0, 1000.0}};
  gnn::Dataset ref;
  gnn::Sample s;
  s.workload = {60.0, 60.0};
  s.quota = {1000.0, 1000.0};
  s.latency_ms = 100.0;
  ref.push_back(s);
  rc.set_training_reference(ref);
  telemetry::MetricsRegistry registry;
  rc.set_metrics(&registry);
  auto& solver_iters = registry.counter("core.solver_iterations_total");
  auto& invalid = registry.counter("faults.invalid_workload");

  // Before any clean solve the fallback is the hi-bounds plan.
  const std::vector<Qps> negative{-30.0};
  const auto cold = rc.plan(negative, 200.0);
  EXPECT_TRUE(cold.degraded);
  EXPECT_FALSE(cold.feasible);
  EXPECT_EQ(cold.quota, (std::vector<Millicores>{2000.0, 2000.0}));
  EXPECT_EQ(solver_iters.value(), 0.0);

  const std::vector<Qps> api{50.0};
  const auto good = rc.plan(api, 200.0);
  ASSERT_FALSE(good.degraded);
  const double iters = solver_iters.value();
  ASSERT_GT(iters, 0.0);

  for (const double bad : {-30.0, std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    const std::vector<Qps> rates{bad};
    const auto plan = rc.plan(rates, 200.0);
    EXPECT_TRUE(plan.degraded) << bad;
    EXPECT_EQ(plan.quota, good.quota) << bad;
    EXPECT_EQ(plan.instances, good.instances) << bad;
  }
  EXPECT_EQ(solver_iters.value(), iters);  // no descent ran
  EXPECT_DOUBLE_EQ(invalid.value(), 4.0);
  EXPECT_DOUBLE_EQ(registry.counter("faults.solver_nan").value(), 0.0);
  EXPECT_EQ(rc.plan_cache_misses(), 1u);  // no key was built for bad input
  EXPECT_EQ(rc.degraded_plans(), 4u);

  // The cache survived: the good workload still answers from it.
  const auto again = rc.plan(api, 200.0);
  EXPECT_EQ(rc.plan_cache_hits(), 1u);
  EXPECT_EQ(solver_iters.value(), iters);
  EXPECT_EQ(again.quota, good.quota);
  EXPECT_FALSE(again.degraded);
}

// ---- Plan cache -------------------------------------------------------------

TEST(ResourceController, PlanCacheHitsSkipSolverAndInvalidateOnSwap) {
  auto& model = solver_model();
  ConfigurationSolver solver{model, {}};
  WorkloadAnalyzer analyzer{1, 2};
  analyzer.set_fanout({{1.0, 1.0}});
  ResourceController rc{model, solver, analyzer, {300.0, 300.0}, {2000.0, 2000.0},
                        {1000.0, 1000.0}};
  gnn::Dataset ref;
  gnn::Sample s;
  s.workload = {60.0, 60.0};
  s.quota = {1000.0, 1000.0};
  s.latency_ms = 100.0;
  ref.push_back(s);
  rc.set_training_reference(ref);
  telemetry::MetricsRegistry registry;
  rc.set_metrics(&registry);
  auto& solver_iters = registry.counter("core.solver_iterations_total");

  std::vector<Qps> api{50.0};
  const auto first = rc.plan(api, 200.0);
  ASSERT_FALSE(first.degraded);
  EXPECT_EQ(rc.plan_cache_hits(), 0u);
  EXPECT_EQ(rc.plan_cache_misses(), 1u);
  const double iters_after_first = solver_iters.value();
  EXPECT_GT(iters_after_first, 0.0);

  // The steady state: identical workload and SLO next sync period. The
  // cached plan must come back verbatim without touching the solver, and a
  // hit must be far below solve cost (<1ms even on a loaded CI box).
  const auto t0 = std::chrono::steady_clock::now();
  const auto second = rc.plan(api, 200.0);
  const auto hit_us = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  EXPECT_EQ(rc.plan_cache_hits(), 1u);
  EXPECT_EQ(solver_iters.value(), iters_after_first);  // solver skipped
  EXPECT_DOUBLE_EQ(registry.counter("core.plan_cache.hits").value(), 1.0);
  EXPECT_GT(registry.counter("core.plan_cache.saved_us").value(), 0.0);
  EXPECT_EQ(second.quota, first.quota);
  EXPECT_EQ(second.instances, first.instances);
  EXPECT_DOUBLE_EQ(second.predicted_ms, first.predicted_ms);
  EXPECT_LT(hit_us, 1000);

  // A tiny workload wiggle stays inside the ~2% quantization bucket...
  std::vector<Qps> wiggle{50.2};
  rc.plan(wiggle, 200.0);
  EXPECT_EQ(rc.plan_cache_hits(), 2u);
  // ...but a different SLO is a different key.
  rc.plan(api, 240.0);
  EXPECT_EQ(rc.plan_cache_hits(), 2u);
  EXPECT_EQ(rc.plan_cache_misses(), 2u);

  // Hot-swapping the served model bumps the generation: the very same
  // (workload, SLO) must re-solve through the new model, not serve a plan
  // computed by the old one.
  serve::ServingHandle handle{std::make_shared<gnn::LatencyModel>(model.clone())};
  rc.set_serving_handle(&handle);
  handle.swap(std::make_shared<gnn::LatencyModel>(model.clone()));
  const auto after_swap = rc.plan(api, 200.0);
  EXPECT_FALSE(after_swap.degraded);
  EXPECT_EQ(rc.plan_cache_hits(), 2u);
  EXPECT_GT(solver_iters.value(), iters_after_first);
}

TEST(ResourceController, PlanCacheInvalidatesOnDegradedEntryAndCanDisable) {
  auto& model = solver_model();
  ConfigurationSolver solver{model, {}};
  WorkloadAnalyzer analyzer{1, 2};
  analyzer.set_fanout({{1.0, 1.0}});
  ResourceController rc{model, solver, analyzer, {300.0, 300.0}, {2000.0, 2000.0},
                        {1000.0, 1000.0}};
  gnn::Dataset ref;
  gnn::Sample s;
  s.workload = {60.0, 60.0};
  s.quota = {1000.0, 1000.0};
  s.latency_ms = 100.0;
  ref.push_back(s);
  rc.set_training_reference(ref);
  telemetry::MetricsRegistry registry;
  rc.set_metrics(&registry);
  auto& solver_iters = registry.counter("core.solver_iterations_total");

  std::vector<Qps> api{50.0};
  rc.plan(api, 200.0);
  rc.plan(api, 200.0);
  ASSERT_EQ(rc.plan_cache_hits(), 1u);

  // An impossible SLO forces the degraded path; entering it clears the
  // cache, so the previously-hot key must miss and re-solve afterwards.
  const auto degraded = rc.plan(api, 1.0);
  ASSERT_TRUE(degraded.degraded);
  const double iters_before = solver_iters.value();
  rc.plan(api, 200.0);
  EXPECT_EQ(rc.plan_cache_hits(), 1u);
  EXPECT_GT(solver_iters.value(), iters_before);

  // Degraded plans themselves are never cached: a repeat of the impossible
  // SLO runs the full degraded path again (counted), not a cache hit.
  rc.plan(api, 1.0);
  rc.plan(api, 1.0);
  EXPECT_EQ(rc.degraded_plans(), 3u);
  EXPECT_EQ(rc.plan_cache_hits(), 1u);

  // Capacity 0 disables caching entirely.
  rc.set_plan_cache_capacity(0);
  rc.plan(api, 200.0);
  rc.plan(api, 200.0);
  EXPECT_EQ(rc.plan_cache_hits(), 1u);
}

// ---- LatencyPredictor -------------------------------------------------------

// The bench artifact cache persists trained stacks through save_model and
// load_model (a .grafck checkpoint): the reloaded predictor must predict
// with the saved bits, and a model of another shape must refuse the file.
TEST(LatencyPredictor, SaveLoadRoundTripIsBitIdentical) {
  gnn::MpnnConfig cfg;
  cfg.embed_dim = 8;
  cfg.mpnn_hidden = 8;
  cfg.readout_hidden = 24;
  LatencyPredictor saved{chain2(), cfg, 5};
  Rng rng{23};
  gnn::Dataset data;
  for (int i = 0; i < 400; ++i) {
    gnn::Sample s;
    const double w = rng.uniform(20.0, 80.0);
    s.workload = {w, w};
    s.quota = {rng.uniform(300.0, 2000.0), rng.uniform(300.0, 2000.0)};
    s.latency_ms = 40.0 * 1000.0 / s.quota[0] + 80.0 * 1000.0 / s.quota[1] + 0.8 * w;
    data.push_back(std::move(s));
  }
  saved.train(data, {.iterations = 200, .batch_size = 32, .lr = 2e-3, .eval_every = 100});
  const std::string path = ::testing::TempDir() + "/predictor_round_trip.grafck";
  saved.save_model(path);

  LatencyPredictor loaded{chain2(), cfg, 99};  // other initial weights
  ASSERT_TRUE(loaded.load_model(path));
  ASSERT_FALSE(saved.test_set().empty());
  for (const gnn::Sample& s : saved.test_set())
    EXPECT_EQ(loaded.model().predict(s.workload, s.quota),
              saved.model().predict(s.workload, s.quota));
  EXPECT_FALSE(loaded.load_model(path + ".missing"));

  cfg.embed_dim = 12;
  LatencyPredictor wider{chain2(), cfg, 5};
  EXPECT_THROW(wider.load_model(path), std::runtime_error);
  std::remove(path.c_str());
}

// ---- SampleCollector --------------------------------------------------------

TEST(SearchSpace, VolumeRatio) {
  SearchSpace sp;
  sp.lo = {500.0, 1000.0};
  sp.hi = {1500.0, 2000.0};
  // Each dimension keeps 1000/2000 = 0.5 -> 0.25 total.
  EXPECT_NEAR(sp.volume_ratio(0.0, 2000.0), 0.25, 1e-12);
}

TEST(SampleCollector, CollectsLabeledSamples) {
  auto topo = apps::bookinfo();
  sim::Cluster c = apps::make_cluster(topo, {.seed = 21});
  WorkloadAnalyzer analyzer{c.api_count(), c.service_count()};
  SampleCollectorConfig cfg;
  cfg.window = 4.0;
  cfg.warmup = 1.0;
  cfg.flush = 1.0;
  SampleCollector collector{c, analyzer, cfg};
  SearchSpace space;
  space.lo.assign(4, 500.0);
  space.hi.assign(4, 2000.0);
  std::vector<Qps> base{40.0};
  const auto ds = collector.collect(25, space, base, 0.6, 1.0);
  ASSERT_EQ(ds.size(), 25u);
  for (const auto& s : ds) {
    EXPECT_EQ(s.workload.size(), 4u);
    EXPECT_EQ(s.quota.size(), 4u);
    EXPECT_GT(s.latency_ms, 0.0);
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_GE(s.quota[i], 500.0);
      EXPECT_LE(s.quota[i], 2000.0);
    }
  }
  EXPECT_TRUE(analyzer.ready());
}

TEST(SampleCollector, ReduceSearchSpaceShrinksVolume) {
  auto topo = apps::bookinfo();
  sim::Cluster c = apps::make_cluster(topo, {.seed = 23});
  WorkloadAnalyzer analyzer{c.api_count(), c.service_count()};
  SampleCollectorConfig cfg;
  cfg.probe_window = 3.0;
  cfg.warmup = 1.0;
  cfg.flush = 0.5;
  SampleCollector collector{c, analyzer, cfg};
  std::vector<Qps> base{40.0};
  const auto space = collector.reduce_search_space(base, 200.0);
  ASSERT_EQ(space.lo.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_GE(space.lo[i], cfg.quota_floor);
    EXPECT_LE(space.hi[i], cfg.quota_hi);
    EXPECT_LT(space.lo[i], space.hi[i]);
  }
  EXPECT_LT(space.volume_ratio(cfg.quota_floor, cfg.quota_hi), 1.0);
}

TEST(SampleCollector, SimulatedSecondsTrackClusterClockAcrossRejections) {
  // Regression: the rejected-sample path used to skip billing the flush,
  // so simulated_seconds() under-reported the Table-3 time budget whenever
  // a window was discarded. Every second the cluster clock advances during
  // collection — calibration, warmup, window, and the flush after each
  // rejected draw — must land in simulated_seconds().
  auto topo = apps::bookinfo();
  sim::Cluster c = apps::make_cluster(topo, {.seed = 27});
  WorkloadAnalyzer analyzer{c.api_count(), c.service_count()};
  SampleCollectorConfig cfg;
  cfg.window = 1.0;
  cfg.warmup = 0.5;
  cfg.flush = 0.5;
  cfg.min_completions = 1000000;  // unreachable: every window is rejected
  SampleCollector collector{c, analyzer, cfg};
  SearchSpace space;
  space.lo.assign(4, 500.0);
  space.hi.assign(4, 2000.0);
  std::vector<Qps> base{40.0};
  const Seconds t0 = c.now();
  const auto rejected = collector.collect(1, space, base, 0.8, 1.0);
  EXPECT_TRUE(rejected.empty());
  EXPECT_NEAR(collector.simulated_seconds(), c.now() - t0, 1e-6);

  // The accepted path must agree with the clock too.
  cfg.min_completions = 10;
  SampleCollector accepting{c, analyzer, cfg};
  const Seconds t1 = c.now();
  const auto ds = accepting.collect(3, space, base, 0.8, 1.0);
  EXPECT_EQ(ds.size(), 3u);
  EXPECT_NEAR(accepting.simulated_seconds(), c.now() - t1, 1e-6);
}

TEST(SampleCollector, MeasureTailReturnsPositive) {
  auto topo = apps::bookinfo();
  sim::Cluster c = apps::make_cluster(topo, {.seed = 25});
  WorkloadAnalyzer analyzer{c.api_count(), c.service_count()};
  SampleCollector collector{c, analyzer, {}};
  for (int s = 0; s < 4; ++s) c.apply_total_quota(s, 2000.0, 1000.0);
  std::vector<Qps> base{40.0};
  const double tail = collector.measure_tail(base, 8.0, 99.0);
  EXPECT_GT(tail, 10.0);
  EXPECT_LT(tail, 500.0);
}

// ---- Cost model (Table 3) ---------------------------------------------------

TEST(CostModel, Table3PaperNumbers) {
  const auto c = training_cost(50000, 15.0, 16.0);
  EXPECT_NEAR(c.load_gen_hours, 208.3, 0.1);
  EXPECT_NEAR(c.worker_hours, 208.3, 0.1);
  EXPECT_NEAR(c.load_gen_usd, 20.83, 0.05);
  EXPECT_NEAR(c.worker_usd, 82.92, 0.05);
  EXPECT_NEAR(c.gpu_usd, 8.42, 0.05);
  EXPECT_NEAR(c.total_usd, 112.17, 0.15);
}

TEST(CostModel, ProfitGrowsWithPeriodAndSaving) {
  const auto c = training_cost(50000);
  EXPECT_LT(net_profit_usd(10.0, 1.0, c), net_profit_usd(10.0, 30.0, c));
  EXPECT_LT(net_profit_usd(5.0, 30.0, c), net_profit_usd(50.0, 30.0, c));
}

TEST(CostModel, BreakevenInverseInSaving) {
  const auto c = training_cost(50000);
  EXPECT_GT(breakeven_days(5.0, c), breakeven_days(50.0, c));
  EXPECT_TRUE(std::isinf(breakeven_days(0.0, c)));
}

}  // namespace
}  // namespace graf::core
