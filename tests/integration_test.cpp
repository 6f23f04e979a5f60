// End-to-end integration: the full GRAF pipeline (Algorithm 1 -> sample
// collection -> GNN training -> gradient-descent solving -> deployment)
// against a live simulated cluster, plus the closed control loop reacting
// to workload change. Uses a small Bookinfo stack so the whole suite stays
// in tens of seconds.
#include <gtest/gtest.h>

#include "apps/catalog.h"
#include "core/configuration_solver.h"
#include "core/latency_predictor.h"
#include "core/sample_collector.h"
#include "core/workload_analyzer.h"
#include "fleet/graf_controller.h"
#include "telemetry/metrics.h"
#include "workload/closed_loop.h"
#include "workload/open_loop.h"

namespace graf {
namespace {

constexpr double kSlo = 130.0;

/// One trained Bookinfo stack for the whole file.
struct MiniStack {
  apps::Topology topo = apps::bookinfo();
  core::SearchSpace space;
  std::vector<std::vector<double>> fanout;
  gnn::Dataset dataset;
  std::unique_ptr<core::LatencyPredictor> predictor;
  std::vector<Qps> base{45.0};
};

MiniStack& mini_stack() {
  static MiniStack stack = [] {
    MiniStack st;
    sim::Cluster cluster = apps::make_cluster(st.topo, {.seed = 101});
    core::WorkloadAnalyzer analyzer{cluster.api_count(), cluster.service_count()};
    core::SampleCollectorConfig scfg;
    scfg.window = 6.0;
    scfg.warmup = 1.5;
    scfg.flush = 1.0;
    scfg.probe_window = 3.0;
    core::SampleCollector collector{cluster, analyzer, scfg};
    st.space = collector.reduce_search_space(st.base, kSlo);
    st.dataset = collector.collect(1200, st.space, st.base, 0.5, 1.1);
    st.fanout = analyzer.fanout();
    st.predictor = std::make_unique<core::LatencyPredictor>(
        apps::make_dag(st.topo), gnn::MpnnConfig{}, 103);
    gnn::TrainConfig tcfg;
    tcfg.iterations = 3000;
    tcfg.batch_size = 128;
    tcfg.lr = 1e-3;
    tcfg.lr_decay_every = 800;
    tcfg.eval_every = 300;
    st.predictor->train(st.dataset, tcfg);
    return st;
  }();
  return stack;
}

/// The mini stack as GRAF's tenant (1000-mc instance units).
fleet::TenantSpec mini_spec() {
  auto& st = mini_stack();
  fleet::TenantSpec spec;
  spec.application = st.topo.name;
  spec.slo_ms = kSlo;
  spec.model = &st.predictor->model();
  spec.lo = st.space.lo;
  spec.hi = st.space.hi;
  spec.unit.assign(st.topo.service_count(), 1000.0);
  spec.fanout = st.fanout;
  spec.training_reference = st.dataset;
  return spec;
}

TEST(Integration, SearchSpaceIsReduced) {
  auto& st = mini_stack();
  core::SampleCollectorConfig scfg;
  const double ratio = st.space.volume_ratio(scfg.quota_floor, scfg.quota_hi);
  EXPECT_LT(ratio, 1.0);
  for (std::size_t s = 0; s < st.space.lo.size(); ++s)
    EXPECT_LT(st.space.lo[s], st.space.hi[s]);
}

TEST(Integration, DatasetLabelsSpanTheSloRegion) {
  auto& st = mini_stack();
  ASSERT_GE(st.dataset.size(), 1000u);
  double below = 0.0;
  double above = 0.0;
  for (const auto& s : st.dataset) (s.latency_ms <= kSlo ? below : above) += 1.0;
  // Both sides of the SLO boundary are represented.
  EXPECT_GT(below, 50.0);
  EXPECT_GT(above, 50.0);
}

TEST(Integration, ModelAccuracyIsUsable) {
  auto& st = mini_stack();
  const auto acc = st.predictor->model().evaluate_accuracy(st.predictor->test_set());
  EXPECT_LT(acc.mean_abs_pct_error, 35.0);  // paper reports 21-32%
}

TEST(Integration, SolveDeployMeasureMeetsRelaxedSlo) {
  auto& st = mini_stack();
  core::ConfigurationSolver solver{st.predictor->model()};
  core::WorkloadAnalyzer analyzer{1, st.topo.service_count()};
  analyzer.set_fanout(st.fanout);
  const auto workload = analyzer.distribute(st.base);
  const auto res = solver.solve(workload, kSlo, st.space.lo, st.space.hi);

  sim::Cluster cluster = apps::make_cluster(st.topo, {.seed = 107});
  for (std::size_t s = 0; s < res.quota.size(); ++s)
    cluster.apply_total_quota(static_cast<int>(s), res.quota[s], 1000.0);
  core::SampleCollector measurer{cluster, analyzer, {}};
  const double measured = measurer.measure_tail(st.base, 15.0, 99.0);
  // Prediction-error tolerance: the measured tail stays within 1.6x of the
  // SLO (the paper's Fig. 17 scatter hugs the target similarly).
  EXPECT_GT(measured, 0.0);
  EXPECT_LT(measured, kSlo * 1.6);
}

TEST(Integration, TighterSloDeploysMoreCpu) {
  auto& st = mini_stack();
  core::ConfigurationSolver solver{st.predictor->model()};
  core::WorkloadAnalyzer analyzer{1, st.topo.service_count()};
  analyzer.set_fanout(st.fanout);
  const auto workload = analyzer.distribute(st.base);
  const auto tight = solver.solve(workload, kSlo * 0.85, st.space.lo, st.space.hi);
  const auto loose = solver.solve(workload, kSlo * 1.8, st.space.lo, st.space.hi);
  double tight_total = 0.0;
  double loose_total = 0.0;
  for (double q : tight.quota) tight_total += q;
  for (double q : loose.quota) loose_total += q;
  EXPECT_GT(tight_total, loose_total);
}

TEST(Integration, GrafControllerReactsToWorkloadChange) {
  auto& st = mini_stack();
  fleet::GrafController graf{mini_spec()};

  sim::Cluster cluster = apps::make_cluster(st.topo, {.seed = 109});
  graf.attach(cluster, 400.0);

  workload::OpenLoopConfig g;
  g.rate = workload::Schedule::step(20.0, 45.0, 120.0);
  workload::OpenLoopGenerator gen{cluster, g};
  gen.start(400.0);

  cluster.run_until(110.0);
  const int before = cluster.total_target_instances();
  EXPECT_GT(graf.tenant().plans(), 0u);
  cluster.run_until(200.0);
  const int after = cluster.total_target_instances();
  // More traffic -> the controller planned (weakly) more instances.
  EXPECT_GE(after, before);
  // And the SLO holds in steady state after the change.
  const double p99 = cluster.e2e_latency_all().percentile_since(160.0, 99.0);
  EXPECT_LT(p99, kSlo * 1.6);
}

TEST(Integration, GrafScalesBackDownAfterLoadDrop) {
  auto& st = mini_stack();
  fleet::GrafController graf{mini_spec()};

  sim::Cluster cluster = apps::make_cluster(st.topo, {.seed = 111});
  graf.attach(cluster, 500.0);
  workload::OpenLoopConfig g;
  g.rate = workload::Schedule::piecewise({{0.0, 45.0}, {200.0, 15.0}});
  workload::OpenLoopGenerator gen{cluster, g};
  gen.start(500.0);

  cluster.run_until(190.0);
  const int high = cluster.total_target_instances();
  cluster.run_until(400.0);
  const int low = cluster.total_target_instances();
  // GRAF follows the workload down without a 5-minute stabilization lag
  // (paper Fig. 20's contrast with the HPA).
  EXPECT_LE(low, high);
}

TEST(Integration, GrafReattachKillsStaleTickChain) {
  // Regression: re-attaching the controller used to leave the previous
  // attachment's tick chain alive in the event queue, doubling the control
  // cadence (and double-solving) forever after.
  auto& st = mini_stack();
  fleet::GrafController graf{mini_spec()};

  sim::Cluster cluster = apps::make_cluster(st.topo, {.seed = 113});
  graf.attach(cluster, 1000.0);
  cluster.run_until(18.0);  // first chain ticks at 5, 10, 15
  EXPECT_EQ(graf.ticks(), 3u);
  graf.attach(cluster, 1000.0);  // re-attach to the same cluster
  cluster.run_until(44.0);       // exactly one live chain afterwards
  EXPECT_EQ(graf.ticks(), 5u);
}

TEST(Integration, GrafFirstTickPublishesIntervalP99NotCumulativeHistory) {
  // Regression: the first tick after attach() used to publish the cluster's
  // *cumulative* e2e p99 — history from before the controller existed —
  // instead of the p99 of its own first control interval.
  auto& st = mini_stack();
  fleet::GrafController graf{mini_spec()};

  telemetry::MetricsRegistry registry;
  sim::Cluster cluster = apps::make_cluster(st.topo, {.seed = 115});
  cluster.set_metrics(&registry);

  // Phase 1 (pre-attach): starved quotas build a slow cumulative history.
  for (int s = 0; s < static_cast<int>(st.topo.service_count()); ++s)
    cluster.apply_total_quota(s, 300.0, 1000.0);
  workload::OpenLoopConfig g1;
  g1.rate = workload::Schedule::constant(45.0);
  workload::OpenLoopGenerator gen1{cluster, g1};
  gen1.start(60.0);
  cluster.run_until(60.0);
  const double cumulative_p99 =
      cluster.e2e_histogram()->snapshot().percentile(99.0);
  ASSERT_GT(cumulative_p99, kSlo);  // the history really is slow

  // Phase 2: drain the backlog, give generous quotas, attach, run ONE tick.
  cluster.hard_reset_load();
  for (int s = 0; s < static_cast<int>(st.topo.service_count()); ++s)
    cluster.apply_total_quota(s, 2500.0, 1000.0);
  graf.set_metrics(&registry);
  graf.attach(cluster, 1000.0);
  workload::OpenLoopConfig g2;
  g2.rate = workload::Schedule::constant(45.0);
  workload::OpenLoopGenerator gen2{cluster, g2};
  gen2.start(1000.0);
  cluster.run_until(66.0);
  ASSERT_EQ(graf.ticks(), 1u);

  const double published = registry.gauge("core.measured_p99_ms").value();
  ASSERT_GT(published, 0.0);
  // Only the post-attach interval may be reflected, not the starved past.
  EXPECT_LT(published, cumulative_p99 * 0.5);
}

}  // namespace
}  // namespace graf
