// Chaos integration: the full GRAF control loop driven through every fault
// class the injector knows. The contract under test: the controller never
// throws, raises its tenant's `fleet.tenant.degraded` while it holds a stale
// plan, and recovers — gauge back to 0 — within a few control ticks of the
// fault clearing.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "core/configuration_solver.h"
#include "core/resource_controller.h"
#include "core/workload_analyzer.h"
#include "fleet/graf_controller.h"
#include "gnn/latency_model.h"
#include "sim/cluster.h"
#include "sim/fault_injector.h"
#include "telemetry/metrics.h"
#include "workload/open_loop.h"

namespace graf {
namespace {

gnn::Dag chain2() {
  gnn::Dag d;
  d.add_node("a");
  d.add_node("b");
  d.add_edge(0, 1);
  return d;
}

/// Tiny model trained on an analytic 2-service latency surface, once for
/// the file. Accuracy is irrelevant here — the chaos contract is about the
/// control loop's survival, not its plan quality.
gnn::LatencyModel& chaos_model() {
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

/// Light per-request demands so every quota the solver can pick inside the
/// [lo, hi] bounds below keeps the queues stable at the drive rate.
sim::Cluster chaos_cluster(std::uint64_t seed) {
  std::vector<sim::ServiceConfig> svcs{
      {.name = "a", .unit_quota = 1000, .initial_instances = 2,
       .max_concurrency = 8, .demand_mean_ms = 10.0, .demand_sigma = 1.0},
      {.name = "b", .unit_quota = 1000, .initial_instances = 2,
       .max_concurrency = 8, .demand_mean_ms = 20.0, .demand_sigma = 2.0},
  };
  sim::CallNode root{.service = 0, .stages = {{sim::CallNode{.service = 1}}}};
  return sim::Cluster{svcs, {sim::Api{"chain", root}}, {.seed = seed}};
}

/// The chaos cluster's tenant on the shared model.
fleet::TenantSpec chaos_spec(double slo_ms) {
  fleet::TenantSpec spec;
  spec.application = "chaos";
  spec.slo_ms = slo_ms;
  spec.model = &chaos_model();
  spec.lo = {800.0, 1500.0};
  spec.hi = {2000.0, 2000.0};
  spec.unit = {1000.0, 1000.0};
  spec.fanout = {{1.0, 1.0}};
  gnn::Sample s;
  s.workload = {60.0, 60.0};
  s.quota = {1000.0, 1000.0};
  s.latency_ms = 100.0;
  spec.training_reference.push_back(s);
  // Wide hysteresis band: the constant-rate drive must not trigger mid-run
  // re-solves that would race the test's explicit scale_to.
  spec.change_threshold = 0.5;
  return spec;
}

struct ChaosRig {
  sim::Cluster cluster;
  fleet::GrafController graf;
  telemetry::MetricsRegistry registry;

  explicit ChaosRig(std::uint64_t seed, double slo_ms = 220.0)
      : cluster{chaos_cluster(seed)},
        graf{chaos_spec(slo_ms), {.control_interval = 2.0, .rate_window = 4.0}} {
    cluster.set_metrics(&registry);
    graf.set_metrics(&registry);
  }

  fleet::Tenant& tenant() { return graf.tenant(); }
  double degraded_gauge() {
    return tenant().metrics().gauge("fleet.tenant.degraded").value();
  }
};

TEST(ChaosIntegration, SurvivesEveryFaultClassAndRecovers) {
  ChaosRig rig{31};
  sim::FaultInjector inj{rig.cluster};
  inj.set_metrics(&rig.registry);
  // One of everything, spread out so each recovery window is observable.
  inj.throttle_cpu(30.0, 10.0, 1, 0.5);
  inj.crash_instance(50.0, 0, 11, sim::CrashMode::kRequeue);
  inj.crash_instance(55.0, 1, 12, sim::CrashMode::kAbort);
  inj.degrade_creations(60.0, 15.0, /*fail=*/true, /*fail_after=*/2.0,
                        /*extra_delay=*/0.0);
  inj.blackout_telemetry(80.0, 10.0);
  inj.arm();
  // A scale-up lands mid-outage so the retry-with-backoff path runs too.
  rig.cluster.events().schedule_at(
      65.0, [&rig] { rig.cluster.service(0).scale_to(3); });

  rig.graf.attach(rig.cluster, 140.0);
  workload::OpenLoopConfig g;
  g.rate = workload::Schedule::constant(30.0);
  workload::OpenLoopGenerator gen{rig.cluster, g};
  gen.start(140.0);

  // Establish steady state: the loop has solved and is not degraded.
  rig.cluster.run_until(20.0);
  ASSERT_GT(rig.tenant().plans(), 0u);
  ASSERT_FALSE(rig.tenant().degraded());
  ASSERT_EQ(rig.degraded_gauge(), 0.0);

  // Throttle, crashes, creation outage: the loop must keep ticking without
  // a single plan failure (nothing in this band may throw).
  rig.cluster.run_until(78.0);
  EXPECT_EQ(rig.tenant().failures(), 0u);
  EXPECT_EQ(inj.fired(), 4u);
  EXPECT_EQ(rig.cluster.service(0).crashes(), 1u);
  EXPECT_EQ(rig.cluster.service(1).crashes(), 1u);
  EXPECT_GE(rig.cluster.service(0).creation_failures(), 2u);
  EXPECT_GE(rig.cluster.service(0).creation_retries(), 2u);

  // Telemetry blackout: the front-end qps signal vanishes. The controller
  // must hold its last plan and raise the degraded gauge, not act on zeros.
  rig.cluster.run_until(88.0);
  EXPECT_TRUE(rig.tenant().degraded());
  EXPECT_EQ(rig.degraded_gauge(), 1.0);
  EXPECT_GE(rig.cluster.total_target_instances(), 2);  // fleet held

  // Blackout clears at t=90; the loop must recover within 5 control ticks.
  rig.cluster.run_until(100.0);
  EXPECT_FALSE(rig.tenant().degraded());
  EXPECT_EQ(rig.degraded_gauge(), 0.0);
  EXPECT_EQ(rig.tenant().failures(), 0u);

  rig.cluster.run_until(140.0);
  // The run did real work and the overwhelming majority of it succeeded
  // (the abort-mode crash may fail a handful of in-flight requests).
  EXPECT_GT(rig.cluster.completed(), 3000u);
  EXPECT_LT(rig.cluster.failed(), rig.cluster.completed() / 20);
  // Every request is accounted for — nothing leaked through crash paths.
  EXPECT_EQ(rig.cluster.submitted(),
            rig.cluster.completed() + rig.cluster.failed() +
                rig.cluster.inflight());
}

TEST(ChaosIntegration, AnalyzerLossDegradesAndFanoutHeals) {
  // Degraded-mode entry without any injector: the analyzer never saw
  // fan-out, so the very first plan must fall back (hi-bound) instead of
  // throwing, and the gauge must say so.
  core::ConfigurationSolver solver{chaos_model(), {}};
  core::WorkloadAnalyzer analyzer{1, 2};  // ready() == false: no fanout yet
  core::ResourceController rc{chaos_model(), solver,           analyzer,
                              {800.0, 1500.0}, {2000.0, 2000.0},
                              {1000.0, 1000.0}};
  telemetry::MetricsRegistry registry;
  rc.set_metrics(&registry);
  const std::vector<Qps> api{40.0};
  const auto plan = rc.plan(api, 220.0);
  EXPECT_TRUE(plan.degraded);
  EXPECT_FALSE(plan.feasible);
  EXPECT_EQ(registry.gauge("core.degraded").value(), 1.0);
  EXPECT_EQ(registry.counter("faults.analyzer_not_ready").value(), 1.0);
  EXPECT_EQ(rc.degraded_plans(), 1u);

  // Fan-out arrives (tracer caught up): the next plan is clean again.
  analyzer.set_fanout({{1.0, 1.0}});
  gnn::Dataset ref;
  gnn::Sample s;
  s.workload = {60.0, 60.0};
  s.quota = {1000.0, 1000.0};
  s.latency_ms = 100.0;
  ref.push_back(s);
  rc.set_training_reference(ref);
  const auto healed = rc.plan(api, 220.0);
  EXPECT_FALSE(healed.degraded);
  EXPECT_EQ(registry.gauge("core.degraded").value(), 0.0);
}

// Determinism at the integration level: a faulted chaos run replays
// bit-identically (counters and tail) for the same seeds and schedule.
TEST(ChaosIntegration, FaultedControlLoopIsDeterministic) {
  auto run = [] {
    ChaosRig rig{41};
    sim::FaultInjector inj{rig.cluster};
    sim::FaultScheduleConfig cfg;
    cfg.seed = 5;
    cfg.until = 90.0;
    cfg.crash_per_min = 2.0;
    cfg.throttle_per_min = 1.0;
    cfg.creation_outage_per_min = 0.5;
    cfg.blackout_per_min = 0.5;
    inj.add(sim::FaultInjector::generate(cfg, rig.cluster.service_count()));
    inj.arm();
    rig.graf.attach(rig.cluster, 100.0);
    workload::OpenLoopConfig g;
    g.rate = workload::Schedule::constant(30.0);
    workload::OpenLoopGenerator gen{rig.cluster, g};
    gen.start(100.0);
    rig.cluster.run_until(100.0);
    return std::tuple{rig.cluster.completed(), rig.cluster.failed(),
                      rig.tenant().plans(), inj.fired(),
                      rig.cluster.e2e_latency_all().percentile(99.0)};
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(std::get<0>(a), std::get<0>(b));
  EXPECT_EQ(std::get<1>(a), std::get<1>(b));
  EXPECT_EQ(std::get<2>(a), std::get<2>(b));
  EXPECT_EQ(std::get<3>(a), std::get<3>(b));
  EXPECT_DOUBLE_EQ(std::get<4>(a), std::get<4>(b));
}

}  // namespace
}  // namespace graf
