// Chaos drill: run the full GRAF control loop through every fault class the
// simulator can inject — instance crashes, Deployment creation outages, CPU
// throttles, telemetry blackouts — and watch it degrade gracefully instead
// of falling over. Also the determinism demo: the same seed replays the
// same faulted run bit-for-bit at 1 and at 8 worker threads.
//
// Trains a tiny 2-service model inline (a few seconds); no cached
// artifacts needed. Exits non-zero if the control loop threw, never
// degraded/recovered, or the thread-count replay diverged.
#include <iostream>
#include <string>
#include <vector>

#include "autoscalers/k8s_hpa.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "fleet/graf_controller.h"
#include "gnn/latency_model.h"
#include "sim/cluster.h"
#include "sim/fault_injector.h"
#include "telemetry/metrics.h"
#include "workload/open_loop.h"

namespace {

using namespace graf;

constexpr double kSlo = 220.0;
constexpr double kSurgeAt = 120.0;
constexpr double kEnd = 300.0;

gnn::Dag chain2() {
  gnn::Dag d;
  d.add_node("frontend");
  d.add_node("backend");
  d.add_edge(0, 1);
  return d;
}

/// Tiny model trained on the analytic latency surface of the 2-service
/// chain below — enough for the solver to make sensible trade-offs.
gnn::LatencyModel train_model() {
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
  tc.eval_every = 0;
  m.fit(data, {}, tc);
  return m;
}

sim::Cluster make_cluster() {
  std::vector<sim::ServiceConfig> svcs{
      {.name = "frontend", .unit_quota = 1000, .initial_instances = 2,
       .max_concurrency = 8, .demand_mean_ms = 10.0, .demand_sigma = 1.0},
      {.name = "backend", .unit_quota = 1000, .initial_instances = 2,
       .max_concurrency = 8, .demand_mean_ms = 20.0, .demand_sigma = 2.0},
  };
  sim::CallNode root{.service = 0, .stages = {{sim::CallNode{.service = 1}}}};
  return sim::Cluster{svcs, {sim::Api{"chain", root}}, {.seed = 29}};
}

/// The chaos weather for this drill — one deterministic schedule, reused
/// verbatim by every arm and every replay.
sim::FaultScheduleConfig fault_schedule() {
  sim::FaultScheduleConfig cfg;
  cfg.seed = 47;
  cfg.from = 60.0;
  cfg.until = 260.0;
  cfg.crash_per_min = 1.5;
  cfg.creation_outage_per_min = 0.4;
  cfg.creation_outage_duration = 25.0;
  cfg.creation_fail_after = 3.0;
  cfg.throttle_per_min = 0.8;
  cfg.throttle_duration = 30.0;
  cfg.blackout_per_min = 0.5;
  cfg.blackout_duration = 15.0;
  return cfg;
}

struct DrillResult {
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t violations = 0;  // ok but e2e > SLO
  std::size_t faults_fired = 0;
  int degraded_episodes = 0;   // gauge raised...
  int recoveries = 0;          // ...and cleared again
  double p99_ms = 0.0;
  std::uint64_t plan_failures = 0;

  double violation_pct() const {
    const double total = static_cast<double>(completed + failed);
    return total == 0.0
               ? 0.0
               : 100.0 * static_cast<double>(violations + failed) / total;
  }
};

/// One faulted surge run with the GRAF loop attached. Deterministic.
DrillResult run_graf() {
  sim::Cluster cluster = make_cluster();
  telemetry::MetricsRegistry registry;
  cluster.set_metrics(&registry);

  gnn::LatencyModel model = train_model();
  fleet::TenantSpec spec;
  spec.application = "chain";
  spec.slo_ms = kSlo;
  spec.model = &model;
  // lo bounds > unit_quota keep at least two replicas per service, so a
  // single crash during a creation outage never zeroes a tier.
  spec.lo = {1100.0, 1600.0};
  spec.hi = {2000.0, 2000.0};
  spec.unit = {1000.0, 1000.0};
  spec.fanout = {{1.0, 1.0}};
  gnn::Sample s;
  s.workload = {60.0, 60.0};
  s.quota = {1000.0, 1000.0};
  s.latency_ms = 100.0;
  spec.training_reference.push_back(s);
  fleet::GrafController graf{spec, {.control_interval = 2.0, .rate_window = 4.0}};
  graf.set_metrics(&registry);

  sim::FaultInjector injector{cluster};
  injector.set_metrics(&registry);
  injector.add(sim::FaultInjector::generate(fault_schedule(),
                                            cluster.service_count()));
  injector.arm();

  graf.attach(cluster, kEnd);

  DrillResult out;
  workload::OpenLoopConfig g;
  g.rate = workload::Schedule::step(20.0, 40.0, kSurgeAt);
  g.on_complete = [&](const trace::RequestTrace& t) {
    if (t.ok && t.e2e_ms() > kSlo) ++out.violations;
  };
  workload::OpenLoopGenerator gen{cluster, g};
  gen.start(kEnd);

  // Poll the tenant's degraded gauge each second to count raise/clear edges.
  const telemetry::Gauge& degraded =
      graf.tenant().metrics().gauge("fleet.tenant.degraded");
  bool was_degraded = false;
  for (double t = 1.0; t <= kEnd; t += 1.0) {
    cluster.run_until(t);
    const bool now_degraded = degraded.value() > 0.5;
    if (now_degraded && !was_degraded) ++out.degraded_episodes;
    if (!now_degraded && was_degraded) ++out.recoveries;
    was_degraded = now_degraded;
  }
  out.completed = cluster.completed();
  out.failed = cluster.failed();
  out.faults_fired = injector.fired();
  out.p99_ms = cluster.e2e_latency_all().percentile(99.0);
  out.plan_failures = graf.tenant().failures();
  return out;
}

/// The reactive baseline under the identical schedule.
DrillResult run_hpa() {
  sim::Cluster cluster = make_cluster();
  sim::FaultInjector injector{cluster};
  injector.add(sim::FaultInjector::generate(fault_schedule(),
                                            cluster.service_count()));
  injector.arm();
  autoscalers::K8sHpa hpa{
      {.target_utilization = 0.5, .stabilization_window = 60.0}};
  hpa.attach(cluster, kEnd);

  DrillResult out;
  workload::OpenLoopConfig g;
  g.rate = workload::Schedule::step(20.0, 40.0, kSurgeAt);
  g.on_complete = [&](const trace::RequestTrace& t) {
    if (t.ok && t.e2e_ms() > kSlo) ++out.violations;
  };
  workload::OpenLoopGenerator gen{cluster, g};
  gen.start(kEnd);
  cluster.run_until(kEnd);
  out.completed = cluster.completed();
  out.failed = cluster.failed();
  out.faults_fired = injector.fired();
  out.p99_ms = cluster.e2e_latency_all().percentile(99.0);
  return out;
}

}  // namespace

int main() {
  std::cerr << "chaos drill: training the model and running the GRAF arm...\n";
  const DrillResult graf_arm = run_graf();
  std::cerr << "chaos drill: running the reactive HPA arm...\n";
  const DrillResult hpa_arm = run_hpa();

  Table table{"Chaos drill: 20 -> 40 qps surge at t=120s, faults over [60, 260)s"};
  table.header({"arm", "SLO violation (%)", "failures", "completed",
                "p99 (ms)", "faults", "degraded/recovered"});
  table.row({"GRAF", Table::num(graf_arm.violation_pct(), 2),
             Table::integer(static_cast<long long>(graf_arm.failed)),
             Table::integer(static_cast<long long>(graf_arm.completed)),
             Table::num(graf_arm.p99_ms, 1),
             Table::integer(static_cast<long long>(graf_arm.faults_fired)),
             Table::integer(graf_arm.degraded_episodes) + "/" +
                 Table::integer(graf_arm.recoveries)});
  table.row({"K8s HPA (50%)", Table::num(hpa_arm.violation_pct(), 2),
             Table::integer(static_cast<long long>(hpa_arm.failed)),
             Table::integer(static_cast<long long>(hpa_arm.completed)),
             Table::num(hpa_arm.p99_ms, 1),
             Table::integer(static_cast<long long>(hpa_arm.faults_fired)),
             "-"});
  table.print(std::cout);

  // Determinism demo: the exact same faulted run at 1 and 8 worker threads.
  std::cerr << "chaos drill: replaying the GRAF arm at 1 and 8 threads...\n";
  set_global_threads(1);
  const DrillResult single = run_graf();
  set_global_threads(8);
  const DrillResult eight = run_graf();
  set_global_threads(0);  // restore the configured default
  const bool replay_ok = single.completed == eight.completed &&
                         single.failed == eight.failed &&
                         single.violations == eight.violations &&
                         single.faults_fired == eight.faults_fired &&
                         single.p99_ms == eight.p99_ms;  // bit-identical

  std::cout << "\nControl loop: " << graf_arm.plan_failures
            << " uncaught plan failures; degraded " << graf_arm.degraded_episodes
            << "x, recovered " << graf_arm.recoveries << "x.\n";
  std::cout << "Replay at 1 vs 8 threads: "
            << (replay_ok ? "bit-identical" : "DIVERGED") << " (p99 "
            << Table::num(single.p99_ms, 6) << " vs "
            << Table::num(eight.p99_ms, 6) << " ms).\n";

  const bool ok = replay_ok && graf_arm.plan_failures == 0 &&
                  graf_arm.degraded_episodes > 0 &&
                  graf_arm.recoveries == graf_arm.degraded_episodes;
  if (!ok) {
    std::cerr << "chaos drill: FAILED acceptance checks\n";
    return 1;
  }
  std::cout << "Chaos drill passed: no exceptions, degraded mode engaged and\n"
               "cleared, and the faulted run replays deterministically.\n";
  return 0;
}
