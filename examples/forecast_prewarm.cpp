// Forecast-driven pre-warming (DESIGN.md §3.11): an Azure-functions style
// trace with a doubling surge spliced in, planned twice — once with the
// ForecastGate live (plan for max(observed, predicted-at-horizon)) and once
// plan-alone. The forecast arm starts paying for the surge before the
// reactive arm can see it, which is the whole point: the simulator's ~5.5 s
// instance-creation delay means capacity ordered at detection time arrives
// late.
//
// Replays the forecast scenario at 1 and at 8 worker threads and exits
// non-zero if the exact-bits digests diverge — forecasts are pure functions
// of (config, seed, observed series), never of the thread count.
#include <bit>
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/catalog.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "core/workload_analyzer.h"
#include "fleet/graf_controller.h"
#include "forecast/gate.h"
#include "gnn/latency_model.h"
#include "workload/azure_trace.h"
#include "workload/open_loop.h"

namespace {

using namespace graf;

constexpr double kEnd = 420.0;
constexpr double kSurgeAt = 300.0;  // trace minutes 0-4, then the doubling

/// Train a small model on a utilization-shaped latency surface of the
/// topology (same inline-training idiom as examples/fleet_server.cpp, but
/// with an M/M/1-flavored label): per service, quota buys request capacity
/// and latency blows up as workload approaches it. That coupling is what
/// makes planning *workload-sensitive* — a boosted (forecast-adjusted)
/// demand genuinely needs more quota, so pre-warming is visible in the
/// instance trajectory.
gnn::LatencyModel train_model(const apps::Topology& topo, std::uint64_t seed) {
  const auto fanout = core::expected_fanout(topo);
  const std::size_t services = topo.service_count();
  gnn::MpnnConfig cfg;
  cfg.embed_dim = 8;
  cfg.mpnn_hidden = 8;
  cfg.readout_hidden = 24;
  cfg.dropout_p = 0.0;
  gnn::LatencyModel m{apps::make_dag(topo), cfg, seed};

  Rng rng{seed + 100};
  gnn::Dataset data;
  for (int i = 0; i < 1500; ++i) {
    gnn::Sample s;
    std::vector<double> api_w(topo.apis.size());
    for (double& w : api_w) w = rng.uniform(20.0, 240.0);
    s.workload.assign(services, 0.0);
    for (std::size_t a = 0; a < api_w.size(); ++a)
      for (std::size_t sv = 0; sv < services; ++sv)
        s.workload[sv] += api_w[a] * fanout[a][sv];
    s.quota.resize(services);
    double latency = 0.0;
    for (std::size_t sv = 0; sv < services; ++sv) {
      const double unit = topo.services[sv].unit_quota;
      const double d = topo.services[sv].demand_mean_ms;
      s.quota[sv] = rng.uniform(0.8 * unit, 6.0 * unit);
      // Requests/s this quota can absorb, then the M/M/1 blow-up.
      const double capacity = (s.quota[sv] / unit) * (1000.0 / d);
      const double util = std::min(s.workload[sv] / capacity, 0.95);
      latency += d / (1.0 - util);
    }
    s.latency_ms = latency;
    data.push_back(std::move(s));
  }
  gnn::TrainConfig tc;
  tc.iterations = 1200;
  tc.batch_size = 64;
  tc.lr = 2e-3;
  tc.lr_decay_every = 500;
  tc.eval_every = 0;
  tc.seed = seed;
  m.fit(data, {}, tc);
  return m;
}

/// Azure trace minutes rescaled to open-loop qps, then the doubling surge:
/// the first 5 trace minutes verbatim, then 2x the minute-4 rate.
workload::Schedule surge_trace() {
  workload::AzureTraceConfig cfg;
  cfg.minutes = 5;
  const auto qps = workload::rescale_series(workload::azure_invocation_series(cfg),
                                            60.0, 100.0);
  std::vector<std::pair<Seconds, double>> points;
  for (std::size_t m = 0; m < qps.size(); ++m)
    points.emplace_back(60.0 * static_cast<double>(m), qps[m]);
  points.emplace_back(kSurgeAt, 2.0 * qps.back());
  return workload::Schedule::piecewise(std::move(points));
}

struct RunResult {
  std::uint64_t prewarms = 0;
  std::uint64_t fallbacks = 0;
  int instances_pre_surge = 0;      // fleet size just before the surge hits
  int instances_after_surge = 0;    // 15 s in: did capacity arrive yet?
  int instances_at_end = 0;
  std::size_t violations = 0;  // e2e > SLO inside the convergence window
  std::size_t completed = 0;
  /// Exact-bits stream of every control tick's planned instance vector and
  /// the forecast boost in force; two replays agree iff it matches.
  std::string digest;
};

RunResult run(gnn::LatencyModel& model, bool with_forecast,
              double slo_ms) {
  const auto topo = apps::online_boutique();
  sim::Cluster cluster = apps::make_cluster(topo, {.seed = 21});

  fleet::TenantSpec spec;
  spec.application = topo.name;
  spec.slo_ms = slo_ms;
  spec.model = &model;
  for (const sim::ServiceConfig& svc : topo.services) {
    spec.lo.push_back(1.1 * svc.unit_quota);
    spec.hi.push_back(6.0 * svc.unit_quota);
    spec.unit.push_back(svc.unit_quota);
  }
  spec.fanout = core::expected_fanout(topo);
  spec.solver.max_iterations = 400;
  spec.forecast.enabled = with_forecast;
  spec.forecast.gate.horizon_steps = 2;  // 10 s lookahead > 5.5 s creation delay
  fleet::GrafController autoscaler{spec};
  autoscaler.attach(cluster, kEnd);

  RunResult out;
  workload::OpenLoopConfig g;
  g.rate = surge_trace();
  g.api_weights = topo.api_weights;
  g.seed = 9;
  g.on_complete = [&](const trace::RequestTrace& t) {
    // Measure the convergence window: the 90 s after the surge hits is
    // where pre-warmed capacity pays (afterwards both arms have caught up).
    if (cluster.now() < kSurgeAt || cluster.now() > kSurgeAt + 90.0 || !t.ok)
      return;
    ++out.completed;
    if (t.e2e_ms() > slo_ms) ++out.violations;
  };
  workload::OpenLoopGenerator gen{cluster, g};
  gen.start(kEnd);

  std::ostringstream digest;
  digest << std::hex;
  for (double t = 5.0; t <= kEnd; t += 5.0) {
    cluster.run_until(t);
    if (t == kSurgeAt - 5.0)
      out.instances_pre_surge = cluster.total_target_instances();
    if (t == kSurgeAt + 15.0)
      out.instances_after_surge = cluster.total_target_instances();
    digest << cluster.total_target_instances() << ',';
    if (const forecast::ForecastGate* gate = autoscaler.tenant().forecast_gate())
      digest << std::bit_cast<std::uint64_t>(gate->last_boost()) << ';';
  }
  out.instances_at_end = cluster.total_target_instances();
  if (const forecast::ForecastGate* gate = autoscaler.tenant().forecast_gate()) {
    out.prewarms = gate->prewarms();
    out.fallbacks = gate->fallbacks();
  }
  out.digest = digest.str();
  return out;
}

}  // namespace

int main() {
  const auto topo = apps::online_boutique();
  // Loose enough that the pre-surge load is comfortably feasible, tight
  // enough that serving the doubled load needs real extra quota.
  double demand_sum = 0.0;
  for (const sim::ServiceConfig& svc : topo.services)
    demand_sum += svc.demand_mean_ms;
  const double slo_ms = 2.5 * demand_sum;
  std::cerr << "forecast_prewarm: training the latency model...\n";
  gnn::LatencyModel model = train_model(topo, 13);

  std::cerr << "forecast_prewarm: planning the trace, forecast on/off...\n";
  const RunResult forecast_run = run(model, true, slo_ms);
  const RunResult plan_alone = run(model, false, slo_ms);

  Table table{"Azure trace + doubling surge at t=300 s (Online Boutique, SLO " +
              Table::num(slo_ms, 0) + " ms)"};
  table.header({"arm", "pre-warm ticks", "instances at surge-5s",
                "instances at surge+15s", "instances at end",
                "violations (surge+90s)", "completions"});
  table.row({"forecast+plan",
             Table::integer(static_cast<long long>(forecast_run.prewarms)),
             Table::integer(forecast_run.instances_pre_surge),
             Table::integer(forecast_run.instances_after_surge),
             Table::integer(forecast_run.instances_at_end),
             Table::integer(static_cast<long long>(forecast_run.violations)),
             Table::integer(static_cast<long long>(forecast_run.completed))});
  table.row({"plan-alone", "0", Table::integer(plan_alone.instances_pre_surge),
             Table::integer(plan_alone.instances_after_surge),
             Table::integer(plan_alone.instances_at_end),
             Table::integer(static_cast<long long>(plan_alone.violations)),
             Table::integer(static_cast<long long>(plan_alone.completed))});
  table.print(std::cout);
  std::cout << "The gate fell back " << forecast_run.fallbacks
            << " tick(s) (forecaster warm-up) and pre-warmed "
            << forecast_run.prewarms << " tick(s): capacity for the predicted\n"
            << "load is ordered before the observation catches up to it.\n";

  std::cerr << "forecast_prewarm: replaying at 1 and 8 threads...\n";
  set_global_threads(1);
  const RunResult single = run(model, true, slo_ms);
  set_global_threads(8);
  const RunResult eight = run(model, true, slo_ms);
  set_global_threads(0);

  const bool replay_ok = single.digest == eight.digest && !single.digest.empty();
  std::cout << "Determinism: forecast replay at 1 vs 8 threads "
            << (replay_ok ? "bit-identical" : "DIVERGED") << " ("
            << single.digest.size() << "-byte digest).\n";
  return replay_ok ? 0 : 1;
}
