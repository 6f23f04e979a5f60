// Forecast-mode evaluation (DESIGN.md §3.11): the same proactive GRAF
// control loop run three ways — forecast+plan (the ForecastGate pre-warms
// capacity by planning for max(observed, predicted-at-horizon)), plan-alone
// (PR-1..6 behavior), and the tuned Kubernetes HPA — under (a) a doubling
// Locust surge and (b) an Azure-functions style trace schedule.
//
// The claim under test: pre-warming against the forecast's upper band buys
// a strictly lower SLO-violation rate on the surge than planning for the
// observed load, at a bounded over-provisioning cost. Headline rates land
// in BENCH_perf.json under forecast_surge.* (merged, so bench_perf_micro's
// rows are preserved), and the exit code enforces the surge claim.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "autoscalers/k8s_hpa.h"
#include "bench_common.h"
#include "common/table.h"
#include "fleet/graf_controller.h"
#include "forecast/gate.h"
#include "workload/azure_trace.h"
#include "workload/closed_loop.h"

namespace {

constexpr double kSurgeAt = 150.0;
constexpr double kSurgeEnd = 500.0;
constexpr double kAzureEnd = 900.0;

struct ArmResult {
  std::string name;
  std::size_t measured = 0;    // completions inside the measurement window
  std::size_t violations = 0;  // e2e > SLO
  std::size_t failures = 0;    // timeouts / aborted in-flight work
  double core_seconds = 0.0;   // integral of allocated quota over the window
  double overprov_core_s = 0.0;  // filled in against the cheapest arm
  std::vector<double> quota_samples;  // total millicores, every 5 s

  double violation_pct() const {
    const double total = static_cast<double>(measured + failures);
    return total == 0.0
               ? 0.0
               : 100.0 * static_cast<double>(violations + failures) / total;
  }
};

/// Drive `cluster` under the closed-loop `users` schedule until `end`,
/// counting SLO conformance from `measure_from` on and integrating the
/// allocated quota (5 s sampling, the control-tick cadence).
ArmResult run(const std::string& name, graf::sim::Cluster& cluster,
              const graf::workload::Schedule& users,
              const std::vector<double>& weights, double slo,
              double measure_from, double end) {
  using namespace graf;
  ArmResult out;
  out.name = name;
  workload::ClosedLoopConfig g;
  g.users = users;
  g.api_weights = weights;
  g.seed = 85;
  g.on_complete = [&](const trace::RequestTrace& t) {
    if (cluster.now() < measure_from) return;
    if (!t.ok) {
      ++out.failures;
    } else {
      ++out.measured;
      if (t.e2e_ms() > slo) ++out.violations;
    }
  };
  workload::ClosedLoopGenerator gen{cluster, g};
  gen.start(end);
  for (double t = 5.0; t <= end; t += 5.0) {
    cluster.run_until(t);
    if (t < measure_from) continue;
    const double quota = cluster.total_quota();
    out.quota_samples.push_back(quota);
    out.core_seconds += quota / 1000.0 * 5.0;
  }
  return out;
}

/// Over-provisioning against the cheapest allocation any arm used at each
/// instant: all arms serve the identical workload, so the per-tick minimum
/// is a served-the-load witness and the excess above it is capacity that
/// bought nothing at that moment.
void fill_overprovisioning(std::vector<ArmResult>& arms) {
  std::size_t ticks = arms.front().quota_samples.size();
  for (const auto& a : arms) ticks = std::min(ticks, a.quota_samples.size());
  for (std::size_t i = 0; i < ticks; ++i) {
    double needed = arms.front().quota_samples[i];
    for (const auto& a : arms) needed = std::min(needed, a.quota_samples[i]);
    for (auto& a : arms)
      a.overprov_core_s += (a.quota_samples[i] - needed) / 1000.0 * 5.0;
  }
}

void report(const std::string& title, const std::vector<ArmResult>& arms) {
  using graf::Table;
  Table table{title};
  table.header({"arm", "SLO violation (%)", "violations", "failures",
                "completions", "core-seconds", "over-prov core-s"});
  for (const auto& a : arms) {
    table.row({a.name, Table::num(a.violation_pct(), 2),
               Table::integer(static_cast<long long>(a.violations)),
               Table::integer(static_cast<long long>(a.failures)),
               Table::integer(static_cast<long long>(a.measured)),
               Table::num(a.core_seconds, 0),
               Table::num(a.overprov_core_s, 0)});
  }
  table.print(std::cout);
}

/// GRAF's tenant for `stack` in forecast mode.
graf::fleet::TenantSpec forecast_spec(graf::bench::TrainedStack& stack,
                                      double slo_ms) {
  graf::fleet::TenantSpec spec = graf::bench::graf_spec(stack, slo_ms);
  spec.forecast.enabled = true;
  // Horizon 2 control ticks = 10 s of lookahead: covers the simulator's
  // ~5.5 s instance-creation delay with margin (DESIGN.md §3.11).
  spec.forecast.gate.horizon_steps = 2;
  return spec;
}

}  // namespace

int main() {
  using namespace graf;
  auto stack = bench::build_or_load_stack(bench::online_boutique_stack_config());
  const double slo = stack.default_slo_ms;
  const auto& weights = stack.topo.api_weights;
  const double thr = bench::tune_hpa_threshold(stack.topo, 1250.0, slo, 81);

  // -- (a) doubling surge: 625 -> 1250 Locust threads at t=150 s ------------
  const auto surge = workload::Schedule::step(625.0, 1250.0, kSurgeAt);
  std::vector<ArmResult> surge_arms;
  {
    sim::Cluster cluster = apps::make_cluster(stack.topo, {.seed = 83});
    fleet::GrafController graf{forecast_spec(stack, slo)};
    graf.attach(cluster, kSurgeEnd);
    surge_arms.push_back(run("GRAF forecast+plan", cluster, surge, weights,
                             slo, kSurgeAt, kSurgeEnd));
    const forecast::ForecastGate& gate = *graf.tenant().forecast_gate();
    std::cerr << "forecast arm: " << gate.prewarms() << " pre-warm ticks, "
              << gate.fallbacks() << " fallbacks\n";
  }
  {
    sim::Cluster cluster = apps::make_cluster(stack.topo, {.seed = 83});
    fleet::GrafController graf{bench::graf_spec(stack, slo)};
    graf.attach(cluster, kSurgeEnd);
    surge_arms.push_back(run("GRAF plan-alone", cluster, surge, weights, slo,
                             kSurgeAt, kSurgeEnd));
  }
  {
    sim::Cluster cluster = apps::make_cluster(stack.topo, {.seed = 83});
    autoscalers::K8sHpa hpa{{.target_utilization = thr}};
    hpa.attach(cluster, kSurgeEnd);
    surge_arms.push_back(run("K8s HPA (tuned)", cluster, surge, weights, slo,
                             kSurgeAt, kSurgeEnd));
  }
  fill_overprovisioning(surge_arms);
  report("Doubling surge: users 625 -> 1250 at t=150 s, measured from the surge",
         surge_arms);

  // -- (b) Azure trace: diurnal + bursts, users in [450, 1350] --------------
  const workload::AzureTraceConfig trace_cfg{};
  const auto azure = workload::azure_user_schedule(trace_cfg, 450.0, 1350.0);
  std::vector<ArmResult> azure_arms;
  {
    sim::Cluster cluster = apps::make_cluster(stack.topo, {.seed = 73});
    fleet::GrafController graf{forecast_spec(stack, slo)};
    graf.attach(cluster, kAzureEnd);
    azure_arms.push_back(run("GRAF forecast+plan", cluster, azure, weights,
                             slo, 60.0, kAzureEnd));
  }
  {
    sim::Cluster cluster = apps::make_cluster(stack.topo, {.seed = 73});
    fleet::GrafController graf{bench::graf_spec(stack, slo)};
    graf.attach(cluster, kAzureEnd);
    azure_arms.push_back(
        run("GRAF plan-alone", cluster, azure, weights, slo, 60.0, kAzureEnd));
  }
  {
    sim::Cluster cluster = apps::make_cluster(stack.topo, {.seed = 73});
    autoscalers::K8sHpa hpa{{.target_utilization = thr}};
    hpa.attach(cluster, kAzureEnd);
    azure_arms.push_back(
        run("K8s HPA (tuned)", cluster, azure, weights, slo, 60.0, kAzureEnd));
  }
  fill_overprovisioning(azure_arms);
  report("Azure trace: users in [450, 1350], measured from t=60 s", azure_arms);

  std::cout << "Shape check: pre-warming against the forecast's upper band "
               "should cut the\nsurge violation rate below plan-alone at a "
               "bounded over-provisioning cost.\n";

  const ArmResult& fc = surge_arms[0];
  const ArmResult& plan = surge_arms[1];
  const ArmResult& hpa = surge_arms[2];
  bench::results().record("forecast_surge.forecast.slo_violation_pct",
                          fc.violation_pct(), "%");
  bench::results().record("forecast_surge.plan_alone.slo_violation_pct",
                          plan.violation_pct(), "%");
  bench::results().record("forecast_surge.k8s_hpa.slo_violation_pct",
                          hpa.violation_pct(), "%");
  bench::results().record("forecast_surge.forecast.overprov_core_seconds",
                          fc.overprov_core_s, "core-s");
  bench::results().record("forecast_surge.plan_alone.overprov_core_seconds",
                          plan.overprov_core_s, "core-s");
  bench::results().record("forecast_surge.k8s_hpa.overprov_core_seconds",
                          hpa.overprov_core_s, "core-s");
  bench::results().record("forecast_surge.azure.forecast.slo_violation_pct",
                          azure_arms[0].violation_pct(), "%");
  bench::results().record("forecast_surge.azure.plan_alone.slo_violation_pct",
                          azure_arms[1].violation_pct(), "%");
  bench::results().record("forecast_surge.azure.k8s_hpa.slo_violation_pct",
                          azure_arms[2].violation_pct(), "%");
  // Preserve the micro-bench rows already tracked in BENCH_perf.json.
  bench::results().merge_json_file(bench::bench_out_path("BENCH_perf.json"));
  bench::write_bench_results("BENCH_perf.json");

  // The PR-7 acceptance criterion: forecast+plan strictly beats plan-alone
  // on the doubling surge.
  return fc.violation_pct() < plan.violation_pct() ? 0 : 1;
}
