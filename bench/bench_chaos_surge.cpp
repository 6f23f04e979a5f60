// Surge under faults (ISSUE 4 acceptance / a chaos-hardened Fig. 21-22):
// the Locust population doubles mid-run while a deterministic fault
// schedule crashes instances, degrades Deployment creations, throttles CPU,
// and blacks out telemetry. GRAF (whole-chain proactive allocation with the
// degraded-mode fallbacks) vs the tuned Kubernetes HPA under the *identical*
// schedule — the claim is that proactive allocation plus graceful
// degradation keeps the SLO-violation rate below the reactive baseline even
// when the substrate misbehaves. Key rates land in BENCH_perf.json
// (merged, so bench_perf_micro's rows are preserved).
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "autoscalers/k8s_hpa.h"
#include "bench_common.h"
#include "common/table.h"
#include "fleet/graf_controller.h"
#include "sim/fault_injector.h"
#include "workload/closed_loop.h"

namespace {

constexpr double kSurgeAt = 150.0;
constexpr double kEnd = 500.0;

graf::sim::FaultScheduleConfig fault_schedule() {
  graf::sim::FaultScheduleConfig cfg;
  cfg.seed = 211;
  cfg.from = 100.0;  // steady state first, then the weather turns
  cfg.until = 400.0;
  cfg.crash_per_min = 1.5;
  cfg.crash_abort_fraction = 0.5;
  cfg.creation_outage_per_min = 0.4;
  cfg.creation_outage_duration = 30.0;
  cfg.creation_fail_after = 5.0;
  cfg.throttle_per_min = 1.0;
  cfg.throttle_duration = 45.0;
  cfg.throttle_factor_lo = 0.4;
  cfg.throttle_factor_hi = 0.7;
  cfg.blackout_per_min = 0.4;
  cfg.blackout_duration = 20.0;
  return cfg;
}

struct ArmResult {
  std::string name;
  std::size_t measured = 0;    // completions after the surge
  std::size_t violations = 0;  // e2e > SLO
  std::size_t failures = 0;    // timeouts / aborted in-flight work
  int instances_at_end = 0;
  std::size_t faults_fired = 0;

  double violation_pct() const {
    const double total = static_cast<double>(measured + failures);
    return total == 0.0
               ? 0.0
               : 100.0 * static_cast<double>(violations + failures) / total;
  }
};

ArmResult run(const std::string& name, graf::sim::Cluster& cluster,
              double users_before, double users_after, double slo) {
  using namespace graf;
  sim::FaultInjector injector{cluster};
  injector.add(sim::FaultInjector::generate(fault_schedule(),
                                            cluster.service_count()));
  injector.arm();

  ArmResult out;
  out.name = name;
  workload::ClosedLoopConfig g;
  g.users = workload::Schedule::step(users_before, users_after, kSurgeAt);
  g.api_weights = apps::online_boutique().api_weights;
  g.seed = 85;
  g.on_complete = [&](const trace::RequestTrace& t) {
    if (cluster.now() < kSurgeAt) return;  // measure surge + fault window
    if (!t.ok) {
      ++out.failures;
    } else {
      ++out.measured;
      if (t.e2e_ms() > slo) ++out.violations;
    }
  };
  workload::ClosedLoopGenerator gen{cluster, g};
  gen.start(kEnd);
  cluster.run_until(kEnd);
  out.instances_at_end = cluster.total_target_instances();
  out.faults_fired = injector.fired();
  return out;
}

}  // namespace

int main() {
  using namespace graf;
  auto stack = bench::build_or_load_stack(bench::online_boutique_stack_config());
  const double slo = stack.default_slo_ms;
  const double thr = bench::tune_hpa_threshold(stack.topo, 1250.0, slo, 81);
  const double users_before = 625.0;
  const double users_after = 1250.0;

  std::vector<ArmResult> arms;
  {
    sim::Cluster cluster = apps::make_cluster(stack.topo, {.seed = 83});
    fleet::GrafController graf{bench::graf_spec(stack, slo)};
    graf.attach(cluster, kEnd);
    arms.push_back(run("GRAF", cluster, users_before, users_after, slo));
  }
  {
    sim::Cluster cluster = apps::make_cluster(stack.topo, {.seed = 83});
    autoscalers::K8sHpa hpa{{.target_utilization = thr}};
    hpa.attach(cluster, kEnd);
    arms.push_back(
        run("K8s Autoscaler", cluster, users_before, users_after, slo));
  }

  Table table{"Surge under faults: users " + Table::num(users_before, 0) +
              " -> " + Table::num(users_after, 0) +
              " at t=150s, chaos schedule seed 211"};
  table.header({"arm", "SLO violation (%)", "violations", "failures",
                "completions", "instances at end", "faults fired"});
  for (const auto& a : arms) {
    table.row({a.name, Table::num(a.violation_pct(), 2),
               Table::integer(static_cast<long long>(a.violations)),
               Table::integer(static_cast<long long>(a.failures)),
               Table::integer(static_cast<long long>(a.measured)),
               Table::integer(a.instances_at_end),
               Table::integer(static_cast<long long>(a.faults_fired))});
  }
  table.print(std::cout);

  const ArmResult& graf_arm = arms[0];
  const ArmResult& hpa_arm = arms[1];
  std::cout << "Shape check: identical fault schedule on both arms; GRAF's "
               "violation rate\nshould stay below the reactive HPA's.\n";

  bench::results().record("chaos_surge.graf.slo_violation_pct",
                          graf_arm.violation_pct(), "%");
  bench::results().record("chaos_surge.k8s_hpa.slo_violation_pct",
                          hpa_arm.violation_pct(), "%");
  bench::results().record("chaos_surge.graf.failures",
                          static_cast<double>(graf_arm.failures), "requests");
  bench::results().record("chaos_surge.k8s_hpa.failures",
                          static_cast<double>(hpa_arm.failures), "requests");
  bench::results().record("chaos_surge.faults_fired",
                          static_cast<double>(graf_arm.faults_fired), "events");
  // Preserve the micro-bench rows already tracked in BENCH_perf.json.
  bench::results().merge_json_file(bench::bench_out_path("BENCH_perf.json"));
  bench::write_bench_results("BENCH_perf.json");
  return graf_arm.violation_pct() <= hpa_arm.violation_pct() ? 0 : 1;
}
