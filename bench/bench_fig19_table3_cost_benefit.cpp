// Table 3 + Figure 19 (§5.3 cost-benefit): what sample collection and
// training cost on AWS EC2, and for which (update period, workload) region
// adopting GRAF is profitable. Table 3 reproduces the paper's numbers
// exactly (it is a pricing computation); Figure 19's frontier combines the
// cost with a measured saved-instances-per-qps slope.
#include <iostream>

#include "autoscalers/k8s_hpa.h"
#include "bench_common.h"
#include "common/table.h"
#include "core/cost_model.h"
#include "fleet/graf_controller.h"

int main() {
  using namespace graf;

  // ---- Table 3 (paper-exact pricing computation) ---------------------------
  const auto cost = core::training_cost(50000, 15.0, 16.0);
  Table t3{"Table 3: expected budget for 50k samples + training (AWS EC2)"};
  t3.header({"module", "instance", "time (h)", "budget ($)"});
  t3.row({"Load Generator", "c4.large", Table::num(cost.load_gen_hours, 1),
          Table::num(cost.load_gen_usd, 2)});
  t3.row({"Worker Node", "c4.2xlarge", Table::num(cost.worker_hours, 1),
          Table::num(cost.worker_usd, 2)});
  t3.row({"Model Training", "g4dn.xlarge", Table::num(cost.gpu_hours, 1),
          Table::num(cost.gpu_usd, 2)});
  t3.print(std::cout);
  std::cout << "Total: $" << Table::num(cost.total_usd, 2)
            << " (paper: $112.17)\n\n";

  // ---- Figure 19: profit frontier ------------------------------------------
  // Measure the saved-instances slope once at a reference workload.
  auto stack = bench::build_or_load_stack(bench::online_boutique_stack_config());
  const double users = 1250.0;
  const double thr =
      bench::tune_hpa_threshold(stack.topo, users, stack.default_slo_ms, 61);
  bench::SteadyStateResult graf_res;
  {
    sim::Cluster cluster = apps::make_cluster(stack.topo, {.seed = 63});
    fleet::GrafController graf{bench::graf_spec(stack, stack.default_slo_ms)};
    graf.attach(cluster, 1e9);
    graf_res = bench::measure_steady_state(cluster, users, stack.topo.api_weights,
                                           240.0, 120.0, 65);
  }
  bench::SteadyStateResult hpa_res;
  {
    sim::Cluster cluster = apps::make_cluster(stack.topo, {.seed = 63});
    autoscalers::K8sHpa hpa{{.target_utilization = thr}};
    hpa.attach(cluster, 1e9);
    hpa_res = bench::measure_steady_state(cluster, users, stack.topo.api_weights,
                                          240.0, 120.0, 65);
  }
  const double ref_qps = users / 2.6;  // think-time-dominated closed loop
  const double saved_per_qps =
      std::max(0.0, (hpa_res.mean_total_instances - graf_res.mean_total_instances) /
                        ref_qps);
  std::cout << "Measured saving: " << Table::num(saved_per_qps, 3)
            << " instances per qps (at ~" << Table::num(ref_qps, 0) << " qps)\n";

  Table fig19{"Figure 19: breakeven workload vs microservice update period"};
  fig19.header({"update period (days)", "breakeven workload (qps)",
                "profit at 2000 qps ($)"});
  for (double days : {5.0, 10.0, 20.0, 30.0, 45.0, 60.0}) {
    // Breakeven: saved(qps) * $/inst/day * days == cost.
    const double daily_per_qps = core::daily_saving_usd(saved_per_qps);
    const double breakeven_qps =
        daily_per_qps > 0.0 ? cost.total_usd / (daily_per_qps * days) : 1e18;
    const double profit_2000 =
        core::net_profit_usd(saved_per_qps * 2000.0, days, cost);
    fig19.row({Table::num(days, 0), Table::num(breakeven_qps, 0),
               Table::num(profit_2000, 0)});
  }
  fig19.print(std::cout);
  std::cout << "Shape check (paper): the profit region grows with both the update\n"
               "period and the workload; long-lived high-traffic deployments repay\n"
               "the one-time collection+training cost quickly.\n";
  return 0;
}
