// Figure 18 (§5.2 "Scaling workload"): total instances used by GRAF vs the
// tuned Kubernetes HPA across simulated user populations, plus the saved
// instance count. Paper: GRAF matches the HPA's tail latency while the
// saving grows roughly proportionally with the workload — the resource
// controller's workload-scaling trick (§3.6) extrapolates the trained model
// to workloads far beyond the sampled region.
#include <iostream>

#include "autoscalers/k8s_hpa.h"
#include "bench_common.h"
#include "common/table.h"
#include "fleet/graf_controller.h"

int main() {
  using namespace graf;
  auto stack = bench::build_or_load_stack(bench::online_boutique_stack_config());
  const double slo = stack.default_slo_ms;

  // One tuned threshold applied across the whole sweep (the paper tunes a
  // single global threshold per SLO, §5.3).
  const double thr = bench::tune_hpa_threshold(stack.topo, 1250.0, slo, 55);
  std::cerr << "[bench] tuned HPA threshold: " << thr << "\n";

  Table table{"Figure 18: total instances vs simulated users (SLO " +
              Table::num(slo, 0) + " ms)"};
  table.header({"users", "GRAF instances", "GRAF p99 (ms)", "HPA instances",
                "HPA p99 (ms)", "saved instances"});

  for (double users : {500.0, 900.0, 1250.0, 1900.0, 2600.0}) {
    bench::SteadyStateResult graf_res;
    {
      sim::Cluster cluster = apps::make_cluster(stack.topo, {.seed = 51});
      fleet::GrafController graf{bench::graf_spec(stack, slo)};
      graf.attach(cluster, 1e9);
      graf_res = bench::measure_steady_state(cluster, users, stack.topo.api_weights,
                                             240.0, 120.0, 57);
    }
    bench::SteadyStateResult hpa_res;
    {
      sim::Cluster cluster = apps::make_cluster(stack.topo, {.seed = 51});
      autoscalers::K8sHpa hpa{{.target_utilization = thr}};
      hpa.attach(cluster, 1e9);
      hpa_res = bench::measure_steady_state(cluster, users, stack.topo.api_weights,
                                            240.0, 120.0, 57);
    }
    table.row({Table::num(users, 0), Table::num(graf_res.mean_total_instances, 1),
               Table::num(graf_res.p99_ms, 0),
               Table::num(hpa_res.mean_total_instances, 1),
               Table::num(hpa_res.p99_ms, 0),
               Table::num(hpa_res.mean_total_instances - graf_res.mean_total_instances,
                          1)});
  }
  table.print(std::cout);
  std::cout << "Shape check (paper): the saved-instances column grows with the\n"
               "workload while GRAF's tail latency stays at the SLO.\n";
  return 0;
}
