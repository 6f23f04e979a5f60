// Figures 14, 15, 16 (§5.3 "Resource saving"): steady-state CPU quota of
// GRAF vs the fine-tuned Kubernetes HPA at equal tail-latency targets, for
// Online Boutique and Social Network.
//
// Paper shape: GRAF meets the same SLO with 14-19% less total CPU
// (Fig. 14), achieved by shifting quota toward the latency-sensitive
// services (recommendation/shipping in Online Boutique, Fig. 15) and away
// from the cheap ones.
#include <iostream>

#include "autoscalers/k8s_hpa.h"
#include "bench_common.h"
#include "common/table.h"
#include "fleet/graf_controller.h"

namespace {

struct AppResult {
  std::string app;
  double slo = 0.0;
  double hpa_threshold = 0.0;
  graf::bench::SteadyStateResult graf;
  graf::bench::SteadyStateResult hpa;
  std::vector<std::string> service_names;
  std::vector<double> unit_quota;
};

AppResult evaluate_app(graf::bench::TrainedStack& stack, double users) {
  using namespace graf;
  AppResult out;
  out.app = stack.topo.name;
  out.slo = stack.default_slo_ms;
  for (const auto& svc : stack.topo.services) {
    out.service_names.push_back(svc.name);
    out.unit_quota.push_back(svc.unit_quota);
  }

  {
    sim::Cluster cluster = apps::make_cluster(stack.topo, {.seed = 31});
    fleet::GrafController graf{bench::graf_spec(stack, stack.default_slo_ms)};
    graf.attach(cluster, 1e9);
    out.graf = bench::measure_steady_state(cluster, users, stack.topo.api_weights,
                                           240.0, 120.0, 33);
  }
  {
    out.hpa_threshold =
        bench::tune_hpa_threshold(stack.topo, users, stack.default_slo_ms, 35);
    sim::Cluster cluster = apps::make_cluster(stack.topo, {.seed = 31});
    autoscalers::K8sHpa hpa{{.target_utilization = out.hpa_threshold}};
    hpa.attach(cluster, 1e9);
    out.hpa = bench::measure_steady_state(cluster, users, stack.topo.api_weights,
                                          240.0, 120.0, 33);
  }
  return out;
}

}  // namespace

int main() {
  using namespace graf;

  auto ob = bench::build_or_load_stack(bench::online_boutique_stack_config());
  auto sn = bench::build_or_load_stack(bench::social_network_stack_config());

  // Closed-loop populations sized well above the training reference so
  // replica counts are large enough for per-service differences to matter;
  // GRAF's workload-scaling path (§3.6) covers the extrapolation.
  AppResult ob_res = evaluate_app(ob, 1250.0);
  AppResult sn_res = evaluate_app(sn, 1250.0);

  Table fig14{"Figure 14: total CPU quota at equal latency SLO"};
  fig14.header({"application", "SLO (ms)", "GRAF (mc)", "K8s HPA (mc)",
                "saving (%)", "GRAF p99 (ms)", "HPA p99 (ms)", "HPA thr"});
  for (const AppResult* r : {&ob_res, &sn_res}) {
    const double saving =
        100.0 * (1.0 - r->graf.mean_total_quota_mc / r->hpa.mean_total_quota_mc);
    fig14.row({r->app, Table::num(r->slo, 0),
               Table::num(r->graf.mean_total_quota_mc, 0),
               Table::num(r->hpa.mean_total_quota_mc, 0), Table::num(saving, 1),
               Table::num(r->graf.p99_ms, 0), Table::num(r->hpa.p99_ms, 0),
               Table::num(r->hpa_threshold, 2)});
  }
  fig14.print(std::cout);

  for (const AppResult* r : {&ob_res, &sn_res}) {
    Table per{std::string{r->app == "online-boutique" ? "Figure 15" : "Figure 16"} +
              ": per-service CPU quota (" + r->app + ")"};
    per.header({"service", "GRAF (mc)", "K8s HPA (mc)"});
    for (std::size_t s = 0; s < r->service_names.size(); ++s) {
      per.row({r->service_names[s],
               Table::num(r->graf.mean_instances_per_service[s] * r->unit_quota[s], 0),
               Table::num(r->hpa.mean_instances_per_service[s] * r->unit_quota[s], 0)});
    }
    per.print(std::cout);
  }
  std::cout << "Shape check (paper): GRAF saves 14-19% total CPU at the same tail\n"
               "latency, spending more on latency-critical services and less on\n"
               "the rest.\n";
  return 0;
}
