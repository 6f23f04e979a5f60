// Ablation (paper §6 "Integer Optimization for instances scaling"): how
// much CPU does greedy integer refinement recover from the Eq.-7 ceil
// rounding? The paper predicts "slight improvement room ... bounded by the
// CPU resource unit for an instance"; this bench quantifies it and verifies
// that the refined plans still meet their SLOs on the cluster.
#include <iostream>

#include "bench_common.h"
#include "common/table.h"
#include "core/integer_refiner.h"
#include "core/sample_collector.h"
#include "fleet/graf_controller.h"

int main() {
  using namespace graf;
  auto stack = bench::build_or_load_stack(bench::online_boutique_stack_config());
  fleet::GrafController graf{bench::graf_spec(stack, stack.default_slo_ms)};
  core::IntegerRefiner refiner{stack.predictor->model()};

  std::vector<Millicores> units;
  for (const auto& svc : stack.topo.services) units.push_back(svc.unit_quota);

  sim::Cluster cluster = apps::make_cluster(stack.topo, {.seed = 91});
  core::WorkloadAnalyzer analyzer{cluster.api_count(), cluster.service_count()};
  analyzer.set_fanout(stack.fanout);
  core::SampleCollectorConfig mcfg;
  mcfg.closed_loop = true;  // measure with the training load model
  core::SampleCollector measurer{cluster, analyzer, mcfg};

  Table table{"Ablation: Eq. 7 ceil vs greedy integer refinement"};
  table.header({"SLO (ms)", "Eq.7 instances", "refined instances", "saved (mc)",
                "refined predicted (ms)", "refined measured p99 (ms)", "within SLO"});

  for (double f : {1.3, 1.5, 1.8, 2.2}) {
    const double slo = stack.floor_p99 * f;
    const auto plan = graf.tenant().controller().plan(stack.base_qps, slo);
    int eq7_total = 0;
    for (int i : plan.instances) eq7_total += i;

    const auto workload = stack.node_workload(stack.base_qps);
    const auto refined = refiner.refine(workload, slo, plan.instances, units,
                                        stack.space.lo);
    int refined_total = 0;
    for (int i : refined.instances) refined_total += i;

    for (std::size_t s = 0; s < refined.quota.size(); ++s)
      cluster.apply_total_quota(static_cast<int>(s), refined.quota[s], units[s]);
    const double measured = measurer.measure_tail(stack.base_qps, 20.0, 99.0);

    table.row({Table::num(slo, 0), Table::integer(eq7_total),
               Table::integer(refined_total), Table::num(refined.saved_mc, 0),
               Table::num(refined.predicted_ms, 0), Table::num(measured, 0),
               measured <= slo * 1.1 ? "yes" : "no"});
  }
  table.print(std::cout);
  std::cout << "Expectation (paper §6): a small but non-zero instance saving,\n"
               "bounded by one instance unit per service, without SLO damage.\n";
  return 0;
}
