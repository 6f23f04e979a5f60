// Ablation (paper §7 related work): all four controllers side by side —
// GRAF, the tuned Kubernetes HPA, the FIRM-like latency-ratio scaler, and
// the MIRAS-like queue-depth scaler — under the same steady load and the
// same doubling surge. Extends Fig. 21/22's three-way comparison with the
// MIRAS-like policy the paper discusses but does not run.
#include <iostream>
#include <memory>

#include "autoscalers/firm_like.h"
#include "autoscalers/k8s_hpa.h"
#include "autoscalers/miras_like.h"
#include "bench_common.h"
#include "common/table.h"
#include "fleet/graf_controller.h"
#include "workload/closed_loop.h"

namespace {

constexpr double kSurgeAt = 150.0;
constexpr double kEnd = 450.0;

struct ArmResult {
  graf::bench::SteadyStateResult steady;
  double surge_p99 = 0.0;
  std::size_t surge_failures = 0;
  int instances_after = 0;
};

ArmResult run(graf::sim::Cluster& cluster, graf::bench::TrainedStack& stack,
              double users) {
  using namespace graf;
  ArmResult out;
  // Steady phase measurement.
  out.steady = bench::measure_steady_state(cluster, users, stack.topo.api_weights,
                                           120.0, 60.0, 131);
  // Surge phase: double the population, record the transient.
  bench::LatencyRecorder rec;
  workload::ClosedLoopConfig g;
  g.users = workload::Schedule::constant(users * 2.0);
  g.api_weights = stack.topo.api_weights;
  g.seed = 133;
  g.on_complete = rec.hook();
  workload::ClosedLoopGenerator gen{cluster, g};
  gen.start(cluster.now() + (kEnd - kSurgeAt));
  cluster.run_for(kEnd - kSurgeAt);
  out.surge_p99 = rec.latencies().empty() ? 0.0 : rec.percentile(99.0);
  out.surge_failures = rec.failures();
  out.instances_after = cluster.total_target_instances();
  return out;
}

}  // namespace

int main() {
  using namespace graf;
  auto stack = bench::build_or_load_stack(bench::online_boutique_stack_config());
  const double slo = stack.default_slo_ms;
  const double users = 1000.0;
  const double thr = bench::tune_hpa_threshold(stack.topo, users, slo, 137);

  Table table{"Ablation: controller zoo under steady load + doubling surge"};
  table.header({"controller", "steady p99 (ms)", "steady instances",
                "surge p99 (ms)", "surge timeouts", "instances after"});

  {
    sim::Cluster cluster = apps::make_cluster(stack.topo, {.seed = 139});
    fleet::GrafController graf{bench::graf_spec(stack, slo)};
    graf.attach(cluster, 1e9);
    const auto r = run(cluster, stack, users);
    table.row({"GRAF", Table::num(r.steady.p99_ms, 0),
               Table::num(r.steady.mean_total_instances, 1),
               Table::num(r.surge_p99, 0),
               Table::integer(static_cast<long long>(r.surge_failures)),
               Table::integer(r.instances_after)});
  }
  {
    sim::Cluster cluster = apps::make_cluster(stack.topo, {.seed = 139});
    autoscalers::K8sHpa hpa{{.target_utilization = thr}};
    hpa.attach(cluster, 1e9);
    const auto r = run(cluster, stack, users);
    table.row({"K8s HPA (" + Table::num(thr, 2) + ")", Table::num(r.steady.p99_ms, 0),
               Table::num(r.steady.mean_total_instances, 1),
               Table::num(r.surge_p99, 0),
               Table::integer(static_cast<long long>(r.surge_failures)),
               Table::integer(r.instances_after)});
  }
  {
    sim::Cluster cluster = apps::make_cluster(stack.topo, {.seed = 139});
    autoscalers::FirmLike firm{{}};
    firm.attach(cluster, 1e9);
    const auto r = run(cluster, stack, users);
    table.row({"FIRM-like", Table::num(r.steady.p99_ms, 0),
               Table::num(r.steady.mean_total_instances, 1),
               Table::num(r.surge_p99, 0),
               Table::integer(static_cast<long long>(r.surge_failures)),
               Table::integer(r.instances_after)});
  }
  {
    sim::Cluster cluster = apps::make_cluster(stack.topo, {.seed = 139});
    autoscalers::MirasLike miras{{}};
    miras.attach(cluster, 1e9);
    const auto r = run(cluster, stack, users);
    table.row({"MIRAS-like", Table::num(r.steady.p99_ms, 0),
               Table::num(r.steady.mean_total_instances, 1),
               Table::num(r.surge_p99, 0),
               Table::integer(static_cast<long long>(r.surge_failures)),
               Table::integer(r.instances_after)});
  }
  table.print(std::cout);
  std::cout << "Expectation: only GRAF keeps the surge transient mild (it scales\n"
               "the whole chain from the front-end signal); the reactive\n"
               "controllers differ mainly in which symptom (utilization, latency\n"
               "ratio, queue depth) they lag behind.\n";
  return 0;
}
