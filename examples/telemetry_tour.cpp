// Telemetry tour: the observability subsystem end to end on Bookinfo.
//
// A quickly-trained GRAF stack autoscales a cluster through a traffic step
// while every layer publishes metrics:
//
//   sim.*   per-service gauges (utilization, queue depth, instances),
//           counters (creations, drops), and the mergeable e2e latency
//           histogram, plus the controller's measured interval p99
//           (core.measured_p99_ms), all in the run's registry;
//   core.*  the plan path's solver iterations, predicted p99 and scale
//           factor, and fleet.tenant.* plan counters, in the controller
//           tenant's own registry, as a daemon tenant's are.
//
// Scrapers attached to the simulation clock snapshot both registries every
// 15 s (the paper's metric sync period) and the run ends by exporting the
// run registry's scraped series to JSON + CSV — the artifact a
// Grafana-style frontend (or the plots in bench/) would consume.
#include <iostream>

#include "apps/catalog.h"
#include "common/table.h"
#include "core/latency_predictor.h"
#include "core/sample_collector.h"
#include "core/workload_analyzer.h"
#include "fleet/graf_controller.h"
#include "telemetry/exporter.h"
#include "telemetry/scraper.h"
#include "workload/open_loop.h"

int main() {
  using namespace graf;

  apps::Topology topo = apps::bookinfo();
  const std::vector<Qps> workload{45.0};
  const double slo_ms = 120.0;

  // -- train a small GRAF stack (see slo_autoscaling.cpp for the long form) --
  sim::Cluster train_cluster = apps::make_cluster(topo, {.seed = 7});
  core::WorkloadAnalyzer analyzer{train_cluster.api_count(),
                                  train_cluster.service_count()};
  core::SampleCollectorConfig scfg;
  scfg.window = 8.0;
  core::SampleCollector collector{train_cluster, analyzer, scfg};
  std::cout << "Reducing search space + collecting samples...\n";
  const auto space = collector.reduce_search_space(workload, slo_ms);
  const auto dataset = collector.collect(1000, space, workload, 0.5, 1.1);

  core::LatencyPredictor predictor{apps::make_dag(topo), gnn::MpnnConfig{}, 11};
  gnn::TrainConfig tcfg;
  tcfg.iterations = 3000;
  tcfg.batch_size = 128;
  tcfg.lr = 1e-3;
  tcfg.lr_decay_every = 1000;
  tcfg.eval_every = 500;
  std::cout << "Training the GNN latency model...\n";
  predictor.train(dataset, tcfg);

  fleet::TenantSpec spec;
  spec.application = topo.name;
  spec.slo_ms = slo_ms;
  spec.model = &predictor.model();
  spec.lo = space.lo;
  spec.hi = space.hi;
  for (const auto& svc : topo.services) spec.unit.push_back(svc.unit_quota);
  spec.fanout = analyzer.fanout();
  spec.training_reference = dataset;
  fleet::GrafController autoscaler{spec};

  // -- instrumented run: the cluster and the loop share one registry ---------
  telemetry::MetricsRegistry registry;
  sim::Cluster cluster = apps::make_cluster(topo, {.seed = 13});
  cluster.set_metrics(&registry);

  // Telemetry-based p99 polling: core.measured_p99_ms comes from interval
  // deltas of the cluster's e2e log-histogram, not a copy-and-sort.
  autoscaler.set_metrics(&registry);

  telemetry::Scraper scraper{registry, {.period = 15.0}};
  telemetry::Scraper plan_scraper{autoscaler.tenant().metrics(), {.period = 15.0}};
  const Seconds horizon = 600.0;
  scraper.attach(cluster.events(), horizon);
  plan_scraper.attach(cluster.events(), horizon);
  autoscaler.attach(cluster, horizon);

  // Traffic step halfway through: 45 -> 75 qps.
  workload::OpenLoopConfig g;
  g.rate = workload::Schedule::step(45.0, 75.0, horizon / 2.0);
  g.api_weights = topo.api_weights;
  workload::OpenLoopGenerator gen{cluster, g};
  gen.start(horizon);

  std::cout << "Simulating " << horizon << " s with a 15 s scrape period...\n";
  cluster.run_until(horizon);

  // -- what came out ---------------------------------------------------------
  const auto& store = scraper.store();
  std::cout << scraper.scrapes() << " scrapes, " << store.size()
            << " series collected.\n\n";

  Table tail{"e2e p99 per scrape interval (sim.e2e_latency_ms.p99)"};
  tail.header({"t (s)", "p99 (ms)", "predicted p99 (ms)", "frontend util"});
  const auto* p99 = store.find("sim.e2e_latency_ms.p99");
  const auto* predicted = plan_scraper.store().find("core.predicted_p99_ms");
  const auto* util = store.find("sim.utilization{service=\"" +
                                topo.services[0].name + "\"}");
  for (std::size_t i = 0; p99 != nullptr && i < p99->size(); i += 5) {
    const auto& pt = (*p99)[i];
    const double pr = predicted != nullptr && i < predicted->size()
                          ? (*predicted)[i].value : 0.0;
    const double ut = util != nullptr && i < util->size() ? (*util)[i].value : 0.0;
    tail.row({Table::num(pt.time, 0), Table::num(pt.value, 1),
              Table::num(pr, 1), Table::num(ut, 2)});
  }
  tail.print(std::cout);

  const char* json_path = "telemetry_tour_series.json";
  const char* csv_path = "telemetry_tour_series.csv";
  if (telemetry::export_series_json(json_path, store))
    std::cout << "Wrote " << json_path << "\n";
  if (telemetry::export_series_csv(csv_path, store))
    std::cout << "Wrote " << csv_path << "\n";

  // Only what the scenario fixes: the registry's wall-time histograms make
  // the size of its JSON snapshot vary from run to run.
  std::cout << "Final snapshot: " << registry.size() << " metrics\n";
  return 0;
}
