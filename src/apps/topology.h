// Application topology: the bundle a benchmark application is made of —
// service configurations, API call trees, and the derived microservice DAG
// that GRAF's GNN runs on.
#pragma once

#include <string>
#include <vector>

#include "gnn/graph.h"
#include "sim/cluster.h"
#include "sim/request.h"
#include "sim/service.h"

namespace graf::apps {

struct Topology {
  std::string name;
  std::vector<sim::ServiceConfig> services;
  std::vector<sim::Api> apis;
  /// Index of the front-end service (where user requests arrive).
  int frontend = 0;
  /// Default per-API workload mix used by closed-loop generators
  /// (weights; need not sum to 1).
  std::vector<double> api_weights;

  std::size_t service_count() const { return services.size(); }
  int service_index(const std::string& svc_name) const;
};

/// Build the microservice DAG (nodes = services, parent -> child edges from
/// every API call tree, deduplicated).
gnn::Dag make_dag(const Topology& topo);

/// Convenience: spin up a simulated cluster for the topology.
sim::Cluster make_cluster(const Topology& topo, sim::ClusterConfig cfg = {});

/// Factory of independent replicas of the topology, built in place on the
/// heap (a Cluster must never be moved: its scheduled events capture
/// `this`).
std::function<std::unique_ptr<sim::Cluster>()> make_cluster_factory(
    Topology topo, sim::ClusterConfig cfg = {});

}  // namespace graf::apps
