// Fleet-batched latency inference (DESIGN.md §3.13): N tenant graphs
// stacked into one MPNN forward/backward.
//
// Conceptually this evaluates the block-diagonal disjoint union of N copies
// of one application graph. Because every copy shares the same adjacency and
// weights, and message passing never mixes rows of the node-feature
// matrices (DESIGN.md §3.9 row independence), the block-diagonal forward is
// *exactly* a row-batched forward: graph g's rows occupy rows
// [g*K, (g+1)*K) of every node's block of the node-stacked feature matrix
// (DESIGN.md §3.2), the adjacency is never materialized, and each blocked
// GEMM runs once over all n*N*K node rows instead of once per node and
// graph. Row g*K+k of the output is bit-identical to row k of
// graph g's own forward — the property the fleet's batched planner is
// proven against. A solo solve is the N = 1 case.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "gnn/latency_model.h"
#include "nn/tensor.h"

namespace graf::gnn {

/// Stacks N same-topology workloads onto one shared LatencyModel so a
/// single frozen pass evaluates all of them. `rows_per_graph` (K) is the number of
/// quota rows each graph contributes — the solver's multi-start count.
class BatchedLatencyModel {
 public:
  /// The model is shared, not copied; it must outlive this object. Graphs
  /// added later must match its node count.
  BatchedLatencyModel(LatencyModel& model, std::size_t rows_per_graph);

  /// Append one graph's per-node workload vector; returns its index.
  /// The workload is copied (spans from callers need not outlive this).
  std::size_t add_graph(std::span<const double> workload_qps);

  std::size_t node_count() const { return model_->node_count(); }
  std::size_t graph_count() const { return workloads_.size(); }
  std::size_t rows_per_graph() const { return rows_per_graph_; }
  /// Total stacked rows: graph_count() * rows_per_graph().
  std::size_t rows() const { return workloads_.size() * rows_per_graph_; }

  LatencyModel& model() { return *model_; }

  /// The frozen pass over every stacked row (graph g's start k at row
  /// g*K+k reads graph g's workload): per row, bit-identical to a pass over
  /// that graph alone.
  LatencyModel::Pass pass();

  /// Non-batched scoring of one graph's quota through the shared model —
  /// delegates to LatencyModel::predict (the division-form feature path),
  /// which is what the single-start solver reports as predicted_ms.
  double predict(std::size_t graph, std::span<const double> quota_mc);

  /// Content fingerprint (FNV-1a 64) over everything that shapes a forward:
  /// topology, MPNN hyper-parameters, scaler bits, and every weight bit.
  /// Two models with equal fingerprints produce bit-identical predictions,
  /// so the fleet may batch their tenants through either instance. Distinct
  /// objects with equal weights (registry deep copies) fingerprint equal —
  /// pointer identity deliberately plays no part.
  static std::uint64_t fingerprint(LatencyModel& model);

 private:
  LatencyModel* model_;
  std::size_t rows_per_graph_;
  std::vector<std::vector<double>> workloads_;  ///< one vector per graph
};

}  // namespace graf::gnn
