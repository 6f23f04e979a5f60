// Partitioned latency model (paper §6 "Scalability of GRAF").
//
// The monolithic model's readout input grows linearly with the number of
// microservices, which the paper flags as the scalability limit for
// hundred-service applications; it suggests "graph partitioning algorithms
// might reduce the burden ... by partitioning the microservices and
// training separately". This module implements that idea: the DAG is cut
// into topologically-contiguous partitions, each gets its own (small) MPNN
// + readout predicting a latency *contribution*, and the end-to-end tail
// latency is regressed as the sum of contributions. Parameters grow with
// max-partition-size instead of application size.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "gnn/graph.h"
#include "gnn/latency_model.h"
#include "gnn/mpnn.h"
#include "nn/autodiff.h"

namespace graf::gnn {

/// Cut a DAG into contiguous chunks of at most `max_size` nodes along a
/// topological order (parents land in the same or an earlier partition).
std::vector<std::vector<int>> partition_dag(const Dag& dag, std::size_t max_size);

class PartitionedLatencyModel {
 public:
  /// `cfg.node_features` must equal LatencyModel::kNodeFeatures; dropout
  /// and layer sizes apply to every partition's networks.
  PartitionedLatencyModel(const Dag& graph, const MpnnConfig& cfg,
                          std::size_t max_partition_size, std::uint64_t seed);

  std::size_t node_count() const { return node_count_; }
  std::size_t partition_count() const { return parts_.size(); }
  const std::vector<std::vector<int>>& partitions() const { return node_of_part_; }

  /// Trainable parameter count (the scalability metric).
  std::size_t param_count();

  /// Train every partition's networks jointly through fit_sharded, the
  /// loop LatencyModel::fit runs; the scalers are refitted from `train`.
  TrainHistory fit(const Dataset& train, const Dataset& val, const TrainConfig& cfg);

  double predict(std::span<const double> workload_qps,
                 std::span<const double> quota_millicores);

  /// Mean training-loss value of the current weights over a dataset (eval
  /// mode).
  double evaluate_loss(const Dataset& data, double theta_under, double theta_over);

  AccuracyReport evaluate_accuracy(const Dataset& data, double region_lo_ms = 0.0,
                                   double region_hi_ms = 1e18);

 private:
  struct Part {
    std::vector<int> nodes;  // global node ids, partition-local order
    MpnnModel model;
  };

  /// Forward over a batch of samples; returns the summed (batch x 1) output.
  nn::Var forward(nn::Tape& tape, const Dataset& data,
                  std::span<const std::size_t> idx, Rng& rng, bool training);
  /// The asymmetric Hüber percentage loss of the summed contributions.
  BatchLoss batch_loss(double theta_under, double theta_over);
  std::vector<nn::Param*> all_params();

  std::size_t node_count_;
  Rng rng_;
  std::vector<Part> parts_;
  std::vector<std::vector<int>> node_of_part_;
  ScalerState s_{};
};

}  // namespace graf::gnn
