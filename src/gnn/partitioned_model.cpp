#include "gnn/partitioned_model.h"

#include <algorithm>
#include <stdexcept>

namespace graf::gnn {

std::vector<std::vector<int>> partition_dag(const Dag& dag, std::size_t max_size) {
  if (max_size == 0) throw std::invalid_argument{"partition_dag: max_size == 0"};
  const auto order = dag.topological_order();
  std::vector<std::vector<int>> parts;
  for (std::size_t i = 0; i < order.size(); i += max_size) {
    parts.emplace_back(order.begin() + static_cast<std::ptrdiff_t>(i),
                       order.begin() +
                           static_cast<std::ptrdiff_t>(std::min(i + max_size,
                                                                order.size())));
  }
  return parts;
}

namespace {

/// Induced subgraph over `nodes` (edges whose ends are both inside).
Dag induced_subgraph(const Dag& dag, const std::vector<int>& nodes) {
  Dag sub;
  for (int n : nodes) sub.add_node(dag.name(n));
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (int child : dag.children(nodes[i])) {
      const auto it = std::find(nodes.begin(), nodes.end(), child);
      if (it != nodes.end())
        sub.add_edge(static_cast<int>(i),
                     static_cast<int>(it - nodes.begin()));
    }
  }
  return sub;
}

}  // namespace

PartitionedLatencyModel::PartitionedLatencyModel(const Dag& graph,
                                                 const MpnnConfig& cfg,
                                                 std::size_t max_partition_size,
                                                 std::uint64_t seed)
    : node_count_{graph.node_count()}, rng_{seed} {
  if (cfg.node_features != LatencyModel::kNodeFeatures)
    throw std::invalid_argument{
        "PartitionedLatencyModel: node_features must equal kNodeFeatures"};
  node_of_part_ = partition_dag(graph, max_partition_size);
  parts_.reserve(node_of_part_.size());
  for (const auto& nodes : node_of_part_) {
    // The whole point of partitioning is a readout sized to the partition,
    // not to the application: cap its width at the flattened embedding dim.
    MpnnConfig pcfg = cfg;
    pcfg.readout_hidden =
        std::min(cfg.readout_hidden,
                 std::max<std::size_t>(16, nodes.size() * cfg.embed_dim));
    parts_.push_back(
        Part{nodes, MpnnModel{induced_subgraph(graph, nodes), pcfg, rng_}});
  }
}

std::vector<nn::Param*> PartitionedLatencyModel::all_params() {
  std::vector<nn::Param*> out;
  for (auto& p : parts_) p.model.collect_params(out);
  return out;
}

std::size_t PartitionedLatencyModel::param_count() {
  std::size_t n = 0;
  for (nn::Param* p : all_params()) n += p->value.size();
  return n;
}

nn::Var PartitionedLatencyModel::forward(nn::Tape& tape, const Dataset& data,
                                         std::span<const std::size_t> idx, Rng& rng,
                                         bool training) {
  const std::size_t batch = idx.size();
  nn::Var total;
  for (auto& part : parts_) {
    // The partition's nodes stacked in partition-local order, as its
    // induced subgraph numbers them.
    nn::Tensor& f = tape.stage(part.nodes.size() * batch, LatencyModel::kNodeFeatures);
    for (std::size_t j = 0; j < part.nodes.size(); ++j) {
      const auto n = static_cast<std::size_t>(part.nodes[j]);
      for (std::size_t r = 0; r < batch; ++r) {
        const Sample& s = data[idx[r]];
        write_node_features(s_, s.workload[n], s.quota[n], &f(j * batch + r, 0));
      }
    }
    nn::Var out = part.model.forward(tape, tape.commit_constant(), rng, training);
    total = total.valid() ? nn::add(total, out) : out;
  }
  return total;
}

BatchLoss PartitionedLatencyModel::batch_loss(double theta_under, double theta_over) {
  return [this, theta_under, theta_over](nn::Tape& tape, const Dataset& data,
                                         std::span<const std::size_t> idx, Rng& rng,
                                         bool training) {
    return latency_pct_loss(forward(tape, data, idx, rng, training), data, idx,
                            s_.label_ref, theta_under, theta_over);
  };
}

TrainHistory PartitionedLatencyModel::fit(const Dataset& train, const Dataset& val,
                                          const TrainConfig& cfg) {
  return fit_sharded(all_params(), node_count_,
                     batch_loss(cfg.theta_under, cfg.theta_over), train, val, cfg, &s_);
}

double PartitionedLatencyModel::evaluate_loss(const Dataset& data, double theta_under,
                                              double theta_over) {
  return mean_loss(batch_loss(theta_under, theta_over), node_count_, data);
}

double PartitionedLatencyModel::predict(std::span<const double> workload_qps,
                                        std::span<const double> quota_millicores) {
  if (workload_qps.size() != node_count_ || quota_millicores.size() != node_count_)
    throw std::invalid_argument{"PartitionedLatencyModel::predict: dimensions"};
  Dataset one(1);
  one[0].workload.assign(workload_qps.begin(), workload_qps.end());
  one[0].quota.assign(quota_millicores.begin(), quota_millicores.end());
  const std::size_t idx[] = {0};
  nn::Tape tape;
  nn::Var out = forward(tape, one, idx, rng_, false);
  return tape.value(out).item() * s_.label_ref;
}

AccuracyReport PartitionedLatencyModel::evaluate_accuracy(const Dataset& data,
                                                          double region_lo_ms,
                                                          double region_hi_ms) {
  return accuracy_report(data, region_lo_ms, region_hi_ms, [this](const Sample& s) {
    return predict(s.workload, s.quota);
  });
}

}  // namespace graf::gnn
