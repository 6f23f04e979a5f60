#include "gnn/batched_latency_model.h"

#include <stdexcept>

#include "common/fnv.h"

namespace graf::gnn {

BatchedLatencyModel::BatchedLatencyModel(LatencyModel& model,
                                         std::size_t rows_per_graph)
    : model_{&model}, rows_per_graph_{rows_per_graph} {
  if (rows_per_graph_ == 0)
    throw std::invalid_argument{"BatchedLatencyModel: rows_per_graph must be >= 1"};
}

std::size_t BatchedLatencyModel::add_graph(std::span<const double> workload_qps) {
  if (workload_qps.size() != model_->node_count())
    throw std::invalid_argument{"BatchedLatencyModel::add_graph: dimension mismatch"};
  workloads_.emplace_back(workload_qps.begin(), workload_qps.end());
  return workloads_.size() - 1;
}

LatencyModel::Pass BatchedLatencyModel::pass() {
  const std::size_t n = model_->node_count();
  nn::Tensor workload_rows{rows(), n};
  for (std::size_t g = 0; g < workloads_.size(); ++g)
    for (std::size_t k = 0; k < rows_per_graph_; ++k)
      for (std::size_t i = 0; i < n; ++i)
        workload_rows(g * rows_per_graph_ + k, i) = workloads_[g][i];
  return LatencyModel::Pass{*model_, workload_rows};
}

double BatchedLatencyModel::predict(std::size_t graph,
                                    std::span<const double> quota_mc) {
  if (graph >= workloads_.size())
    throw std::invalid_argument{"BatchedLatencyModel::predict: bad graph index"};
  return model_->predict(workloads_[graph], quota_mc);
}

std::uint64_t BatchedLatencyModel::fingerprint(LatencyModel& model) {
  Fnv1a h;
  h.mix(model.node_count());
  for (const auto& parents : model.graph_parents()) {
    h.mix(parents.size());
    for (int p : parents) h.mix(static_cast<std::uint64_t>(p));
  }
  const MpnnConfig& cfg = model.mpnn_config();
  h.mix(cfg.node_features);
  h.mix(cfg.embed_dim);
  h.mix(cfg.mpnn_hidden);
  h.mix(cfg.readout_hidden);
  h.mix(cfg.message_steps);
  h.mix_double(cfg.dropout_p);
  h.mix(cfg.use_mpnn ? 1 : 0);
  const ScalerState s = model.scalers();
  h.mix_double(s.w_scale);
  h.mix_double(s.q_scale);
  h.mix_double(s.q_min_mc);
  h.mix_double(s.ratio_max);
  h.mix_double(s.label_ref);
  for (const nn::Tensor& t : model.state_dict()) {
    h.mix(t.rows());
    h.mix(t.cols());
    for (std::size_t i = 0; i < t.size(); ++i) h.mix_double(t.data()[i]);
  }
  return h.value();
}

}  // namespace graf::gnn
