#include "gnn/batched_latency_model.h"

#include <bit>
#include <stdexcept>

namespace graf::gnn {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void mix(std::uint64_t& h, std::uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (byte * 8)) & 0xffULL;
    h *= kFnvPrime;
  }
}

void mix_double(std::uint64_t& h, double v) {
  mix(h, std::bit_cast<std::uint64_t>(v));
}

}  // namespace

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
  std::uint64_t h = kFnvOffset;
  mix(h, model.node_count());
  for (const auto& parents : model.graph_parents()) {
    mix(h, parents.size());
    for (int p : parents) mix(h, static_cast<std::uint64_t>(p));
  }
  const MpnnConfig& cfg = model.mpnn_config();
  mix(h, cfg.node_features);
  mix(h, cfg.embed_dim);
  mix(h, cfg.mpnn_hidden);
  mix(h, cfg.readout_hidden);
  mix(h, cfg.message_steps);
  mix_double(h, cfg.dropout_p);
  mix(h, cfg.use_mpnn ? 1 : 0);
  const ScalerState s = model.scalers();
  mix_double(h, s.w_scale);
  mix_double(h, s.q_scale);
  mix_double(h, s.q_min_mc);
  mix_double(h, s.ratio_max);
  mix_double(h, s.label_ref);
  for (const nn::Tensor& t : model.state_dict()) {
    mix(h, t.rows());
    mix(h, t.cols());
    for (std::size_t i = 0; i < t.size(); ++i) mix_double(h, t.data()[i]);
  }
  return h;
}

}  // namespace graf::gnn
