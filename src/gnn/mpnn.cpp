#include "gnn/mpnn.h"

#include <stdexcept>

namespace graf::gnn {

namespace {

std::vector<std::vector<int>> snapshot_parents(const Dag& g) {
  std::vector<std::vector<int>> out;
  out.reserve(g.node_count());
  for (std::size_t i = 0; i < g.node_count(); ++i)
    out.push_back(g.parents(static_cast<int>(i)));
  return out;
}

}  // namespace

nn::Mlp MpnnModel::make_readout(const Dag& graph, const MpnnConfig& cfg, Rng& rng) {
  const std::size_t per_node = cfg.use_mpnn ? cfg.embed_dim : cfg.node_features;
  const std::size_t in = graph.node_count() * per_node;
  return nn::Mlp{{in, cfg.readout_hidden, cfg.readout_hidden, 1}, cfg.dropout_p, rng};
}

MpnnModel::MpnnModel(const Dag& graph, const MpnnConfig& cfg, Rng& rng)
    : cfg_{cfg}, parents_{snapshot_parents(graph)},
      readout_{make_readout(graph, cfg, rng)} {
  if (graph.node_count() == 0) throw std::invalid_argument{"MpnnModel: empty graph"};
  if (cfg_.use_mpnn) {
    // Dropout is applied only to the FC readout (paper §3.4); the message
    // and update networks train without it.
    std::size_t h_dim = cfg_.node_features;  // dimension of h at each step
    for (std::size_t k = 0; k < cfg_.message_steps; ++k) {
      phi_.emplace_back(
          std::vector<std::size_t>{h_dim, cfg_.mpnn_hidden, cfg_.mpnn_hidden,
                                   cfg_.embed_dim},
          0.0, rng);
      gamma_.emplace_back(
          std::vector<std::size_t>{h_dim + cfg_.embed_dim, cfg_.mpnn_hidden,
                                   cfg_.mpnn_hidden, cfg_.embed_dim},
          0.0, rng);
      h_dim = cfg_.embed_dim;
    }
  }
}

std::uint64_t MpnnModel::param_count(std::uint64_t node_count, const MpnnConfig& cfg) {
  using nn::Mlp;
  const std::uint64_t per_node = cfg.use_mpnn ? cfg.embed_dim : cfg.node_features;
  const std::uint64_t rh = cfg.readout_hidden;
  const std::uint64_t readout =
      Mlp::param_count({nn::sat_mul(node_count, per_node), rh, rh, 1});
  if (!cfg.use_mpnn || cfg.message_steps == 0) return readout;
  // Step k's phi/gamma pair, as the constructor builds it from h_dim.
  const std::uint64_t mh = cfg.mpnn_hidden;
  const std::uint64_t ed = cfg.embed_dim;
  auto step = [&](std::uint64_t h_dim) {
    return nn::sat_add(Mlp::param_count({h_dim, mh, mh, ed}),
                       Mlp::param_count({nn::sat_add(h_dim, ed), mh, mh, ed}));
  };
  const std::uint64_t later = nn::sat_mul(cfg.message_steps - 1, step(ed));
  return nn::sat_add(readout, nn::sat_add(step(cfg.node_features), later));
}

nn::Var MpnnModel::forward(nn::Tape& tape, nn::Var nodes, Rng& rng, bool training) {
  const std::size_t n = parents_.size();
  nn::Var h = nodes;
  if (cfg_.use_mpnn) {
    for (std::size_t k = 0; k < cfg_.message_steps; ++k) {
      const nn::Var msg = phi_[k].forward(tape, h, rng, training, n);
      const nn::Var both[] = {h, nn::sum_row_blocks(msg, parents_)};
      h = gamma_[k].forward(tape, nn::concat_cols(both), rng, training, n);
    }
  }
  return readout_.forward(tape, nn::row_blocks_to_cols(h, n), rng, training);
}

nn::Var MpnnModel::forward(nn::Tape& tape, std::span<const nn::Var> node_features,
                           Rng& rng, bool training) {
  if (node_features.size() != parents_.size())
    throw std::invalid_argument{"MpnnModel::forward: feature count != node count"};
  const nn::Var side_by_side = nn::concat_cols(node_features);
  return forward(tape, nn::col_blocks_to_rows(side_by_side, parents_.size()), rng,
                 training);
}

void MpnnModel::collect_params(std::vector<nn::Param*>& out) {
  for (auto& m : phi_) m.collect_params(out);
  for (auto& m : gamma_) m.collect_params(out);
  readout_.collect_params(out);
}

}  // namespace graf::gnn
