#include "gnn/mpnn.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace graf::gnn {

namespace {

std::vector<std::vector<int>> snapshot_parents(const Dag& g) {
  std::vector<std::vector<int>> out;
  out.reserve(g.node_count());
  for (std::size_t i = 0; i < g.node_count(); ++i)
    out.push_back(g.parents(static_cast<int>(i)));
  return out;
}

// ---- Frozen-forward layout helpers: the arithmetic of the tape ops they
// stand in for (nn::sum_row_blocks, concat_cols, row_blocks_to_cols).

// Block i of dst is the left-to-right sum of src's blocks parents[i], or a
// zero block when node i has no parents.
void sum_parent_blocks(nn::Tensor& dst, const nn::Tensor& src,
                       const std::vector<std::vector<int>>& parents) {
  const std::size_t len = src.size() / parents.size();
  dst.resize_zero(src.rows(), src.cols());
  for (std::size_t i = 0; i < parents.size(); ++i) {
    if (parents[i].empty()) continue;
    double* out = dst.data() + i * len;
    std::copy_n(src.data() + static_cast<std::size_t>(parents[i].front()) * len, len, out);
    for (std::size_t p = 1; p < parents[i].size(); ++p) {
      const double* add = src.data() + static_cast<std::size_t>(parents[i][p]) * len;
      for (std::size_t e = 0; e < len; ++e) out[e] = out[e] + add[e];
    }
  }
}

// The gradient of sum_parent_blocks: block i's gradient reaches each of its
// parents' blocks for i descending, the first arrival copied and later ones
// added — the order the tape's reverse walk delivers it.
void gather_parent_grads(nn::Tensor& dst, const nn::Tensor& g,
                         const std::vector<std::vector<int>>& parents,
                         std::vector<char>& seen) {
  const std::size_t len = g.size() / parents.size();
  dst.resize_zero(g.rows(), g.cols());
  seen.assign(parents.size(), 0);
  for (std::size_t i = parents.size(); i-- > 0;) {
    const double* gi = g.data() + i * len;
    for (int src : parents[i]) {
      const auto j = static_cast<std::size_t>(src);
      double* out = dst.data() + j * len;
      if (seen[j] == 0) {
        std::copy_n(gi, len, out);
        seen[j] = 1;
      } else {
        for (std::size_t e = 0; e < len; ++e) out[e] += gi[e];
      }
    }
  }
}

// dst = [a | b] (equal row counts).
void concat(nn::Tensor& dst, const nn::Tensor& a, const nn::Tensor& b) {
  dst.resize_zero(a.rows(), a.cols() + b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    double* out = dst.data() + r * dst.cols();
    std::copy_n(a.data() + r * a.cols(), a.cols(), out);
    std::copy_n(b.data() + r * b.cols(), b.cols(), out + a.cols());
  }
}

// dst (R x blocks·C) column block j <- src ((blocks·R) x C) row block j.
void rows_to_cols(nn::Tensor& dst, const nn::Tensor& src, std::size_t blocks) {
  const std::size_t rows = src.rows() / blocks;
  const std::size_t cols = src.cols();
  dst.resize_zero(rows, blocks * cols);
  for (std::size_t j = 0; j < blocks; ++j)
    for (std::size_t r = 0; r < rows; ++r)
      std::copy_n(src.data() + (j * rows + r) * cols, cols,
                  dst.data() + r * blocks * cols + j * cols);
}

// The reverse: dst ((blocks·R) x C) row block j <- src column block j.
void cols_to_rows(nn::Tensor& dst, const nn::Tensor& src, std::size_t blocks) {
  const std::size_t rows = src.rows();
  const std::size_t cols = src.cols() / blocks;
  dst.resize_zero(blocks * rows, cols);
  for (std::size_t j = 0; j < blocks; ++j)
    for (std::size_t r = 0; r < rows; ++r)
      std::copy_n(src.data() + r * blocks * cols + j * cols, cols,
                  dst.data() + (j * rows + r) * cols);
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

MpnnModel::Frozen::Frozen(MpnnModel& model)
    : parents_{model.parents_}, node_features_{model.cfg_.node_features},
      readout_{model.readout_} {
  for (nn::Mlp& m : model.phi_) phi_.emplace_back(m);
  for (nn::Mlp& m : model.gamma_) gamma_.emplace_back(m);
}

bool MpnnModel::Frozen::finite() const {
  const auto finite = [](const nn::FrozenMlp& m) { return m.finite(); };
  return readout_.finite() && std::all_of(phi_.begin(), phi_.end(), finite) &&
         std::all_of(gamma_.begin(), gamma_.end(), finite);
}

const nn::Tensor& MpnnModel::Frozen::forward(const nn::Tensor& nodes) {
  const std::size_t n = parents_.size();
  if (nodes.cols() != node_features_ || nodes.rows() % n != 0)
    throw std::invalid_argument{"MpnnModel::Frozen::forward: expected (n·R) x node_features"};
  const nn::Tensor* h = &nodes;
  for (std::size_t k = 0; k < phi_.size(); ++k) {
    sum_parent_blocks(agg_, phi_[k].forward(*h), parents_);
    concat(both_, *h, agg_);
    h = &gamma_[k].forward(both_);
  }
  rows_to_cols(readout_in_, *h, n);
  return readout_.forward(readout_in_);
}

const nn::Tensor& MpnnModel::Frozen::backward(const nn::Tensor& dy) {
  const std::size_t n = parents_.size();
  cols_to_rows(grad_h_, readout_.backward(dy), n);
  for (std::size_t k = phi_.size(); k-- > 0;) {
    // grad_h_ is d/d(gamma_k's output); split d/d[h | agg] into its halves.
    const nn::Tensor& g_both = gamma_[k].backward(grad_h_);
    const std::size_t f = phi_[k].in_features();
    const std::size_t e = g_both.cols() - f;
    grad_in_.resize_zero(g_both.rows(), f);
    grad_agg_.resize_zero(g_both.rows(), e);
    for (std::size_t r = 0; r < g_both.rows(); ++r) {
      const double* row = g_both.data() + r * g_both.cols();
      std::copy_n(row, f, grad_in_.data() + r * f);
      std::copy_n(row + f, e, grad_agg_.data() + r * e);
    }
    gather_parent_grads(grad_msg_, grad_agg_, parents_, seen_);
    // h's gradient: the concat slice first, phi_k's input gradient second.
    const nn::Tensor& g_phi = phi_[k].backward(grad_msg_);
    for (std::size_t i = 0; i < grad_in_.size(); ++i)
      grad_in_.data()[i] = grad_in_.data()[i] + g_phi.data()[i];
    std::swap(grad_h_, grad_in_);
  }
  return grad_h_;
}

}  // namespace graf::gnn
