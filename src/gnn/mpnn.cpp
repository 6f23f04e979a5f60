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
// stand in for (nn::sum_row_blocks, concat_cols, row_blocks_to_cols). A
// block is `rows` consecutive rows; `parents` index blocks of the messages.

// dst = [h | agg]: agg's block i is the left-to-right sum of msg's blocks
// parents[i], or a zero block when node i has no parents.
void concat_parent_sums(nn::Tensor& dst, const nn::Tensor& h, const nn::Tensor& msg,
                        const std::vector<std::vector<int>>& parents, std::size_t rows) {
  const std::size_t f = h.cols();
  const std::size_t e = msg.cols();
  dst.resize_for_overwrite(h.rows(), f + e);
  for (std::size_t i = 0; i < parents.size(); ++i)
    for (std::size_t r = 0; r < rows; ++r) {
      double* out = dst.data() + (i * rows + r) * (f + e);
      std::copy_n(h.data() + (i * rows + r) * f, f, out);
      double* agg = out + f;
      const auto msg_row = [&](int b) {
        return msg.data() + (static_cast<std::size_t>(b) * rows + r) * e;
      };
      if (parents[i].empty()) {
        std::fill_n(agg, e, 0.0);
        continue;
      }
      std::copy_n(msg_row(parents[i].front()), e, agg);
      for (std::size_t p = 1; p < parents[i].size(); ++p) {
        const double* add = msg_row(parents[i][p]);
        for (std::size_t c = 0; c < e; ++c) agg[c] = agg[c] + add[c];
      }
    }
}

// The gradient of the parent sums, from the agg columns [f, cols) of g:
// block i's gradient reaches each of its parents' `blocks` for i
// descending, the first arrival copied and later ones added — the order the
// tape's reverse walk delivers it. A block no node lists stays zero.
void gather_parent_grads(nn::Tensor& dst, const nn::Tensor& g, std::size_t f,
                         const std::vector<std::vector<int>>& parents, std::size_t blocks,
                         std::vector<char>& seen) {
  const std::size_t rows = g.rows() / parents.size();
  const std::size_t e = g.cols() - f;
  dst.resize_zero(blocks * rows, e);
  seen.assign(blocks, 0);
  for (std::size_t i = parents.size(); i-- > 0;) {
    for (int src : parents[i]) {
      const auto j = static_cast<std::size_t>(src);
      for (std::size_t r = 0; r < rows; ++r) {
        const double* gi = g.data() + (i * rows + r) * g.cols() + f;
        double* out = dst.data() + (j * rows + r) * e;
        if (seen[j] == 0)
          std::copy_n(gi, e, out);
        else
          for (std::size_t c = 0; c < e; ++c) out[c] += gi[c];
      }
      seen[j] = 1;
    }
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
    : parents_{model.parents_}, slot_(model.parents_.size(), -1),
      node_features_{model.cfg_.node_features}, readout_{model.readout_} {
  for (nn::Mlp& m : model.phi_) phi_.emplace_back(m);
  for (nn::Mlp& m : model.gamma_) gamma_.emplace_back(m);
  // A non-finite phi weight can turn the tape's zero gradient rows through
  // phi_k into NaN, so then every node runs it.
  const bool every = !std::all_of(phi_.begin(), phi_.end(),
                                  [](const nn::FrozenMlp& m) { return m.finite(); });
  // slot_ first marks each sender with 0, then numbers them in node order.
  for (const auto& ps : parents_)
    for (int p : ps) slot_[static_cast<std::size_t>(p)] = 0;
  for (std::size_t j = 0; j < slot_.size(); ++j)
    if (every || slot_[j] == 0) {
      slot_[j] = static_cast<int>(senders_.size());
      senders_.push_back(j);
    }
  for (auto& ps : parents_)
    for (int& p : ps) p = slot_[static_cast<std::size_t>(p)];
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
  const std::size_t rows = nodes.rows() / n;
  const nn::Tensor* h = &nodes;
  for (std::size_t k = 0; k < phi_.size(); ++k) {
    const nn::Tensor* in = h;
    if (senders_.size() < n) {
      const std::size_t len = rows * h->cols();
      sender_in_.resize_for_overwrite(senders_.size() * rows, h->cols());
      for (std::size_t b = 0; b < senders_.size(); ++b)
        std::copy_n(h->data() + senders_[b] * len, len, sender_in_.data() + b * len);
      in = &sender_in_;
    }
    concat_parent_sums(both_, *h, phi_[k].forward(*in), parents_, rows);
    h = &gamma_[k].forward(both_);
  }
  rows_to_cols(readout_in_, *h, n);
  return readout_.forward(readout_in_);
}

const nn::Tensor& MpnnModel::Frozen::backward(const nn::Tensor& dy) {
  const std::size_t n = parents_.size();
  cols_to_rows(grad_h_, readout_.backward(dy), n);
  const std::size_t rows = grad_h_.rows() / n;
  for (std::size_t k = phi_.size(); k-- > 0;) {
    // grad_h_ is d/d(gamma_k's output); g_both is d/d[h | agg].
    const nn::Tensor& g_both = gamma_[k].backward(grad_h_);
    const std::size_t f = phi_[k].in_features();
    gather_parent_grads(grad_msg_, g_both, f, parents_, senders_.size(), seen_);
    // h's gradient: the concat slice first, phi_k's input gradient second
    // (+0 for a node that sends no message).
    const nn::Tensor& g_phi = phi_[k].backward(grad_msg_);
    grad_in_.resize_for_overwrite(g_both.rows(), f);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t r = 0; r < rows; ++r) {
        const double* slice = g_both.data() + (i * rows + r) * g_both.cols();
        double* out = grad_in_.data() + (i * rows + r) * f;
        if (slot_[i] < 0) {
          for (std::size_t c = 0; c < f; ++c) out[c] = slice[c] + 0.0;
          continue;
        }
        const double* msg = g_phi.data() + (static_cast<std::size_t>(slot_[i]) * rows + r) * f;
        for (std::size_t c = 0; c < f; ++c) out[c] = slice[c] + msg[c];
      }
    std::swap(grad_h_, grad_in_);
  }
  return grad_h_;
}

}  // namespace graf::gnn
