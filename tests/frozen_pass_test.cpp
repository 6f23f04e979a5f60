// The frozen quota passes (gnn::LatencyModel::Pass, gnn::SurrogateModel::Pass)
// against the same forward composed of public autodiff tape ops, with the
// model's weights as tape constants: predictions and quota gradients must
// match bit for bit. Tiny models are trained on all four paper topologies —
// the latency model with and without message passing, and a surrogate on
// the teacher's scalers — and compared at R = 1, 2 and 6 quota rows, for
// prediction gradients with positive, negative and zero entries, reusing
// one pass across calls as the solver does. The senders-only message step
// is also checked on graphs the paper topologies lack, and with a phi weight
// that is not finite.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/catalog.h"
#include "apps/topology.h"
#include "common/rng.h"
#include "gnn/latency_model.h"
#include "gnn/surrogate_model.h"
#include "nn/autodiff.h"

namespace graf::gnn {
namespace {

/// Sum of per-service M/M/1-style stage latencies.
double truth_ms(const std::vector<double>& w, const std::vector<double>& q,
                const std::vector<double>& demand) {
  double total = 0.0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    const double cores = q[i] / 1000.0;
    const double base = demand[i] / std::min(cores, 1.0);
    const double utilization = std::min(w[i] * demand[i] / (cores * 1000.0), 0.95);
    total += base / (1.0 - utilization);
  }
  return total;
}

Dataset dataset(const std::vector<double>& demand, std::uint64_t seed) {
  const std::size_t n = demand.size();
  Rng rng{seed};
  Dataset data;
  for (int s = 0; s < 256; ++s) {
    Sample sample;
    sample.workload.assign(n, rng.uniform(20.0, 100.0));
    sample.quota.resize(n);
    for (double& q : sample.quota) q = rng.uniform(200.0, 2000.0);
    sample.latency_ms = truth_ms(sample.workload, sample.quota, demand);
    data.push_back(std::move(sample));
  }
  return data;
}

Dataset dataset(const apps::Topology& topo, std::uint64_t seed) {
  std::vector<double> demand;
  for (const auto& s : topo.services) demand.push_back(s.demand_mean_ms);
  return dataset(demand, seed);
}

const TrainConfig kTrain{.iterations = 150, .batch_size = 32, .lr = 3e-3, .eval_every = 0,
                         .seed = 3};

std::unique_ptr<LatencyModel> trained_latency(const Dag& dag, const Dataset& data,
                                              bool use_mpnn) {
  auto m = std::make_unique<LatencyModel>(
      dag,
      MpnnConfig{.node_features = 4, .embed_dim = 8, .mpnn_hidden = 8,
                 .readout_hidden = 16, .message_steps = 2, .dropout_p = 0.1,
                 .use_mpnn = use_mpnn},
      7);
  m->fit(data, {}, kTrain);
  return m;
}

std::unique_ptr<LatencyModel> trained_latency(const apps::Topology& topo, bool use_mpnn) {
  return trained_latency(apps::make_dag(topo), dataset(topo, 41), use_mpnn);
}

/// n nodes and the given (parent, child) edges, stages of 2, 3, ... ms.
std::unique_ptr<LatencyModel> trained_latency(std::size_t n,
                                              const std::vector<std::pair<int, int>>& edges) {
  Dag dag;
  std::vector<double> demand;
  for (std::size_t i = 0; i < n; ++i) {
    dag.add_node("s" + std::to_string(i));
    demand.push_back(2.0 + static_cast<double>(i));
  }
  for (const auto& [parent, child] : edges) dag.add_edge(parent, child);
  return trained_latency(dag, dataset(demand, 41), true);
}

/// Bit equality, except that any two NaNs match: which NaN payload an fma
/// or add returns depends on the operand order the compiler picks.
bool same_bits(double x, double y) {
  return (std::isnan(x) && std::isnan(y)) ||
         std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
}

/// Row r of each input, drawn once per (topology, R).
struct Rows {
  nn::Tensor workload, quota;
};

Rows draw_rows(std::size_t rows, std::size_t n, std::uint64_t seed) {
  Rng rng{seed};
  Rows out{nn::Tensor{rows, n}, nn::Tensor{rows, n}};
  for (std::size_t e = 0; e < rows * n; ++e) {
    out.workload.data()[e] = rng.uniform(20.0, 100.0);
    out.quota.data()[e] = rng.uniform(200.0, 2000.0);
  }
  return out;
}

/// Prediction gradient v: every row takes each of +, -, 0 across v = 0..2.
nn::Tensor dpred(std::size_t rows, std::size_t v) {
  const double pattern[] = {0.75, -1.25, 0.0};
  nn::Tensor d{rows, 1};
  for (std::size_t r = 0; r < rows; ++r) d(r, 0) = pattern[(r + v) % 3];
  return d;
}

/// `layers` (W, b) pairs of `w` from index `first`: ReLU hidden layers,
/// a linear last layer.
nn::Var reference_mlp(nn::Tape& t, nn::Var x, const std::vector<nn::Tensor>& w,
                      std::size_t first, std::size_t layers) {
  for (std::size_t l = 0; l < layers; ++l) {
    const nn::Var y = nn::matmul(x, t.constant_ref(w[first + 2 * l]));
    const nn::Var b = t.constant_ref(w[first + 2 * l + 1]);
    x = l + 1 == layers ? nn::add_row_broadcast(y, b) : nn::bias_relu(y, b);
  }
  return x;
}

/// The latency model over R quota rows: node-stacked features
/// [w·w_scale, q·q_scale, (1/q)·q_min_mc, (1/q)·(w/ratio_max)], the MPNN
/// (params() order: phi_k, gamma_k, readout, three layers each), times
/// label_ref.
nn::Var reference_forward(nn::Tape& t, LatencyModel& m, const std::vector<nn::Tensor>& w,
                          const nn::Tensor& workload, nn::Var quota) {
  const std::size_t n = m.node_count();
  const std::size_t rows = workload.rows();
  const ScalerState s = m.scalers();
  nn::Tensor w_col{n * rows, 1};
  nn::Tensor ratio_col{n * rows, 1};
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t r = 0; r < rows; ++r) {
      w_col(i * rows + r, 0) = workload(r, i) * s.w_scale;
      ratio_col(i * rows + r, 0) = workload(r, i) / s.ratio_max;
    }
  const nn::Var q = nn::col_blocks_to_rows(quota, n);
  const nn::Var q_inv = nn::reciprocal(q);
  const nn::Var parts[] = {t.constant(std::move(w_col)), nn::scale(q, s.q_scale),
                           nn::scale(q_inv, s.q_min_mc),
                           nn::mul(q_inv, t.constant(std::move(ratio_col)))};
  nn::Var h = nn::concat_cols(parts);
  const MpnnConfig& cfg = m.mpnn_config();
  const std::size_t steps = cfg.use_mpnn ? cfg.message_steps : 0;
  for (std::size_t k = 0; k < steps; ++k) {
    const nn::Var msg = reference_mlp(t, h, w, 6 * k, 3);
    const nn::Var both[] = {h, nn::sum_row_blocks(msg, m.graph_parents())};
    h = reference_mlp(t, nn::concat_cols(both), w, 6 * (steps + k), 3);
  }
  const nn::Var out = reference_mlp(t, nn::row_blocks_to_cols(h, n), w, 12 * steps, 3);
  return nn::scale(out, s.label_ref);
}

/// The surrogate over R quota rows: per node, the same four features side
/// by side, the MLP, exp() and label_ref.
nn::Var reference_forward(nn::Tape& t, SurrogateModel& m, const std::vector<nn::Tensor>& w,
                          const nn::Tensor& workload, nn::Var quota) {
  const std::size_t rows = workload.rows();
  const ScalerState s = m.scalers();
  std::vector<nn::Var> cols;
  for (std::size_t i = 0; i < m.node_count(); ++i) {
    const nn::Var q = nn::slice_cols(quota, i, 1);
    const nn::Var q_inv = nn::reciprocal(q);
    nn::Tensor w_col{rows, 1};
    nn::Tensor ratio_col{rows, 1};
    for (std::size_t r = 0; r < rows; ++r) {
      w_col(r, 0) = workload(r, i) * s.w_scale;
      ratio_col(r, 0) = workload(r, i) / s.ratio_max;
    }
    cols.push_back(t.constant(std::move(w_col)));
    cols.push_back(nn::scale(q, s.q_scale));
    cols.push_back(nn::scale(q_inv, s.q_min_mc));
    cols.push_back(nn::mul(q_inv, t.constant(std::move(ratio_col))));
  }
  const nn::Var out = reference_mlp(t, nn::concat_cols(cols), w, 0, w.size() / 2);
  return nn::scale(nn::exp(out), s.label_ref);
}

/// The tape's predictions and d(sum(pred · dpred))/d(quota) — the gradient
/// a pass's backward(dpred) must equal.
template <typename Model>
void tape_reference(Model& model, const Rows& in, const nn::Tensor& d,
                    nn::Tensor& pred, nn::Tensor& grad) {
  const std::vector<nn::Tensor> weights = model.state_dict();
  nn::Tape tape;
  const nn::Var q = tape.leaf(in.quota);
  const nn::Var p = reference_forward(tape, model, weights, in.workload, q);
  tape.backward(nn::sum_all(nn::mul(p, tape.constant(d))));
  pred = tape.value(p);
  grad = tape.grad(q);
}

template <typename Model>
void expect_pass_matches_tape(Model& model, std::size_t n, const std::string& what) {
  for (std::size_t rows : {1u, 2u, 6u}) {
    const Rows in = draw_rows(rows, n, 100 + rows);
    typename Model::Pass pass{model, in.workload};
    ASSERT_EQ(pass.rows(), rows);
    ASSERT_EQ(pass.node_count(), n);
    for (std::size_t v = 0; v < 3; ++v) {
      SCOPED_TRACE(what + " R=" + std::to_string(rows) + " dpred#" + std::to_string(v));
      const nn::Tensor d = dpred(rows, v);
      nn::Tensor want_pred, want_grad;
      tape_reference(model, in, d, want_pred, want_grad);
      const nn::Tensor& pred = pass.forward(in.quota);
      ASSERT_TRUE(pred.same_shape(want_pred));
      for (std::size_t r = 0; r < rows; ++r)
        EXPECT_TRUE(same_bits(pred(r, 0), want_pred(r, 0)))
            << "row " << r << ": " << pred(r, 0) << " vs " << want_pred(r, 0);
      const nn::Tensor& grad = pass.backward(d);
      ASSERT_TRUE(grad.same_shape(want_grad));
      for (std::size_t e = 0; e < grad.size(); ++e)
        EXPECT_TRUE(same_bits(grad.data()[e], want_grad.data()[e]))
            << "entry " << e << ": " << grad.data()[e] << " vs " << want_grad.data()[e];
    }
  }
}

TEST(FrozenPass, LatencyPassMatchesTapeBitwise) {
  for (const apps::Topology& topo : apps::all_applications())
    for (bool use_mpnn : {true, false}) {
      std::unique_ptr<LatencyModel> m = trained_latency(topo, use_mpnn);
      expect_pass_matches_tape(*m, topo.service_count(),
                               topo.name + (use_mpnn ? "/mpnn" : "/no-mpnn"));
    }
}

TEST(FrozenPass, SurrogatePassMatchesTapeBitwise) {
  for (const apps::Topology& topo : apps::all_applications()) {
    std::unique_ptr<LatencyModel> teacher = trained_latency(topo, true);
    SurrogateModel s{topo.service_count(), {.hidden = 12, .hidden_layers = 2}, 9};
    s.set_scalers(teacher->scalers());
    s.fit(dataset(topo, 43), {}, kTrain);
    expect_pass_matches_tape(s, topo.service_count(), topo.name + "/surrogate");
  }
}

// The message step runs phi_k only over the senders' row blocks. An
// edgeless graph has no sender, so phi_k runs on no rows and every node's
// gradient is the concat slice plus 0.0; in a diamond (0 -> 1, 0 -> 2,
// 1 -> 3, 2 -> 3) the sink sums two parents' messages and sends none.
TEST(FrozenPass, SendersOnlyMessagesMatchTapeBitwise) {
  std::unique_ptr<LatencyModel> edgeless = trained_latency(4, {});
  expect_pass_matches_tape(*edgeless, 4, "edgeless");
  std::unique_ptr<LatencyModel> diamond = trained_latency(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  ASSERT_EQ(diamond->graph_parents()[3].size(), 2u);
  expect_pass_matches_tape(*diamond, 4, "diamond");
}

// A NaN weight on phi_0's q·q_scale input of its first hidden unit: ReLU
// zeroes the unit in the forward, but the tape's backward sends 0·NaN into
// the input gradient of every node phi_0 ran on, senders or not. The pass
// then runs phi_k over every node, so a node that sends nothing gets the
// tape's NaN too.
TEST(FrozenPass, NonFinitePhiWeightRunsEveryNode) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::unique_ptr<LatencyModel>> models;
  models.push_back(trained_latency(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}}));
  models.push_back(trained_latency(4, {}));
  for (std::unique_ptr<LatencyModel>& m : models) {
    std::vector<nn::Tensor> state = m->state_dict();
    ASSERT_EQ(state.front().rows(), LatencyModel::kNodeFeatures);
    state.front()(1, 0) = nan;
    m->load_state_dict(state);
    const Rows in = draw_rows(2, 4, 7);
    LatencyModel::Pass pass{*m, in.workload};
    ASSERT_TRUE(std::isfinite(pass.forward(in.quota)(0, 0))) << "ReLU must hide the NaN";
    const nn::Tensor& grad = pass.backward(dpred(2, 0));
    EXPECT_TRUE(std::isnan(grad(0, 3))) << "the sink's gradient, as the tape gives it";
    expect_pass_matches_tape(*m, 4, m->graph_parents()[3].empty() ? "edgeless" : "diamond");
  }
}

}  // namespace
}  // namespace graf::gnn
