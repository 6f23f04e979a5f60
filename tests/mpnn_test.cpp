#include "gnn/mpnn.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"

namespace graf::gnn {
namespace {

Dag chain3() {
  Dag d;
  d.add_node("a");
  d.add_node("b");
  d.add_node("c");
  d.add_edge(0, 1);
  d.add_edge(1, 2);
  return d;
}

MpnnConfig small_cfg(bool use_mpnn = true) {
  return {.node_features = 2, .embed_dim = 6, .mpnn_hidden = 6,
          .readout_hidden = 12, .message_steps = 2, .dropout_p = 0.0,
          .use_mpnn = use_mpnn};
}

std::vector<nn::Var> features(nn::Tape& t, std::size_t nodes, std::size_t batch,
                              double fill = 0.5) {
  std::vector<nn::Var> f;
  for (std::size_t i = 0; i < nodes; ++i)
    f.push_back(t.constant(nn::Tensor::full(batch, 2, fill)));
  return f;
}

TEST(Mpnn, OutputShapeIsBatchByOne) {
  Dag d = chain3();
  Rng rng{1};
  MpnnModel m{d, small_cfg(), rng};
  nn::Tape t;
  auto f = features(t, 3, 7);
  const nn::Tensor& y = t.value(m.forward(t, f, rng, false));
  EXPECT_EQ(y.rows(), 7u);
  EXPECT_EQ(y.cols(), 1u);
}

TEST(Mpnn, AblationOmitsMessagePassingParams) {
  Dag d = chain3();
  Rng r1{1};
  MpnnModel with{d, small_cfg(true), r1};
  Rng r2{1};
  MpnnModel without{d, small_cfg(false), r2};
  EXPECT_GT(with.param_count(), without.param_count());
}

TEST(Mpnn, FeatureCountValidated) {
  Dag d = chain3();
  Rng rng{2};
  MpnnModel m{d, small_cfg(), rng};
  nn::Tape t;
  auto f = features(t, 2, 4);  // wrong: 2 features for 3 nodes
  EXPECT_THROW(m.forward(t, f, rng, false), std::invalid_argument);
}

TEST(Mpnn, RootFeatureInfluencesOutputThroughMessages) {
  // With two message steps on a 3-chain, perturbing the root's feature must
  // change the prediction (information reaches the readout both directly
  // and through descendants' embeddings).
  Dag d = chain3();
  Rng rng{3};
  MpnnModel m{d, small_cfg(), rng};

  auto eval = [&](double root_val) {
    nn::Tape t;
    std::vector<nn::Var> f;
    f.push_back(t.constant(nn::Tensor::full(1, 2, root_val)));
    f.push_back(t.constant(nn::Tensor::full(1, 2, 0.5)));
    f.push_back(t.constant(nn::Tensor::full(1, 2, 0.5)));
    return t.value(m.forward(t, f, rng, false)).item();
  };
  EXPECT_NE(eval(0.1), eval(0.9));
}

TEST(Mpnn, LeafPerturbationDoesNotChangeAncestorEmbedding) {
  // Messages flow parent -> child only; the readout still sees every node,
  // so compare two graphs where only a *sink* feature differs: outputs
  // differ (readout), but an MPNN-only probe of the root's path shouldn't.
  // Here we simply assert the forward pass is deterministic in eval mode.
  Dag d = chain3();
  Rng rng{4};
  MpnnModel m{d, small_cfg(), rng};
  nn::Tape t1;
  auto f1 = features(t1, 3, 2);
  const double a = t1.value(m.forward(t1, f1, rng, false))(0, 0);
  nn::Tape t2;
  auto f2 = features(t2, 3, 2);
  const double b = t2.value(m.forward(t2, f2, rng, false))(0, 0);
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(Mpnn, GradientsFlowToInputFeatures) {
  Dag d = chain3();
  Rng rng{5};
  MpnnModel m{d, small_cfg(), rng};
  nn::Tape t;
  std::vector<nn::Var> f;
  f.push_back(t.leaf(nn::Tensor::full(1, 2, 0.4)));
  f.push_back(t.leaf(nn::Tensor::full(1, 2, 0.5)));
  f.push_back(t.leaf(nn::Tensor::full(1, 2, 0.6)));
  nn::Var out = m.forward(t, f, rng, false);
  t.backward(out);
  // At least the direct readout path guarantees nonzero gradient for
  // generic random weights.
  double total = 0.0;
  for (const auto& v : f) total += t.grad(v).max_abs();
  EXPECT_GT(total, 0.0);
}

TEST(Mpnn, FanInAggregatesBothParents) {
  // Diamond: 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3. Perturbing either middle
  // node's features changes the output.
  Dag d;
  for (int i = 0; i < 4; ++i) d.add_node("n" + std::to_string(i));
  d.add_edge(0, 1);
  d.add_edge(0, 2);
  d.add_edge(1, 3);
  d.add_edge(2, 3);
  Rng rng{6};
  MpnnModel m{d, small_cfg(), rng};
  auto eval = [&](double v1, double v2) {
    nn::Tape t;
    std::vector<nn::Var> f;
    f.push_back(t.constant(nn::Tensor::full(1, 2, 0.5)));
    f.push_back(t.constant(nn::Tensor::full(1, 2, v1)));
    f.push_back(t.constant(nn::Tensor::full(1, 2, v2)));
    f.push_back(t.constant(nn::Tensor::full(1, 2, 0.5)));
    return t.value(m.forward(t, f, rng, false)).item();
  };
  EXPECT_NE(eval(0.2, 0.5), eval(0.8, 0.5));
  EXPECT_NE(eval(0.5, 0.2), eval(0.5, 0.8));
}

TEST(Mpnn, EmptyGraphRejected) {
  Dag d;
  Rng rng{7};
  EXPECT_THROW((MpnnModel{d, small_cfg(), rng}), std::invalid_argument);
}

// ---- Node-stacked forward contract ------------------------------------------
//
// forward() runs phi_k/gamma_k once over every node's stacked rows. It must
// reproduce, bit for bit, the per-node composition below — paper Eq. 3
// written one node at a time from the public ops and the model's own
// params() — in the output, the input-feature gradients and every
// Param::grad, on a trainable eager tape and on two deferred tapes flushed
// in order (the training shard path).

/// 0 is a parentless root with children 1, 2, 3; node 4 has three parents
/// (recorded out of index order); 4 and 5 have no children.
Dag contract_dag() {
  Dag d;
  for (int i = 0; i < 6; ++i) d.add_node("n" + std::to_string(i));
  d.add_edge(0, 1);
  d.add_edge(0, 2);
  d.add_edge(0, 3);
  d.add_edge(3, 4);
  d.add_edge(1, 4);
  d.add_edge(2, 4);
  d.add_edge(2, 5);
  return d;
}

/// One MLP over its (W, b) params: ReLU hidden layers, linear last layer.
nn::Var reference_mlp(nn::Tape& t, nn::Var x, std::span<nn::Param* const> p) {
  for (std::size_t l = 0; l < p.size(); l += 2) {
    const nn::Var w = t.param(*p[l]);
    const nn::Var b = t.param(*p[l + 1]);
    const nn::Var y = nn::matmul(x, w);
    x = l + 2 == p.size() ? nn::add_row_broadcast(y, b) : nn::bias_relu(y, b);
  }
  return x;
}

/// The per-node MPNN: params() lists phi_0.., gamma_0.., then the readout,
/// three (W, b) layers each.
nn::Var reference_forward(nn::Tape& t, MpnnModel& m, std::span<const nn::Var> feats) {
  const std::vector<nn::Param*> params = m.params();
  const auto& parents = m.parents();
  const std::size_t n = parents.size();
  const std::size_t steps = m.config().message_steps;
  const std::size_t rows = t.value(feats.front()).rows();
  const auto mlp = [&](std::size_t index) {
    return std::span<nn::Param* const>{params.data() + index * 6, 6};
  };
  std::vector<nn::Var> h{feats.begin(), feats.end()};
  for (std::size_t k = 0; k < steps; ++k) {
    std::vector<nn::Var> msg;
    for (std::size_t i = 0; i < n; ++i) msg.push_back(reference_mlp(t, h[i], mlp(k)));
    std::vector<nn::Var> next;
    for (std::size_t i = 0; i < n; ++i) {
      nn::Var agg;
      if (parents[i].empty()) {
        agg = t.constant(nn::Tensor{rows, m.config().embed_dim});
      } else {
        agg = msg[static_cast<std::size_t>(parents[i].front())];
        for (std::size_t p = 1; p < parents[i].size(); ++p)
          agg = nn::add(agg, msg[static_cast<std::size_t>(parents[i][p])]);
      }
      const nn::Var both[] = {h[i], agg};
      next.push_back(reference_mlp(t, nn::concat_cols(both), mlp(steps + k)));
    }
    h = std::move(next);
  }
  return reference_mlp(t, nn::concat_cols(h), mlp(2 * steps));
}

enum class TapeMode { kEager, kDeferred };

struct ContractRun {
  std::vector<nn::Tensor> outputs;     // per tape
  std::vector<nn::Tensor> feat_grads;  // per tape, per node
  std::vector<nn::Tensor> param_grads;
};

ContractRun run_contract(MpnnModel& m, bool stacked, TapeMode mode) {
  m.zero_grad();
  const std::size_t tapes = mode == TapeMode::kDeferred ? 2 : 1;
  Rng feat_rng{41};
  Rng dropout_rng{43};
  ContractRun run;
  std::vector<std::unique_ptr<nn::Tape>> kept;
  for (std::size_t s = 0; s < tapes; ++s) {
    nn::Tape& t = *kept.emplace_back(std::make_unique<nn::Tape>());
    t.set_defer_param_grads(mode == TapeMode::kDeferred);
    std::vector<nn::Var> feats;
    for (std::size_t i = 0; i < m.graph_size(); ++i) {
      nn::Tensor x{3, 2};
      for (std::size_t e = 0; e < x.size(); ++e) x.data()[e] = feat_rng.uniform(-1.0, 1.0);
      feats.push_back(t.leaf(std::move(x)));
    }
    const nn::Var out = stacked ? m.forward(t, feats, dropout_rng, /*training=*/true)
                                : reference_forward(t, m, feats);
    t.backward(nn::sum_all(out));
    run.outputs.push_back(t.value(out));
    for (const nn::Var& f : feats) run.feat_grads.push_back(t.grad(f));
  }
  for (auto& t : kept) t->flush_param_grads();
  for (nn::Param* p : m.params()) run.param_grads.push_back(p->grad);
  return run;
}

void expect_same_bits(const std::vector<nn::Tensor>& got,
                      const std::vector<nn::Tensor>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t t = 0; t < got.size(); ++t) {
    ASSERT_TRUE(got[t].same_shape(want[t])) << what << " #" << t;
    for (std::size_t e = 0; e < got[t].size(); ++e)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[t].data()[e]),
                std::bit_cast<std::uint64_t>(want[t].data()[e]))
          << what << " #" << t << " entry " << e;
  }
}

TEST(Mpnn, StackedForwardMatchesPerNodeCompositionBitwise) {
  Rng rng{8};
  MpnnModel m{contract_dag(), small_cfg(), rng};
  for (const TapeMode mode : {TapeMode::kEager, TapeMode::kDeferred}) {
    SCOPED_TRACE(static_cast<int>(mode));
    const ContractRun want = run_contract(m, /*stacked=*/false, mode);
    const ContractRun got = run_contract(m, /*stacked=*/true, mode);
    expect_same_bits(got.outputs, want.outputs, "output");
    expect_same_bits(got.feat_grads, want.feat_grads, "feature gradient");
    expect_same_bits(got.param_grads, want.param_grads, "Param::grad");
    double touched = 0.0;
    for (const nn::Tensor& g : got.param_grads) touched += g.max_abs();
    EXPECT_GT(touched, 0.0);
  }
}

}  // namespace
}  // namespace graf::gnn
