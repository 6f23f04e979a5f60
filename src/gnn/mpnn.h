// Message-passing neural network over the microservice DAG (paper §3.4,
// Eq. 3) plus the fully-connected readout that regresses end-to-end tail
// latency from the flattened node embeddings (paper Fig. 9).
//
// Each message-passing step k computes, for every node i,
//   e_i = gamma_k( h_i , sum_{j in parents(i)} phi_k(h_j) )
// where gamma/phi are two-hidden-layer 20-unit ReLU MLPs and h is the raw
// node feature vector at step 1 and the previous embedding afterwards.
// Setting Config::use_mpnn = false yields the paper's Fig. 11 ablation
// ("GRAF w/o MPNN"): the readout consumes the raw node features directly.
//
// The forward is node-stacked (DESIGN.md §3.2): an R-row batch of n nodes
// is one (n·R) x F matrix, node i's rows at [i·R, (i+1)·R), so phi_k and
// gamma_k each run once over every node's rows, the parent sums are one
// nn::sum_row_blocks, and nn::row_blocks_to_cols lays the final embeddings
// side by side for the readout. Rows never mix, and every weight gradient
// is reduced per node block (nn::Tape::param_blocks), so results — values,
// input gradients and Param::grad — are bit-identical to running the MLPs
// once per node. The tape forward serves training, evaluation and
// LatencyModel::predict(); MpnnModel::Frozen is the same forward, and its
// input gradient, compiled for the solver's descent (DESIGN.md §3.2).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "gnn/graph.h"
#include "nn/layers.h"

namespace graf::gnn {

struct MpnnConfig {
  /// Per-node input features. The paper's node state is the
  /// (workload, CPU quota) pair; LatencyModel additionally derives
  /// 1/quota and workload/quota (its "scaled input" stage), so its models
  /// use 4 features per node.
  std::size_t node_features = 4;
  std::size_t embed_dim = 20;       ///< node embedding width
  std::size_t mpnn_hidden = 20;     ///< hidden units in gamma/phi (paper: 20)
  std::size_t readout_hidden = 120; ///< hidden units in readout FC (paper: 120)
  std::size_t message_steps = 2;    ///< paper: two message-passing steps
  double dropout_p = 0.25;          ///< paper Table 1
  bool use_mpnn = true;             ///< false = Fig. 11 ablation
};

class MpnnModel : public nn::Module {
 public:
  class Frozen;

  /// The DAG is captured by reference to its structure (copied).
  MpnnModel(const Dag& graph, const MpnnConfig& cfg, Rng& rng);

  /// `nodes` is the node-stacked (n·batch x node_features) input, graph
  /// node i's rows at [i·batch, (i+1)·batch). Returns a (batch x 1) latency
  /// prediction (in normalized label units).
  nn::Var forward(nn::Tape& tape, nn::Var nodes, Rng& rng, bool training);
  /// node_features[i] is a (batch x node_features) Var for graph node i;
  /// stacks them and runs the forward above.
  nn::Var forward(nn::Tape& tape, std::span<const nn::Var> node_features,
                  Rng& rng, bool training);

  /// Parameters a model of this shape holds, computed without building it
  /// (saturating, nn::Mlp::param_count): lets a checkpoint decoder match an
  /// untrusted config against the parameter bytes present before the
  /// constructor allocates anything.
  static std::uint64_t param_count(std::uint64_t node_count, const MpnnConfig& cfg);
  using nn::Module::param_count;

  const MpnnConfig& config() const { return cfg_; }
  std::size_t graph_size() const { return parents_.size(); }
  /// Adjacency snapshot (parents per node) — lets the model store
  /// serialize the graph structure alongside the weights.
  const std::vector<std::vector<int>>& parents() const { return parents_; }

  void collect_params(std::vector<nn::Param*>& out) override;

 private:
  MpnnConfig cfg_;
  std::vector<std::vector<int>> parents_;  // adjacency snapshot
  // Per message step: message net phi_k and update net gamma_k.
  std::vector<nn::Mlp> phi_;
  std::vector<nn::Mlp> gamma_;
  nn::Mlp readout_;

  static nn::Mlp make_readout(const Dag& graph, const MpnnConfig& cfg, Rng& rng);
};

/// The eval-mode forward over node-stacked rows with the weights frozen:
/// every phi_k, gamma_k and the readout as an nn::FrozenMlp, the parent
/// sums, concat and readout layout done in place. backward() returns the
/// node features' gradient. Both are bit-identical to the tape (DESIGN.md
/// §3.2):
/// - phi_k runs only over the senders' row blocks (the nodes some node
///   lists as a parent), gathered in node order into one compact block.
///   Rows never mix, so their messages equal the tape's, and the tape's
///   messages of the other nodes are never read. The parent sums are
///   written straight into gamma_k's input [h | agg].
/// - Where an embedding h feeds both gamma_k (through the concat) and
///   phi_k, its gradient is the concat slice plus phi_k's input gradient.
///   The tape sends a non-sender's zero gradient rows through phi_k, which
///   with finite phi weights come back as +0, so its gradient is the slice
///   plus 0.0. If a phi weight is not finite, every node counts as a sender.
/// - The parent sums' gradient is gathered for node blocks in descending
///   order, as the tape's reverse walk delivers them.
class MpnnModel::Frozen {
 public:
  explicit Frozen(MpnnModel& model);

  /// Every phi_k, gamma_k and readout weight finite (nn::FrozenMlp::finite):
  /// then backward() maps a zero row of dy to zero rows of every node's
  /// features, as the layout steps only copy and add.
  bool finite() const;

  /// (n·R) x node_features node-stacked features -> R x 1 (normalized
  /// latency), valid until the next forward().
  const nn::Tensor& forward(const nn::Tensor& nodes);
  /// d(loss)/d(output) of the last forward (R x 1) -> the features'
  /// gradient ((n·R) x node_features), valid until the next backward().
  const nn::Tensor& backward(const nn::Tensor& dy);

 private:
  // Node i's parents as sender blocks: block b holds node senders_[b]'s
  // rows, and slot_[j] is node j's block, or -1 for a node that sends none.
  std::vector<std::vector<int>> parents_;
  std::vector<int> slot_;
  std::vector<std::size_t> senders_;
  std::size_t node_features_;
  std::vector<nn::FrozenMlp> phi_;
  std::vector<nn::FrozenMlp> gamma_;
  nn::FrozenMlp readout_;
  nn::Tensor sender_in_, both_, readout_in_;  // forward scratch
  nn::Tensor grad_h_, grad_in_, grad_msg_;  // backward scratch
  std::vector<char> seen_;
};

}  // namespace graf::gnn
