// End-to-end tail-latency prediction model (paper §3.4).
//
// Wraps the MPNN + readout network with input/output normalization, the
// asymmetric Hüber percentage-error loss (Table 1), and a differentiable-
// inputs entry point used by the configuration solver (§3.5). Also home of
// the one training loop (fit_sharded: validation-based best-model
// selection included) that the surrogate (§3.14) and the partitioned model
// (§6) run too, and of the feature convention their tape forwards share.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/rng.h"
#include "gnn/graph.h"
#include "gnn/mpnn.h"
#include "nn/autodiff.h"
#include "telemetry/metrics.h"

namespace graf::gnn {

/// One collected observation: per-node workloads (qps), per-node CPU quotas
/// (millicores), and the measured end-to-end tail latency (milliseconds).
struct Sample {
  std::vector<double> workload;
  std::vector<double> quota;
  double latency_ms = 0.0;
};

using Dataset = std::vector<Sample>;

/// Training hyper-parameters; defaults follow the paper's Table 1. The
/// benchmark harness overrides `iterations` downward so the whole suite
/// runs on one CPU core.
struct TrainConfig {
  std::size_t iterations = 70000;  ///< gradient steps (Table 1 "epochs")
  std::size_t batch_size = 256;
  double lr = 2e-4;
  /// Step learning-rate decay: lr *= lr_decay_factor every lr_decay_every
  /// iterations (disabled when lr_decay_every == 0). The paper's fixed
  /// 2e-4 over 70k iterations is approximated at lower budgets by starting
  /// higher and decaying.
  std::size_t lr_decay_every = 0;
  double lr_decay_factor = 0.5;
  double theta_under = 0.3;  ///< quadratic bound, under-estimation side
  double theta_over = 0.1;   ///< quadratic bound, over-estimation side
  std::size_t eval_every = 250;  ///< history cadence; 0 = final iteration only
  std::uint64_t seed = 1;
  bool select_best = true;  ///< restore best-validation weights after training
  /// Data-parallel sharding: each minibatch is split into ceil(batch_size /
  /// shard_rows) shards executed on the global thread pool, with gradients
  /// reduced into the shared Adam step in shard order. The decomposition —
  /// and therefore the trained weights, bit-for-bit — depends only on this
  /// value, never on the thread count (DESIGN.md §3.7). 0 disables sharding
  /// (one shard, still thread-count independent).
  std::size_t shard_rows = 32;
};

struct TrainHistory {
  std::vector<std::size_t> iteration;
  std::vector<double> train_loss;  ///< running batch loss at each eval point
  std::vector<double> val_loss;
  double best_val_loss = 0.0;
};

/// Accuracy summary used by the paper's Table 2.
struct AccuracyReport {
  double mean_abs_pct_error = 0.0;  ///< mean |pred-actual|/actual, percent
  double mean_pct_error = 0.0;      ///< signed mean; >0 means over-estimation
  std::size_t count = 0;
};

/// Input/output normalization statistics fitted from the training set.
/// Exposed as one value struct so checkpoints (src/serve) can persist and
/// restore them exactly.
struct ScalerState {
  double w_scale = 1.0;
  double q_scale = 1.0;
  double q_min_mc = 1.0;
  double ratio_max = 1.0;
  double label_ref = 1.0;
};

/// The four division-form features of one node's (workload w, quota q):
/// w·w_scale, q·q_scale, q_min_mc/q and w/q/ratio_max, into f[0..3]
/// (DESIGN.md §3.2). Every tape forward reads these bits; QuotaPass writes
/// the multiplicative form, whose bits differ.
inline void write_node_features(const ScalerState& s, double w, double q, double* f) {
  f[0] = w * s.w_scale;
  f[1] = q * s.q_scale;
  f[2] = s.q_min_mc / q;
  f[3] = w / q / s.ratio_max;
}

/// A model's loss over the samples data[idx], recorded on `tape`: its
/// forward (dropout drawn from `rng` when `training`) and its loss
/// expression, a 1 x 1 Var. Everything the Var reads lives on the tape
/// (Tape::stage + commit_constant): nothing of the call outlives it.
using BatchLoss = std::function<nn::Var(nn::Tape& tape, const Dataset& data,
                                        std::span<const std::size_t> idx, Rng& rng,
                                        bool training)>;

/// The teacher's and the partitioned model's batch loss (Table 1): the
/// asymmetric Hüber percentage error of `pred` (B x 1, in units of
/// label_ref) against the latencies of data[idx], staged on pred's tape.
nn::Var latency_pct_loss(nn::Var pred, const Dataset& data,
                         std::span<const std::size_t> idx, double label_ref,
                         double theta_under, double theta_over);

/// The training loop of every latency model (§3.4, Table 1): Adam over
/// `params` on reshuffled epochs of `train`, the step lr decay, `val` loss
/// every cfg.eval_every iterations (0: the last only) and the best-validation
/// restore. Each minibatch splits into ceil(batch_size / shard_rows) shards
/// on the global pool, each on its own deferred tape with dropout stream
/// derive_seed(derive_seed(cfg.seed, it), shard) and weight len/batch_size,
/// their gradients flushed in shard order: the trained bits depend only on
/// cfg, never on the thread count (DESIGN.md §3.7). Rejects an empty
/// `train`, a zero batch_size and any sample of `train` or `val` that is not
/// `node_count` wide or has a quota that is not > 0, before anything moves;
/// then fits `*refit` from `train` unless it is null, and gives a parameter
/// without a gradient buffer (LatencyModel::release_grads) a zeroed one.
/// `step_timer` times each step from the coordinating thread.
TrainHistory fit_sharded(std::vector<nn::Param*> params, std::size_t node_count,
                         const BatchLoss& loss, const Dataset& train,
                         const Dataset& val, const TrainConfig& cfg,
                         ScalerState* refit,
                         telemetry::LogHistogram* step_timer = nullptr);

/// Mean eval-mode `loss` over `data` (checked as fit_sharded checks it), in
/// 512-sample chunks.
double mean_loss(const BatchLoss& loss, std::size_t node_count, const Dataset& data);

/// Table 2's percentage-error summary of `predict` over the samples whose
/// latency lies in [region_lo_ms, region_hi_ms).
AccuracyReport accuracy_report(const Dataset& data, double region_lo_ms,
                               double region_hi_ms,
                               const std::function<double(const Sample&)>& predict);

/// A compiled, frozen value-and-input-gradient pass over R quota rows: what
/// the configuration solver descends through (DESIGN.md §3.9). The model's
/// weights, and every feature column that depends only on the workload, are
/// fixed when the pass is built. forward() maps R x n millicore quotas to
/// R x 1 predicted latencies (ms); backward() maps d(loss)/d(prediction) of
/// the last forward to the R x n quota gradient. Rows never mix: an R-row
/// pass equals R 1-row passes, bit for bit. Both are bit-identical to the
/// same forward composed of autodiff tape ops (LatencyModel::Pass,
/// SurrogateModel::Pass; tests/frozen_pass_test.cpp pins them).
class QuotaPass {
 public:
  virtual ~QuotaPass();

  std::size_t rows() const;
  std::size_t node_count() const;

  /// R x n quotas -> R x 1 predictions (ms), valid until the next forward().
  virtual const nn::Tensor& forward(const nn::Tensor& quota) = 0;
  /// R x 1 prediction gradient of the last forward -> R x n quota gradient,
  /// valid until the next backward().
  virtual const nn::Tensor& backward(const nn::Tensor& dpred) = 0;

  /// Whether backward() returns exactly +0 on every row whose prediction
  /// gradient is zero and whose last prediction is finite. True when the
  /// weights, the scalers and the workload's ratio column are finite
  /// (checked once, when the pass is built) and so is every 1/q of the last
  /// forward. A zero row then meets only finite factors — label_ref, the
  /// weights, q_scale, q_min_mc, the ratio column, 1/q and, in
  /// SurrogateModel::Pass, the row's exp(y), finite with its prediction —
  /// ReLU masks select, and each quota gradient's last sum adds a zero to
  /// +0. The descent skips a backward that could only add +0 (DESIGN.md
  /// §3.9). Virtual so that a pass wrapping another can report the inner's.
  virtual bool zero_rows_stay_zero() const;

 protected:
  /// `workload_qps` is R x n (row r's per-node workload). The four features
  /// of (row r, node i) are written contiguously: at row i·R + r of an
  /// (n·R) x 4 matrix when `node_stacked` (the MPNN's layout), else at
  /// columns [4i, 4i + 4) of row r of an R x 4n matrix.
  QuotaPass(const nn::Tensor& workload_qps, const ScalerState& scalers,
            bool node_stacked);

  /// x <- the features of `quota`: w·w_scale, q·q_scale, (1/q)·q_min_mc and
  /// (1/q)·(w/ratio_max), the tape's products.
  void write_features(const nn::Tensor& quota, nn::Tensor& x);
  /// The R x n quota gradient from `gx`, the gradient of the features the
  /// last write_features() produced, accumulated in the tape's order.
  const nn::Tensor& quota_grad(const nn::Tensor& gx);

  ScalerState scalers_;
  /// The scalers and the ratio column finite; a derived constructor ANDs in
  /// its frozen weights (zero_rows_stay_zero()).
  bool constants_finite_ = false;

 private:
  std::size_t feature_offset(std::size_t r, std::size_t i) const;

  std::size_t rows_;
  std::size_t node_count_;
  bool node_stacked_;
  std::vector<double> w_feat_;  // w·w_scale, per (row r, node i) at r·n + i
  std::vector<double> ratio_;   // w/ratio_max
  std::vector<double> q_inv_;   // 1/q of the last forward
  nn::Tensor grad_;
};

class LatencyModel {
 public:
  class Pass;

  /// Features per node: workload, quota, 1/quota, workload/quota — the raw
  /// (workload, quota) node state of the paper plus the two derived
  /// "scaled inputs" that make the latency hyperbola learnable at small
  /// sample budgets (DESIGN.md §3.2).
  static constexpr std::size_t kNodeFeatures = 4;

  /// Requires cfg.node_features == kNodeFeatures.
  LatencyModel(const Dag& graph, const MpnnConfig& cfg, std::uint64_t seed);

  std::size_t node_count() const { return node_count_; }

  /// Trainable parameter count (scalability reporting; grows linearly with
  /// the application size through the readout, §6).
  std::size_t param_count() { return model_.param_count(); }

  /// Train on `train`, monitor `val` (fit_sharded). Normalization scalers
  /// are (re)fitted from `train`. Returns loss history for learning-curve
  /// reporting.
  TrainHistory fit(const Dataset& train, const Dataset& val, const TrainConfig& cfg);

  /// Predict end-to-end tail latency (ms) in eval mode (dropout off).
  double predict(std::span<const double> workload_qps,
                 std::span<const double> quota_millicores);

  /// Mean training-loss value of the current weights over a dataset
  /// (eval mode) — used for learning curves and the Fig. 11 ablation.
  double evaluate_loss(const Dataset& data, double theta_under, double theta_over);

  /// Percentage-error accuracy over samples whose actual latency lies in
  /// [region_lo_ms, region_hi_ms) — Table 2's per-region rows.
  AccuracyReport evaluate_accuracy(const Dataset& data, double region_lo_ms = 0.0,
                                   double region_hi_ms = 1e18);

  // --- Model-store hooks (src/serve) ---------------------------------------

  /// Node names captured from the construction DAG (checkpoint metadata).
  const std::vector<std::string>& node_names() const { return node_names_; }
  const MpnnConfig& mpnn_config() const { return model_.config(); }
  /// Adjacency (parents per node) captured from the construction DAG.
  const std::vector<std::vector<int>>& graph_parents() const { return model_.parents(); }

  ScalerState scalers() const {
    return {w_scale_, q_scale_, q_min_mc_, ratio_max_, label_ref_};
  }
  void set_scalers(const ScalerState& s);

  /// The trainable parameters (weight and gradient), in state_dict order.
  std::vector<nn::Param*> params() { return model_.params(); }
  /// Copies of all weights / overwrite weights (shape-checked).
  std::vector<nn::Tensor> state_dict() { return model_.state_dict(); }
  void load_state_dict(const std::vector<nn::Tensor>& state) {
    model_.load_state_dict(state);
  }

  /// Independent deep copy (weights, scalers, rng state). The clone can be
  /// fine-tuned in the background while `this` keeps serving. Telemetry
  /// attachment (histogram pointers into an external registry) is shared.
  LatencyModel clone() const { return *this; }

  /// Free the gradient buffers, training scratch that is zero at rest: a
  /// registry version keeps weights, scalers and metadata only. fit() on
  /// the model, or on a clone of it, allocates them again.
  void release_grads();

  /// Profile MPNN wall time into `gnn.forward_us` (evaluation / predict
  /// forwards) and `gnn.train_step_us` (one fused data-parallel
  /// forward+backward+reduce training step; recorded from the coordinating
  /// thread so worker shards stay instrument-free and race-free). nullptr
  /// detaches (default, zero overhead).
  void set_metrics(telemetry::MetricsRegistry* registry);

 private:
  /// The asymmetric Hüber percentage loss of the MPNN over node-stacked
  /// features ((n·B) x F, node i's rows at [i·B, (i+1)·B)) scaled by `s`,
  /// which must outlive the function. Training shards only read `model_`'s
  /// weights; an eval-mode forward is timed.
  BatchLoss batch_loss(const ScalerState& s, double theta_under, double theta_over);

  std::size_t node_count_;
  std::vector<std::string> node_names_;
  Rng rng_;  // declared before model_ so it can seed weight initialization
  MpnnModel model_;
  double w_scale_ = 1.0;
  double q_scale_ = 1.0;
  double q_min_mc_ = 1.0;    ///< min training quota; scales the 1/q feature
  double ratio_max_ = 1.0;   ///< max training workload/quota ratio
  double label_ref_ = 1.0;
  telemetry::LogHistogram* forward_timer_ = nullptr;
  telemetry::LogHistogram* train_step_timer_ = nullptr;
};

/// The latency model's QuotaPass: the features in their multiplicative
/// form (predict() divides instead), node-stacked, through
/// MpnnModel::Frozen, times label_ref. `workload_qps` is R x node_count;
/// one pass carries every start of every tenant in a fleet batch (§3.13).
class LatencyModel::Pass final : public QuotaPass {
 public:
  Pass(LatencyModel& model, const nn::Tensor& workload_qps);

  const nn::Tensor& forward(const nn::Tensor& quota) override;
  const nn::Tensor& backward(const nn::Tensor& dpred) override;

 private:
  MpnnModel::Frozen mpnn_;
  nn::Tensor x_, pred_, grad_pred_;
};

}  // namespace graf::gnn
