// Distilled fast-path latency surrogate (DESIGN.md §3.14).
//
// A small dense MLP over the *same* per-node workload/config features the
// full MPNN latency model consumes (w·w_scale, q·q_scale, q_min/q,
// (w/q)/ratio_max — flattened to one 4n-wide row), trained by an offline
// distillation pass against teacher predictions sampled around the
// operating region. The surrogate is orders of magnitude smaller than the
// MPNN, so the configuration solver's multi-start descent runs ~20x+
// faster through it; the tiered planner (core/tiered_planner.h)
// verifies every surrogate-solved candidate with one full-GNN forward and
// escalates when the two disagree beyond a trust band.
//
// The surrogate reuses the LatencyModel contract wholesale: the scalers are
// *copied from the teacher* (never refitted) so feature bits match the
// teacher's exactly, fit() runs the teacher's own shard-deterministic loop
// (fit_sharded: deferred param grads, shard-ordered reduction — bit-identical
// at any GRAF_THREADS), and SurrogateModel::Pass is the same row-batched
// QuotaPass the solver descends through (rows never mix, DESIGN.md
// §3.9/§3.13).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "gnn/latency_model.h"
#include "nn/autodiff.h"
#include "nn/layers.h"
#include "telemetry/metrics.h"

namespace graf::gnn {

/// Surrogate architecture: a ReLU MLP {4n, hidden x hidden_layers, 1}
/// predicting log(latency/label_ref); the pass wraps the readout in exp(), so the reported latency is always positive and the hyperbolic
/// blow-up near saturation is fit in a compressed range.
struct SurrogateConfig {
  std::size_t hidden = 32;
  std::size_t hidden_layers = 2;
  double dropout_p = 0.0;
};

class SurrogateModel {
 public:
  class Pass;

  /// Same per-node feature convention as the teacher (LatencyModel).
  static constexpr std::size_t kNodeFeatures = LatencyModel::kNodeFeatures;

  SurrogateModel(std::size_t node_count, const SurrogateConfig& cfg,
                 std::uint64_t seed);

  std::size_t node_count() const { return node_count_; }
  std::size_t param_count() { return mlp_.param_count(); }

  /// Train on teacher-labelled samples through fit_sharded, the loop
  /// LatencyModel::fit runs. Scalers are NOT refitted here — the distiller
  /// injects the teacher's via set_scalers() so the surrogate and the
  /// teacher read bit-identical features at every query point.
  TrainHistory fit(const Dataset& train, const Dataset& val, const TrainConfig& cfg);

  /// Eval-mode prediction (ms): a one-row Pass, so the scalar path reports
  /// the exact bits the solver's stacked scoring forward sees.
  double predict(std::span<const double> workload_qps,
                 std::span<const double> quota_millicores);

  /// Mean training-loss value over a dataset (eval mode).
  double evaluate_loss(const Dataset& data, double theta_under, double theta_over);
  /// Percentage-error accuracy against the dataset labels (for distillation
  /// sets the labels are teacher predictions, so this reads as
  /// surrogate-vs-teacher fidelity).
  AccuracyReport evaluate_accuracy(const Dataset& data, double region_lo_ms = 0.0,
                                   double region_hi_ms = 1e18);

  ScalerState scalers() const { return s_; }
  void set_scalers(const ScalerState& s) { s_ = s; }

  std::vector<nn::Tensor> state_dict() { return mlp_.state_dict(); }
  void load_state_dict(const std::vector<nn::Tensor>& state) {
    mlp_.load_state_dict(state);
  }

  /// Independent deep copy (weights, scalers, rng state): each planner
  /// that shares a distilled surrogate gets its own instance.
  SurrogateModel clone() const { return *this; }

  /// Content fingerprint (FNV-1a 64) over everything that shapes a forward:
  /// node count, architecture, scaler bits, every weight bit. Equal
  /// fingerprints imply bit-identical predictions, so the fleet may batch
  /// tenants through either instance (pointer identity plays no part).
  static std::uint64_t fingerprint(SurrogateModel& model);

 private:
  /// The log-space asymmetric Hüber loss of the MLP over flat features
  /// (B x 4n) against log(latency / label_ref).
  BatchLoss batch_loss(double theta_under, double theta_over);

  std::size_t node_count_;
  SurrogateConfig cfg_;
  Rng rng_;  // declared before mlp_ so it can seed weight initialization
  nn::Mlp mlp_;
  ScalerState s_{};
};

/// The surrogate's QuotaPass: the teacher's features flattened per row
/// (R x 4n), through the frozen MLP, exp() and label_ref, and the quota
/// gradient of that forward.
class SurrogateModel::Pass final : public QuotaPass {
 public:
  /// `workload_qps` is R x node_count.
  Pass(SurrogateModel& model, const nn::Tensor& workload_qps);

  const nn::Tensor& forward(const nn::Tensor& quota) override;
  const nn::Tensor& backward(const nn::Tensor& dpred) override;

 private:
  nn::FrozenMlp mlp_;
  nn::Tensor x_, exp_, pred_, grad_out_;
};

/// Offline distillation pass configuration.
struct DistillConfig {
  /// Teacher queries sampled around the operating region.
  std::size_t samples = 4096;
  /// Tail fraction of the sample set held out for fidelity validation.
  double val_fraction = 0.125;
  /// Per-node workload draws cover [workload_floor * hi_w, hi_w].
  double workload_floor = 0.0;
  /// Fraction of samples whose per-node workloads share one common scale
  /// t·hi_w (the correlated-load ray) instead of independent draws.
  /// Microservice load is frontend-driven, so planner queries cluster near
  /// that ray — independent draws alone essentially never cover it once the
  /// graph has more than a few nodes.
  double correlated_fraction = 0.5;
  /// Fraction of samples whose quotas are drawn log-uniformly over [lo, hi]
  /// instead of uniformly: latency curvature concentrates near the low-quota
  /// saturation cliffs, and uniform draws leave that region thin.
  double low_quota_bias = 0.5;
  std::uint64_t seed = 20177;
  SurrogateConfig model;
  /// Short, decayed schedule — the surrogate is tiny and the teacher
  /// surface smooth, so a few thousand steps reach low single-digit
  /// percentage fidelity. Thetas are symmetric (unlike the teacher's
  /// SLO-safe under-estimation bias): the tiered planner's trust band is a
  /// symmetric |surrogate - full| check, and the teacher labels already
  /// carry the safety bias, so skewing the surrogate *again* would only
  /// widen disagreement on the over-prediction side.
  TrainConfig train{.iterations = 3000,
                    .batch_size = 128,
                    .lr = 3e-3,
                    .lr_decay_every = 600,
                    .lr_decay_factor = 0.6,
                    .theta_under = 0.1,
                    .theta_over = 0.1,
                    .eval_every = 250,
                    .seed = 11,
                    .select_best = true,
                    .shard_rows = 32};
};

/// Outcome diagnostics of one distillation pass.
struct DistillReport {
  std::size_t samples = 0;
  /// Surrogate-vs-teacher mean |error| percent on the held-out tail.
  double val_mean_abs_pct_error = 0.0;
  TrainHistory history;
};

class SurrogateDistiller {
 public:
  /// One per-node workload draw over the operating region: with probability
  /// `correlated_fraction` every node shares one scale t in
  /// [workload_floor, 1] (the correlated-load ray, t·hi_w), else each node
  /// draws independently in [workload_floor·hi_w, hi_w]. sample_teacher()
  /// and the planner's rollout rounds (core/tiered_planner.h) both draw
  /// through it, in this order from `rng`.
  static std::vector<double> draw_workload(Rng& rng, std::span<const double> workload_hi,
                                           double workload_floor,
                                           double correlated_fraction);

  /// Teacher-labelled dataset sampled uniformly over the operating region:
  /// per-node workload in [workload_floor*hi_w, hi_w] (a correlated_fraction
  /// of samples instead share one common scale across nodes — see
  /// DistillConfig::correlated_fraction), quota in [lo, hi].
  /// Sample i's draws come from derive_seed(seed, i) — independent of the
  /// thread count and of sibling samples — and labels are teacher forwards
  /// evaluated in fixed-size chunks, each through its own
  /// LatencyModel::Pass on the global pool, written by sample index: the dataset is bit-identical at any
  /// GRAF_THREADS.
  static Dataset sample_teacher(LatencyModel& teacher,
                                std::span<const double> workload_hi,
                                std::span<const Millicores> lo,
                                std::span<const Millicores> hi, std::size_t count,
                                std::uint64_t seed, double workload_floor = 0.0,
                                double correlated_fraction = 0.0,
                                double low_quota_bias = 0.0);

  struct Result {
    SurrogateModel model;
    DistillReport report;
  };

  /// Throws std::invalid_argument unless the plain pass can run `cfg`: at
  /// least 16 samples, val_fraction in [0, 1), workload_floor,
  /// correlated_fraction and low_quota_bias in [0, 1] (NaN fails each) and
  /// train.batch_size > 0. The pass itself is
  /// core::TieredPlanner::distill_for_planner at rounds = 0.
  static void check(const DistillConfig& cfg);
};

}  // namespace graf::gnn
