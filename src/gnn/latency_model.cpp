#include "gnn/latency_model.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "common/thread_pool.h"
#include "nn/loss.h"
#include "nn/optim.h"
#include "telemetry/profiler.h"

namespace graf::gnn {

namespace {

bool all_finite(std::span<const double> values) {
  return std::all_of(values.begin(), values.end(),
                     [](double v) { return std::isfinite(v); });
}

std::vector<std::string> snapshot_names(const Dag& graph) {
  std::vector<std::string> names;
  names.reserve(graph.node_count());
  for (std::size_t i = 0; i < graph.node_count(); ++i)
    names.push_back(graph.name(static_cast<int>(i)));
  return names;
}

/// Every sample `node_count` wide with every quota > 0; the negated
/// comparison rejects a NaN quota too.
void check_samples(const Dataset& data, std::size_t node_count) {
  for (const Sample& s : data) {
    if (s.workload.size() != node_count || s.quota.size() != node_count)
      throw std::invalid_argument{"latency model: sample dimension mismatch"};
    for (double q : s.quota)
      if (!(q > 0.0)) throw std::invalid_argument{"latency model: sample quota must be > 0"};
  }
}

ScalerState fit_scalers(const Dataset& train) {
  double wmax = 1e-9;
  double qmax = 1e-9;
  double qmin = std::numeric_limits<double>::infinity();
  double ratio_max = 1e-9;
  double lsum = 0.0;
  for (const Sample& s : train) {
    for (double w : s.workload) wmax = std::max(wmax, w);
    for (std::size_t i = 0; i < s.quota.size(); ++i) {
      const double q = s.quota[i];
      qmax = std::max(qmax, q);
      qmin = std::min(qmin, q);
      ratio_max = std::max(ratio_max, s.workload[i] / q);
    }
    lsum += s.latency_ms;
  }
  return {.w_scale = 1.0 / wmax,
          .q_scale = 1.0 / qmax,
          .q_min_mc = std::min(qmin, 1e12),
          .ratio_max = ratio_max,
          .label_ref = std::max(lsum / static_cast<double>(train.size()), 1e-9)};
}

/// mean_loss without the sample check: fit_sharded checked `val` already.
double chunked_loss(const BatchLoss& loss, const Dataset& data) {
  constexpr std::size_t kChunk = 512;
  double total = 0.0;
  nn::Tape tape;
  Rng rng{0};  // eval mode draws no dropout
  std::vector<std::size_t> idx;
  for (std::size_t start = 0; start < data.size(); start += kChunk) {
    const std::size_t len = std::min(kChunk, data.size() - start);
    idx.resize(len);
    std::iota(idx.begin(), idx.end(), start);
    tape.reset();
    total += tape.value(loss(tape, data, idx, rng, /*training=*/false)).item() *
             static_cast<double>(len);
  }
  return total / static_cast<double>(data.size());
}

}  // namespace

TrainHistory fit_sharded(std::vector<nn::Param*> params, std::size_t node_count,
                         const BatchLoss& loss, const Dataset& train,
                         const Dataset& val, const TrainConfig& cfg,
                         ScalerState* refit, telemetry::LogHistogram* step_timer) {
  if (train.empty()) throw std::invalid_argument{"fit: empty training set"};
  if (cfg.batch_size == 0) throw std::invalid_argument{"fit: batch_size must be > 0"};
  check_samples(train, node_count);
  check_samples(val, node_count);
  if (refit != nullptr) *refit = fit_scalers(train);

  Rng rng{cfg.seed};
  nn::Adam opt{params, {.lr = cfg.lr}};

  TrainHistory hist;
  hist.best_val_loss = std::numeric_limits<double>::infinity();
  std::vector<nn::Tensor> best_weights;

  std::vector<std::size_t> order(train.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::size_t cursor = order.size();  // trigger initial shuffle
  std::vector<std::size_t> idx(cfg.batch_size);

  // Data-parallel plan: shard count is a pure function of the config, never
  // of the thread count, so the shard boundaries, the per-shard dropout
  // streams, and the shard-ordered gradient reduction below are identical
  // whether the pool runs 1 or 64 threads — training is bit-deterministic.
  const std::size_t shard_rows =
      cfg.shard_rows == 0 ? cfg.batch_size : cfg.shard_rows;
  const std::size_t shards = (cfg.batch_size + shard_rows - 1) / shard_rows;
  std::vector<std::unique_ptr<nn::Tape>> tapes;
  for (std::size_t s = 0; s < shards; ++s) {
    tapes.push_back(std::make_unique<nn::Tape>());
    tapes.back()->set_defer_param_grads(true);
  }
  std::vector<double> shard_loss(shards, 0.0);
  ThreadPool& pool = global_pool();

  double running_loss = 0.0;
  std::size_t running_count = 0;

  for (std::size_t it = 1; it <= cfg.iterations; ++it) {
    // Draw the next mini-batch from a reshuffled epoch ordering.
    for (std::size_t& slot : idx) {
      if (cursor >= order.size()) {
        for (std::size_t i = order.size(); i > 1; --i)
          std::swap(order[i - 1],
                    order[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
        cursor = 0;
      }
      slot = order[cursor++];
    }

    for (nn::Param* p : params) p->zero_grad();
    const std::uint64_t iter_seed = derive_seed(cfg.seed, it);
    {
      telemetry::ScopedTimer timer{step_timer};
      pool.parallel_for(shards, [&](std::size_t s) {
        const std::size_t begin = s * shard_rows;
        const std::size_t len = std::min(shard_rows, cfg.batch_size - begin);
        nn::Tape& tape = *tapes[s];
        tape.reset();
        // Dropout stream derived from (seed, iteration, shard): independent
        // of sibling shards and of who executes this one.
        Rng shard_rng{derive_seed(iter_seed, s)};
        nn::Var shard = loss(tape, train, {idx.data() + begin, len}, shard_rng,
                             /*training=*/true);
        // Weight each shard by its share of the batch so the reduced
        // gradient equals the full-batch mean-loss gradient.
        const double weight =
            static_cast<double>(len) / static_cast<double>(cfg.batch_size);
        nn::Var contribution = nn::scale(shard, weight);
        tape.backward(contribution);
        shard_loss[s] = tape.value(contribution).item();
      });
      // Ordered reduction: shard 0's gradients land first, then shard 1's,
      // ... — floating-point accumulation order is part of the determinism
      // contract, so it must not follow completion order.
      for (auto& tape : tapes) tape->flush_param_grads();
      opt.step();
    }

    double batch_loss = 0.0;
    for (double l : shard_loss) batch_loss += l;
    running_loss += batch_loss;
    ++running_count;

    if (cfg.lr_decay_every > 0 && it % cfg.lr_decay_every == 0)
      opt.set_learning_rate(opt.learning_rate() * cfg.lr_decay_factor);

    if ((cfg.eval_every > 0 && it % cfg.eval_every == 0) || it == cfg.iterations) {
      const double train_loss = running_loss / static_cast<double>(running_count);
      running_loss = 0.0;
      running_count = 0;
      const double val_loss = val.empty() ? train_loss : chunked_loss(loss, val);
      hist.iteration.push_back(it);
      hist.train_loss.push_back(train_loss);
      hist.val_loss.push_back(val_loss);
      if (cfg.select_best && val_loss < hist.best_val_loss) {
        hist.best_val_loss = val_loss;
        best_weights.clear();
        for (nn::Param* p : params) best_weights.push_back(p->value);
      }
    }
  }

  if (cfg.select_best && !best_weights.empty()) {
    for (std::size_t i = 0; i < params.size(); ++i) params[i]->value = best_weights[i];
  } else if (!hist.val_loss.empty()) {
    hist.best_val_loss = hist.val_loss.back();
  }
  return hist;
}

double mean_loss(const BatchLoss& loss, std::size_t node_count, const Dataset& data) {
  if (data.empty()) throw std::invalid_argument{"evaluate_loss: empty dataset"};
  check_samples(data, node_count);
  return chunked_loss(loss, data);
}

AccuracyReport accuracy_report(const Dataset& data, double region_lo_ms,
                               double region_hi_ms,
                               const std::function<double(const Sample&)>& predict) {
  AccuracyReport rep;
  double abs_sum = 0.0;
  double signed_sum = 0.0;
  for (const Sample& s : data) {
    if (s.latency_ms < region_lo_ms || s.latency_ms >= region_hi_ms) continue;
    const double pred = predict(s);
    const double pct = (pred - s.latency_ms) / std::max(s.latency_ms, 1e-9) * 100.0;
    abs_sum += std::abs(pct);
    signed_sum += pct;
    ++rep.count;
  }
  if (rep.count > 0) {
    rep.mean_abs_pct_error = abs_sum / static_cast<double>(rep.count);
    rep.mean_pct_error = signed_sum / static_cast<double>(rep.count);
  }
  return rep;
}

LatencyModel::LatencyModel(const Dag& graph, const MpnnConfig& cfg, std::uint64_t seed)
    : node_count_{graph.node_count()}, node_names_{snapshot_names(graph)},
      rng_{seed}, model_{graph, cfg, rng_} {
  if (cfg.node_features != kNodeFeatures)
    throw std::invalid_argument{
        "LatencyModel: MpnnConfig::node_features must equal kNodeFeatures"};
}

void LatencyModel::set_scalers(const ScalerState& s) {
  w_scale_ = s.w_scale;
  q_scale_ = s.q_scale;
  q_min_mc_ = s.q_min_mc;
  ratio_max_ = s.ratio_max;
  label_ref_ = s.label_ref;
}

nn::Var latency_pct_loss(nn::Var pred, const Dataset& data,
                         std::span<const std::size_t> idx, double label_ref,
                         double theta_under, double theta_over) {
  nn::Tape& tape = *pred.tape;
  nn::Tensor& labels = tape.stage(idx.size(), 1);
  for (std::size_t r = 0; r < idx.size(); ++r)
    labels(r, 0) = data[idx[r]].latency_ms / label_ref;
  return nn::asym_huber_pct_loss(pred, tape.commit_constant(), theta_under, theta_over);
}

BatchLoss LatencyModel::batch_loss(const ScalerState& s, double theta_under,
                                   double theta_over) {
  return [this, &s, theta_under, theta_over](nn::Tape& tape, const Dataset& data,
                                             std::span<const std::size_t> idx, Rng& rng,
                                             bool training) {
    const std::size_t batch = idx.size();
    nn::Tensor& f = tape.stage(node_count_ * batch, kNodeFeatures);
    for (std::size_t r = 0; r < batch; ++r) {
      const Sample& sample = data[idx[r]];
      for (std::size_t n = 0; n < node_count_; ++n)
        write_node_features(s, sample.workload[n], sample.quota[n], &f(n * batch + r, 0));
    }
    const nn::Var features = tape.commit_constant();
    nn::Var pred;
    {
      telemetry::ScopedTimer timer{training ? nullptr : forward_timer_};
      pred = model_.forward(tape, features, rng, training);
    }
    return latency_pct_loss(pred, data, idx, s.label_ref, theta_under, theta_over);
  };
}

void LatencyModel::set_metrics(telemetry::MetricsRegistry* registry) {
  forward_timer_ = registry != nullptr ? &registry->histogram("gnn.forward_us") : nullptr;
  train_step_timer_ =
      registry != nullptr ? &registry->histogram("gnn.train_step_us") : nullptr;
}

TrainHistory LatencyModel::fit(const Dataset& train, const Dataset& val,
                               const TrainConfig& cfg) {
  ScalerState fitted;  // refitted by fit_sharded before the first batch reads it
  TrainHistory hist = fit_sharded(model_.params(), node_count_,
                                  batch_loss(fitted, cfg.theta_under, cfg.theta_over),
                                  train, val, cfg, &fitted, train_step_timer_);
  set_scalers(fitted);
  return hist;
}

double LatencyModel::predict(std::span<const double> workload_qps,
                             std::span<const double> quota_millicores) {
  if (workload_qps.size() != node_count_ || quota_millicores.size() != node_count_)
    throw std::invalid_argument{"LatencyModel::predict: dimension mismatch"};
  telemetry::ScopedTimer timer{forward_timer_};
  // One tape per thread, rewound on every call (like tensor.cpp's panels):
  // its node slots and buffers are recycled, so a warmed predict() touches
  // no heap. Nothing on it outlives the call.
  thread_local nn::Tape tape;
  tape.reset();
  const ScalerState s = scalers();
  nn::Tensor& f = tape.stage(node_count_, kNodeFeatures);  // node-stacked, one row per node
  for (std::size_t n = 0; n < node_count_; ++n)
    write_node_features(s, workload_qps[n], quota_millicores[n], &f(n, 0));
  nn::Var out = model_.forward(tape, tape.commit_constant(), rng_, /*training=*/false);
  return tape.value(out).item() * label_ref_;
}

// ---- Frozen passes -----------------------------------------------------------

QuotaPass::QuotaPass(const nn::Tensor& workload_qps, const ScalerState& scalers,
                     bool node_stacked)
    : scalers_{scalers}, rows_{workload_qps.rows()}, node_count_{workload_qps.cols()},
      node_stacked_{node_stacked}, w_feat_(workload_qps.size()),
      ratio_(workload_qps.size()), q_inv_(workload_qps.size()) {
  for (std::size_t k = 0; k < workload_qps.size(); ++k) {
    w_feat_[k] = workload_qps.data()[k] * scalers_.w_scale;
    ratio_[k] = workload_qps.data()[k] / scalers_.ratio_max;
  }
  const ScalerState& s = scalers_;
  constants_finite_ = all_finite(std::array{s.w_scale, s.q_scale, s.q_min_mc, s.ratio_max,
                                            s.label_ref}) &&
                      all_finite(ratio_);
}

QuotaPass::~QuotaPass() = default;

std::size_t QuotaPass::rows() const { return rows_; }

std::size_t QuotaPass::node_count() const { return node_count_; }

bool QuotaPass::zero_rows_stay_zero() const {
  return constants_finite_ && all_finite(q_inv_);
}

std::size_t QuotaPass::feature_offset(std::size_t r, std::size_t i) const {
  constexpr std::size_t F = LatencyModel::kNodeFeatures;
  return node_stacked_ ? (i * rows_ + r) * F : (r * node_count_ + i) * F;
}

void QuotaPass::write_features(const nn::Tensor& quota, nn::Tensor& x) {
  constexpr std::size_t F = LatencyModel::kNodeFeatures;
  if (quota.rows() != rows_ || quota.cols() != node_count_)
    throw std::invalid_argument{"QuotaPass::forward: quota must be rows x node_count"};
  if (node_stacked_)
    x.resize_zero(node_count_ * rows_, F);
  else
    x.resize_zero(rows_, node_count_ * F);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t i = 0; i < node_count_; ++i) {
      const std::size_t k = r * node_count_ + i;
      const double q = quota.data()[k];
      q_inv_[k] = 1.0 / q;
      double* f = x.data() + feature_offset(r, i);
      f[0] = w_feat_[k];
      f[1] = q * scalers_.q_scale;
      f[2] = q_inv_[k] * scalers_.q_min_mc;
      f[3] = q_inv_[k] * ratio_[k];
    }
}

const nn::Tensor& QuotaPass::quota_grad(const nn::Tensor& gx) {
  grad_.resize_zero(rows_, node_count_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t i = 0; i < node_count_; ++i) {
      const std::size_t k = r * node_count_ + i;
      const double* g = gx.data() + feature_offset(r, i);
      const double y = q_inv_[k];
      // 1/q: the ratio column's product lands first in a fresh gradient,
      // then the scaled column's fused step.
      const double g_inv = std::fma(scalers_.q_min_mc, g[2], 0.0 + g[3] * ratio_[k]);
      // q: the scaled column's fused step, then the reciprocal's -g·y·y.
      grad_.data()[k] = std::fma(scalers_.q_scale, g[1], 0.0) + -g_inv * y * y;
    }
  return grad_;
}

LatencyModel::Pass::Pass(LatencyModel& model, const nn::Tensor& workload_qps)
    : QuotaPass{workload_qps, model.scalers(), /*node_stacked=*/true},
      mpnn_{model.model_} {
  if (workload_qps.cols() != model.node_count())
    throw std::invalid_argument{"LatencyModel::Pass: workload must be R x node_count"};
  constants_finite_ = constants_finite_ && mpnn_.finite();
}

const nn::Tensor& LatencyModel::Pass::forward(const nn::Tensor& quota) {
  write_features(quota, x_);
  const nn::Tensor& y = mpnn_.forward(x_);
  pred_.resize_zero(y.rows(), 1);
  for (std::size_t r = 0; r < y.rows(); ++r) pred_(r, 0) = y(r, 0) * scalers_.label_ref;
  return pred_;
}

const nn::Tensor& LatencyModel::Pass::backward(const nn::Tensor& dpred) {
  if (dpred.rows() != rows() || dpred.cols() != 1)
    throw std::invalid_argument{"LatencyModel::Pass::backward: dpred must be rows x 1"};
  // The label_ref scale's backward into a fresh gradient: one fused step.
  grad_pred_.resize_zero(rows(), 1);
  for (std::size_t r = 0; r < rows(); ++r)
    grad_pred_(r, 0) = std::fma(scalers_.label_ref, dpred(r, 0), 0.0);
  return quota_grad(mpnn_.backward(grad_pred_));
}

double LatencyModel::evaluate_loss(const Dataset& data, double theta_under,
                                   double theta_over) {
  const ScalerState s = scalers();
  return mean_loss(batch_loss(s, theta_under, theta_over), node_count_, data);
}

AccuracyReport LatencyModel::evaluate_accuracy(const Dataset& data, double region_lo_ms,
                                               double region_hi_ms) {
  return accuracy_report(data, region_lo_ms, region_hi_ms, [this](const Sample& s) {
    return predict(s.workload, s.quota);
  });
}

}  // namespace graf::gnn
