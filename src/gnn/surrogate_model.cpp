#include "gnn/surrogate_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/fnv.h"
#include "common/thread_pool.h"

namespace graf::gnn {

namespace {

std::vector<std::size_t> mlp_dims(std::size_t node_count, const SurrogateConfig& cfg) {
  if (node_count == 0)
    throw std::invalid_argument{"SurrogateModel: node_count must be > 0"};
  if (cfg.hidden == 0)
    throw std::invalid_argument{"SurrogateModel: hidden width must be > 0"};
  std::vector<std::size_t> dims;
  dims.push_back(node_count * SurrogateModel::kNodeFeatures);
  for (std::size_t l = 0; l < cfg.hidden_layers; ++l) dims.push_back(cfg.hidden);
  dims.push_back(1);
  return dims;
}

/// Throws `message` unless v lies in [0, 1]; the negated test rejects NaN too.
void check_unit_interval(double v, const char* message) {
  if (!(v >= 0.0 && v <= 1.0)) throw std::invalid_argument{message};
}

}  // namespace

SurrogateModel::SurrogateModel(std::size_t node_count, const SurrogateConfig& cfg,
                               std::uint64_t seed)
    : node_count_{node_count}, cfg_{cfg}, rng_{seed},
      mlp_{mlp_dims(node_count, cfg), cfg.dropout_p, rng_} {}

BatchLoss SurrogateModel::batch_loss(double theta_under, double theta_over) {
  return [this, theta_under, theta_over](nn::Tape& tape, const Dataset& data,
                                         std::span<const std::size_t> idx, Rng& rng,
                                         bool training) {
    const std::size_t batch = idx.size();
    nn::Tensor& f = tape.stage(batch, node_count_ * kNodeFeatures);
    for (std::size_t r = 0; r < batch; ++r) {
      const Sample& s = data[idx[r]];
      for (std::size_t n = 0; n < node_count_; ++n)
        write_node_features(s_, s.workload[n], s.quota[n], &f(r, n * kNodeFeatures));
    }
    nn::Var pred = mlp_.forward(tape, tape.commit_constant(), rng, training);
    // Log-space labels: latency spans a hyperbolic dynamic range near
    // saturation that a small ReLU MLP underfits in linear space; log
    // compresses it, and a log-difference is a relative error, so the
    // huber thetas keep their percentage meaning: (pred < label) is
    // under-estimation, as in the teacher's pct loss.
    nn::Tensor& y = tape.stage(batch, 1);
    for (std::size_t r = 0; r < batch; ++r)
      y(r, 0) = std::log(std::max(data[idx[r]].latency_ms / s_.label_ref, 1e-9));
    nn::Var d = nn::sub(pred, tape.commit_constant());
    return nn::mean_all(nn::asym_huber(d, theta_under, theta_over));
  };
}

TrainHistory SurrogateModel::fit(const Dataset& train, const Dataset& val,
                                 const TrainConfig& cfg) {
  // Scalers are deliberately not refitted: the distiller pins the teacher's
  // so both models read identical feature bits (see header).
  return fit_sharded(mlp_.params(), node_count_,
                     batch_loss(cfg.theta_under, cfg.theta_over), train, val, cfg,
                     /*refit=*/nullptr);
}

double SurrogateModel::predict(std::span<const double> workload_qps,
                               std::span<const double> quota_millicores) {
  if (workload_qps.size() != node_count_ || quota_millicores.size() != node_count_)
    throw std::invalid_argument{"SurrogateModel::predict: dimension mismatch"};
  nn::Tensor workload{1, node_count_};
  nn::Tensor quota{1, node_count_};
  for (std::size_t n = 0; n < node_count_; ++n) {
    workload(0, n) = workload_qps[n];
    quota(0, n) = quota_millicores[n];
  }
  Pass pass{*this, workload};
  return pass.forward(quota)(0, 0);
}

SurrogateModel::Pass::Pass(SurrogateModel& model, const nn::Tensor& workload_qps)
    : QuotaPass{workload_qps, model.s_, /*node_stacked=*/false}, mlp_{model.mlp_} {
  if (workload_qps.cols() != model.node_count_)
    throw std::invalid_argument{"SurrogateModel::Pass: workload must be R x node_count"};
  constants_finite_ = constants_finite_ && mlp_.finite();
}

const nn::Tensor& SurrogateModel::Pass::forward(const nn::Tensor& quota) {
  write_features(quota, x_);
  const nn::Tensor& y = mlp_.forward(x_);
  exp_.resize_zero(y.rows(), 1);
  pred_.resize_zero(y.rows(), 1);
  for (std::size_t r = 0; r < y.rows(); ++r) {
    exp_(r, 0) = std::exp(y(r, 0));
    pred_(r, 0) = exp_(r, 0) * scalers_.label_ref;
  }
  return pred_;
}

const nn::Tensor& SurrogateModel::Pass::backward(const nn::Tensor& dpred) {
  if (dpred.rows() != rows() || dpred.cols() != 1)
    throw std::invalid_argument{"SurrogateModel::Pass::backward: dpred must be rows x 1"};
  // label_ref's fused step into a fresh gradient, then exp's dy/dx = y.
  grad_out_.resize_zero(rows(), 1);
  for (std::size_t r = 0; r < rows(); ++r)
    grad_out_(r, 0) = std::fma(scalers_.label_ref, dpred(r, 0), 0.0) * exp_(r, 0);
  return quota_grad(mlp_.backward(grad_out_));
}

double SurrogateModel::evaluate_loss(const Dataset& data, double theta_under,
                                     double theta_over) {
  return mean_loss(batch_loss(theta_under, theta_over), node_count_, data);
}

AccuracyReport SurrogateModel::evaluate_accuracy(const Dataset& data,
                                                 double region_lo_ms,
                                                 double region_hi_ms) {
  std::vector<const Sample*> kept;
  for (const Sample& s : data) {
    if (s.latency_ms < region_lo_ms || s.latency_ms >= region_hi_ms) continue;
    if (s.workload.size() != node_count_ || s.quota.size() != node_count_)
      throw std::invalid_argument{"SurrogateModel::evaluate_accuracy: dimension mismatch"};
    kept.push_back(&s);
  }
  AccuracyReport rep;
  if (kept.empty()) return rep;
  // One pass over every kept sample: rows never mix, so row r carries the
  // bits predict() returns for sample r, and the sums run in sample order.
  nn::Tensor workload{kept.size(), node_count_};
  nn::Tensor quota{kept.size(), node_count_};
  for (std::size_t r = 0; r < kept.size(); ++r)
    for (std::size_t n = 0; n < node_count_; ++n) {
      workload(r, n) = kept[r]->workload[n];
      quota(r, n) = kept[r]->quota[n];
    }
  Pass pass{*this, workload};
  const nn::Tensor& pred = pass.forward(quota);
  double abs_sum = 0.0;
  double signed_sum = 0.0;
  for (std::size_t r = 0; r < kept.size(); ++r) {
    const double actual = kept[r]->latency_ms;
    const double pct = (pred(r, 0) - actual) / std::max(actual, 1e-9) * 100.0;
    abs_sum += std::abs(pct);
    signed_sum += pct;
  }
  rep.count = kept.size();
  rep.mean_abs_pct_error = abs_sum / static_cast<double>(rep.count);
  rep.mean_pct_error = signed_sum / static_cast<double>(rep.count);
  return rep;
}

std::uint64_t SurrogateModel::fingerprint(SurrogateModel& model) {
  Fnv1a h;
  h.mix(model.node_count_);
  h.mix(model.cfg_.hidden);
  h.mix(model.cfg_.hidden_layers);
  h.mix_double(model.cfg_.dropout_p);
  h.mix_double(model.s_.w_scale);
  h.mix_double(model.s_.q_scale);
  h.mix_double(model.s_.q_min_mc);
  h.mix_double(model.s_.ratio_max);
  h.mix_double(model.s_.label_ref);
  for (const nn::Tensor& t : model.state_dict()) {
    h.mix(t.rows());
    h.mix(t.cols());
    for (std::size_t i = 0; i < t.size(); ++i) h.mix_double(t.data()[i]);
  }
  return h.value();
}

std::vector<double> SurrogateDistiller::draw_workload(Rng& rng,
                                                     std::span<const double> workload_hi,
                                                     double workload_floor,
                                                     double correlated_fraction) {
  std::vector<double> w(workload_hi.size());
  // Correlated-ray samples share one scale t across nodes: frontend-driven
  // load moves every service together, and planner queries live near that
  // ray — independent draws alone never cover it in higher dimensions.
  if (rng.uniform(0.0, 1.0) < correlated_fraction) {
    const double t = rng.uniform(workload_floor, 1.0);
    for (std::size_t k = 0; k < w.size(); ++k) w[k] = t * workload_hi[k];
  } else {
    for (std::size_t k = 0; k < w.size(); ++k)
      w[k] = rng.uniform(workload_floor * workload_hi[k], workload_hi[k]);
  }
  return w;
}

Dataset SurrogateDistiller::sample_teacher(LatencyModel& teacher,
                                           std::span<const double> workload_hi,
                                           std::span<const Millicores> lo,
                                           std::span<const Millicores> hi,
                                           std::size_t count, std::uint64_t seed,
                                           double workload_floor,
                                           double correlated_fraction,
                                           double low_quota_bias) {
  const std::size_t n = teacher.node_count();
  if (workload_hi.size() != n || lo.size() != n || hi.size() != n)
    throw std::invalid_argument{"sample_teacher: dimension mismatch"};
  for (std::size_t i = 0; i < n; ++i) {
    if (!(lo[i] > 0.0 && lo[i] <= hi[i] && std::isfinite(hi[i])))
      throw std::invalid_argument{"sample_teacher: need finite 0 < lo <= hi"};
    if (workload_hi[i] < 0.0)
      throw std::invalid_argument{"sample_teacher: workload_hi must be >= 0"};
  }
  check_unit_interval(workload_floor, "sample_teacher: workload_floor must be in [0, 1]");
  check_unit_interval(correlated_fraction, "sample_teacher: correlated_fraction must be in [0, 1]");
  check_unit_interval(low_quota_bias, "sample_teacher: low_quota_bias must be in [0, 1]");

  // Inputs first: sample i's draws come from its own derived stream, so the
  // set is a pure function of (seed, count) — chunking below never shifts it.
  Dataset data(count);
  for (std::size_t i = 0; i < count; ++i) {
    Rng rng{derive_seed(seed, i)};
    Sample& s = data[i];
    s.workload = draw_workload(rng, workload_hi, workload_floor, correlated_fraction);
    s.quota.resize(n);
    // Log-uniform quota draws concentrate where the latency surface curves
    // hardest — the low-quota saturation cliffs the solver's level set hugs.
    if (rng.uniform(0.0, 1.0) < low_quota_bias) {
      for (std::size_t k = 0; k < n; ++k)
        s.quota[k] = lo[k] * std::exp(rng.uniform(0.0, std::log(hi[k] / lo[k])));
    } else {
      for (std::size_t k = 0; k < n; ++k) s.quota[k] = rng.uniform(lo[k], hi[k]);
    }
  }

  // Teacher labels in fixed-size chunks, each through its own frozen pass:
  // the passes only read the shared weights, and labels land by sample
  // index, so the dataset is bit-identical at any thread count.
  constexpr std::size_t kChunk = 64;
  const std::size_t chunks = count == 0 ? 0 : (count + kChunk - 1) / kChunk;
  global_pool().parallel_for(chunks, [&](std::size_t c) {
    const std::size_t begin = c * kChunk;
    const std::size_t len = std::min(kChunk, count - begin);
    nn::Tensor workload_rows{len, n};
    nn::Tensor quota{len, n};
    for (std::size_t r = 0; r < len; ++r)
      for (std::size_t k = 0; k < n; ++k) {
        workload_rows(r, k) = data[begin + r].workload[k];
        quota(r, k) = data[begin + r].quota[k];
      }
    LatencyModel::Pass pass{teacher, workload_rows};
    const nn::Tensor& out = pass.forward(quota);
    for (std::size_t r = 0; r < len; ++r) data[begin + r].latency_ms = out(r, 0);
  });
  return data;
}

void SurrogateDistiller::check(const DistillConfig& cfg) {
  if (cfg.samples < 16) throw std::invalid_argument{"distill: need at least 16 samples"};
  if (!(cfg.val_fraction >= 0.0 && cfg.val_fraction < 1.0))
    throw std::invalid_argument{"distill: val_fraction must be in [0, 1)"};
  check_unit_interval(cfg.workload_floor, "distill: workload_floor must be in [0, 1]");
  check_unit_interval(cfg.correlated_fraction, "distill: correlated_fraction must be in [0, 1]");
  check_unit_interval(cfg.low_quota_bias, "distill: low_quota_bias must be in [0, 1]");
  if (cfg.train.batch_size == 0)
    throw std::invalid_argument{"distill: train.batch_size must be > 0"};
}

}  // namespace graf::gnn
