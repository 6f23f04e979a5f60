#include "gnn/latency_model.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <memory>
#include <numeric>
#include <ostream>
#include <stdexcept>

#include "common/thread_pool.h"
#include "nn/loss.h"
#include "nn/optim.h"
#include "telemetry/profiler.h"

namespace graf::gnn {

namespace {

std::vector<std::string> snapshot_names(const Dag& graph) {
  std::vector<std::string> names;
  names.reserve(graph.node_count());
  for (std::size_t i = 0; i < graph.node_count(); ++i)
    names.push_back(graph.name(static_cast<int>(i)));
  return names;
}

}  // namespace

LatencyModel::LatencyModel(const Dag& graph, const MpnnConfig& cfg, std::uint64_t seed)
    : node_count_{graph.node_count()}, node_names_{snapshot_names(graph)},
      rng_{seed}, model_{graph, cfg, rng_} {
  if (cfg.node_features != kNodeFeatures)
    throw std::invalid_argument{
        "LatencyModel: MpnnConfig::node_features must equal kNodeFeatures"};
}

Dag LatencyModel::rebuild_graph() const {
  Dag g;
  for (const std::string& name : node_names_) g.add_node(name);
  const auto& parents = model_.parents();
  for (std::size_t child = 0; child < parents.size(); ++child)
    for (int parent : parents[child]) g.add_edge(parent, static_cast<int>(child));
  return g;
}

void LatencyModel::set_scalers(const ScalerState& s) {
  w_scale_ = s.w_scale;
  q_scale_ = s.q_scale;
  q_min_mc_ = s.q_min_mc;
  ratio_max_ = s.ratio_max;
  label_ref_ = s.label_ref;
}

void LatencyModel::fit_scalers(const Dataset& train) {
  double wmax = 1e-9;
  double qmax = 1e-9;
  double qmin = std::numeric_limits<double>::infinity();
  double ratio_max = 1e-9;
  double lsum = 0.0;
  for (const Sample& s : train) {
    if (s.workload.size() != node_count_ || s.quota.size() != node_count_)
      throw std::invalid_argument{"LatencyModel: sample dimension mismatch"};
    for (double w : s.workload) wmax = std::max(wmax, w);
    for (std::size_t i = 0; i < node_count_; ++i) {
      const double q = s.quota[i];
      if (q <= 0.0) throw std::invalid_argument{"LatencyModel: quota must be > 0"};
      qmax = std::max(qmax, q);
      qmin = std::min(qmin, q);
      ratio_max = std::max(ratio_max, s.workload[i] / q);
    }
    lsum += s.latency_ms;
  }
  w_scale_ = 1.0 / wmax;
  q_scale_ = 1.0 / qmax;
  q_min_mc_ = std::min(qmin, 1e12);
  ratio_max_ = ratio_max;
  label_ref_ = train.empty() ? 1.0 : std::max(lsum / static_cast<double>(train.size()), 1e-9);
}

LatencyModel::Batch LatencyModel::assemble(const Dataset& data,
                                           std::span<const std::size_t> idx) const {
  Batch b;
  const std::size_t batch = idx.size();
  b.features = nn::Tensor{node_count_ * batch, kNodeFeatures};
  b.labels = nn::Tensor{batch, 1};
  for (std::size_t r = 0; r < batch; ++r) {
    const Sample& s = data[idx[r]];
    for (std::size_t n = 0; n < node_count_; ++n) {
      const std::size_t row = n * batch + r;
      b.features(row, 0) = s.workload[n] * w_scale_;
      b.features(row, 1) = s.quota[n] * q_scale_;
      b.features(row, 2) = q_min_mc_ / s.quota[n];
      b.features(row, 3) = s.workload[n] / s.quota[n] / ratio_max_;
    }
    b.labels(r, 0) = s.latency_ms / label_ref_;
  }
  return b;
}

nn::Var LatencyModel::forward_batch(nn::Tape& tape, const Batch& b, Rng& rng,
                                    bool training) {
  telemetry::ScopedTimer timer{forward_timer_};
  return forward_features(tape, b, rng, training);
}

nn::Var LatencyModel::forward_features(nn::Tape& tape, const Batch& b, Rng& rng,
                                       bool training) {
  // By reference: the Batch outlives every use of the tape (callers build it
  // before forwarding and read results before rebuilding), so no copies.
  return model_.forward(tape, tape.constant_ref(b.features), rng, training);
}

void LatencyModel::set_metrics(telemetry::MetricsRegistry* registry) {
  forward_timer_ = registry != nullptr ? &registry->histogram("gnn.forward_us") : nullptr;
  train_step_timer_ =
      registry != nullptr ? &registry->histogram("gnn.train_step_us") : nullptr;
}

TrainHistory LatencyModel::fit(const Dataset& train, const Dataset& val,
                               const TrainConfig& cfg) {
  if (train.empty()) throw std::invalid_argument{"LatencyModel::fit: empty training set"};
  fit_scalers(train);

  Rng rng{cfg.seed};
  nn::Adam opt{model_.params(), {.lr = cfg.lr}};

  TrainHistory hist;
  hist.best_val_loss = std::numeric_limits<double>::infinity();
  std::vector<nn::Tensor> best_weights;

  std::vector<std::size_t> order(train.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::size_t cursor = order.size();  // trigger initial shuffle

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
    std::vector<std::size_t> idx;
    idx.reserve(cfg.batch_size);
    while (idx.size() < cfg.batch_size) {
      if (cursor >= order.size()) {
        for (std::size_t i = order.size(); i > 1; --i)
          std::swap(order[i - 1],
                    order[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
        cursor = 0;
      }
      idx.push_back(order[cursor++]);
    }

    model_.zero_grad();
    const std::uint64_t iter_seed = derive_seed(cfg.seed, it);
    {
      telemetry::ScopedTimer step_timer{train_step_timer_};
      pool.parallel_for(shards, [&](std::size_t s) {
        const std::size_t begin = s * shard_rows;
        const std::size_t len = std::min(shard_rows, cfg.batch_size - begin);
        Batch b = assemble(train, {idx.data() + begin, len});
        nn::Tape& tape = *tapes[s];
        tape.reset();
        // Dropout stream derived from (seed, iteration, shard): independent
        // of sibling shards and of who executes this one.
        Rng shard_rng{derive_seed(iter_seed, s)};
        nn::Var pred = forward_features(tape, b, shard_rng, /*training=*/true);
        nn::Var loss =
            nn::asym_huber_pct_loss(pred, b.labels, cfg.theta_under, cfg.theta_over);
        // Weight each shard by its share of the batch so the reduced
        // gradient equals the full-batch mean-loss gradient.
        const double weight =
            static_cast<double>(len) / static_cast<double>(cfg.batch_size);
        nn::Var contribution = nn::scale(loss, weight);
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
      const double val_loss =
          val.empty() ? train_loss : evaluate_loss(val, cfg.theta_under, cfg.theta_over);
      hist.iteration.push_back(it);
      hist.train_loss.push_back(train_loss);
      hist.val_loss.push_back(val_loss);
      if (cfg.select_best && val_loss < hist.best_val_loss) {
        hist.best_val_loss = val_loss;
        best_weights.clear();
        for (nn::Param* p : model_.params()) best_weights.push_back(p->value);
      }
    }
  }

  if (cfg.select_best && !best_weights.empty()) {
    auto params = model_.params();
    for (std::size_t i = 0; i < params.size(); ++i) params[i]->value = best_weights[i];
  } else if (!hist.val_loss.empty()) {
    hist.best_val_loss = hist.val_loss.back();
  }
  return hist;
}

double LatencyModel::predict(std::span<const double> workload_qps,
                             std::span<const double> quota_millicores) {
  if (workload_qps.size() != node_count_ || quota_millicores.size() != node_count_)
    throw std::invalid_argument{"LatencyModel::predict: dimension mismatch"};
  telemetry::ScopedTimer timer{forward_timer_};
  nn::Tape tape;
  nn::Tensor f{node_count_, kNodeFeatures};  // node-stacked, one row per node
  for (std::size_t n = 0; n < node_count_; ++n) {
    f(n, 0) = workload_qps[n] * w_scale_;
    f(n, 1) = quota_millicores[n] * q_scale_;
    f(n, 2) = q_min_mc_ / quota_millicores[n];
    f(n, 3) = workload_qps[n] / quota_millicores[n] / ratio_max_;
  }
  nn::Var out = model_.forward(tape, tape.constant(std::move(f)), rng_,
                               /*training=*/false);
  return tape.value(out).item() * label_ref_;
}

nn::Var LatencyModel::predict_var_rows(nn::Tape& tape, const nn::Tensor& workload_qps,
                                       nn::Var quota_mc) {
  if (workload_qps.cols() != node_count_)
    throw std::invalid_argument{"LatencyModel::predict_var_rows: dimension mismatch"};
  const nn::Tensor& q = tape.value(quota_mc);
  if (q.rows() != workload_qps.rows() || q.cols() != node_count_)
    throw std::invalid_argument{
        "LatencyModel::predict_var_rows: quota must match workload rows x n"};
  const std::size_t batch = q.rows();
  const std::size_t rows = node_count_ * batch;
  // Node-stacked features, built once over every node's rows: row
  // n·batch + r is node n of quota row r. Per-row constant columns are
  // staged into recycled tape buffers (no steady-state allocation). The
  // w/ratio_max column scales 1/q with an elementwise mul(), the same
  // product bits as a scalar scale().
  nn::Var q_raw = nn::col_blocks_to_rows(quota_mc, node_count_);
  nn::Var q_inv = nn::reciprocal(q_raw);
  nn::Tensor& wbuf = tape.stage(rows, 1);
  for (std::size_t n = 0; n < node_count_; ++n)
    for (std::size_t r = 0; r < batch; ++r)
      wbuf(n * batch + r, 0) = workload_qps(r, n) * w_scale_;
  nn::Var w = tape.commit_constant();
  nn::Var qn = nn::scale(q_raw, q_scale_);
  nn::Var inv_feat = nn::scale(q_inv, q_min_mc_);
  nn::Tensor& rbuf = tape.stage(rows, 1);
  for (std::size_t n = 0; n < node_count_; ++n)
    for (std::size_t r = 0; r < batch; ++r)
      rbuf(n * batch + r, 0) = workload_qps(r, n) / ratio_max_;
  nn::Var ratio_feat = nn::mul(q_inv, tape.commit_constant());
  const nn::Var parts[] = {w, qn, inv_feat, ratio_feat};
  nn::Var out = model_.forward(tape, nn::concat_cols(parts), rng_, /*training=*/false);
  return nn::scale(out, label_ref_);
}

double LatencyModel::evaluate_loss(const Dataset& data, double theta_under,
                                   double theta_over) {
  if (data.empty()) throw std::invalid_argument{"evaluate_loss: empty dataset"};
  constexpr std::size_t kChunk = 512;
  double total = 0.0;
  nn::Tape tape;
  for (std::size_t start = 0; start < data.size(); start += kChunk) {
    const std::size_t len = std::min(kChunk, data.size() - start);
    std::vector<std::size_t> idx(len);
    std::iota(idx.begin(), idx.end(), start);
    Batch b = assemble(data, idx);
    tape.reset();
    nn::Var pred = forward_batch(tape, b, rng_, /*training=*/false);
    nn::Var loss = nn::asym_huber_pct_loss(pred, b.labels, theta_under, theta_over);
    total += tape.value(loss).item() * static_cast<double>(len);
  }
  return total / static_cast<double>(data.size());
}

AccuracyReport LatencyModel::evaluate_accuracy(const Dataset& data, double region_lo_ms,
                                               double region_hi_ms) {
  AccuracyReport rep;
  double abs_sum = 0.0;
  double signed_sum = 0.0;
  for (const Sample& s : data) {
    if (s.latency_ms < region_lo_ms || s.latency_ms >= region_hi_ms) continue;
    const double pred = predict(s.workload, s.quota);
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

void LatencyModel::save(std::ostream& os) {
  os.precision(17);
  os << w_scale_ << ' ' << q_scale_ << ' ' << q_min_mc_ << ' ' << ratio_max_ << ' '
     << label_ref_ << '\n';
  auto params = model_.params();
  nn::save_params(os, params);
}

void LatencyModel::load(std::istream& is) {
  if (!(is >> w_scale_ >> q_scale_ >> q_min_mc_ >> ratio_max_ >> label_ref_))
    throw std::runtime_error{"LatencyModel::load: bad header"};
  auto params = model_.params();
  nn::load_params(is, params);
}

}  // namespace graf::gnn
