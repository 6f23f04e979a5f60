#include "serve/online_trainer.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "telemetry/profiler.h"

namespace graf::serve {

namespace {

/// Why ingest refuses `s` (the serve.rejected_samples cause label), or
/// nullptr when it is a well-formed observation for an `nodes`-node model.
/// NaN fails every comparison, so each check passes only a value in range.
const char* rejected_sample_cause(const gnn::Sample& s, std::size_t nodes) {
  if (s.workload.size() != nodes || s.quota.size() != nodes) return "dimension";
  for (std::size_t i = 0; i < nodes; ++i) {
    if (!(std::isfinite(s.workload[i]) && s.workload[i] >= 0.0)) return "workload";
    if (!(std::isfinite(s.quota[i]) && s.quota[i] > 0.0)) return "quota";
  }
  if (!(std::isfinite(s.latency_ms) && s.latency_ms >= 0.0)) return "latency";
  return nullptr;
}

}  // namespace

OnlineTrainer::OnlineTrainer(ModelRegistry& registry, ServingHandle& handle,
                             ModelKey key, OnlineTrainerConfig cfg)
    : registry_{registry}, handle_{handle}, key_{std::move(key)}, cfg_{cfg} {
  if (registry_.active(key_) == nullptr)
    throw std::invalid_argument{"OnlineTrainer: no promoted model for key"};
  if (cfg_.holdout_fraction <= 0.0 || cfg_.holdout_fraction >= 1.0)
    throw std::invalid_argument{"OnlineTrainer: holdout_fraction must be in (0,1)"};
  adopt_active_baseline();
  stats_.error_ewma_pct = stats_.baseline_error_pct;
}

double OnlineTrainer::drift_threshold_pct() const {
  return std::max(cfg_.drift_factor * stats_.baseline_error_pct,
                  cfg_.drift_floor_pct);
}

void OnlineTrainer::adopt_active_baseline() {
  stats_.baseline_error_pct = registry_.active_meta(key_).val_error_pct;
}

void OnlineTrainer::set_metrics(telemetry::MetricsRegistry* registry) {
  tel_registry_ = registry;
  if (registry == nullptr) {
    tel_drifts_ = tel_fine_tunes_ = tel_promotions_ = tel_rejects_ = tel_rollbacks_ =
        nullptr;
    tel_ewma_ = tel_baseline_ = tel_threshold_ = nullptr;
    tel_fine_tune_timer_ = nullptr;
    return;
  }
  tel_drifts_ = &registry->counter("serve.drift_events");
  tel_fine_tunes_ = &registry->counter("serve.fine_tunes");
  tel_promotions_ = &registry->counter("serve.promotions");
  tel_rejects_ = &registry->counter("serve.rejects");
  tel_rollbacks_ = &registry->counter("serve.rollbacks");
  tel_ewma_ = &registry->gauge("serve.error_ewma_pct");
  tel_baseline_ = &registry->gauge("serve.baseline_error_pct");
  tel_threshold_ = &registry->gauge("serve.drift_threshold_pct");
  tel_fine_tune_timer_ = &registry->histogram("serve.fine_tune_us");
  for (const char* cause : {"dimension", "workload", "quota", "latency"})
    registry->counter("serve.rejected_samples", {{"cause", cause}});
  sync_gauges();
}

void OnlineTrainer::sync_gauges() {
  if (tel_ewma_ == nullptr) return;
  tel_ewma_->set(stats_.error_ewma_pct);
  tel_baseline_->set(stats_.baseline_error_pct);
  tel_threshold_->set(drift_threshold_pct());
}

bool OnlineTrainer::ingest(const gnn::Sample& sample, double now) {
  auto model = handle_.acquire();
  if (model == nullptr) throw std::runtime_error{"OnlineTrainer: empty serving handle"};
  if (const char* cause = rejected_sample_cause(sample, model->node_count())) {
    ++stats_.rejected_samples;
    if (tel_registry_ != nullptr)
      tel_registry_->counter("serve.rejected_samples", {{"cause", cause}}).add();
    return false;
  }

  const double pred = model->predict(sample.workload, sample.quota);
  const double err_pct =
      std::abs(pred - sample.latency_ms) / std::max(sample.latency_ms, 1e-9) * 100.0;
  stats_.error_ewma_pct += cfg_.ewma_alpha * (err_pct - stats_.error_ewma_pct);
  ++stats_.samples_seen;
  ++since_attempt_;

  window_.push_back(sample);
  while (window_.size() > cfg_.window_capacity) window_.pop_front();

  // Post-promotion watchdog: a candidate that validated well on the holdout
  // but regresses on live traffic is unwound to the previous version.
  if (watch_left_ > 0) {
    --watch_left_;
    // The promotion baseline is the candidate's holdout error, which is
    // optimistic (select_best picks the holdout minimizer), so a healthy
    // model's live error can sit a constant factor above it. Floor the
    // rollback threshold at the drift floor: a model whose live EWMA would
    // not even register as drift is serving acceptably and must not be
    // unwound.
    const double regress_limit =
        std::max(cfg_.regress_factor * std::max(ewma_at_promotion_, 1e-9),
                 cfg_.drift_floor_pct);
    if (stats_.error_ewma_pct > regress_limit) {
      watch_left_ = 0;
      if (registry_.rollback(key_)) {
        ++stats_.rollbacks;
        if (tel_rollbacks_ != nullptr) tel_rollbacks_->add();
        adopt_active_baseline();
        stats_.error_ewma_pct = stats_.baseline_error_pct;
        drifted_ = false;
        since_attempt_ = 0;
        sync_gauges();
        return true;
      }
    }
  }

  if (!drifted_ && stats_.error_ewma_pct > drift_threshold_pct()) {
    drifted_ = true;
    ++stats_.drift_events;
    if (tel_drifts_ != nullptr) tel_drifts_->add();
  }

  sync_gauges();
  if (drifted_ && window_.size() >= cfg_.min_samples &&
      since_attempt_ >= cfg_.cooldown) {
    since_attempt_ = 0;
    return fine_tune_and_maybe_promote(now);
  }
  return false;
}

bool OnlineTrainer::fine_tune_and_maybe_promote(double now) {
  auto active = handle_.acquire();

  // Interleaved split: every k-th sample validates, the rest fine-tune.
  // Both halves span the whole window, so the holdout reflects the same
  // regime mix the candidate trains on.
  const auto k = static_cast<std::size_t>(
      std::max(2.0, std::round(1.0 / cfg_.holdout_fraction)));
  gnn::Dataset train;
  gnn::Dataset holdout;
  std::size_t i = 0;
  for (const gnn::Sample& s : window_) {
    if (i++ % k == 0) holdout.push_back(s);
    else train.push_back(s);
  }
  if (train.empty() || holdout.empty()) return false;

  gnn::LatencyModel candidate = active->clone();
  {
    telemetry::ScopedTimer timer{tel_fine_tune_timer_};
    candidate.fit(train, holdout, cfg_.fine_tune);
  }
  ++stats_.fine_tunes;
  if (tel_fine_tunes_ != nullptr) tel_fine_tunes_->add();

  const double cand_err = candidate.evaluate_accuracy(holdout).mean_abs_pct_error;
  const double incumbent_err = active->evaluate_accuracy(holdout).mean_abs_pct_error;
  if (cand_err > cfg_.promote_margin * incumbent_err) {
    ++stats_.rejects;  // candidate regressed on the holdout: keep serving
    if (tel_rejects_ != nullptr) tel_rejects_->add();
    return false;
  }

  CheckpointMeta meta;
  meta.train_samples = train.size();
  meta.val_error_pct = cand_err;
  meta.created_sim_time = now;
  const std::uint64_t version = registry_.publish(key_, candidate, std::move(meta));
  registry_.promote(key_, version);
  ++stats_.promotions;
  if (tel_promotions_ != nullptr) tel_promotions_->add();

  adopt_active_baseline();
  stats_.error_ewma_pct = stats_.baseline_error_pct;
  ewma_at_promotion_ = std::max(stats_.error_ewma_pct, 1e-9);
  watch_left_ = cfg_.watch_samples;
  drifted_ = false;
  sync_gauges();
  return true;
}

}  // namespace graf::serve
