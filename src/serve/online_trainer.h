// Drift-triggered online fine-tuning (paper §5.3 retraining story; LSRAM /
// MSARS-style sliding-window updates).
//
// The trainer watches the serving model's live prediction error on every
// streamed sample (the SampleCollector's sink feeds it). When the error
// EWMA climbs clearly above the promoted model's validation error — the
// workload drifted out of the trained region — it fine-tunes a clone of the
// serving model on a sliding window of recent samples, re-validates the
// candidate against the current model on an interleaved holdout, and only
// then publishes + promotes it through the ModelRegistry, which hot-swaps
// the attached ServingHandle between allocation decisions. A candidate that
// regresses on the holdout is discarded (`rejects`); a promoted model whose
// live error then worsens is automatically rolled back to the previous
// version (`rollbacks`).
#pragma once

#include <cstdint>
#include <deque>

#include "serve/model_registry.h"
#include "serve/serving_handle.h"
#include "telemetry/metrics.h"

namespace graf::serve {

struct OnlineTrainerConfig {
  std::size_t window_capacity = 1024;  ///< sliding sample window
  std::size_t min_samples = 128;       ///< window fill before fine-tuning
  /// Every k-th window sample (k = 1/holdout_fraction) is held out of
  /// fine-tuning and used to validate candidate vs. incumbent.
  double holdout_fraction = 0.25;
  double ewma_alpha = 0.08;            ///< live |%error| EWMA smoothing
  /// Drift when EWMA > max(drift_factor * promoted validation error,
  /// drift_floor_pct).
  double drift_factor = 2.5;
  double drift_floor_pct = 15.0;
  std::size_t cooldown = 64;           ///< samples between fine-tune attempts
  /// Promote only when candidate holdout error <= margin * incumbent error.
  double promote_margin = 1.0;
  /// Post-promotion watchdog: over the next `watch_samples` samples, roll
  /// back if the EWMA exceeds regress_factor * its value at promotion AND
  /// the drift floor — live error that would not even register as drift
  /// never triggers a rollback.
  std::size_t watch_samples = 64;
  double regress_factor = 1.5;
  /// Fine-tune budget — a short warm-start run, not a from-scratch train.
  gnn::TrainConfig fine_tune = {.iterations = 1500,
                                .batch_size = 64,
                                .lr = 1e-3,
                                .lr_decay_every = 500,
                                .eval_every = 150,
                                .seed = 9};
};

struct OnlineTrainerStats {
  std::uint64_t samples_seen = 0;
  /// Samples refused at ingest (serve.rejected_samples{cause}); they reach
  /// neither the error EWMA nor the fine-tune window.
  std::uint64_t rejected_samples = 0;
  std::uint64_t drift_events = 0;  ///< EWMA threshold crossings
  std::uint64_t fine_tunes = 0;    ///< background training runs
  std::uint64_t promotions = 0;    ///< candidates that passed holdout validation
  std::uint64_t rejects = 0;       ///< candidates discarded at the holdout gate
  std::uint64_t rollbacks = 0;     ///< promoted models unwound by the watchdog
  double error_ewma_pct = 0.0;     ///< live prediction error EWMA (|%|)
  double baseline_error_pct = 0.0; ///< promoted model's validation error
};

class OnlineTrainer {
 public:
  /// `key` must have a promoted model in `registry`; `handle` should be the
  /// one attached to the registry for that key (it is re-read after swaps).
  OnlineTrainer(ModelRegistry& registry, ServingHandle& handle, ModelKey key,
                OnlineTrainerConfig cfg);

  /// Feed one live observation at simulation time `now`. Returns true when
  /// this sample triggered a model swap (promotion or rollback). A sample
  /// whose workload or quota length differs from the model's node count,
  /// or that carries a non-finite or negative workload or latency, or a
  /// non-finite or non-positive quota, is rejected before the prediction
  /// and counted under serve.rejected_samples{cause}.
  bool ingest(const gnn::Sample& sample, double now);

  const OnlineTrainerStats& stats() const { return stats_; }
  bool drifted() const { return drifted_; }
  double drift_threshold_pct() const;
  std::size_t window_size() const { return window_.size(); }

  /// Publish serving telemetry: counters `serve.drift_events`,
  /// `serve.fine_tunes`, `serve.promotions`, `serve.rejects`,
  /// `serve.rollbacks`, `serve.rejected_samples{cause}` (cause is
  /// dimension, workload, quota or latency); gauges
  /// `serve.error_ewma_pct` (the live drift score),
  /// `serve.baseline_error_pct`, `serve.drift_threshold_pct`; and the
  /// `serve.fine_tune_us` wall-time histogram. nullptr detaches.
  void set_metrics(telemetry::MetricsRegistry* registry);

 private:
  bool fine_tune_and_maybe_promote(double now);
  void adopt_active_baseline();
  void sync_gauges();

  ModelRegistry& registry_;
  ServingHandle& handle_;
  ModelKey key_;
  OnlineTrainerConfig cfg_;

  std::deque<gnn::Sample> window_;
  OnlineTrainerStats stats_;
  bool drifted_ = false;
  std::size_t since_attempt_ = 0;
  // Post-promotion watchdog state.
  std::size_t watch_left_ = 0;
  double ewma_at_promotion_ = 0.0;
  // Telemetry instruments (nullptr while detached).
  telemetry::Counter* tel_drifts_ = nullptr;
  telemetry::Counter* tel_fine_tunes_ = nullptr;
  telemetry::Counter* tel_promotions_ = nullptr;
  telemetry::Counter* tel_rejects_ = nullptr;
  telemetry::Counter* tel_rollbacks_ = nullptr;
  telemetry::Gauge* tel_ewma_ = nullptr;
  telemetry::Gauge* tel_baseline_ = nullptr;
  telemetry::Gauge* tel_threshold_ = nullptr;
  telemetry::LogHistogram* tel_fine_tune_timer_ = nullptr;
  telemetry::MetricsRegistry* tel_registry_ = nullptr;
};

}  // namespace graf::serve
