// Latency Prediction Model orchestration (paper §3.4 + §5.1): dataset
// splitting, training, Table-2 style accuracy reporting, and dataset /
// model persistence so expensive sample collection and training can be
// shared across benchmark binaries.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gnn/graph.h"
#include "gnn/latency_model.h"

namespace graf::core {

struct DatasetSplit {
  gnn::Dataset train;
  gnn::Dataset val;
  gnn::Dataset test;
};

/// Shuffle deterministically and split (1 - val - test | val | test).
DatasetSplit split_dataset(gnn::Dataset all, double val_fraction,
                           double test_fraction, std::uint64_t seed);

/// Plain-text dataset persistence.
void save_dataset(const std::string& path, const gnn::Dataset& data);
gnn::Dataset load_dataset(const std::string& path);

class LatencyPredictor {
 public:
  LatencyPredictor(const gnn::Dag& graph, const gnn::MpnnConfig& cfg,
                   std::uint64_t seed);

  /// Split + fit; keeps the test set for accuracy reporting.
  gnn::TrainHistory train(gnn::Dataset all, const gnn::TrainConfig& cfg,
                          double val_fraction = 0.15, double test_fraction = 0.15);

  gnn::LatencyModel& model() { return model_; }
  const gnn::Dataset& test_set() const { return split_.test; }
  const gnn::Dataset& train_set() const { return split_.train; }
  const gnn::Dataset& val_set() const { return split_.val; }

  /// Mean |%error| on the validation split (0 when no split is installed).
  /// This is the number recorded as CheckpointMeta::val_error_pct when the
  /// trained model is published to a serve::ModelRegistry — the online
  /// trainer's drift baseline.
  double validation_error_pct();

  /// Table 2: mean absolute percentage error per latency region, plus the
  /// overall signed error (the "over-estimate" column).
  struct RegionAccuracy {
    std::string region;
    double mean_abs_pct_error;
    std::size_t count;
  };
  std::vector<RegionAccuracy> accuracy_by_region(
      const std::vector<std::pair<double, double>>& regions_ms);
  double overall_signed_error();

  /// Model persistence as a .grafck checkpoint (serve/checkpoint.h):
  /// load_model keeps the checkpoint's weights and scalers, so construct
  /// identically first. Returns false when `path` cannot be opened; throws
  /// serve::CheckpointError on a corrupt file and std::runtime_error on
  /// one whose weight shapes differ from this model's.
  void save_model(const std::string& path);
  bool load_model(const std::string& path);

  /// Install a dataset split without training (used when the model itself
  /// was loaded from disk but accuracy reports still need a test set).
  void set_split(DatasetSplit split) { split_ = std::move(split); }

 private:
  gnn::LatencyModel model_;
  DatasetSplit split_;
};

}  // namespace graf::core
