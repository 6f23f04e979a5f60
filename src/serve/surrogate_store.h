// Serving infrastructure for the distilled fast-path surrogate
// (gnn::SurrogateModel): binary checkpoints plus the registry traits that
// give it the same publish/promote/rollback lifecycle as the latency model
// and the forecaster (registry.h). The tiered planner
// (core/tiered_planner.h) bumps its plan-cache generation whenever the
// served instance changes.
//
// Checkpoint format (".grafsg"): magic "GRAFSRGT", version
// kSurrogateFormatVersion, in the shared CRC-32 frame (wire.h); the payload
// is config | scalers | meta | weights.
//
// The payload carries the teacher's scaler bits and every weight bit, so a
// restored surrogate predicts — and therefore plans — bit-identically to
// the one that was saved. Every failure mode raises CheckpointError naming
// the offending section.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "gnn/surrogate_model.h"
#include "serve/checkpoint.h"
#include "serve/registry.h"

namespace graf::serve {

inline constexpr std::uint32_t kSurrogateFormatVersion = 1;

/// Provenance stored with every surrogate checkpoint.
struct SurrogateMeta {
  std::string application;
  double slo_ms = 0.0;
  /// Fingerprint of the teacher the surrogate was distilled from
  /// (gnn::BatchedLatencyModel::fingerprint) — ties a checkpoint to the
  /// exact full-GNN it approximates.
  std::uint64_t teacher_fingerprint = 0;
  std::uint64_t distill_samples = 0;
  double val_error_pct = 0.0;  ///< held-out surrogate-vs-teacher MAPE
  double created_sim_time = 0.0;
};

void save_surrogate_checkpoint(std::ostream& os, gnn::SurrogateModel& model,
                               const SurrogateMeta& meta);
void save_surrogate_checkpoint_file(const std::string& path,
                                    gnn::SurrogateModel& model,
                                    const SurrogateMeta& meta);

struct LoadedSurrogate {
  gnn::SurrogateModel model;
  SurrogateMeta meta;
};

LoadedSurrogate load_surrogate_checkpoint(std::istream& is);
LoadedSurrogate load_surrogate_checkpoint_file(const std::string& path);

template <>
struct RegistryTraits<gnn::SurrogateModel> {
  using Meta = SurrogateMeta;
  using Served = gnn::SurrogateModel;
  static constexpr const char* kExtension = ".grafsg";
  static void save(const std::string& path, gnn::SurrogateModel& model,
                   const Meta& meta) {
    save_surrogate_checkpoint_file(path, model, meta);
  }
  static LoadedSurrogate load(const std::string& path) {
    return load_surrogate_checkpoint_file(path);
  }
  static void stamp(Meta&, const gnn::SurrogateModel&) {}
};

/// Versioned surrogate store: publish, promote, rollback and hot-swap of
/// SurrogateHandles, as for the latency model (registry.h).
using SurrogateRegistry = Registry<gnn::SurrogateModel>;

}  // namespace graf::serve
