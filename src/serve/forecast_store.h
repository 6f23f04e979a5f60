// Serving infrastructure for the learned workload forecaster
// (forecast::ArForecaster): binary checkpoints plus the registry traits
// that give it the same publish/promote/rollback lifecycle as the latency
// model (registry.h).
//
// Checkpoint format (".graffc"): magic "GRAFFCST", version
// kForecastFormatVersion, in the shared CRC-32 frame (wire.h); the payload
// is config | state | history | meta | weights.
//
// The payload carries the retained observation window, so a restored
// forecaster predicts identically to the one that was saved — bit for bit —
// and is ready immediately instead of re-accumulating min_history ticks.
// Every failure mode raises CheckpointError naming the offending section.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "forecast/ar_forecaster.h"
#include "serve/checkpoint.h"
#include "serve/registry.h"

namespace graf::serve {

inline constexpr std::uint32_t kForecastFormatVersion = 1;

/// Provenance stored with every forecaster checkpoint.
struct ForecastMeta {
  std::string application;
  double slo_ms = 0.0;
  std::uint64_t observations = 0;  ///< series length consumed at save time
  double created_sim_time = 0.0;
};

void save_forecast_checkpoint(std::ostream& os, const forecast::ArForecaster& f,
                              const ForecastMeta& meta);
void save_forecast_checkpoint_file(const std::string& path,
                                   const forecast::ArForecaster& f,
                                   const ForecastMeta& meta);

struct LoadedForecast {
  forecast::ArForecaster model;
  ForecastMeta meta;
};

LoadedForecast load_forecast_checkpoint(std::istream& is);
LoadedForecast load_forecast_checkpoint_file(const std::string& path);

template <>
struct RegistryTraits<forecast::ArForecaster> {
  using Meta = ForecastMeta;
  using Served = forecast::Forecaster;
  static constexpr const char* kExtension = ".graffc";
  static void save(const std::string& path, forecast::ArForecaster& f,
                   const Meta& meta) {
    save_forecast_checkpoint_file(path, f, meta);
  }
  static LoadedForecast load(const std::string& path) {
    return load_forecast_checkpoint_file(path);
  }
  /// A stored version records how much of the series it has seen.
  static void stamp(Meta& meta, const forecast::ArForecaster& f) {
    meta.observations = f.observations();
  }
};

/// Versioned forecaster store: publish, promote, rollback and hot-swap of
/// ForecastHandles, as for the latency model (registry.h).
using ForecastRegistry = Registry<forecast::ArForecaster>;

}  // namespace graf::serve
