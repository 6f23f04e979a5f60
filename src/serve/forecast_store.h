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

/// Budgets a .graffc config must stay within to load. The byte bound covers
/// sizes, not these: a CRC-valid file can ask for any refit cost. The work
/// of one refit is iterations x window x (order + 1) — Adam steps over the
/// window's rows of order lags plus the bias, on the values the
/// ArForecaster constructor clamps to — and the retained history is
/// window + order values. A larger config is rejected as [config].
inline constexpr std::uint64_t kMaxForecastRefitWork = std::uint64_t{1} << 26;
inline constexpr std::uint64_t kMaxForecastHistory = std::uint64_t{1} << 20;

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
