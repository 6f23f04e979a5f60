#include "serve/forecast_store.h"

#include <algorithm>
#include <fstream>
#include <utility>

#include "nn/layers.h"
#include "serve/wire.h"

namespace graf::serve {

namespace {

using wire::Reader;
using wire::Writer;

constexpr wire::FrameFormat kFormat{"GRAFFCST", kForecastFormatVersion, ".graffc"};

void write_payload(Writer& w, const forecast::ArForecaster& f,
                   const ForecastMeta& meta) {
  // [config]
  const forecast::ArConfig& cfg = f.config();
  w.u64(cfg.order);
  w.u64(cfg.window);
  w.u64(cfg.refit_every);
  w.u64(cfg.iterations);
  w.f64(cfg.lr);
  w.u64(cfg.seed);
  w.u64(cfg.min_history);
  w.f64(cfg.band_z);

  // [state]
  w.f64(f.scale());
  w.f64(f.residual_sigma());
  w.u8(f.fitted() ? 1 : 0);
  w.u64(f.observations());

  // [history]
  const std::vector<double>& h = f.history();
  w.u64(h.size());
  for (double v : h) w.f64(v);

  // [meta]
  w.str(meta.application);
  w.f64(meta.slo_ms);
  w.u64(meta.observations);
  w.f64(meta.created_sim_time);

  // [weights]
  const nn::Tensor& weight = f.weight();
  w.u64(weight.rows());
  for (std::size_t i = 0; i < weight.rows(); ++i) w.f64(weight(i, 0));
  w.f64(f.bias()(0, 0));
}

// Rejects a config whose refit work or history cap exceeds its budget
// (forecast_store.h), computed as the constructor will clamp it.
void check_budgets(const forecast::ArConfig& cfg) {
  const std::uint64_t order = cfg.order;
  const std::uint64_t window = std::max<std::uint64_t>(cfg.window, nn::sat_add(order, 2));
  const std::uint64_t iterations = std::max<std::uint64_t>(cfg.iterations, 1);
  const std::uint64_t work =
      nn::sat_mul(iterations, nn::sat_mul(window, nn::sat_add(order, 1)));
  if (work > kMaxForecastRefitWork)
    throw CheckpointError{"config: refit work exceeds kMaxForecastRefitWork"};
  if (nn::sat_add(window, order) > kMaxForecastHistory)
    throw CheckpointError{"config: history cap exceeds kMaxForecastHistory"};
}

LoadedForecast read_payload(Reader& r) {
  // [config]
  forecast::ArConfig cfg;
  cfg.order = static_cast<std::size_t>(r.u64());
  cfg.window = static_cast<std::size_t>(r.u64());
  cfg.refit_every = static_cast<std::size_t>(r.u64());
  cfg.iterations = static_cast<std::size_t>(r.u64());
  cfg.lr = r.finite("config");
  cfg.seed = r.u64();
  cfg.min_history = static_cast<std::size_t>(r.u64());
  cfg.band_z = r.finite("config");
  check_budgets(cfg);

  // [state]
  const double scale = r.finite("state");
  const double sigma = r.finite("state");
  const bool fitted = r.u8() != 0;
  const std::uint64_t count = r.u64();

  // [history]
  std::vector<double> history(r.count(sizeof(double), "history"));
  for (double& v : history) v = r.finite("history");

  // [meta]
  ForecastMeta meta;
  meta.application = r.str();
  meta.slo_ms = r.finite("meta");
  meta.observations = r.u64();
  meta.created_sim_time = r.finite("meta");

  // [weights] — read before the forecaster is built from the config.
  const std::size_t order = r.count(sizeof(double), "weights");
  if (order != cfg.order) throw CheckpointError{"weights: order mismatch"};
  nn::Tensor weight{order, 1};
  for (std::size_t i = 0; i < order; ++i) weight(i, 0) = r.finite("weights");
  nn::Tensor bias{1, 1};
  bias(0, 0) = r.finite("weights");

  // The constructor may clamp a hand-edited config; restore() then
  // shape-checks the stored weights against the clamped order.
  forecast::ArForecaster model{cfg};
  model.restore(weight, bias, scale, sigma, fitted, std::move(history),
                static_cast<std::size_t>(count));
  return {std::move(model), std::move(meta)};
}

}  // namespace

void save_forecast_checkpoint(std::ostream& os, const forecast::ArForecaster& f,
                              const ForecastMeta& meta) {
  Writer payload;
  write_payload(payload, f, meta);
  wire::write_frame(os, kFormat, payload.buffer());
}

void save_forecast_checkpoint_file(const std::string& path,
                                   const forecast::ArForecaster& f,
                                   const ForecastMeta& meta) {
  std::ofstream os{path, std::ios::binary | std::ios::trunc};
  if (!os) throw CheckpointError{"cannot open " + path + " for writing"};
  save_forecast_checkpoint(os, f, meta);
}

LoadedForecast load_forecast_checkpoint(std::istream& is) {
  return wire::load_frame(is, kFormat, read_payload);
}

LoadedForecast load_forecast_checkpoint_file(const std::string& path) {
  std::ifstream is{path, std::ios::binary};
  if (!is) throw CheckpointError{"cannot open " + path};
  return load_forecast_checkpoint(is);
}

}  // namespace graf::serve
