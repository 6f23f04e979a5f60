#include "core/latency_predictor.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/rng.h"
#include "serve/checkpoint.h"

namespace graf::core {

DatasetSplit split_dataset(gnn::Dataset all, double val_fraction,
                           double test_fraction, std::uint64_t seed) {
  if (val_fraction < 0.0 || test_fraction < 0.0 || val_fraction + test_fraction >= 1.0)
    throw std::invalid_argument{"split_dataset: bad fractions"};
  Rng rng{seed};
  for (std::size_t i = all.size(); i > 1; --i)
    std::swap(all[i - 1],
              all[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  const auto n = all.size();
  const auto n_val = static_cast<std::size_t>(static_cast<double>(n) * val_fraction);
  const auto n_test = static_cast<std::size_t>(static_cast<double>(n) * test_fraction);
  DatasetSplit out;
  out.test.assign(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(n_test));
  out.val.assign(all.begin() + static_cast<std::ptrdiff_t>(n_test),
                 all.begin() + static_cast<std::ptrdiff_t>(n_test + n_val));
  out.train.assign(all.begin() + static_cast<std::ptrdiff_t>(n_test + n_val), all.end());
  return out;
}

void save_dataset(const std::string& path, const gnn::Dataset& data) {
  std::ofstream os{path};
  if (!os) throw std::runtime_error{"save_dataset: cannot open " + path};
  os.precision(17);
  const std::size_t dim = data.empty() ? 0 : data.front().workload.size();
  os << data.size() << ' ' << dim << '\n';
  for (const auto& s : data) {
    for (double w : s.workload) os << w << ' ';
    for (double q : s.quota) os << q << ' ';
    os << s.latency_ms << '\n';
  }
}

gnn::Dataset load_dataset(const std::string& path) {
  std::ifstream is{path};
  if (!is) throw std::runtime_error{"load_dataset: cannot open " + path};
  std::size_t n = 0;
  std::size_t dim = 0;
  if (!(is >> n >> dim)) throw std::runtime_error{"load_dataset: bad header"};
  gnn::Dataset out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    gnn::Sample s;
    s.workload.resize(dim);
    s.quota.resize(dim);
    for (auto& w : s.workload)
      if (!(is >> w)) throw std::runtime_error{"load_dataset: truncated"};
    for (auto& q : s.quota)
      if (!(is >> q)) throw std::runtime_error{"load_dataset: truncated"};
    if (!(is >> s.latency_ms)) throw std::runtime_error{"load_dataset: truncated"};
    out.push_back(std::move(s));
  }
  return out;
}

LatencyPredictor::LatencyPredictor(const gnn::Dag& graph, const gnn::MpnnConfig& cfg,
                                   std::uint64_t seed)
    : model_{graph, cfg, seed} {}

gnn::TrainHistory LatencyPredictor::train(gnn::Dataset all, const gnn::TrainConfig& cfg,
                                          double val_fraction, double test_fraction) {
  split_ = split_dataset(std::move(all), val_fraction, test_fraction, cfg.seed);
  return model_.fit(split_.train, split_.val, cfg);
}

std::vector<LatencyPredictor::RegionAccuracy> LatencyPredictor::accuracy_by_region(
    const std::vector<std::pair<double, double>>& regions_ms) {
  std::vector<RegionAccuracy> out;
  for (const auto& [lo, hi] : regions_ms) {
    const auto rep = model_.evaluate_accuracy(split_.test, lo, hi);
    std::ostringstream name;
    name << static_cast<int>(lo) << "-" << static_cast<int>(hi) << "ms";
    out.push_back({name.str(), rep.mean_abs_pct_error, rep.count});
  }
  return out;
}

double LatencyPredictor::overall_signed_error() {
  return model_.evaluate_accuracy(split_.test).mean_pct_error;
}

double LatencyPredictor::validation_error_pct() {
  if (split_.val.empty()) return 0.0;
  return model_.evaluate_accuracy(split_.val).mean_abs_pct_error;
}

void LatencyPredictor::save_model(const std::string& path) {
  serve::save_checkpoint_file(path, model_, {});
}

bool LatencyPredictor::load_model(const std::string& path) {
  if (!std::ifstream{path}) return false;
  // The checkpoint rebuilds a whole model; only its weights and scalers are
  // kept, and load_state_dict rejects a checkpoint of another shape.
  serve::LoadedCheckpoint loaded = serve::load_checkpoint_file(path);
  model_.load_state_dict(loaded.model.state_dict());
  model_.set_scalers(loaded.model.scalers());
  return true;
}

}  // namespace graf::core
