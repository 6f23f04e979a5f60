#include "serve/surrogate_store.h"

#include <fstream>
#include <utility>

#include "serve/wire.h"

namespace graf::serve {

namespace {

using wire::Reader;
using wire::Writer;

constexpr wire::FrameFormat kFormat{"GRAFSRGT", kSurrogateFormatVersion, ".grafsg"};

void write_payload(Writer& w, gnn::SurrogateModel& model,
                   const SurrogateMeta& meta) {
  // [config]
  const gnn::SurrogateConfig& cfg = model.config();
  w.u64(model.node_count());
  w.u64(cfg.hidden);
  w.u64(cfg.hidden_layers);
  w.f64(cfg.dropout_p);

  // [scalers]
  w.scalers(model.scalers());

  // [meta]
  w.str(meta.application);
  w.f64(meta.slo_ms);
  w.u64(meta.teacher_fingerprint);
  w.u64(meta.distill_samples);
  w.f64(meta.val_error_pct);
  w.f64(meta.created_sim_time);

  // [weights]
  w.tensors(model.state_dict());
}

LoadedSurrogate read_payload(Reader& r) {
  // [config]
  const std::uint64_t node_count = r.u64();
  gnn::SurrogateConfig cfg;
  cfg.hidden = static_cast<std::size_t>(r.u64());
  cfg.hidden_layers = static_cast<std::size_t>(r.u64());
  cfg.dropout_p = r.finite("config");

  // [scalers]
  const gnn::ScalerState s = r.scalers();

  // [meta]
  SurrogateMeta meta;
  meta.application = r.str();
  meta.slo_ms = r.finite("meta");
  meta.teacher_fingerprint = r.u64();
  meta.distill_samples = r.u64();
  meta.val_error_pct = r.finite("meta");
  meta.created_sim_time = r.finite("meta");

  // [weights]
  const std::vector<nn::Tensor> state =
      r.tensors("weights", gnn::SurrogateModel::param_count(node_count, cfg));

  // The seed only shapes the discarded initial weights — load_state_dict
  // overwrites every parameter bit.
  gnn::SurrogateModel model{static_cast<std::size_t>(node_count), cfg, 1};
  model.set_scalers(s);
  model.load_state_dict(state);
  return {std::move(model), std::move(meta)};
}

}  // namespace

void save_surrogate_checkpoint(std::ostream& os, gnn::SurrogateModel& model,
                               const SurrogateMeta& meta) {
  Writer payload;
  write_payload(payload, model, meta);
  wire::write_frame(os, kFormat, payload.buffer());
}

void save_surrogate_checkpoint_file(const std::string& path,
                                    gnn::SurrogateModel& model,
                                    const SurrogateMeta& meta) {
  std::ofstream os{path, std::ios::binary | std::ios::trunc};
  if (!os) throw CheckpointError{"cannot open " + path + " for writing"};
  save_surrogate_checkpoint(os, model, meta);
}

LoadedSurrogate load_surrogate_checkpoint(std::istream& is) {
  return wire::load_frame(is, kFormat, read_payload);
}

LoadedSurrogate load_surrogate_checkpoint_file(const std::string& path) {
  std::ifstream is{path, std::ios::binary};
  if (!is) throw CheckpointError{"cannot open " + path};
  return load_surrogate_checkpoint(is);
}

}  // namespace graf::serve
