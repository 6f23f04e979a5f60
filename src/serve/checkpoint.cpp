#include "serve/checkpoint.h"

#include <fstream>
#include <vector>

#include "serve/wire.h"

namespace graf::serve {

namespace {

using wire::Reader;
using wire::Writer;

constexpr wire::FrameFormat kFormat{"GRAFCKPT", kCheckpointFormatVersion, ".grafck"};

void write_payload(Writer& w, gnn::LatencyModel& model, const CheckpointMeta& meta) {
  // [config]
  const gnn::MpnnConfig& cfg = model.mpnn_config();
  w.u64(cfg.node_features);
  w.u64(cfg.embed_dim);
  w.u64(cfg.mpnn_hidden);
  w.u64(cfg.readout_hidden);
  w.u64(cfg.message_steps);
  w.f64(cfg.dropout_p);
  w.u8(cfg.use_mpnn ? 1 : 0);

  // [graph]
  const auto& names = model.node_names();
  const auto& parents = model.graph_parents();
  w.u64(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    w.str(names[i]);
    w.u64(parents[i].size());
    for (int p : parents[i]) w.i32(p);
  }

  // [scalers]
  w.scalers(model.scalers());

  // [meta]
  w.str(meta.application);
  w.f64(meta.slo_ms);
  w.u64(meta.train_samples);
  w.f64(meta.val_error_pct);
  w.f64(meta.created_sim_time);

  // [params]
  w.tensors(model.state_dict());
}

LoadedCheckpoint read_payload(Reader& r) {
  // [config]
  gnn::MpnnConfig cfg;
  cfg.node_features = static_cast<std::size_t>(r.u64());
  cfg.embed_dim = static_cast<std::size_t>(r.u64());
  cfg.mpnn_hidden = static_cast<std::size_t>(r.u64());
  cfg.readout_hidden = static_cast<std::size_t>(r.u64());
  cfg.message_steps = static_cast<std::size_t>(r.u64());
  cfg.dropout_p = r.finite("config");
  cfg.use_mpnn = r.u8() != 0;
  if (cfg.node_features != gnn::LatencyModel::kNodeFeatures)
    throw CheckpointError{"config: unexpected node feature count"};

  // [graph] — a node takes at least its name length and parent count.
  const std::size_t node_count = r.count(16, "graph");
  if (node_count == 0) throw CheckpointError{"graph: no nodes"};
  gnn::Dag graph;
  std::vector<std::vector<int>> parents(node_count);
  for (std::size_t i = 0; i < node_count; ++i) {
    graph.add_node(r.str());
    const std::size_t np = r.count(sizeof(std::int32_t), "graph");
    if (np > node_count) throw CheckpointError{"graph: implausible parent count"};
    for (std::size_t p = 0; p < np; ++p) {
      const std::int32_t parent = r.i32();
      if (parent < 0 || static_cast<std::size_t>(parent) >= node_count)
        throw CheckpointError{"graph: parent index out of range"};
      parents[i].push_back(parent);
    }
  }
  for (std::size_t child = 0; child < parents.size(); ++child)
    for (int parent : parents[child]) graph.add_edge(parent, static_cast<int>(child));

  // [scalers]
  const gnn::ScalerState scalers = r.scalers();

  // [meta]
  CheckpointMeta meta;
  meta.application = r.str();
  meta.slo_ms = r.finite("meta");
  meta.train_samples = r.u64();
  meta.val_error_pct = r.finite("meta");  // the trainer's drift baseline
  meta.created_sim_time = r.finite("meta");

  // [params]
  const std::vector<nn::Tensor> state =
      r.tensors("params", gnn::MpnnModel::param_count(node_count, cfg));

  // The weight-initialization seed is irrelevant: every weight is
  // immediately overwritten from the checkpoint state.
  gnn::LatencyModel model{graph, cfg, /*seed=*/1};
  model.set_scalers(scalers);
  model.load_state_dict(state);
  return {std::move(model), std::move(meta)};
}

}  // namespace

void save_checkpoint(std::ostream& os, gnn::LatencyModel& model,
                     const CheckpointMeta& meta) {
  Writer payload;
  write_payload(payload, model, meta);
  wire::write_frame(os, kFormat, payload.buffer());
}

void save_checkpoint_file(const std::string& path, gnn::LatencyModel& model,
                          const CheckpointMeta& meta) {
  std::ofstream os{path, std::ios::binary | std::ios::trunc};
  if (!os) throw CheckpointError{"cannot open " + path + " for writing"};
  save_checkpoint(os, model, meta);
}

LoadedCheckpoint load_checkpoint(std::istream& is) {
  // Every payload byte must be consumed, and any exception from the decoder
  // or the model it builds surfaces as a CheckpointError.
  try {
    const std::string payload = wire::read_frame(is, kFormat);
    Reader r{payload.data(), payload.size()};
    LoadedCheckpoint loaded = read_payload(r);
    if (!r.exhausted()) throw CheckpointError{"trailing bytes after payload"};
    return loaded;
  } catch (const CheckpointError&) {
    throw;
  } catch (const std::exception& e) {
    // e.g. Dag reconstruction rejecting a crafted payload that passed CRC.
    throw CheckpointError{e.what()};
  }
}

LoadedCheckpoint load_checkpoint_file(const std::string& path) {
  std::ifstream is{path, std::ios::binary};
  if (!is) throw CheckpointError{"cannot open " + path};
  return load_checkpoint(is);
}

}  // namespace graf::serve
