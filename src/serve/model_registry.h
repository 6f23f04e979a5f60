// The latency-model registry: Registry<T> (registry.h) over .grafck
// checkpoints (checkpoint.h).
#pragma once

#include <string>

#include "serve/checkpoint.h"
#include "serve/registry.h"
#include "serve/serving_handle.h"

namespace graf::serve {

template <>
struct RegistryTraits<gnn::LatencyModel> {
  using Meta = CheckpointMeta;
  using Served = gnn::LatencyModel;
  static constexpr const char* kExtension = ".grafck";
  static void save(const std::string& path, gnn::LatencyModel& model, const Meta& meta) {
    save_checkpoint_file(path, model, meta);
  }
  static LoadedCheckpoint load(const std::string& path) {
    return load_checkpoint_file(path);
  }
  static void stamp(Meta&, const gnn::LatencyModel&) {}
};

using ModelRegistry = Registry<gnn::LatencyModel>;

}  // namespace graf::serve
