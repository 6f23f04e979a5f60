// Binary model checkpoint format (".grafck").
//
// A checkpoint is fully self-describing: it carries the MPNN architecture,
// the microservice DAG (names + adjacency), the normalization scalers, all
// weight tensors as raw IEEE-754 doubles, and provenance metadata — enough
// to reconstruct a bit-identical LatencyModel with no other inputs.
//
// The file is the shared CRC-32 frame (wire.h) with magic "GRAFCKPT" and
// version kCheckpointFormatVersion around a config | graph | scalers |
// meta | params payload.
//
// Every failure mode (truncation, bit corruption, version or endianness
// mismatch, architecture mismatch) raises CheckpointError with a message
// naming the offending section — never a crash or a silently-wrong model.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>

#include "gnn/latency_model.h"

namespace graf::serve {

inline constexpr std::uint32_t kCheckpointFormatVersion = 1;

class CheckpointError : public std::runtime_error {
 public:
  explicit CheckpointError(const std::string& what)
      : std::runtime_error{"checkpoint: " + what} {}
};

/// Provenance recorded with every checkpoint; the registry keys and the
/// online trainer's drift baseline both come from here.
struct CheckpointMeta {
  std::string application;        ///< topology name, e.g. "online-boutique"
  double slo_ms = 0.0;            ///< SLO the model was trained for
  std::uint64_t train_samples = 0;
  double val_error_pct = 0.0;     ///< validation mean-abs-%-error at save time
  double created_sim_time = 0.0;  ///< simulation clock when trained
};

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320), seed/xorout 0xFFFFFFFF.
std::uint32_t crc32(const void* data, std::size_t len,
                    std::uint32_t seed = 0xFFFFFFFFu);

void save_checkpoint(std::ostream& os, gnn::LatencyModel& model,
                     const CheckpointMeta& meta);
void save_checkpoint_file(const std::string& path, gnn::LatencyModel& model,
                          const CheckpointMeta& meta);

struct LoadedCheckpoint {
  gnn::LatencyModel model;
  CheckpointMeta meta;
};

LoadedCheckpoint load_checkpoint(std::istream& is);
LoadedCheckpoint load_checkpoint_file(const std::string& path);

}  // namespace graf::serve
