// Byte surgery on checkpoint files for the corruption and fuzz tests: the
// payload offsets of a few fields, and resealing a mutated payload with a
// fresh CRC-32 so the mutation reaches the decoder instead of stopping at
// the checksum.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>

#include "gnn/latency_model.h"
#include "serve/checkpoint.h"

namespace graf::serve::craft {

/// Frame header: magic, version, endianness tag, payload size.
inline constexpr std::size_t kHeader = 8 + 4 + 4 + 8;
/// File offset of the header's payload-size field.
inline constexpr std::size_t kSizeField = 16;

/// Overwrite the bytes of `v` at payload offset `at`.
template <typename T>
void poke(std::string& file, std::size_t at, T v) {
  std::memcpy(file.data() + kHeader + at, &v, sizeof v);
}

template <typename T>
T peek(const std::string& file, std::size_t at) {
  T v;
  std::memcpy(&v, file.data() + kHeader + at, sizeof v);
  return v;
}

/// Recompute the trailing CRC-32 over the payload.
inline void reseal(std::string& file) {
  const std::uint32_t crc = crc32(file.data() + kHeader, file.size() - kHeader - 4);
  std::memcpy(file.data() + file.size() - 4, &crc, sizeof crc);
}

// .grafck payload: config is five u64 widths, a f64 dropout and a u8 flag.
inline constexpr std::size_t kGrafckEmbedDim = 8;
inline constexpr std::size_t kGrafckMessageSteps = 32;
inline constexpr std::size_t kGrafckGraph = 5 * 8 + 8 + 1;

/// Payload offset of a .grafck's [scalers] section for model `m`.
inline std::size_t grafck_scalers_at(const gnn::LatencyModel& m) {
  std::size_t at = kGrafckGraph + 8;
  for (std::size_t i = 0; i < m.node_count(); ++i)
    at += 8 + m.node_names()[i].size() + 8 + 4 * m.graph_parents()[i].size();
  return at;
}

/// Payload offset of a .grafck's [params] tensor count.
inline std::size_t grafck_params_at(const gnn::LatencyModel& m,
                                    const std::string& application) {
  return grafck_scalers_at(m) + 5 * 8 + 8 + application.size() + 4 * 8;
}

}  // namespace graf::serve::craft
