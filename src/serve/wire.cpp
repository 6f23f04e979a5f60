#include "serve/wire.h"

#include <algorithm>
#include <array>
#include <istream>
#include <ostream>

namespace graf::serve {

namespace {

constexpr std::uint32_t kEndianTag = 0x01020304u;
/// Payload read granularity: a header that claims more than the stream
/// holds costs at most one chunk beyond the bytes that arrived.
constexpr std::size_t kReadChunk = std::size_t{1} << 16;

const std::array<std::uint32_t, 256>& crc_table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  return table;
}

template <typename T>
bool read_raw(std::istream& is, T& v) {
  return static_cast<bool>(is.read(reinterpret_cast<char*>(&v), sizeof v));
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed) {
  const auto& table = crc_table();
  const unsigned char* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed;
  for (std::size_t i = 0; i < len; ++i) c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

namespace wire {

void write_frame(std::ostream& os, const FrameFormat& format,
                 const std::string& payload) {
  Writer header;
  header.bytes(format.magic.data(), format.magic.size());
  header.u32(format.version);
  header.u32(kEndianTag);
  header.u64(payload.size());

  os.write(header.buffer().data(),
           static_cast<std::streamsize>(header.buffer().size()));
  os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  const std::uint32_t crc = crc32(payload.data(), payload.size());
  os.write(reinterpret_cast<const char*>(&crc), sizeof crc);
  if (!os) throw CheckpointError{"write failed"};
}

std::string read_frame(std::istream& is, const FrameFormat& format) {
  char magic[8];
  if (!is.read(magic, sizeof magic)) throw CheckpointError{"truncated header"};
  if (format.magic != std::string_view{magic, sizeof magic})
    throw CheckpointError{"bad magic (not a " + std::string{format.extension} +
                          " file)"};

  std::uint32_t version = 0;
  std::uint32_t endian = 0;
  std::uint64_t payload_size = 0;
  if (!read_raw(is, version) || !read_raw(is, endian) || !read_raw(is, payload_size))
    throw CheckpointError{"truncated header"};
  if (version != format.version)
    throw CheckpointError{"unsupported format version " + std::to_string(version)};
  if (endian != kEndianTag)
    throw CheckpointError{"endianness mismatch (file written on a foreign host)"};

  std::string payload;
  for (std::uint64_t left = payload_size; left > 0;) {
    const auto n = static_cast<std::size_t>(std::min<std::uint64_t>(left, kReadChunk));
    const std::size_t at = payload.size();
    payload.resize(at + n);
    if (!is.read(payload.data() + at, static_cast<std::streamsize>(n)))
      throw CheckpointError{"payload truncated"};
    left -= n;
  }

  std::uint32_t stored_crc = 0;
  if (!read_raw(is, stored_crc)) throw CheckpointError{"missing CRC"};
  if (stored_crc != crc32(payload.data(), payload.size()))
    throw CheckpointError{"CRC mismatch (corrupted file)"};
  return payload;
}

}  // namespace wire
}  // namespace graf::serve
