// The checkpoint frame and its byte-level (de)serialization, under the
// .grafck latency-model codec (checkpoint.cpp), which supplies its magic,
// its version constant and its payload. The frame around the payload is
//
//   magic            8 bytes
//   format version   u32
//   endianness tag   u32      0x01020304 written natively
//   payload size     u64      bytes between here and the CRC
//   payload          ...
//   crc32            u32      CRC-32 (IEEE 802.3) of the payload bytes
//
// Integers and doubles are written in host byte order; the endianness tag
// rejects cross-endian files instead of byte-swapping.
//
// Hostile bytes: a claimed size never drives an allocation on its own. The
// frame reader grows the payload only as bytes arrive, and Reader checks
// every count, length and tensor shape against remaining() before the
// caller allocates for it, so a CRC-valid file can cost no more memory
// than a small multiple of its own size.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "nn/tensor.h"
#include "serve/checkpoint.h"

namespace graf::serve::wire {

/// Appends raw fields to a byte buffer.
class Writer {
 public:
  void bytes(const void* p, std::size_t n) {
    const char* c = static_cast<const char*>(p);
    buf_.insert(buf_.end(), c, c + n);
  }
  void u8(std::uint8_t v) { bytes(&v, sizeof v); }
  void u32(std::uint32_t v) { bytes(&v, sizeof v); }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void i32(std::int32_t v) { bytes(&v, sizeof v); }
  void f64(double v) { bytes(&v, sizeof v); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  void scalers(const gnn::ScalerState& s) {
    f64(s.w_scale);
    f64(s.q_scale);
    f64(s.q_min_mc);
    f64(s.ratio_max);
    f64(s.label_ref);
  }
  /// A count, then per tensor rows | cols | row-major values.
  void tensors(const std::vector<nn::Tensor>& ts) {
    u64(ts.size());
    for (const nn::Tensor& t : ts) {
      u64(t.rows());
      u64(t.cols());
      bytes(t.data(), t.size() * sizeof(double));
    }
  }

  const std::string& buffer() const { return buf_; }

 private:
  std::string buf_;
};

/// Reads raw fields from a byte buffer; throws CheckpointError on overrun.
class Reader {
 public:
  Reader(const char* data, std::size_t len) : data_{data}, len_{len} {}

  void bytes(void* out, std::size_t n) {
    if (n > remaining()) throw CheckpointError{"payload truncated"};
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
  }
  std::uint8_t u8() { return read<std::uint8_t>(); }
  std::uint64_t u64() { return read<std::uint64_t>(); }
  std::int32_t i32() { return read<std::int32_t>(); }
  double f64() { return read<double>(); }
  std::string str() {
    const std::uint64_t n = u64();
    if (n > remaining()) throw CheckpointError{"payload truncated"};
    std::string s(static_cast<std::size_t>(n), '\0');
    bytes(s.data(), s.size());
    return s;
  }

  /// A u64 count of items that each take at least `item_bytes` payload
  /// bytes; throws unless that many fit in what remains, so the caller may
  /// allocate for them.
  std::size_t count(std::size_t item_bytes, const char* section) {
    const std::uint64_t n = u64();
    if (n > remaining() / item_bytes)
      throw CheckpointError{std::string{section} + ": count exceeds the payload"};
    return static_cast<std::size_t>(n);
  }
  /// A double that must be finite (a scaler, weight or state value).
  double finite(const char* section) {
    const double v = f64();
    if (!std::isfinite(v))
      throw CheckpointError{std::string{section} + ": non-finite value"};
    return v;
  }
  gnn::ScalerState scalers() {
    gnn::ScalerState s;
    s.w_scale = finite("scalers");
    s.q_scale = finite("scalers");
    s.q_min_mc = finite("scalers");
    s.ratio_max = finite("scalers");
    s.label_ref = finite("scalers");
    return s;
  }
  /// Writer::tensors' layout. Each shape is checked against what remains
  /// before its tensor is allocated, every value must be finite, and the
  /// values must add up to `expected`: the parameter count the config
  /// implies, so a model is built from the config only once the bytes for
  /// its parameters are known to be present.
  std::vector<nn::Tensor> tensors(const char* section, std::uint64_t expected) {
    const auto fail = [section](const char* what) {
      return CheckpointError{std::string{section} + ": " + what};
    };
    // A tensor takes at least its shape and one value.
    std::vector<nn::Tensor> out(count(3 * sizeof(std::uint64_t), section));
    std::uint64_t values = 0;
    for (nn::Tensor& t : out) {
      const std::uint64_t rows = u64();
      const std::uint64_t cols = u64();
      if (rows == 0 || cols == 0 || cols > remaining() / sizeof(double) / rows)
        throw fail("implausible tensor shape");
      t = nn::Tensor{static_cast<std::size_t>(rows), static_cast<std::size_t>(cols)};
      bytes(t.data(), t.size() * sizeof(double));
      for (std::size_t i = 0; i < t.size(); ++i)
        if (!std::isfinite(t.data()[i])) throw fail("non-finite value");
      values += t.size();
    }
    if (values != expected) throw fail("config implies a different parameter count");
    return out;
  }

  std::size_t remaining() const { return len_ - pos_; }
  bool exhausted() const { return pos_ == len_; }

 private:
  template <typename T>
  T read() {
    T v;
    bytes(&v, sizeof v);
    return v;
  }

  const char* data_;
  std::size_t len_;
  std::size_t pos_ = 0;
};

/// What identifies a frame: the header fields read_frame checks.
struct FrameFormat {
  std::string_view magic;      ///< exactly 8 bytes
  std::uint32_t version;       ///< the only version this build reads
  std::string_view extension;  ///< for diagnostics, e.g. ".grafck"
};

/// Write `payload` framed as `format`; throws CheckpointError on IO failure.
void write_frame(std::ostream& os, const FrameFormat& format,
                 const std::string& payload);

/// Read one frame of `format` and return its CRC-verified payload. The
/// payload is read in fixed-size chunks, so memory follows the bytes that
/// actually arrive, not the size the header claims.
std::string read_frame(std::istream& is, const FrameFormat& format);

}  // namespace graf::serve::wire
