// FNV-1a 64 over the little-endian bytes of 64-bit words: the content
// fingerprints of the latency model and its surrogate, where equal
// fingerprints stand for bit-identical forwards.
#pragma once

#include <bit>
#include <cstdint>

namespace graf {

class Fnv1a {
 public:
  void mix(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h_ ^= (v >> (byte * 8)) & 0xffULL;
      h_ *= 1099511628211ULL;
    }
  }
  void mix_double(double v) { mix(std::bit_cast<std::uint64_t>(v)); }

  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

}  // namespace graf
