#include "common/rng.h"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace graf {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument{"uniform_int: lo > hi"};
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next_u64());  // full range
  // Rejection sampling: `r % span` alone is biased toward small values
  // whenever span does not divide 2^64 (severely so for spans near the top
  // of the range). Reject draws from the incomplete final copy of [0, span).
  const std::uint64_t rem = (UINT64_MAX % span + 1) % span;  // 2^64 mod span
  std::uint64_t r = next_u64();
  if (rem != 0) {
    const std::uint64_t bound = 0 - rem;  // 2^64 - rem, a multiple of span
    while (r >= bound) r = next_u64();
  }
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + r % span);
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller; u1 in (0, 1] to keep the log finite.
  const double u1 = 1.0 - uniform();
  const double u2 = uniform();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  cached_normal_ = mag * std::sin(2.0 * std::numbers::pi * u2);
  has_cached_normal_ = true;
  return mag * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::normal(double mean, double stddev) { return mean + stddev * normal(); }

double Rng::exponential(double rate) {
  if (rate <= 0.0) throw std::invalid_argument{"exponential: rate must be > 0"};
  return -std::log(1.0 - uniform()) / rate;
}

double Rng::lognormal(double mu, double sigma) { return std::exp(normal(mu, sigma)); }

bool Rng::bernoulli(double p) { return uniform() < p; }

std::size_t Rng::weighted_index(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    if (w < 0.0) throw std::invalid_argument{"weighted_index: negative weight"};
    total += w;
  }
  if (total <= 0.0) throw std::invalid_argument{"weighted_index: no positive weight"};
  double target = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.size() - 1;
}

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t stream) {
  // Two splitmix64 steps over a golden-ratio combination: enough avalanche
  // that adjacent (base, stream) pairs yield unrelated xoshiro seeds.
  std::uint64_t x = base + (stream + 1) * 0x9e3779b97f4a7c15ULL;
  (void)splitmix64(x);
  return splitmix64(x);
}

}  // namespace graf
