// Deterministic pseudo-random number generation.
//
// All stochastic components of the simulator and the training stack draw
// from an explicitly-seeded Rng so that every experiment in the benchmark
// harness is reproducible bit-for-bit. The generator is xoshiro256**,
// seeded through splitmix64 (the construction recommended by its authors).
#pragma once

#include <cstdint>
#include <vector>

namespace graf {

/// Deterministic random number generator (xoshiro256**).
///
/// Not thread-safe; give each concurrent component its own instance,
/// typically seeded through derive_seed() so each owns an independent
/// stream.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box-Muller.
  double normal();

  /// Normal with given mean / stddev.
  double normal(double mean, double stddev);

  /// Exponential with the given rate (mean 1/rate). Requires rate > 0.
  double exponential(double rate);

  /// Log-normal: exp(normal(mu, sigma)).
  double lognormal(double mu, double sigma);

  /// True with probability p.
  bool bernoulli(double p);

  /// Random index weighted by non-negative `weights` (need not sum to 1).
  /// Requires at least one strictly positive weight.
  std::size_t weighted_index(const std::vector<double>& weights);

 private:
  std::uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

/// Deterministic seed derivation (splitmix64 finalizer over base + stream):
/// hash-combines a base seed with a stream identifier — iteration counter,
/// shard index, sample index — so every parallel unit of work owns an
/// independent random stream that does not depend on the thread count or on
/// how much randomness other units consumed (DESIGN.md §3.7).
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t stream);

}  // namespace graf
