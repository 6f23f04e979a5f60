// Log-bucketed mergeable histogram (HDR-histogram style), the telemetry
// subsystem's workhorse for latency/duration distributions.
//
// Values are bucketed by binary octave [2^o, 2^(o+1)) with `sub_buckets`
// linear sub-buckets per octave, so memory is fixed by the config, record()
// is O(1) (one frexp, no branches on the data), and percentiles are
// recovered from bucket boundaries in O(buckets). The bucket array is
// allocated by the first sample, not the constructor: an instrument that
// never records costs no bucket memory, and reads as bucket_count() zero
// buckets.
//
// Error bound: every recorded value lands in a bucket whose relative width
// is at most 1/sub_buckets, so percentile() is within 1/sub_buckets of the
// true nearest-rank order statistic (and within 2/sub_buckets of a
// linearly-interpolated exact percentile on densely-sampled data). The
// default 64 sub-buckets bound the error at ~1.6%.
//
// Snapshots are plain bucket-count vectors and merge by addition, which is
// what makes cross-replica aggregation (the Prometheus sum-then-quantile
// idiom) exact: merging per-replica histograms and querying the percentile
// gives the same answer as one histogram over the union of the streams.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace graf::telemetry {

struct LogHistogramConfig {
  /// Smallest resolvable octave: values below 2^min_exponent (including
  /// zero and negatives) clamp into the first bucket.
  int min_exponent = -14;  ///< 2^-14 ~ 6e-5: microsecond-scale ms values
  /// Values at or above 2^max_exponent clamp into the last bucket.
  int max_exponent = 30;   ///< 2^30 ~ 1e9
  /// Linear sub-buckets per octave; relative error <= 1/sub_buckets.
  std::size_t sub_buckets = 64;

  std::size_t bucket_count() const {
    return static_cast<std::size_t>(max_exponent - min_exponent) * sub_buckets;
  }
  bool operator==(const LogHistogramConfig&) const = default;
};

/// Immutable copy of a histogram's state at one instant. Mergeable and
/// subtractable: Scraper derives per-interval percentiles from snapshot
/// deltas exactly like Prometheus' histogram_quantile(rate(...)).
struct HistogramSnapshot {
  LogHistogramConfig config;
  std::vector<std::uint64_t> counts;
  std::uint64_t total = 0;
  double sum = 0.0;
  double min = 0.0;  ///< exact min over recorded values (0 when empty)
  double max = 0.0;  ///< exact max over recorded values (0 when empty)

  bool empty() const { return total == 0; }
  double mean() const;
  /// Percentile estimate for rank in [0, 100]; throws when empty.
  double percentile(double rank) const;
  /// Sum counts of `other` into this; configs must match.
  void merge(const HistogramSnapshot& other);
  /// Counts recorded since `earlier` was taken (this - earlier). Both must
  /// come from the same histogram; throws on config mismatch or if any
  /// bucket would go negative. min/max of the delta are approximated by the
  /// newer snapshot's exact extrema clamped into the delta's bucket range.
  HistogramSnapshot delta_since(const HistogramSnapshot& earlier) const;
};

class LogHistogram {
 public:
  explicit LogHistogram(LogHistogramConfig cfg = {});

  /// O(1), and never throws: it runs in ScopedTimer's destructor. NaN is
  /// ignored. Allocates once, on the first sample, and drops that sample
  /// if the allocation fails.
  void record(double x);

  std::uint64_t total() const { return total_; }
  double sum() const { return sum_; }
  double mean() const { return total_ > 0 ? sum_ / static_cast<double>(total_) : 0.0; }
  double min() const { return min_; }
  double max() const { return max_; }

  /// Percentile estimate for rank in [0, 100]; throws when empty.
  /// Accurate to within config().relative error (see file comment).
  double percentile(double rank) const;
  /// Documented accuracy bound of percentile() vs the true nearest-rank
  /// order statistic, as a relative error: 1/sub_buckets.
  double relative_error() const {
    return 1.0 / static_cast<double>(cfg_.sub_buckets);
  }

  /// bucket_count() counts, zero before the first sample.
  HistogramSnapshot snapshot() const;
  /// Add every recorded value of `other` into this; configs must match.
  /// Allocates the buckets when `other` brings the first samples.
  void merge(const LogHistogram& other);
  /// Zero every count; keeps the bucket array for the next sample.
  void reset();

  const LogHistogramConfig& config() const { return cfg_; }
  std::size_t bucket_count() const { return cfg_.bucket_count(); }
  std::uint64_t bucket(std::size_t i) const { return counts_.empty() ? 0 : counts_[i]; }
  /// Value range [bucket_lo, bucket_hi) covered by bucket i.
  double bucket_lo(std::size_t i) const;
  double bucket_hi(std::size_t i) const;

 private:
  std::size_t index_of(double x) const;
  /// Size the bucket array to the config; false when that fails.
  bool allocate_buckets() noexcept;

  LogHistogramConfig cfg_;
  std::vector<std::uint64_t> counts_;  ///< empty until the first sample
  std::uint64_t total_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace graf::telemetry
