#include "telemetry/log_histogram.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace graf::telemetry {

namespace {

double bucket_bound(const LogHistogramConfig& cfg, std::size_t i) {
  const auto octave = cfg.min_exponent + static_cast<int>(i / cfg.sub_buckets);
  const auto sub = static_cast<double>(i % cfg.sub_buckets);
  return std::ldexp(1.0 + sub / static_cast<double>(cfg.sub_buckets), octave);
}

/// Shared by LogHistogram and HistogramSnapshot: walk the cumulative counts
/// to the bucket containing the target rank, interpolate linearly within
/// it, and fall back to the exact tracked extrema at the rank edges.
double percentile_from_buckets(const LogHistogramConfig& cfg,
                               const std::vector<std::uint64_t>& counts,
                               std::uint64_t total, double lo_exact,
                               double hi_exact, double rank) {
  if (total == 0)
    throw std::logic_error{"LogHistogram::percentile: empty histogram"};
  if (rank <= 0.0) return lo_exact;
  if (rank >= 100.0) return hi_exact;
  const double target = rank / 100.0 * static_cast<double>(total);
  double cum = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const auto c = static_cast<double>(counts[i]);
    if (c > 0.0 && cum + c >= target) {
      const double lo = bucket_bound(cfg, i);
      const double hi = bucket_bound(cfg, i + 1);
      const double frac = (target - cum) / c;
      // Clamp into the exact extrema so estimates never exceed what was
      // actually recorded (matters for the clamping first/last buckets).
      return std::clamp(lo + frac * (hi - lo), lo_exact, hi_exact);
    }
    cum += c;
  }
  return hi_exact;
}

void check_mergeable(const LogHistogramConfig& a, const LogHistogramConfig& b) {
  if (!(a == b))
    throw std::invalid_argument{"LogHistogram: config mismatch in merge"};
}

}  // namespace

LogHistogram::LogHistogram(LogHistogramConfig cfg) : cfg_{cfg} {
  if (cfg_.sub_buckets == 0 || cfg_.max_exponent <= cfg_.min_exponent)
    throw std::invalid_argument{"LogHistogram: bad config"};
  counts_.assign(cfg_.bucket_count(), 0);
}

std::size_t LogHistogram::index_of(double x) const {
  int exp = 0;
  const double frac = std::frexp(x, &exp);  // x = frac * 2^exp, frac in [0.5, 1)
  const int octave = exp - 1;               // x in [2^octave, 2^(octave+1))
  if (!(x > 0.0) || octave < cfg_.min_exponent) return 0;
  if (octave >= cfg_.max_exponent) return counts_.size() - 1;
  const auto sub = static_cast<std::size_t>(
      (frac - 0.5) * 2.0 * static_cast<double>(cfg_.sub_buckets));
  return static_cast<std::size_t>(octave - cfg_.min_exponent) * cfg_.sub_buckets +
         std::min(sub, cfg_.sub_buckets - 1);
}

void LogHistogram::record(double x) {
  if (std::isnan(x)) return;
  if (total_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++counts_[index_of(x)];
  ++total_;
  sum_ += x;
}

double LogHistogram::percentile(double rank) const {
  return percentile_from_buckets(cfg_, counts_, total_, min_, max_, rank);
}

double LogHistogram::bucket_lo(std::size_t i) const { return bucket_bound(cfg_, i); }

double LogHistogram::bucket_hi(std::size_t i) const { return bucket_bound(cfg_, i + 1); }

HistogramSnapshot LogHistogram::snapshot() const {
  return {cfg_, counts_, total_, sum_, min_, max_};
}

void LogHistogram::merge(const LogHistogram& other) {
  check_mergeable(cfg_, other.cfg_);
  if (other.total_ == 0) return;
  if (total_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
  sum_ += other.sum_;
}

void LogHistogram::reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  total_ = 0;
  sum_ = min_ = max_ = 0.0;
}

double HistogramSnapshot::mean() const {
  return total > 0 ? sum / static_cast<double>(total) : 0.0;
}

double HistogramSnapshot::percentile(double rank) const {
  return percentile_from_buckets(config, counts, total, min, max, rank);
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  check_mergeable(config, other.config);
  if (other.total == 0) return;
  if (total == 0) {
    min = other.min;
    max = other.max;
  } else {
    min = std::min(min, other.min);
    max = std::max(max, other.max);
  }
  for (std::size_t i = 0; i < counts.size(); ++i) counts[i] += other.counts[i];
  total += other.total;
  sum += other.sum;
}

HistogramSnapshot HistogramSnapshot::delta_since(const HistogramSnapshot& earlier) const {
  check_mergeable(config, earlier.config);
  HistogramSnapshot out;
  out.config = config;
  out.counts.assign(counts.size(), 0);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] < earlier.counts[i])
      throw std::invalid_argument{"HistogramSnapshot::delta_since: not a superset"};
    out.counts[i] = counts[i] - earlier.counts[i];
    out.total += out.counts[i];
  }
  out.sum = sum - earlier.sum;
  if (out.total > 0) {
    // Exact per-interval extrema are not recoverable from cumulative
    // snapshots; bound the cumulative extrema into the populated delta
    // bucket range instead.
    std::size_t first = 0;
    std::size_t last = 0;
    bool seen = false;
    for (std::size_t i = 0; i < out.counts.size(); ++i) {
      if (out.counts[i] > 0) {
        if (!seen) {
          first = i;
          seen = true;
        }
        last = i;
      }
    }
    out.min = std::clamp(min, bucket_bound(config, first),
                         bucket_bound(config, first + 1));
    out.max = std::clamp(max, bucket_bound(config, last),
                         bucket_bound(config, last + 1));
    out.min = std::min(out.min, out.max);
  }
  return out;
}

}  // namespace graf::telemetry
