// Sliding time window of (timestamp, value) samples with percentile queries.
//
// Used for per-service latencies (FIRM-like signals), end-to-end tail
// latency measurement, and perceived-workload reporting. Old samples are
// pruned against a horizon on insertion, bounding memory on long runs.
//
// Percentiles are exact (linear interpolation between closest ranks, like
// common/stats.h). The historical implementation copied and sorted the
// window on every query; queries now go through a sorted cache keyed on the
// `since` cutoff, so the per-control-tick pattern — several ranks over the
// same window, e.g. FIRM's p50+p95 — sorts once and the telemetry scrape
// loop's repeated queries are O(1) when no sample arrived in between.
// Timestamps are expected non-decreasing (the event-driven simulator only
// moves forward); out-of-order inserts are still correct, they just drop
// the range queries back to a linear scan.
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

#include "common/units.h"

namespace graf::trace {

class LatencyWindow {
 public:
  /// Keep samples no older than `horizon` seconds behind the latest insert.
  explicit LatencyWindow(Seconds horizon = 120.0);

  void add(Seconds t, double value);

  /// Drop samples with timestamp < t.
  void prune_before(Seconds t);

  /// Percentile over samples in [since, +inf). Throws if empty.
  double percentile_since(Seconds since, double rank) const;

  /// Percentile over the whole retained window.
  double percentile(double rank) const;

  std::size_t count_since(Seconds since) const;
  std::size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  void clear();

 private:
  /// Index of the first sample with timestamp >= t by binary search.
  /// Only valid while `time_ordered_` holds.
  std::size_t first_at_or_after(Seconds t) const;

  Seconds horizon_;
  std::deque<std::pair<Seconds, double>> samples_;
  bool time_ordered_ = true;
  // Sorted-values cache for percentile queries; invalidated by mutation,
  // keyed on the `since` cutoff so multi-rank queries share one sort.
  mutable std::vector<double> cache_;
  mutable Seconds cache_since_ = 0.0;
  mutable bool cache_valid_ = false;
};

}  // namespace graf::trace
