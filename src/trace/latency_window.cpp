#include "trace/latency_window.h"

#include <algorithm>
#include <stdexcept>

#include "common/stats.h"

namespace graf::trace {

LatencyWindow::LatencyWindow(Seconds horizon) : horizon_{horizon} {}

void LatencyWindow::add(Seconds t, double value) {
  if (!samples_.empty() && t < samples_.back().first) time_ordered_ = false;
  samples_.emplace_back(t, value);
  cache_valid_ = false;
  prune_before(t - horizon_);
}

void LatencyWindow::prune_before(Seconds t) {
  while (!samples_.empty() && samples_.front().first < t) {
    samples_.pop_front();
    cache_valid_ = false;
  }
  if (samples_.empty()) time_ordered_ = true;
}

void LatencyWindow::clear() {
  samples_.clear();
  cache_valid_ = false;
  time_ordered_ = true;
}

std::size_t LatencyWindow::first_at_or_after(Seconds t) const {
  if (!samples_.empty() && samples_.front().first >= t) return 0;
  auto it = std::lower_bound(
      samples_.begin(), samples_.end(), t,
      [](const std::pair<Seconds, double>& s, Seconds v) { return s.first < v; });
  return static_cast<std::size_t>(it - samples_.begin());
}

double LatencyWindow::percentile_since(Seconds since, double rank) const {
  if (!cache_valid_ || cache_since_ != since) {
    cache_.clear();
    cache_.reserve(samples_.size());
    if (time_ordered_) {
      const std::size_t start = first_at_or_after(since);
      for (std::size_t i = start; i < samples_.size(); ++i)
        cache_.push_back(samples_[i].second);
    } else {
      for (const auto& [t, v] : samples_)
        if (t >= since) cache_.push_back(v);
    }
    std::sort(cache_.begin(), cache_.end());
    cache_since_ = since;
    cache_valid_ = true;
  }
  if (cache_.empty()) throw std::logic_error{"LatencyWindow: no samples in range"};
  return graf::percentile_sorted(cache_, rank);
}

double LatencyWindow::percentile(double rank) const {
  return percentile_since(-1e300, rank);
}

std::size_t LatencyWindow::count_since(Seconds since) const {
  if (time_ordered_) return samples_.size() - first_at_or_after(since);
  std::size_t n = 0;
  for (const auto& [t, v] : samples_)
    if (t >= since) ++n;
  return n;
}

}  // namespace graf::trace
