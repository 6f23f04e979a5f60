#include "common/stats.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace graf {

double percentile_sorted(std::span<const double> sorted, double rank) {
  if (sorted.empty()) throw std::invalid_argument{"percentile: empty input"};
  if (rank <= 0.0) return sorted.front();
  if (rank >= 100.0) return sorted.back();
  const double pos = rank / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= sorted.size()) return sorted.back();
  return sorted[lo] + frac * (sorted[lo + 1] - sorted[lo]);
}

double percentile(std::span<const double> values, double rank) {
  std::vector<double> copy{values.begin(), values.end()};
  std::sort(copy.begin(), copy.end());
  return percentile_sorted(copy, rank);
}

}  // namespace graf
