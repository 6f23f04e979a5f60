// Statistics primitives: percentile estimation.
//
// Percentiles follow the "linear interpolation between closest ranks"
// convention (NumPy's default), which is what the paper's tooling
// (Locust/Vegeta/Jaeger) reports.
#pragma once

#include <span>

namespace graf {

/// Percentile of `values` for `rank` in [0, 100]; linear interpolation.
/// Copies and sorts. Requires a non-empty span.
double percentile(std::span<const double> values, double rank);

/// Percentile of an already-sorted ascending sequence (no copy).
double percentile_sorted(std::span<const double> sorted, double rank);

}  // namespace graf
