#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "trace/latency_window.h"
#include "trace/tracer.h"

namespace graf::trace {
namespace {

TEST(LatencyWindow, PercentileOverAll) {
  LatencyWindow w;
  for (int i = 1; i <= 100; ++i) w.add(0.0, static_cast<double>(i));
  EXPECT_NEAR(w.percentile(50.0), 50.5, 1e-9);
  EXPECT_NEAR(w.percentile(99.0), 99.01, 0.1);
}

TEST(LatencyWindow, PercentileSinceFilters) {
  LatencyWindow w;
  for (int i = 0; i < 50; ++i) w.add(1.0, 10.0);
  for (int i = 0; i < 50; ++i) w.add(2.0, 100.0);
  EXPECT_DOUBLE_EQ(w.percentile_since(1.5, 50.0), 100.0);
}

TEST(LatencyWindow, HorizonPrunesOldSamples) {
  LatencyWindow w{10.0};
  w.add(0.0, 1.0);
  w.add(5.0, 2.0);
  w.add(20.0, 3.0);  // prunes anything before t=10
  EXPECT_EQ(w.size(), 1u);
  EXPECT_DOUBLE_EQ(w.percentile(50.0), 3.0);
}

TEST(LatencyWindow, CountAndMeanSince) {
  LatencyWindow w;
  w.add(1.0, 10.0);
  w.add(2.0, 20.0);
  w.add(3.0, 30.0);
  EXPECT_EQ(w.count_since(2.0), 2u);
  EXPECT_EQ(w.count_since(100.0), 0u);
}

TEST(LatencyWindow, EmptyPercentileThrows) {
  LatencyWindow w;
  EXPECT_THROW(w.percentile(50.0), std::logic_error);
}

// The sorted cache must stay coherent across the query/mutate interleavings
// the control loop produces.

TEST(LatencyWindow, RepeatedQueriesSeeNewSamples) {
  LatencyWindow w;
  for (int i = 1; i <= 10; ++i) w.add(static_cast<double>(i), 1.0);
  EXPECT_DOUBLE_EQ(w.percentile_since(0.0, 99.0), 1.0);
  EXPECT_DOUBLE_EQ(w.percentile_since(0.0, 99.0), 1.0);  // cache hit
  w.add(11.0, 100.0);  // must invalidate the cache
  EXPECT_DOUBLE_EQ(w.percentile_since(0.0, 100.0), 100.0);
}

TEST(LatencyWindow, ChangingCutoffRebuildsCache) {
  LatencyWindow w;
  for (int i = 0; i < 50; ++i) w.add(1.0, 10.0);
  for (int i = 0; i < 50; ++i) w.add(2.0, 100.0);
  EXPECT_NEAR(w.percentile_since(0.0, 50.0), 55.0, 1e-9);
  EXPECT_DOUBLE_EQ(w.percentile_since(1.5, 50.0), 100.0);
  EXPECT_NEAR(w.percentile_since(0.0, 50.0), 55.0, 1e-9);  // back again
}

TEST(LatencyWindow, OutOfOrderAddsStayCorrect) {
  LatencyWindow w;
  w.add(10.0, 1.0);
  w.add(5.0, 2.0);  // breaks time ordering: falls back to linear scans
  w.add(20.0, 3.0);
  EXPECT_EQ(w.count_since(6.0), 2u);
  EXPECT_DOUBLE_EQ(w.percentile_since(6.0, 100.0), 3.0);
  EXPECT_DOUBLE_EQ(w.percentile_since(0.0, 0.0), 1.0);
}

TEST(LatencyWindow, QueriesCorrectAfterPrune) {
  LatencyWindow w;
  for (int i = 0; i < 10; ++i) w.add(static_cast<double>(i), static_cast<double>(i));
  EXPECT_DOUBLE_EQ(w.percentile_since(0.0, 0.0), 0.0);
  w.prune_before(5.0);
  EXPECT_EQ(w.size(), 5u);
  EXPECT_DOUBLE_EQ(w.percentile_since(0.0, 0.0), 5.0);
  EXPECT_DOUBLE_EQ(w.percentile_since(0.0, 100.0), 9.0);
}

TEST(LatencyWindow, ClearResetsCachedState) {
  LatencyWindow w;
  w.add(1.0, 5.0);
  EXPECT_DOUBLE_EQ(w.percentile(50.0), 5.0);
  w.clear();
  EXPECT_TRUE(w.empty());
  EXPECT_THROW(w.percentile(50.0), std::logic_error);
  w.add(2.0, 7.0);
  EXPECT_DOUBLE_EQ(w.percentile(50.0), 7.0);
}

TEST(LatencyWindow, MatchesExactPercentileOnRandomStream) {
  LatencyWindow w{1e9};  // horizon far beyond the stream: nothing prunes
  std::vector<double> vals;
  unsigned state = 12345;
  for (int i = 0; i < 500; ++i) {
    state = state * 1664525u + 1013904223u;
    const double v = static_cast<double>(state % 10000u) / 10.0;
    w.add(static_cast<double>(i), v);
    vals.push_back(v);
  }
  for (double rank : {0.0, 25.0, 50.0, 95.0, 99.0, 100.0}) {
    std::vector<double> copy = vals;
    std::sort(copy.begin(), copy.end());
    const double pos = rank / 100.0 * static_cast<double>(copy.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const double frac = pos - static_cast<double>(lo);
    const double exact = lo + 1 < copy.size()
                             ? copy[lo] + frac * (copy[lo + 1] - copy[lo])
                             : copy.back();
    EXPECT_NEAR(w.percentile(rank), exact, 1e-9);
  }
}

TEST(Tracer, RecordsAndCounts) {
  Tracer tr{2, 3};
  RequestTrace t;
  t.api = 0;
  t.start = 0.0;
  t.end = 0.1;
  t.visits = {1, 2, 0};
  tr.record(t);
  EXPECT_EQ(tr.recorded(), 1u);
  EXPECT_EQ(tr.history_size(0), 1u);
  EXPECT_EQ(tr.history_size(1), 0u);
  EXPECT_NEAR(t.e2e_ms(), 100.0, 1e-9);
}

TEST(Tracer, FanoutPercentile) {
  Tracer tr{1, 2};
  // Service 1 visited once in 90% of traces, twice in 10%.
  for (int i = 0; i < 90; ++i) tr.record({0, 0.0, 0.1, true, {1, 1}});
  for (int i = 0; i < 10; ++i) tr.record({0, 0.0, 0.1, true, {1, 2}});
  const auto f90 = tr.fanout(0, 90.0);
  EXPECT_DOUBLE_EQ(f90[0], 1.0);
  EXPECT_NEAR(f90[1], 1.0, 0.15);
  const auto f99 = tr.fanout(0, 99.0);
  EXPECT_NEAR(f99[1], 2.0, 0.1);
}

TEST(Tracer, EmptyHistoryYieldsZeros) {
  Tracer tr{1, 4};
  const auto f = tr.fanout(0);
  for (double v : f) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Tracer, CapacityBoundsHistory) {
  Tracer tr{1, 1, 16};
  for (int i = 0; i < 100; ++i) tr.record({0, 0.0, 0.1, true, {1}});
  EXPECT_EQ(tr.history_size(0), 16u);
  EXPECT_EQ(tr.recorded(), 100u);
}

TEST(Tracer, RejectsBadApi) {
  Tracer tr{1, 1};
  EXPECT_THROW(tr.record({5, 0.0, 0.1, true, {1}}), std::out_of_range);
}

TEST(Tracer, ClearEmptiesHistory) {
  Tracer tr{1, 1};
  tr.record({0, 0.0, 0.1, true, {1}});
  tr.clear();
  EXPECT_EQ(tr.history_size(0), 0u);
}

}  // namespace
}  // namespace graf::trace
