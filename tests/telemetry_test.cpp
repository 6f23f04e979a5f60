#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <vector>

#include "apps/catalog.h"
#include "common/rng.h"
#include "common/stats.h"
#include "sim/cluster.h"
#include "sim/event_queue.h"
#include "telemetry/exporter.h"
#include "telemetry/log_histogram.h"
#include "telemetry/metrics.h"
#include "telemetry/profiler.h"
#include "telemetry/scraper.h"
#include "workload/open_loop.h"

namespace graf::telemetry {
namespace {

// -- LogHistogram ------------------------------------------------------------

/// Every field of two snapshots equal (an untouched histogram allocates no
/// buckets, yet must read exactly like an emptied one).
void expect_same_snapshot(const HistogramSnapshot& a, const HistogramSnapshot& b) {
  EXPECT_EQ(a.config, b.config);
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
}

TEST(LogHistogram, RecordsBasicAggregates) {
  LogHistogram h;
  for (double v : {1.0, 2.0, 4.0, 8.0}) h.record(v);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 15.0);
  EXPECT_DOUBLE_EQ(h.mean(), 3.75);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 8.0);
}

TEST(LogHistogram, EmptyPercentileThrows) {
  LogHistogram h;
  EXPECT_THROW(h.percentile(50.0), std::logic_error);
  // No sample has allocated the buckets yet; every one reads 0.
  EXPECT_EQ(h.bucket_count(), LogHistogramConfig{}.bucket_count());
  for (std::size_t i = 0; i < h.bucket_count(); ++i) ASSERT_EQ(h.bucket(i), 0u);
}

TEST(LogHistogram, NanIgnoredAndExtremesClamp) {
  LogHistogram h;
  h.record(std::nan(""));
  EXPECT_EQ(h.total(), 0u);
  h.record(0.0);     // below 2^min_exponent: first bucket
  h.record(-5.0);    // negatives clamp the same way
  h.record(1e300);   // above 2^max_exponent: last bucket
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(h.bucket_count() - 1), 1u);
}

TEST(LogHistogram, RankEndpointsReturnExactExtrema) {
  LogHistogram h;
  Rng rng{3};
  for (int i = 0; i < 1000; ++i) h.record(rng.uniform(0.5, 800.0));
  EXPECT_DOUBLE_EQ(h.percentile(0.0), h.min());
  EXPECT_DOUBLE_EQ(h.percentile(100.0), h.max());
  EXPECT_DOUBLE_EQ(h.percentile(-3.0), h.min());
  EXPECT_DOUBLE_EQ(h.percentile(120.0), h.max());
}

TEST(LogHistogram, SingleSampleAllRanks) {
  LogHistogram h;
  h.record(42.0);
  for (double rank : {0.0, 50.0, 99.0, 100.0}) {
    const double p = h.percentile(rank);
    EXPECT_NEAR(p, 42.0, 42.0 * h.relative_error());
  }
}

// The acceptance bound from the file comment: percentile() within
// relative_error() of the true nearest-rank order statistic.
TEST(LogHistogram, PercentileWithinDocumentedBoundOfExact) {
  LogHistogram h;
  Rng rng{7};
  std::vector<double> vals;
  for (int i = 0; i < 20000; ++i) {
    // Heavy-tailed mixture, like e2e latencies: bulk + slow tail.
    const double v = rng.uniform() < 0.9 ? rng.uniform(5.0, 50.0)
                                         : 50.0 + rng.exponential(0.01);
    vals.push_back(v);
    h.record(v);
  }
  std::sort(vals.begin(), vals.end());
  for (double rank : {10.0, 50.0, 90.0, 95.0, 99.0, 99.9}) {
    // Nearest-rank (ceiling) order statistic.
    const auto idx = static_cast<std::size_t>(
        std::ceil(rank / 100.0 * static_cast<double>(vals.size()))) - 1;
    const double exact = vals[std::min(idx, vals.size() - 1)];
    EXPECT_NEAR(h.percentile(rank), exact, exact * h.relative_error())
        << "rank " << rank;
  }
}

TEST(LogHistogram, MergeEqualsUnionStream) {
  LogHistogram a;
  LogHistogram b;
  LogHistogram all;
  Rng rng{11};
  for (int i = 0; i < 3000; ++i) {
    const double x = rng.uniform(1.0, 100.0);
    const double y = rng.uniform(200.0, 900.0);
    a.record(x);
    all.record(x);
    b.record(y);
    all.record(y);
  }
  a.merge(b);
  EXPECT_EQ(a.total(), all.total());
  // Summation order differs between the two streams: near, not bit-equal.
  EXPECT_NEAR(a.sum(), all.sum(), 1e-6 * all.sum());
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
  // Sum-then-quantile is exact on bucket counts: identical percentiles.
  for (double rank : {50.0, 95.0, 99.0})
    EXPECT_DOUBLE_EQ(a.percentile(rank), all.percentile(rank));
}

TEST(LogHistogram, MergeWithUntouchedGivesTouchedCounts) {
  LogHistogram touched;
  for (double v : {0.25, 9.0, 9.5, 4096.0}) touched.record(v);
  LogHistogram from_untouched = touched;
  from_untouched.merge(LogHistogram{});
  expect_same_snapshot(from_untouched.snapshot(), touched.snapshot());
  LogHistogram into_untouched;
  into_untouched.merge(touched);
  expect_same_snapshot(into_untouched.snapshot(), touched.snapshot());
  // The merge allocated the buckets: the next sample lands in its own.
  into_untouched.record(300.0);
  std::size_t bucket = 0;
  while (bucket + 1 < into_untouched.bucket_count() &&
         !(300.0 < into_untouched.bucket_hi(bucket)))
    ++bucket;
  ASSERT_LE(into_untouched.bucket_lo(bucket), 300.0);
  EXPECT_EQ(into_untouched.bucket(bucket), 1u);
  EXPECT_EQ(into_untouched.total(), touched.total() + 1);
}

TEST(LogHistogram, MergeRejectsConfigMismatch) {
  LogHistogram a;
  LogHistogram b{LogHistogramConfig{.sub_buckets = 8}};
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(LogHistogram, SnapshotDeltaIsolatesInterval) {
  LogHistogram h;
  for (int i = 0; i < 100; ++i) h.record(10.0);
  const HistogramSnapshot before = h.snapshot();
  for (int i = 0; i < 50; ++i) h.record(500.0);
  const HistogramSnapshot delta = h.snapshot().delta_since(before);
  EXPECT_EQ(delta.total, 50u);
  EXPECT_NEAR(delta.mean(), 500.0, 500.0 * 2.0 / 64.0);
  // All interval mass is at 500: every rank resolves near it.
  EXPECT_NEAR(delta.percentile(50.0), 500.0, 500.0 / 64.0);
}

TEST(LogHistogram, DeltaSinceRejectsNonSuperset) {
  LogHistogram h;
  h.record(10.0);
  const HistogramSnapshot later = h.snapshot();
  h.record(10.0);
  const HistogramSnapshot newer = h.snapshot();
  EXPECT_THROW(later.delta_since(newer), std::invalid_argument);
}

TEST(LogHistogram, ResetClears) {
  LogHistogram h;
  h.record(5.0);
  h.reset();
  EXPECT_EQ(h.total(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_THROW(h.percentile(50.0), std::logic_error);
  expect_same_snapshot(h.snapshot(), LogHistogram{}.snapshot());
}

// -- MetricsRegistry ---------------------------------------------------------

TEST(MetricsRegistry, SeriesKeySortsLabels) {
  EXPECT_EQ(series_key("m", {}), "m");
  EXPECT_EQ(series_key("m", {{"b", "2"}, {"a", "1"}}), "m{a=\"1\",b=\"2\"}");
}

TEST(MetricsRegistry, LabelSetsNameDistinctSeries) {
  MetricsRegistry reg;
  Counter& a = reg.counter("req", {{"service", "a"}});
  Counter& b = reg.counter("req", {{"service", "b"}});
  EXPECT_NE(&a, &b);
  a.add(3.0);
  b.add(5.0);
  // Same (name, labels) — in any label order — returns the same instrument.
  EXPECT_EQ(&reg.counter("req", {{"service", "a"}}), &a);
  EXPECT_DOUBLE_EQ(reg.counter("req", {{"service", "a"}}).value(), 3.0);
  EXPECT_DOUBLE_EQ(reg.counter("req", {{"service", "b"}}).value(), 5.0);
}

TEST(MetricsRegistry, TypeMismatchThrows) {
  MetricsRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("x"), std::invalid_argument);
}

TEST(MetricsRegistry, SnapshotCapturesAllTypes) {
  MetricsRegistry reg;
  reg.counter("c").add(2.0);
  reg.gauge("g").set(7.5);
  reg.histogram("h").record(3.0);
  const RegistrySnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.metrics.size(), 3u);
  ASSERT_NE(snap.find("c"), nullptr);
  EXPECT_DOUBLE_EQ(snap.find("c")->value, 2.0);
  EXPECT_DOUBLE_EQ(snap.find("g")->value, 7.5);
  ASSERT_TRUE(snap.find("h")->histogram.has_value());
  EXPECT_EQ(snap.find("h")->histogram->total, 1u);
  EXPECT_EQ(snap.find("missing"), nullptr);
}

TEST(MetricsRegistry, SnapshotMergeAggregatesReplicas) {
  MetricsRegistry r1;
  MetricsRegistry r2;
  r1.counter("req").add(10.0);
  r2.counter("req").add(5.0);
  r1.histogram("lat").record(10.0);
  r2.histogram("lat").record(1000.0);
  r2.gauge("only_r2").set(3.0);
  RegistrySnapshot merged = r1.snapshot();
  merged.merge(r2.snapshot());
  EXPECT_DOUBLE_EQ(merged.find("req")->value, 15.0);
  EXPECT_EQ(merged.find("lat")->histogram->total, 2u);
  ASSERT_NE(merged.find("only_r2"), nullptr);  // one-sided metrics copy through
  EXPECT_DOUBLE_EQ(merged.find("only_r2")->value, 3.0);
}

// -- ScopedTimer -------------------------------------------------------------

TEST(ScopedTimer, NullTargetIsNoop) {
  ScopedTimer t{nullptr};
  EXPECT_DOUBLE_EQ(t.stop(), 0.0);
}

TEST(ScopedTimer, RecordsPositiveMicroseconds) {
  LogHistogram h;
  {
    ScopedTimer t{&h};
    volatile double sink = 0.0;
    for (int i = 0; i < 1000; ++i) sink = sink + 1.0;
  }
  ASSERT_EQ(h.total(), 1u);
  EXPECT_GT(h.sum(), 0.0);
}

TEST(ScopedTimer, StopDisarmsDestructor) {
  LogHistogram h;
  {
    ScopedTimer t{&h};
    t.stop();
  }  // destructor must not double-record
  EXPECT_EQ(h.total(), 1u);
}

// -- Scraper -----------------------------------------------------------------

TEST(Scraper, GaugeSeriesTrackValues) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("depth");
  Scraper scraper{reg, {.period = 15.0}};
  g.set(3.0);
  scraper.scrape(15.0);
  g.set(7.0);
  scraper.scrape(30.0);
  const auto* pts = scraper.store().find("depth");
  ASSERT_NE(pts, nullptr);
  ASSERT_EQ(pts->size(), 2u);
  EXPECT_DOUBLE_EQ((*pts)[0].value, 3.0);
  EXPECT_DOUBLE_EQ((*pts)[1].value, 7.0);
}

TEST(Scraper, CounterRateUsesIntervalDelta) {
  MetricsRegistry reg;
  Counter& c = reg.counter("req");
  Scraper scraper{reg, {.period = 10.0}};
  c.add(100.0);
  scraper.scrape(10.0);  // first scrape: rate over [0, now]
  c.add(50.0);
  scraper.scrape(20.0);
  const auto* rate = scraper.store().find("req.rate");
  ASSERT_NE(rate, nullptr);
  ASSERT_EQ(rate->size(), 2u);
  EXPECT_DOUBLE_EQ((*rate)[0].value, 10.0);  // 100 / 10s
  EXPECT_DOUBLE_EQ((*rate)[1].value, 5.0);   // 50 / 10s
  const auto* cum = scraper.store().find("req");
  EXPECT_DOUBLE_EQ((*cum)[1].value, 150.0);  // cumulative series kept too
}

TEST(Scraper, HistogramSeriesDescribeIntervalOnly) {
  MetricsRegistry reg;
  LogHistogram& h = reg.histogram("lat");
  Scraper scraper{reg, {.period = 15.0, .histogram_ranks = {50.0, 99.0}}};
  for (int i = 0; i < 100; ++i) h.record(10.0);
  scraper.scrape(15.0);
  for (int i = 0; i < 100; ++i) h.record(1000.0);
  scraper.scrape(30.0);
  scraper.scrape(45.0);  // idle interval: no histogram points

  const auto* count = scraper.store().find("lat.count");
  ASSERT_NE(count, nullptr);
  ASSERT_EQ(count->size(), 2u);  // idle third scrape emitted nothing
  EXPECT_DOUBLE_EQ((*count)[0].value, 100.0);
  EXPECT_DOUBLE_EQ((*count)[1].value, 100.0);

  const auto* p99 = scraper.store().find("lat.p99");
  ASSERT_NE(p99, nullptr);
  ASSERT_EQ(p99->size(), 2u);
  // Second interval is all-1000 even though cumulative p99 would mix eras.
  EXPECT_NEAR((*p99)[0].value, 10.0, 10.0 / 64.0);
  EXPECT_NEAR((*p99)[1].value, 1000.0, 1000.0 / 64.0);
}

TEST(Scraper, AttachAlignsToSimClockPeriod) {
  MetricsRegistry reg;
  reg.gauge("g").set(1.0);
  sim::EventQueue events;
  Scraper scraper{reg, {.period = 15.0}};
  scraper.attach(events, 60.0);
  events.run_until(100.0);
  EXPECT_EQ(scraper.scrapes(), 4u);  // t = 15, 30, 45, 60
  const auto* pts = scraper.store().find("g");
  ASSERT_NE(pts, nullptr);
  ASSERT_EQ(pts->size(), 4u);
  for (std::size_t i = 0; i < pts->size(); ++i)
    EXPECT_DOUBLE_EQ((*pts)[i].time, 15.0 * static_cast<double>(i + 1));
}

// -- Exporter ----------------------------------------------------------------

TEST(Exporter, JsonEscaping) {
  EXPECT_EQ(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
}

TEST(Exporter, SeriesJsonAndCsvShapes) {
  TimeSeriesStore store;
  store.append("m{service=\"a\"}", 15.0, 1.5);
  store.append("m{service=\"a\"}", 30.0, 2.5);

  std::ostringstream js;
  write_series_json(js, store);
  const std::string json = js.str();
  EXPECT_NE(json.find("\"series\""), std::string::npos);
  EXPECT_NE(json.find("m{service=\\\"a\\\"}"), std::string::npos);
  EXPECT_NE(json.find("[15, 1.5]"), std::string::npos);

  std::ostringstream cs;
  write_series_csv(cs, store);
  const std::string csv = cs.str();
  EXPECT_NE(csv.find("key,time,value"), std::string::npos);
  EXPECT_NE(csv.find(",30,2.5"), std::string::npos);
}

TEST(Exporter, SnapshotJsonIncludesHistogramRollup) {
  MetricsRegistry reg;
  reg.histogram("lat", {{"api", "checkout"}}).record(25.0);
  std::ostringstream os;
  write_snapshot_json(os, reg.snapshot());
  const std::string json = os.str();
  EXPECT_NE(json.find("\"name\": \"lat\""), std::string::npos);
  EXPECT_NE(json.find("\"type\": \"histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(Exporter, BenchExporterRows) {
  BenchExporter exp;
  EXPECT_TRUE(exp.empty());
  exp.record_at("BM_X", 12.5, "ns", 1700000000);
  std::ostringstream os;
  exp.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"name\": \"BM_X\""), std::string::npos);
  EXPECT_NE(json.find("\"unit\": \"ns\""), std::string::npos);
  EXPECT_NE(json.find("\"timestamp\": 1700000000"), std::string::npos);
}

TEST(Exporter, BenchExporterMergeKeepsForeignRowsAndOverridesOwn) {
  const std::string path = "bench_merge_test.json";
  {
    BenchExporter old;
    old.record_at("BM_micro", 10.0, "ns", 100);
    old.record_at("chaos.violation_pct \"q\"", 9.0, "%", 100);
    ASSERT_TRUE(old.write_json_file(path));
  }
  BenchExporter exp;
  exp.record_at("chaos.violation_pct \"q\"", 4.0, "%", 200);  // fresh run wins
  ASSERT_TRUE(exp.merge_json_file(path));
  ASSERT_EQ(exp.rows().size(), 2u);
  // Foreign row survives (first, original order), escaped name round-trips,
  // and the in-memory row overrides the stale file row.
  EXPECT_EQ(exp.rows()[0].name, "BM_micro");
  EXPECT_DOUBLE_EQ(exp.rows()[0].value, 10.0);
  EXPECT_EQ(exp.rows()[0].unit, "ns");
  EXPECT_EQ(exp.rows()[0].timestamp, 100);
  EXPECT_EQ(exp.rows()[1].name, "chaos.violation_pct \"q\"");
  EXPECT_DOUBLE_EQ(exp.rows()[1].value, 4.0);
  EXPECT_EQ(exp.rows()[1].timestamp, 200);
  // Missing file: reports failure, exporter unchanged.
  EXPECT_FALSE(exp.merge_json_file("no_such_bench_file.json"));
  EXPECT_EQ(exp.rows().size(), 2u);
  std::remove(path.c_str());
}

// Regression: names used to be compared verbatim, so a benchmark that gained
// google-benchmark's "/real_time" decoration (or dropped it) stranded its old
// row in the merged file — two rows for one benchmark, and the perf gate
// could read the stale one. The merge must match modulo that suffix, in both
// directions, while distinct base names still coexist.
TEST(Exporter, BenchExporterMergeReplacesRealTimeSuffixVariants) {
  const std::string path = "bench_merge_realtime_test.json";
  {
    BenchExporter old;
    old.record_at("BM_Solve/1", 50.0, "ns", 100);            // gains /real_time
    old.record_at("BM_Fleet/8/real_time", 80.0, "items/s", 100);  // loses it
    old.record_at("BM_Other/1", 7.0, "ns", 100);             // untouched
    ASSERT_TRUE(old.write_json_file(path));
  }
  BenchExporter exp;
  exp.record_at("BM_Solve/1/real_time", 42.0, "ns", 200);
  exp.record_at("BM_Fleet/8", 99.0, "items/s", 200);
  ASSERT_TRUE(exp.merge_json_file(path));
  ASSERT_EQ(exp.rows().size(), 3u) << "suffix variants must replace, not pile up";
  EXPECT_EQ(exp.rows()[0].name, "BM_Other/1");
  EXPECT_EQ(exp.rows()[0].timestamp, 100);
  EXPECT_EQ(exp.rows()[1].name, "BM_Solve/1/real_time");
  EXPECT_DOUBLE_EQ(exp.rows()[1].value, 42.0);
  EXPECT_EQ(exp.rows()[2].name, "BM_Fleet/8");
  EXPECT_DOUBLE_EQ(exp.rows()[2].value, 99.0);
  std::remove(path.c_str());
}

// The run's machine/build "meta" object: written ahead of the rows, read
// back by merge, and replaced — not merged key by key — by the fresh run's
// meta, while the file's rows survive as before.
TEST(Exporter, BenchExporterMetaRoundTripsAndIsReplacedOnMerge) {
  const std::string path = "bench_meta_test.json";
  {
    BenchExporter old;
    old.set_meta("nproc", "2");
    old.set_meta("git_sha", "aaaa");
    old.record_at("BM_Kept", 10.0, "ns", 100);
    old.record_at("BM_Both", 20.0, "ns", 100);
    ASSERT_TRUE(old.write_json_file(path));
  }
  {
    BenchExporter reader;  // no meta of its own: adopts the file's
    ASSERT_TRUE(reader.merge_json_file(path));
    ASSERT_EQ(reader.meta().size(), 2u);
    EXPECT_EQ(reader.meta()[0], (std::pair<std::string, std::string>{"nproc", "2"}));
    EXPECT_EQ(reader.meta()[1],
              (std::pair<std::string, std::string>{"git_sha", "aaaa"}));
    ASSERT_EQ(reader.rows().size(), 2u);
  }
  BenchExporter fresh;
  fresh.set_meta("git_sha", "bbbb");
  fresh.set_meta("compiler", "GNU \"13\"");
  fresh.set_meta("git_sha", "cccc");  // set_meta overwrites in place
  fresh.record_at("BM_Both", 30.0, "ns", 200);
  ASSERT_TRUE(fresh.merge_json_file(path));
  ASSERT_EQ(fresh.meta().size(), 2u);
  EXPECT_EQ(fresh.meta()[0], (std::pair<std::string, std::string>{"git_sha", "cccc"}));
  EXPECT_EQ(fresh.meta()[1],
            (std::pair<std::string, std::string>{"compiler", "GNU \"13\""}));
  ASSERT_EQ(fresh.rows().size(), 2u);
  EXPECT_EQ(fresh.rows()[0].name, "BM_Kept");
  EXPECT_DOUBLE_EQ(fresh.rows()[0].value, 10.0);
  EXPECT_EQ(fresh.rows()[1].name, "BM_Both");
  EXPECT_DOUBLE_EQ(fresh.rows()[1].value, 30.0);

  // The merged file parses again with the fresh meta and both rows.
  ASSERT_TRUE(fresh.write_json_file(path));
  BenchExporter again;
  ASSERT_TRUE(again.merge_json_file(path));
  EXPECT_EQ(again.meta(), fresh.meta());
  ASSERT_EQ(again.rows().size(), 2u);
  EXPECT_EQ(again.rows()[1].timestamp, 200);
  std::remove(path.c_str());
}

// -- Cluster integration -----------------------------------------------------

// Acceptance criterion: the telemetry histogram's p99 over a simulated
// workload agrees with the exact (copy-and-sort) percentile over the same
// stream within the histogram's documented relative-error bound.
TEST(TelemetryIntegration, ClusterE2eP99MatchesExactWithinBound) {
  auto topo = apps::online_boutique();
  sim::Cluster cluster = apps::make_cluster(topo, {.seed = 21});
  MetricsRegistry registry;
  cluster.set_metrics(&registry);

  std::vector<double> exact;
  workload::OpenLoopConfig g;
  g.rate = workload::Schedule::constant(150.0);
  g.api_weights = topo.api_weights;
  g.on_complete = [&exact](const trace::RequestTrace& t) {
    if (t.ok) exact.push_back(t.e2e_ms());
  };
  workload::OpenLoopGenerator gen{cluster, g};
  gen.start(60.0);
  cluster.run_until(90.0);

  LogHistogram* hist = cluster.e2e_histogram();
  ASSERT_NE(hist, nullptr);
  ASSERT_EQ(hist->total(), exact.size());
  ASSERT_GT(exact.size(), 1000u);

  std::sort(exact.begin(), exact.end());
  for (double rank : {50.0, 95.0, 99.0}) {
    const auto idx = static_cast<std::size_t>(
        std::ceil(rank / 100.0 * static_cast<double>(exact.size()))) - 1;
    const double nearest_rank = exact[std::min(idx, exact.size() - 1)];
    EXPECT_NEAR(hist->percentile(rank), nearest_rank,
                nearest_rank * hist->relative_error())
        << "rank " << rank;
  }
}

TEST(TelemetryIntegration, ScrapedSeriesCoverSimAndExport) {
  auto topo = apps::online_boutique();
  sim::Cluster cluster = apps::make_cluster(topo, {.seed = 22});
  MetricsRegistry registry;
  cluster.set_metrics(&registry);

  Scraper scraper{registry, {.period = 15.0}};
  scraper.attach(cluster.events(), 60.0);

  workload::OpenLoopConfig g;
  g.rate = workload::Schedule::constant(100.0);
  g.api_weights = topo.api_weights;
  workload::OpenLoopGenerator gen{cluster, g};
  gen.start(60.0);
  cluster.run_until(60.0);

  EXPECT_EQ(scraper.scrapes(), 4u);
  const std::string svc = topo.services[0].name;
  const auto* util =
      scraper.store().find("sim.utilization{service=\"" + svc + "\"}");
  ASSERT_NE(util, nullptr);
  EXPECT_EQ(util->size(), 4u);
  EXPECT_NE(scraper.store().find("sim.e2e_latency_ms.p99"), nullptr);
  EXPECT_NE(scraper.store().find("sim.requests_completed.rate"), nullptr);

  std::ostringstream os;
  write_series_json(os, scraper.store());
  EXPECT_NE(os.str().find("sim.e2e_latency_ms.p99"), std::string::npos);
}

}  // namespace
}  // namespace graf::telemetry
