#include "sim/cluster.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "apps/catalog.h"
#include "sim/fault_injector.h"
#include "workload/open_loop.h"

namespace graf::sim {
namespace {

/// Two-service chain: A -> B, deterministic demands.
Cluster make_chain_cluster(double demand_a = 10.0, double demand_b = 20.0,
                           Millicores quota = 1000.0) {
  std::vector<ServiceConfig> svcs{
      {.name = "a", .unit_quota = quota, .initial_instances = 1,
       .max_concurrency = 8, .demand_mean_ms = demand_a, .demand_sigma = 0.0},
      {.name = "b", .unit_quota = quota, .initial_instances = 1,
       .max_concurrency = 8, .demand_mean_ms = demand_b, .demand_sigma = 0.0},
  };
  CallNode root{.service = 0, .stages = {{CallNode{.service = 1}}}};
  return Cluster{svcs, {Api{"chain", root}}, {}};
}

TEST(Cluster, ChainLatencyIsSumOfStages) {
  Cluster c = make_chain_cluster();
  double e2e = -1.0;
  c.submit_request(0, [&](const trace::RequestTrace& t) { e2e = t.e2e_ms(); });
  c.run_for(1.0);
  EXPECT_NEAR(e2e, 30.0, 1e-6);  // 10 at A, then 20 at B
  EXPECT_EQ(c.completed(), 1u);
  EXPECT_EQ(c.inflight(), 0u);
}

TEST(Cluster, VisitsRecordedPerService) {
  Cluster c = make_chain_cluster();
  std::vector<std::uint32_t> visits;
  c.submit_request(0, [&](const trace::RequestTrace& t) { visits = t.visits; });
  c.run_for(1.0);
  ASSERT_EQ(visits.size(), 2u);
  EXPECT_EQ(visits[0], 1u);
  EXPECT_EQ(visits[1], 1u);
}

TEST(Cluster, ParallelStageTakesMax) {
  // root calls two children in parallel: 10ms and 40ms.
  std::vector<ServiceConfig> svcs{
      {.name = "root", .unit_quota = 1000, .demand_mean_ms = 5.0, .demand_sigma = 0.0},
      {.name = "fast", .unit_quota = 1000, .demand_mean_ms = 10.0, .demand_sigma = 0.0},
      {.name = "slow", .unit_quota = 1000, .demand_mean_ms = 40.0, .demand_sigma = 0.0},
  };
  CallNode root{.service = 0,
                .stages = {{CallNode{.service = 1}, CallNode{.service = 2}}}};
  Cluster c{svcs, {Api{"par", root}}, {}};
  double e2e = -1.0;
  c.submit_request(0, [&](const trace::RequestTrace& t) { e2e = t.e2e_ms(); });
  c.run_for(1.0);
  EXPECT_NEAR(e2e, 45.0, 1e-6);  // 5 + max(10, 40)
}

TEST(Cluster, SequentialStagesAddUp) {
  std::vector<ServiceConfig> svcs{
      {.name = "root", .unit_quota = 1000, .demand_mean_ms = 5.0, .demand_sigma = 0.0},
      {.name = "x", .unit_quota = 1000, .demand_mean_ms = 10.0, .demand_sigma = 0.0},
      {.name = "y", .unit_quota = 1000, .demand_mean_ms = 15.0, .demand_sigma = 0.0},
  };
  CallNode root{.service = 0,
                .stages = {{CallNode{.service = 1}}, {CallNode{.service = 2}}}};
  Cluster c{svcs, {Api{"seq", root}}, {}};
  double e2e = -1.0;
  c.submit_request(0, [&](const trace::RequestTrace& t) { e2e = t.e2e_ms(); });
  c.run_for(1.0);
  EXPECT_NEAR(e2e, 30.0, 1e-6);  // 5 + 10 + 15
}

TEST(Cluster, ProbabilisticBranchSkipsSometimes) {
  std::vector<ServiceConfig> svcs{
      {.name = "root", .unit_quota = 1000, .demand_mean_ms = 1.0, .demand_sigma = 0.0},
      {.name = "maybe", .unit_quota = 1000, .demand_mean_ms = 1.0, .demand_sigma = 0.0},
  };
  CallNode root{.service = 0,
                .stages = {{CallNode{.service = 1, .probability = 0.5}}}};
  Cluster c{svcs, {Api{"p", root}}, {.seed = 9}};
  int taken = 0;
  const int n = 400;
  int done = 0;
  for (int i = 0; i < n; ++i) {
    c.submit_request(0, [&](const trace::RequestTrace& t) {
      ++done;
      if (t.visits[1] > 0) ++taken;
    });
  }
  c.run_for(5.0);
  EXPECT_EQ(done, n);
  EXPECT_NEAR(static_cast<double>(taken) / n, 0.5, 0.1);
}

TEST(Cluster, MakeChainHelper) {
  CallNode root = make_chain({0, 1});
  EXPECT_EQ(root.service, 0);
  ASSERT_EQ(root.stages.size(), 1u);
  EXPECT_EQ(root.stages[0][0].service, 1);
}

TEST(Cluster, E2eWindowCollectsLatencies) {
  Cluster c = make_chain_cluster();
  for (int i = 0; i < 10; ++i) c.submit_request(0);
  c.run_for(2.0);
  EXPECT_EQ(c.e2e_latency_all().size(), 10u);
  EXPECT_EQ(c.e2e_latency(0).size(), 10u);
}

TEST(Cluster, LocalLatencyExcludesChildren) {
  Cluster c = make_chain_cluster(10.0, 20.0);
  c.submit_request(0);
  c.run_for(1.0);
  // Service A's local latency is 10ms even though its subtree takes 30.
  EXPECT_NEAR(c.service_latency(0).percentile(50.0), 10.0, 1e-6);
  EXPECT_NEAR(c.service_latency(1).percentile(50.0), 20.0, 1e-6);
}

TEST(Cluster, TracerAccumulatesFanout) {
  Cluster c = make_chain_cluster();
  for (int i = 0; i < 20; ++i) c.submit_request(0);
  c.run_for(2.0);
  const auto f = c.tracer().fanout(0, 90.0);
  EXPECT_DOUBLE_EQ(f[0], 1.0);
  EXPECT_DOUBLE_EQ(f[1], 1.0);
}

TEST(Cluster, ApiQpsMeasuresArrivalRate) {
  Cluster c = make_chain_cluster();
  // 50 submissions over 5 seconds = 10 qps.
  for (int i = 0; i < 50; ++i) {
    c.events().schedule_at(i * 0.1, [&c] { c.submit_request(0); });
  }
  c.run_for(5.0);
  EXPECT_NEAR(c.api_qps(0, 5.0), 10.0, 1.0);
}

TEST(Cluster, MetricsSeriesRecordsUtilization) {
  Cluster c = make_chain_cluster(100.0, 100.0, 1000.0);
  // Saturate service A: ~10 rps of 100 core-ms = 1 core of demand.
  for (int i = 0; i < 50; ++i)
    c.events().schedule_at(i * 0.1, [&c] { c.submit_request(0); });
  c.run_for(6.0);
  const auto& series = c.series(0);
  ASSERT_FALSE(series.empty());
  double peak = 0.0;
  for (const auto& p : series) peak = std::max(peak, p.utilization);
  EXPECT_GT(peak, 0.5);
  EXPECT_GT(c.utilization_avg(0, 6.0), 0.2);
  EXPECT_GT(c.qps_avg(0, 6.0), 2.0);
}

TEST(Cluster, HardResetDropsInflight) {
  Cluster c = make_chain_cluster(1000.0, 1000.0, 100.0);  // very slow
  for (int i = 0; i < 8; ++i) c.submit_request(0);
  c.run_for(0.5);
  EXPECT_GT(c.inflight(), 0u);
  c.hard_reset_load();
  EXPECT_EQ(c.inflight(), 0u);
  c.run_for(30.0);
  EXPECT_EQ(c.completed(), 0u);  // dropped, not completed
}

TEST(Cluster, ApplyTotalQuotaSplitsEvenly) {
  Cluster c = make_chain_cluster();
  c.apply_total_quota(0, 900.0, 250.0);
  EXPECT_EQ(c.service(0).ready_count(), 4);  // ceil(900/250)
  EXPECT_NEAR(c.service(0).unit_quota(), 225.0, 1e-9);
  EXPECT_NEAR(c.service(0).total_quota(), 900.0, 1e-9);
}

TEST(Cluster, TotalsAggregate) {
  Cluster c = make_chain_cluster();
  EXPECT_EQ(c.total_ready_instances(), 2);
  EXPECT_DOUBLE_EQ(c.total_quota(), 2000.0);
  c.service(0).scale_to(3);
  EXPECT_EQ(c.total_target_instances(), 4);
}

TEST(Cluster, LookupsByName) {
  Cluster c = make_chain_cluster();
  EXPECT_EQ(c.service_index("b"), 1);
  EXPECT_EQ(c.service_index("zzz"), -1);
  EXPECT_EQ(c.api_index("chain"), 0);
  EXPECT_EQ(c.api_index("nope"), -1);
}

TEST(Cluster, ValidatesApis) {
  std::vector<ServiceConfig> svcs{{.name = "a", .unit_quota = 100}};
  CallNode bad{.service = 5};
  EXPECT_THROW((Cluster{svcs, {Api{"bad", bad}}, {}}), std::invalid_argument);
  CallNode bad_p{.service = 0, .probability = 1.5};
  EXPECT_THROW((Cluster{svcs, {Api{"badp", bad_p}}, {}}), std::invalid_argument);
}

TEST(Cluster, SubmitRejectsBadApi) {
  Cluster c = make_chain_cluster();
  EXPECT_THROW(c.submit_request(7), std::out_of_range);
}

// Regression: the metrics ticker's CPU numerator includes retiring
// (draining) instances, so the requested-capacity denominator must too.
// Dividing 4 busy pods' burn by 1 surviving pod's request reported 800%
// utilization during a scale-down and tricked threshold autoscalers into
// spurious re-upscales.
TEST(Cluster, UtilizationDuringScaleDownCountsRetiringQuota) {
  std::vector<ServiceConfig> svcs{
      {.name = "only", .unit_quota = 1000, .initial_instances = 4,
       .max_concurrency = 1, .demand_mean_ms = 10.0, .demand_sigma = 0.0},
  };
  Cluster c{svcs, {Api{"one", CallNode{.service = 0}}}, {}};
  // Pin every instance with a 10 s job, then retire three of them.
  for (int i = 0; i < 4; ++i) c.service(0).submit(10000.0, [](double) {});
  c.service(0).scale_to(1);
  ASSERT_EQ(c.service(0).ready_count(), 1);
  ASSERT_EQ(c.service(0).retiring_count(), 3);
  c.run_for(2.0);
  // 4 cores burned against (1 ready + 3 retiring) * 1 core * request_factor
  // 0.5 = 2 cores requested: exactly 200%, and never past the physical
  // 1/request_factor bound. The skewed version read 4 / 0.5 = 800%.
  const double u = c.utilization_avg(0, 2.0);
  EXPECT_NEAR(u, 2.0, 0.05);
  EXPECT_LE(u, 1.0 / c.service(0).config().request_factor + 1e-9);
}

// Telemetry blackout: sensors gap, ground truth survives, recovery resyncs.
TEST(Cluster, TelemetryBlackoutGapsSeriesButKeepsGroundTruth) {
  Cluster c = make_chain_cluster();
  for (int i = 0; i < 40; ++i)
    c.events().schedule_at(i * 0.1, [&c] { c.submit_request(0); });
  c.run_for(2.0);
  EXPECT_GT(c.series_count_since(0, 2.0), 0u);
  const std::size_t local_before = c.service_latency(0).size();
  const std::size_t e2e_before = c.e2e_latency_all().size();

  c.set_telemetry_blackout(true);
  c.run_for(3.0);
  EXPECT_EQ(c.series_count_since(0, 2.5), 0u);  // no scrape points landed
  EXPECT_EQ(c.api_qps(0, 2.5), 0.0);            // arrival sensor dark too
  EXPECT_EQ(c.service_latency(0).size(), local_before);  // sensors frozen
  // ... but the ground-truth e2e window and counters see through it.
  EXPECT_GT(c.e2e_latency_all().size(), e2e_before);
  const std::uint64_t completed_dark = c.completed();
  EXPECT_GT(completed_dark, 0u);

  c.set_telemetry_blackout(false);
  c.run_for(3.0);
  EXPECT_GT(c.series_count_since(0, 1.5), 0u);  // scraping resumed
  EXPECT_GE(c.completed(), completed_dark);
}

TEST(Cluster, DeterministicAcrossRuns) {
  auto run = [] {
    Cluster c = make_chain_cluster();
    std::vector<double> latencies;
    for (int i = 0; i < 20; ++i)
      c.events().schedule_at(i * 0.05, [&c] { c.submit_request(0); });
    c.run_for(3.0);
    return c.e2e_latency_all().percentile(99.0);
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

void hex(std::ostringstream& os, double v) {
  os << '|' << std::hex << std::bit_cast<std::uint64_t>(v) << std::dec;
}

// Golden digest of a faulted online_boutique run, captured on the build
// before EventQueue grew (and later lost) a keyed-ordering mode for a
// sharded engine. Every event pop, RNG draw and float accumulation feeds
// this string; any reordering breaks it.
TEST(LegacyCluster, FaultedRunMatchesPreShardingGoldenDigest) {
  auto topo = apps::online_boutique();
  sim::Cluster cluster = apps::make_cluster(topo, {.seed = 5});
  sim::FaultInjector inj{cluster};
  inj.crash_instance(20.0, 1, 0x9e3779b97f4a7c15ULL, sim::CrashMode::kRequeue);
  inj.crash_instance(45.0, 3, 0xdeadbeefcafef00dULL, sim::CrashMode::kAbort);
  inj.throttle_cpu(30.0, 25.0, 2, 0.45);
  inj.degrade_creations(50.0, 20.0, true, 8.0, 0.0);
  inj.blackout_telemetry(70.0, 15.0);
  inj.arm();
  workload::OpenLoopConfig g;
  g.rate = workload::Schedule::constant(200.0);
  g.api_weights = topo.api_weights;
  workload::OpenLoopGenerator gen{cluster, g};
  gen.start(120.0);
  cluster.run_until(120.0);

  std::ostringstream d;
  d << cluster.submitted() << ':' << cluster.completed() << ':'
    << cluster.failed() << ':' << cluster.events().processed();
  for (std::size_t s = 0; s < cluster.service_count(); ++s) {
    const sim::Service& svc = cluster.service(static_cast<int>(s));
    d << '|' << svc.arrivals() << ',' << svc.completions() << ',' << svc.drops()
      << ',' << svc.crashes() << ',' << svc.creations_started();
  }
  hex(d, cluster.e2e_latency_all().percentile_since(0.0, 99.0));
  hex(d, cluster.e2e_latency_all().percentile_since(0.0, 50.0));
  for (std::size_t a = 0; a < cluster.api_count(); ++a)
    hex(d, cluster.e2e_latency(static_cast<int>(a)).percentile_since(0.0, 99.0));

  EXPECT_EQ(d.str(),
            "24182:22070:0:184254"
            "|24182,24182,0,0,0|24182,24182,0,1,1|11600,11599,0,0,0"
            "|30498,30498,0,1,1|17077,14966,0,0,0|8650,8649,0,0,0"
            "|40cc76ba2d1b2ace|40aeaabc7bbfb2f8"
            "|40cca6343b11ffaf|40cc6f688b882768|406a304e60ee1cc5");
}

}  // namespace
}  // namespace graf::sim
