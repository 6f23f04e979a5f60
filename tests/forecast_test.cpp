// Workload forecasting (src/forecast): the Holt-Winters forecaster, the
// ForecastGate's max(observed, predicted) pre-warm and never-throw
// degradation contract, the plan-cache key regression (a cached
// observed-load plan must never answer a higher forecast-adjusted demand),
// and the DESIGN.md §3.11 determinism contract: forecast-enabled fleet runs
// replay bit-identically at GRAF_THREADS=1 and 8.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/configuration_solver.h"
#include "core/resource_controller.h"
#include "core/workload_analyzer.h"
#include "fleet/fleet_server.h"
#include "forecast/forecaster.h"
#include "forecast/gate.h"
#include "forecast/holt_winters.h"
#include "gnn/latency_model.h"
#include "telemetry/metrics.h"

namespace graf::forecast {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// --- HoltWinters ------------------------------------------------------------

TEST(HoltWinters, NotReadyUntilMinHistoryThenValid) {
  HoltWinters hw;
  EXPECT_FALSE(hw.ready());
  EXPECT_FALSE(hw.predict(1).valid) << "predict before ready must be invalid";
  for (int i = 0; i < 4; ++i) hw.observe(100.0);
  EXPECT_TRUE(hw.ready());
  const Forecast fc = hw.predict(1);
  EXPECT_TRUE(fc.valid);
  EXPECT_NEAR(fc.mean, 100.0, 1.0);
  EXPECT_LE(fc.lo, fc.mean);
  EXPECT_GE(fc.hi, fc.mean);
}

TEST(HoltWinters, TracksLinearTrend) {
  HoltWinters hw;
  for (int t = 0; t < 40; ++t) hw.observe(100.0 + 5.0 * t);
  // Last observation is 295; two steps ahead the truth is 305.
  const Forecast fc = hw.predict(2);
  ASSERT_TRUE(fc.valid);
  EXPECT_NEAR(fc.mean, 305.0, 5.0);
  EXPECT_NEAR(hw.trend(), 5.0, 0.5);
}

TEST(HoltWinters, SeasonalComponentTracksPeriodicPattern) {
  HoltWintersConfig cfg;
  cfg.season = 4;
  HoltWinters hw{cfg};
  const double pattern[4] = {80.0, 120.0, 100.0, 60.0};
  for (int t = 0; t < 48; ++t) hw.observe(pattern[t % 4]);
  // After 12 full seasons, a one-period-ahead forecast lands near the same
  // phase's value for every phase.
  for (std::size_t h = 1; h <= 4; ++h) {
    const Forecast fc = hw.predict(h);
    ASSERT_TRUE(fc.valid);
    EXPECT_NEAR(fc.mean, pattern[(48 - 1 + h) % 4], 12.0) << "h=" << h;
  }
}

TEST(HoltWinters, BandWidensWithHorizon) {
  HoltWinters hw;
  Rng rng{11};
  for (int t = 0; t < 60; ++t) hw.observe(100.0 + rng.uniform(-10.0, 10.0));
  const Forecast h1 = hw.predict(1);
  const Forecast h4 = hw.predict(4);
  ASSERT_TRUE(h1.valid);
  ASSERT_TRUE(h4.valid);
  EXPECT_GT(hw.sigma(), 0.0);
  EXPECT_GT(h4.hi - h4.lo, h1.hi - h1.lo);
}

TEST(HoltWinters, IgnoresNonFiniteObservations) {
  HoltWinters hw;
  for (int i = 0; i < 8; ++i) hw.observe(50.0);
  const Forecast before = hw.predict(2);
  hw.observe(std::nan(""));
  hw.observe(std::numeric_limits<double>::infinity());
  EXPECT_EQ(hw.observations(), 8u) << "poisoned scrapes must not be consumed";
  const Forecast after = hw.predict(2);
  EXPECT_EQ(bits(before.mean), bits(after.mean));
  EXPECT_EQ(bits(before.hi), bits(after.hi));
}

TEST(HoltWinters, BitIdenticalAcrossInstancesAndReset) {
  HoltWintersConfig cfg;
  cfg.season = 6;
  HoltWinters a{cfg}, b{cfg};
  Rng rng{3};
  std::vector<double> series;
  for (int t = 0; t < 50; ++t)
    series.push_back(60.0 + 20.0 * std::sin(t / 3.0) + rng.uniform(-3.0, 3.0));
  for (double v : series) a.observe(v);
  for (double v : series) b.observe(v);
  for (std::size_t h : {1u, 2u, 5u}) {
    EXPECT_EQ(bits(a.predict(h).mean), bits(b.predict(h).mean));
    EXPECT_EQ(bits(a.predict(h).hi), bits(b.predict(h).hi));
  }
  // reset() returns to the virgin state: replaying the series reproduces
  // the same predictions bit-for-bit.
  const Forecast before = a.predict(3);
  a.reset();
  EXPECT_FALSE(a.ready());
  for (double v : series) a.observe(v);
  EXPECT_EQ(bits(before.mean), bits(a.predict(3).mean));
}

// --- ForecastGate -----------------------------------------------------------

TEST(ForecastGate, FallsBackToObservedWhileNotReady) {
  telemetry::MetricsRegistry metrics;
  ForecastGate gate{std::make_shared<HoltWinters>(), {}};
  gate.set_metrics(&metrics);
  const std::vector<Qps> observed{40.0, 20.0};
  const auto planned = gate.plan_qps(observed);
  EXPECT_EQ(planned, observed);
  EXPECT_EQ(gate.fallbacks(), 1u);
  EXPECT_EQ(gate.prewarms(), 0u);
  EXPECT_EQ(metrics.counter("forecast.fallbacks_total", {{"cause", "not_ready"}})
                .value(),
            1.0);
}

TEST(ForecastGate, PrewarmsRisingLoadPreservingApiMix) {
  telemetry::MetricsRegistry metrics;
  ForecastGateConfig cfg;
  cfg.horizon_steps = 2;
  ForecastGate gate{std::make_shared<HoltWinters>(), cfg};
  gate.set_metrics(&metrics);
  std::vector<Qps> planned;
  std::vector<Qps> observed;
  for (int t = 0; t < 20; ++t) {
    // Steady climb, 3:1 API mix.
    const double total = 60.0 + 6.0 * t;
    observed = {0.75 * total, 0.25 * total};
    planned = gate.plan_qps(observed);
  }
  ASSERT_EQ(planned.size(), 2u);
  EXPECT_GT(gate.prewarms(), 0u);
  EXPECT_GT(gate.last_boost(), 1.0);
  const double total = planned[0] + planned[1];
  EXPECT_GT(total, observed[0] + observed[1])
      << "a rising series must plan above the observation";
  EXPECT_NEAR(planned[0] / total, 0.75, 1e-9) << "API mix must be preserved";
  EXPECT_GT(metrics.counter("forecast.predictions_total").value(), 0.0);
  EXPECT_GT(metrics.counter("forecast.prewarm_ticks").value(), 0.0);
  EXPECT_GT(metrics.gauge("forecast.boost").value(), 1.0);
}

TEST(ForecastGate, NeverPlansBelowObserved) {
  ForecastGate gate{std::make_shared<HoltWinters>(), {}};
  std::vector<Qps> planned;
  std::vector<Qps> observed;
  for (int t = 0; t < 30; ++t) {
    // Falling series: the forecast is below the observation, so the max()
    // must keep the plan at the observed level, never below.
    observed = {300.0 - 8.0 * t};
    planned = gate.plan_qps(observed);
    ASSERT_EQ(planned.size(), 1u);
    EXPECT_GE(planned[0], observed[0]);
  }
  EXPECT_EQ(planned, observed) << "a falling forecast plans exactly the observation";
}

/// Deliberately misbehaving forecaster: predicts an absurd multiple, or
/// throws, per the knobs — for exercising the gate's degradation contract.
class EvilForecaster final : public Forecaster {
 public:
  bool throw_on_observe = false;
  double predicted = 1e9;

  void observe(double) override {
    if (throw_on_observe) throw std::runtime_error{"forecaster bug"};
    ++count_;
  }
  Forecast predict(std::size_t) const override {
    return {predicted, predicted, predicted, true};
  }
  bool ready() const override { return count_ > 0; }
  void reset() override { count_ = 0; }
  std::size_t observations() const override { return count_; }
  std::string name() const override { return "evil"; }

 private:
  std::size_t count_ = 0;
};

TEST(ForecastGate, SanityCapClampsAbsurdForecast) {
  telemetry::MetricsRegistry metrics;
  ForecastGateConfig cfg;
  cfg.max_boost = 3.0;
  ForecastGate gate{std::make_shared<EvilForecaster>(), cfg};
  gate.set_metrics(&metrics);
  gate.plan_qps({100.0});  // ready() arms after the first observation
  const auto planned = gate.plan_qps({100.0});
  ASSERT_EQ(planned.size(), 1u);
  EXPECT_DOUBLE_EQ(planned[0], 300.0) << "boost must clamp at max_boost";
  // Both ticks predicted the absurd value and both were clamped.
  EXPECT_EQ(metrics.counter("forecast.boost_capped_total").value(), 2.0);
}

TEST(ForecastGate, ThrowingForecasterDegradesToPlanAlone) {
  telemetry::MetricsRegistry metrics;
  auto evil = std::make_shared<EvilForecaster>();
  evil->throw_on_observe = true;
  ForecastGate gate{evil, {}};
  gate.set_metrics(&metrics);
  const std::vector<Qps> observed{70.0, 30.0};
  std::vector<Qps> planned;
  EXPECT_NO_THROW(planned = gate.plan_qps(observed))
      << "plan_qps must never throw (degradation contract)";
  EXPECT_EQ(planned, observed);
  EXPECT_EQ(gate.fallbacks(), 1u);
  EXPECT_EQ(
      metrics.counter("forecast.fallbacks_total", {{"cause", "error"}}).value(),
      1.0);
}

TEST(ForecastGate, ZeroOrNonFiniteTotalBypassesTheForecaster) {
  auto hw = std::make_shared<HoltWinters>();
  ForecastGate gate{hw, {}};
  EXPECT_EQ(gate.plan_qps({0.0, 0.0}), (std::vector<Qps>{0.0, 0.0}));
  EXPECT_EQ(hw->observations(), 0u)
      << "a blackout tick must not enter the series as a real zero";
}

// A gate built from a spec runs Holt-Winters with the spec's settings: it
// plans the same bits as a gate handed that forecaster directly.
TEST(ForecastGate, SpecBuildsHoltWintersWithItsSettings) {
  ForecastSpec spec;
  spec.holt_winters.alpha = 0.7;
  spec.holt_winters.season = 4;
  spec.gate.horizon_steps = 3;
  ForecastGate from_spec{spec};
  ForecastGate direct{std::make_shared<HoltWinters>(spec.holt_winters), spec.gate};
  for (int t = 0; t < 24; ++t) {
    const std::vector<Qps> observed{50.0 + 3.0 * t + 10.0 * (t % 4), 20.0};
    const std::vector<Qps> a = from_spec.plan_qps(observed);
    const std::vector<Qps> b = direct.plan_qps(observed);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(bits(a[i]), bits(b[i])) << "t=" << t;
  }
  EXPECT_GT(from_spec.prewarms(), 0u);
  EXPECT_EQ(from_spec.prewarms(), direct.prewarms());
  EXPECT_EQ(from_spec.fallbacks(), direct.fallbacks());
}

// --- Plan-cache key regression + fleet determinism --------------------------
//
// Shared tiny trained model, one expensive fit for the rest of the suite
// (the fleet_test.cpp fixture pattern).

gnn::Dag chain2() {
  gnn::Dag d;
  d.add_node("front");
  d.add_node("back");
  d.add_edge(0, 1);
  return d;
}

double truth_ms(const std::vector<double>& w, const std::vector<double>& q,
                const std::vector<double>& demand) {
  double total = 0.0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    const double cores = q[i] / 1000.0;
    const double base = demand[i] / std::min(cores, 1.0);
    const double capacity = cores * 1000.0 / demand[i];
    const double utilization = std::min(w[i] / capacity, 0.95);
    total += base / (1.0 - utilization);
  }
  return total;
}

const std::vector<double> kDemand{20.0, 40.0};

gnn::Dataset demand_dataset(std::size_t n, std::uint64_t seed) {
  Rng rng{seed};
  gnn::Dataset out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    gnn::Sample s;
    const double w = rng.uniform(20.0, 100.0);
    s.workload = {w, w};
    s.quota = {rng.uniform(300.0, 2000.0), rng.uniform(300.0, 2000.0)};
    s.latency_ms = truth_ms(s.workload, s.quota, kDemand) * rng.lognormal(0.0, 0.03);
    out.push_back(std::move(s));
  }
  return out;
}

gnn::LatencyModel& trained_model() {
  static gnn::LatencyModel m = [] {
    gnn::MpnnConfig cfg{.node_features = 4, .embed_dim = 8, .mpnn_hidden = 8,
                        .readout_hidden = 24, .message_steps = 2,
                        .dropout_p = 0.05, .use_mpnn = true};
    gnn::LatencyModel lm{chain2(), cfg, 7};
    gnn::TrainConfig tcfg{.iterations = 900, .batch_size = 64, .lr = 3e-3,
                          .eval_every = 100, .seed = 3};
    lm.fit(demand_dataset(1200, 1), demand_dataset(200, 2), tcfg);
    return lm;
  }();
  return m;
}

TEST(PlanCacheForecast, BoostedDemandNeverServedFromObservedEntry) {
  core::SolverConfig scfg;
  scfg.max_iterations = 200;
  core::WorkloadAnalyzer analyzer{1, 2};
  analyzer.set_fanout({{1.0, 1.0}});
  core::ConfigurationSolver solver{trained_model(), scfg};
  core::ResourceController controller{trained_model(), solver, analyzer,
                                      {200.0, 200.0}, {2000.0, 2000.0},
                                      {500.0, 500.0}};
  controller.set_training_reference(demand_dataset(64, 11));

  const std::vector<Qps> observed{60.0};
  controller.plan(observed, 1000.0);
  EXPECT_EQ(controller.plan_cache_misses(), 1u);
  controller.plan(observed, 1000.0);
  EXPECT_EQ(controller.plan_cache_hits(), 1u) << "repeat observation hits";

  // The forecast gate hands plan() the *boosted* workload. The cache
  // quantizes into ~2% buckets, so a 30% pre-warm boost must land in a
  // different key — the cached observed-load plan must never answer the
  // higher forecast-adjusted demand.
  ForecastGateConfig gcfg;
  gcfg.horizon_steps = 2;
  ForecastGate gate{std::make_shared<HoltWinters>(), gcfg};
  std::vector<Qps> boosted;
  for (int t = 0; t < 12; ++t)
    boosted = gate.plan_qps({38.0 + 2.0 * t});  // steady climb ending at 60
  ASSERT_GT(gate.last_boost(), 1.02) << "scenario must actually boost";

  const std::uint64_t hits_before = controller.plan_cache_hits();
  const core::AllocationPlan boosted_plan = controller.plan(boosted, 1000.0);
  EXPECT_EQ(controller.plan_cache_hits(), hits_before)
      << "forecast-adjusted demand must miss the observed-load cache entry";
  ASSERT_FALSE(boosted_plan.degraded)
      << "boosted demand must stay in the model's feasible range";
  const core::AllocationPlan observed_plan = controller.plan(observed, 1000.0);
  double boosted_total = 0.0, observed_total = 0.0;
  for (Millicores q : boosted_plan.quota) boosted_total += q;
  for (Millicores q : observed_plan.quota) observed_total += q;
  EXPECT_GT(boosted_total, observed_total)
      << "planning for the boosted demand must buy more capacity";
}

struct ThreadGuard {
  explicit ThreadGuard(std::size_t n) { set_global_threads(n); }
  ~ThreadGuard() { set_global_threads(0); }
};

fleet::TenantSpec forecast_spec(const std::string& app, double slo_ms) {
  fleet::TenantSpec spec;
  spec.application = app;
  spec.slo_ms = slo_ms;
  spec.model = &trained_model();
  spec.meta = {.train_samples = 1200, .val_error_pct = 10.0,
               .created_sim_time = 0.0};
  spec.lo = {200.0, 200.0};
  spec.hi = {2000.0, 2000.0};
  spec.unit = {500.0, 500.0};
  spec.fanout = {{1.0, 1.0}};
  spec.training_reference = demand_dataset(64, 11);
  spec.solver.max_iterations = 200;
  spec.forecast.enabled = true;
  return spec;
}

/// Exact-bits digest of a forecast-enabled 2-tenant run (one trend-only
/// Holt-Winters, one seasonal): ramp + doubling surge traffic. Two replays
/// match iff every plan is bit-identical.
std::string run_forecast_fleet_scenario() {
  fleet::FleetServer fleet;
  const fleet::TenantId trend = fleet.add_tenant(forecast_spec("trend-app", 200.0));
  fleet::TenantSpec seasonal_spec = forecast_spec("seasonal-app", 150.0);
  seasonal_spec.forecast.holt_winters.season = 4;
  const fleet::TenantId seasonal = fleet.add_tenant(seasonal_spec);

  std::ostringstream out;
  auto token = fleet.subscribe([&](const fleet::PlanUpdate& u) {
    out << u.application << '#' << u.seq << ':';
    for (int inst : u.plan.instances) out << inst << ',';
    for (Millicores q : u.plan.quota)
      out << std::hex << std::bit_cast<std::uint64_t>(q) << std::dec << ',';
    out << (u.degraded ? "!D" : "") << ';';
  });

  for (int step = 0; step < 30; ++step) {
    const double now = 5.0 * (step + 1);
    // Ramp for 20 steps, then a doubling surge.
    const double base = step < 20 ? 40.0 + 2.0 * step : 160.0;
    fleet.push({.tenant = trend, .now = now, .api_qps = {base}, .samples = {}});
    fleet.push({.tenant = seasonal, .now = now, .api_qps = {0.8 * base}, .samples = {}});
    const auto stats = fleet.step();
    out << "s" << step << "=" << stats.planned << "/" << stats.coasted << ";";
  }
  // The digest must also pin the forecaster outputs themselves.
  for (const fleet::TenantId id : {trend, seasonal}) {
    ForecastGate* gate = fleet.tenant(id)->forecast_gate();
    out << "|prewarms=" << gate->prewarms() << ",boost="
        << std::hex << std::bit_cast<std::uint64_t>(gate->last_boost())
        << std::dec;
  }
  return out.str();
}

TEST(FleetForecast, ScenarioReplaysBitIdenticallyAcrossThreadCounts) {
  std::string at1, at8;
  {
    ThreadGuard guard{1};
    at1 = run_forecast_fleet_scenario();
  }
  {
    ThreadGuard guard{8};
    at8 = run_forecast_fleet_scenario();
  }
  EXPECT_FALSE(at1.empty());
  EXPECT_NE(at1.find("prewarms="), std::string::npos);
  EXPECT_EQ(at1, at8) << "forecast-enabled fleet runs must be bit-identical "
                         "at any GRAF_THREADS (DESIGN.md §3.11)";
}

TEST(FleetForecast, ForecastTenantPrewarmsAndExportsMetrics) {
  fleet::FleetServer fleet;
  const fleet::TenantId id =
      fleet.add_tenant(forecast_spec("ramp", 200.0));
  for (int step = 0; step < 20; ++step) {
    fleet.push({.tenant = id,
                .now = 5.0 * (step + 1),
                .api_qps = {40.0 + 8.0 * step},
                .samples = {}});
    fleet.step();
  }
  ForecastGate* gate = fleet.tenant(id)->forecast_gate();
  ASSERT_NE(gate, nullptr);
  EXPECT_GT(gate->prewarms(), 0u);
  const auto snap = fleet.metrics_snapshot();
  const auto* prewarms = snap.find("forecast.prewarm_ticks");
  ASSERT_NE(prewarms, nullptr) << "tenant forecast metrics must merge into "
                                  "the fleet snapshot";
  EXPECT_GT(prewarms->value, 0.0);

  // A tenant without forecast mode has no gate.
  fleet::TenantSpec plain = forecast_spec("plain", 100.0);
  plain.forecast.enabled = false;
  const fleet::TenantId pid = fleet.add_tenant(plain);
  EXPECT_EQ(fleet.tenant(pid)->forecast_gate(), nullptr);
}

}  // namespace
}  // namespace graf::forecast
