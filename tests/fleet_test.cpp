// Fleet mode (src/fleet): the multi-tenant control-plane server. Covers the
// lock-free ingest ring, weak-token subscriptions, tenant lifecycle with
// stable (slot, generation) ids, hysteresis / signal-loss / failure
// isolation across tenants, the online-training lifecycle inside a tenant,
// and the §3.7 determinism contract: a scripted 4-tenant scenario (with one
// tenant under a telemetry blackout and one under a hard fault) replays
// bit-identically at GRAF_THREADS=1 and 8. Also GrafController, the
// one-tenant fleet the paper benches drive from a simulated cluster.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "fleet/fleet_server.h"
#include "fleet/graf_controller.h"
#include "fleet/ingest_queue.h"
#include "fleet/subscriber.h"
#include "fleet/tenant.h"
#include "gnn/latency_model.h"
#include "serve/online_trainer.h"
#include "sim/cluster.h"
#include "workload/open_loop.h"

namespace graf::fleet {
namespace {

// --- shared tiny trained model (one expensive train for the whole suite) ---

gnn::Dag chain2() {
  gnn::Dag d;
  d.add_node("front");
  d.add_node("back");
  d.add_edge(0, 1);
  return d;
}

gnn::MpnnConfig tiny_cfg() {
  return {.node_features = 4, .embed_dim = 8, .mpnn_hidden = 8,
          .readout_hidden = 24, .message_steps = 2, .dropout_p = 0.05,
          .use_mpnn = true};
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

const std::vector<double> kRegimeA{20.0, 40.0};
const std::vector<double> kRegimeB{45.0, 90.0};  // drifted: ~2.2x the demand

gnn::Dataset regime_dataset(const std::vector<double>& demand, std::size_t n,
                            std::uint64_t seed) {
  Rng rng{seed};
  gnn::Dataset out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    gnn::Sample s;
    const double w = rng.uniform(20.0, 100.0);
    s.workload = {w, w};
    s.quota = {rng.uniform(300.0, 2000.0), rng.uniform(300.0, 2000.0)};
    s.latency_ms = truth_ms(s.workload, s.quota, demand) * rng.lognormal(0.0, 0.03);
    out.push_back(std::move(s));
  }
  return out;
}

gnn::LatencyModel& trained_model() {
  static gnn::LatencyModel m = [] {
    gnn::LatencyModel lm{chain2(), tiny_cfg(), 7};
    gnn::TrainConfig tcfg{.iterations = 900, .batch_size = 64, .lr = 3e-3,
                          .eval_every = 100, .seed = 3};
    lm.fit(regime_dataset(kRegimeA, 1200, 1), regime_dataset(kRegimeA, 200, 2),
           tcfg);
    return lm;
  }();
  return m;
}

/// Tenant spec on the shared trained model: one API fanning into both
/// services, short solver budget (tests exercise control flow, not solve
/// quality).
TenantSpec make_spec(const std::string& app, double slo_ms) {
  TenantSpec spec;
  spec.application = app;
  spec.slo_ms = slo_ms;
  spec.model = &trained_model();
  spec.meta = {.train_samples = 1200, .val_error_pct = 10.0,
               .created_sim_time = 0.0};
  spec.lo = {200.0, 200.0};
  spec.hi = {2000.0, 2000.0};
  spec.unit = {500.0, 500.0};
  spec.fanout = {{1.0, 1.0}};
  spec.training_reference = regime_dataset(kRegimeA, 64, 11);
  spec.solver.max_iterations = 200;
  return spec;
}

TelemetryUpdate qps_update(TenantId id, double now, std::vector<Qps> qps) {
  return {.tenant = id, .now = now, .api_qps = std::move(qps), .samples = {}};
}

struct ThreadGuard {
  explicit ThreadGuard(std::size_t n) { set_global_threads(n); }
  ~ThreadGuard() { set_global_threads(0); }
};

// --- IngestQueue ------------------------------------------------------------

TEST(IngestQueue, FifoOrderAndBoundedCapacity) {
  IngestQueue q{3};  // rounds up to 4
  EXPECT_EQ(q.capacity(), 4u);
  for (int i = 0; i < 4; ++i)
    EXPECT_TRUE(q.push({.tenant = {}, .now = static_cast<double>(i)}));
  EXPECT_FALSE(q.push({.tenant = {}, .now = 99.0})) << "full ring must reject";
  TelemetryUpdate u;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(q.pop(u));
    EXPECT_EQ(u.now, static_cast<double>(i));
  }
  EXPECT_FALSE(q.pop(u));
}

TEST(IngestQueue, SurvivesManyLaps) {
  IngestQueue q{4};
  TelemetryUpdate u;
  double next = 0.0;
  for (int lap = 0; lap < 100; ++lap) {
    ASSERT_TRUE(q.push({.tenant = {}, .now = static_cast<double>(lap)}));
    ASSERT_TRUE(q.pop(u));
    EXPECT_EQ(u.now, next);
    next += 1.0;
  }
  EXPECT_EQ(q.size(), 0u);
}

TEST(IngestQueue, MultiProducerPreservesPerProducerOrder) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kEach = 200;
  IngestQueue q{kProducers * kEach};
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (std::size_t i = 0; i < kEach; ++i) {
        TelemetryUpdate u;
        u.tenant.slot = static_cast<std::uint32_t>(p);
        u.now = static_cast<double>(i);
        while (!q.push(u)) std::this_thread::yield();
      }
    });
  }
  for (auto& t : producers) t.join();

  std::vector<double> last_seen(kProducers, -1.0);
  std::size_t total = 0;
  TelemetryUpdate u;
  while (q.pop(u)) {
    ++total;
    // FIFO per producer: each producer's `now` sequence drains in order.
    EXPECT_GT(u.now, last_seen[u.tenant.slot]);
    last_seen[u.tenant.slot] = u.now;
  }
  EXPECT_EQ(total, kProducers * kEach);
}

// Ring-full accounting under multi-producer *wrap* (ISSUE 8): a tiny ring
// laps thousands of times while four producers race each other and the
// concurrent consumer. Every accepted push must surface exactly once — no
// loss when a cell is re-armed for the next lap, no duplicate when two
// producers chase the same slot. Producers retry on full, so per-producer
// sequences arrive complete and in order; rejections are the producer's
// problem (the fleet server counts them), never the ring's.
TEST(IngestQueue, MultiProducerWrapLosesAndDuplicatesNothing) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kEach = 5000;
  IngestQueue q{8};
  std::atomic<std::uint64_t> rejected{0};
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, &rejected, p] {
      for (std::size_t i = 0; i < kEach; ++i) {
        TelemetryUpdate u;
        u.tenant.slot = static_cast<std::uint32_t>(p);
        u.now = static_cast<double>(i);
        while (!q.push(u)) {
          rejected.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::yield();
        }
      }
    });
  }

  std::vector<double> next(kProducers, 0.0);
  std::size_t total = 0;
  TelemetryUpdate u;
  while (total < kProducers * kEach) {
    if (!q.pop(u)) {
      std::this_thread::yield();
      continue;
    }
    ASSERT_LT(u.tenant.slot, kProducers);
    EXPECT_EQ(u.now, next[u.tenant.slot])
        << "lost or duplicated item from producer " << u.tenant.slot;
    next[u.tenant.slot] = u.now + 1.0;
    ++total;
  }
  for (auto& t : producers) t.join();
  EXPECT_FALSE(q.pop(u)) << "accepted pushes and pops must balance";
  // With an 8-slot ring and 20k items, wrap pressure must actually have
  // produced full-ring rejections — otherwise this test isn't testing wrap.
  EXPECT_GT(rejected.load(), 0u);
}

// --- SubscriberRegistry -----------------------------------------------------

TEST(SubscriberRegistry, DroppedTokenStopsDeliveryAndIsPruned) {
  SubscriberRegistry reg;
  int calls = 0;
  auto token = reg.subscribe([&](const PlanUpdate&) { ++calls; });
  EXPECT_EQ(reg.publish({}).delivered, 1u);
  EXPECT_EQ(calls, 1);

  token.reset();  // dropping the only strong ref *is* unsubscription
  EXPECT_EQ(reg.publish({}).delivered, 0u);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(reg.size(), 0u);
}

TEST(SubscriberRegistry, CancelStopsDeliveryWhileTokenHeld) {
  SubscriberRegistry reg;
  int calls = 0;
  auto token = reg.subscribe([&](const PlanUpdate&) { ++calls; });
  token->cancel();
  EXPECT_EQ(reg.publish({}).delivered, 0u);
  EXPECT_EQ(calls, 0);
}

TEST(SubscriberRegistry, FilterLimitsDeliveryToOneTenant) {
  SubscriberRegistry reg;
  int mine = 0, all = 0;
  const TenantId a{0, 1}, b{1, 1};
  auto ta = reg.subscribe([&](const PlanUpdate&) { ++mine; }, a);
  auto tall = reg.subscribe([&](const PlanUpdate&) { ++all; });
  reg.publish({.tenant = a});
  reg.publish({.tenant = b});
  EXPECT_EQ(mine, 1);
  EXPECT_EQ(all, 2);
}

TEST(SubscriberRegistry, ThrowingCallbackIsCountedAndSiblingsStillNotified) {
  SubscriberRegistry reg;
  int healthy = 0;
  auto bad = reg.subscribe(
      [](const PlanUpdate&) { throw std::runtime_error{"subscriber bug"}; });
  auto good = reg.subscribe([&](const PlanUpdate&) { ++healthy; });
  const auto stats = reg.publish({});
  EXPECT_EQ(stats.delivered, 1u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(healthy, 1);
}

// --- FleetServer: tenant lifecycle ------------------------------------------

TEST(FleetServer, AdmissionLookupAndDuplicateRejection) {
  FleetServer fleet;
  const TenantId a = fleet.add_tenant(make_spec("checkout", 200.0));
  const TenantId b = fleet.add_tenant(make_spec("search", 150.0));
  EXPECT_EQ(fleet.tenant_count(), 2u);
  ASSERT_NE(fleet.tenant(a), nullptr);
  EXPECT_EQ(fleet.tenant(a)->application(), "checkout");
  EXPECT_EQ(fleet.find("search", 150.0), std::optional{b});
  EXPECT_FALSE(fleet.find("search", 999.0).has_value());

  // Same app at a *different* SLO is a distinct tenant; the same pair is not.
  EXPECT_NO_THROW(fleet.add_tenant(make_spec("checkout", 100.0)));
  EXPECT_THROW(fleet.add_tenant(make_spec("checkout", 200.0)),
               std::invalid_argument);

  TenantSpec bad = make_spec("broken", 100.0);
  bad.model = nullptr;
  EXPECT_THROW(fleet.add_tenant(bad), std::invalid_argument);
  bad = make_spec("broken", 100.0);
  bad.lo = {200.0};  // model has two services
  EXPECT_THROW(fleet.add_tenant(bad), std::invalid_argument);
}

TEST(FleetServer, RemoveTenantInvalidatesEveryOutstandingId) {
  FleetServer fleet;
  const TenantId a = fleet.add_tenant(make_spec("checkout", 200.0));
  ASSERT_TRUE(fleet.remove_tenant(a));
  EXPECT_EQ(fleet.tenant(a), nullptr);
  EXPECT_FALSE(fleet.remove_tenant(a)) << "stale id must be inert";
  EXPECT_EQ(fleet.tenant_count(), 0u);

  // The slot recycles under a fresh generation: the old id still resolves
  // to nothing, and a queued push carrying it is discarded at drain time.
  const TenantId reborn = fleet.add_tenant(make_spec("checkout", 200.0));
  EXPECT_EQ(reborn.slot, a.slot);
  EXPECT_NE(reborn.generation, a.generation);
  EXPECT_EQ(fleet.tenant(a), nullptr);

  fleet.push(qps_update(a, 1.0, {60.0}));
  const auto stats = fleet.step();
  EXPECT_EQ(stats.drained, 1u);
  EXPECT_EQ(stats.planned, 0u);
  EXPECT_EQ(fleet.metrics().counter("fleet.ingest.stale").value(), 1.0);
}

// --- FleetServer: the control cycle -----------------------------------------

TEST(FleetServer, ChangeOnlyNotification) {
  FleetServer fleet;
  const TenantId id = fleet.add_tenant(make_spec("checkout", 200.0));
  std::vector<PlanUpdate> updates;
  auto token =
      fleet.subscribe([&](const PlanUpdate& u) { updates.push_back(u); });

  fleet.push(qps_update(id, 1.0, {60.0}));
  auto s1 = fleet.step();
  EXPECT_EQ(s1.planned, 1u);
  ASSERT_EQ(updates.size(), 1u);
  EXPECT_EQ(updates[0].seq, 1u);
  EXPECT_FALSE(updates[0].degraded);
  EXPECT_FALSE(updates[0].plan.instances.empty());

  // Identical workload: hysteresis coasts, nothing new for subscribers.
  fleet.push(qps_update(id, 2.0, {60.0}));
  auto s2 = fleet.step();
  EXPECT_EQ(s2.coasted, 1u);
  EXPECT_EQ(s2.notified, 0u);
  EXPECT_EQ(updates.size(), 1u);

  // A big swing re-solves; subscribers hear about it iff replicas moved.
  fleet.push(qps_update(id, 3.0, {95.0}));
  auto s3 = fleet.step();
  EXPECT_EQ(s3.planned, 1u);
  if (updates.size() == 2u) {
    EXPECT_EQ(updates[1].seq, 2u);
    EXPECT_NE(updates[1].plan.instances, updates[0].plan.instances);
  }

  // An idle step (no pushes) drains nothing and notifies no one.
  const std::size_t before = updates.size();
  auto s4 = fleet.step();
  EXPECT_EQ(s4.drained, 0u);
  EXPECT_EQ(updates.size(), before);
}

TEST(FleetServer, HysteresisCoastsInsideBandAndSloRetargetForcesResolve) {
  FleetServer fleet;
  const TenantId id = fleet.add_tenant(make_spec("checkout", 200.0));
  fleet.push(qps_update(id, 1.0, {60.0}));
  EXPECT_EQ(fleet.step().planned, 1u);

  fleet.push(qps_update(id, 2.0, {63.0}));  // +5% < 10% band
  EXPECT_EQ(fleet.step().coasted, 1u);

  // Retargeting the SLO must bypass the band even with identical traffic.
  fleet.tenant(id)->set_slo(120.0);
  fleet.push(qps_update(id, 3.0, {63.0}));
  EXPECT_EQ(fleet.step().planned, 1u);
}

TEST(FleetServer, SignalLossHoldsPlanAndFlagsDegraded) {
  FleetServer fleet;
  const TenantId id = fleet.add_tenant(make_spec("checkout", 200.0));
  std::vector<PlanUpdate> updates;
  auto token =
      fleet.subscribe([&](const PlanUpdate& u) { updates.push_back(u); });

  fleet.push(qps_update(id, 1.0, {60.0}));
  fleet.step();
  ASSERT_EQ(updates.size(), 1u);
  const auto held = updates[0].plan.instances;

  // Telemetry blackout: the workload signal reads zero. The tenant coasts
  // on its last plan (no solve against a phantom-zero workload) and the
  // degraded transition is itself a notifiable plan change.
  fleet.push(qps_update(id, 2.0, {0.0}));
  fleet.step();
  ASSERT_EQ(updates.size(), 2u);
  EXPECT_TRUE(updates[1].degraded);
  EXPECT_EQ(updates[1].plan.instances, held);
  EXPECT_TRUE(fleet.tenant(id)->degraded());
  EXPECT_EQ(fleet.metrics().counter("fleet.signal_losses").value(), 1.0);

  // Recovery: a real signal re-solves and clears the flag (notified again).
  fleet.push(qps_update(id, 3.0, {60.0}));
  fleet.step();
  ASSERT_EQ(updates.size(), 3u);
  EXPECT_FALSE(updates[2].degraded);
  EXPECT_FALSE(fleet.tenant(id)->degraded());
}

// The one control loop's rules: fleet::GrafController drives this same
// tenant path from a simulated cluster.

TEST(FleetServer, ChangeExactlyAtTheThresholdResolves) {
  FleetServer fleet;
  const TenantId id = fleet.add_tenant(make_spec("checkout", 200.0));
  fleet.push(qps_update(id, 1.0, {60.0}));
  ASSERT_EQ(fleet.step().planned, 1u);
  // 60 -> 66 qps is exactly the 0.10 band in doubles; only a change
  // strictly inside the band coasts.
  ASSERT_EQ((66.0 - 60.0) / 60.0, 0.10);
  fleet.push(qps_update(id, 2.0, {66.0}));
  EXPECT_EQ(fleet.step().planned, 1u);
}

TEST(FleetServer, ZeroChangeThresholdResolvesEveryPush) {
  FleetServer fleet;
  TenantSpec spec = make_spec("checkout", 200.0);
  spec.change_threshold = 0.0;
  const TenantId id = fleet.add_tenant(spec);
  fleet.push(qps_update(id, 1.0, {60.0}));
  ASSERT_EQ(fleet.step().planned, 1u);
  fleet.push(qps_update(id, 2.0, {60.0}));
  EXPECT_EQ(fleet.step().planned, 1u);
}

TEST(FleetServer, UnchangedPushAfterSignalLossResolves) {
  FleetServer fleet;
  const TenantId id = fleet.add_tenant(make_spec("checkout", 200.0));
  fleet.push(qps_update(id, 1.0, {60.0}));
  ASSERT_EQ(fleet.step().planned, 1u);
  fleet.push(qps_update(id, 2.0, {0.0}));
  fleet.step();
  ASSERT_TRUE(fleet.tenant(id)->degraded());
  // The signal returns at its old level: a degraded tenant re-plans instead
  // of coasting on the held plan.
  fleet.push(qps_update(id, 3.0, {60.0}));
  const auto stats = fleet.step();
  EXPECT_EQ(stats.planned, 1u);
  EXPECT_EQ(stats.coasted, 0u);
  EXPECT_FALSE(fleet.tenant(id)->degraded());
}

TEST(FleetServer, AllZeroFirstPushCountsSignalLossOnly) {
  FleetServer fleet;
  const TenantId id = fleet.add_tenant(make_spec("checkout", 200.0));
  std::vector<PlanUpdate> updates;
  auto token =
      fleet.subscribe([&](const PlanUpdate& u) { updates.push_back(u); });
  fleet.push(qps_update(id, 1.0, {0.0}));
  const auto stats = fleet.step();
  EXPECT_EQ(stats.planned, 0u);
  EXPECT_EQ(stats.notified, 0u);
  EXPECT_TRUE(updates.empty());
  const Tenant& t = *fleet.tenant(id);
  EXPECT_EQ(t.signal_losses(), 1u);
  EXPECT_FALSE(t.has_plan());
  EXPECT_FALSE(t.degraded());
}

TEST(FleetServer, TenantFailureNeverStallsSiblings) {
  FleetServer fleet;
  const TenantId good = fleet.add_tenant(make_spec("healthy", 200.0));
  const TenantId bad = fleet.add_tenant(make_spec("faulty", 200.0));

  // The faulty tenant's push carries a malformed workload vector (two APIs
  // against a one-API analyzer): its plan() throws. Same step, the healthy
  // sibling must still plan normally.
  fleet.push(qps_update(good, 1.0, {60.0}));
  fleet.push(qps_update(bad, 1.0, {60.0, 60.0}));
  const auto stats = fleet.step();
  EXPECT_EQ(stats.planned, 1u);
  EXPECT_EQ(stats.failures, 1u);
  EXPECT_TRUE(fleet.tenant(good)->has_plan());
  EXPECT_FALSE(fleet.tenant(good)->degraded());
  EXPECT_TRUE(fleet.tenant(bad)->degraded());
  EXPECT_EQ(fleet.tenant(bad)->failures(), 1u);
  EXPECT_EQ(fleet.metrics().counter("fleet.tenant_failures").value(), 1.0);

  // The failure is not sticky: a well-formed push recovers the tenant.
  fleet.push(qps_update(bad, 2.0, {60.0}));
  EXPECT_EQ(fleet.step().planned, 1u);
  EXPECT_FALSE(fleet.tenant(bad)->degraded());
}

TEST(FleetServer, DrainCoalescesToNewestWorkload) {
  FleetServer fleet;
  const TenantId id = fleet.add_tenant(make_spec("checkout", 200.0));
  // Three pushes between steps: one drain, one solve, at the newest rates.
  fleet.push(qps_update(id, 1.0, {40.0}));
  fleet.push(qps_update(id, 2.0, {50.0}));
  fleet.push(qps_update(id, 3.0, {60.0}));
  const auto stats = fleet.step();
  EXPECT_EQ(stats.drained, 3u);
  EXPECT_EQ(stats.planned, 1u);
  EXPECT_EQ(fleet.tenant(id)->plans(), 1u);

  // The plan matches a from-scratch solve at the final rates only.
  FleetServer ref;
  const TenantId rid = ref.add_tenant(make_spec("checkout", 200.0));
  ref.push(qps_update(rid, 3.0, {60.0}));
  ref.step();
  EXPECT_EQ(ref.tenant(rid)->last_plan().instances,
            fleet.tenant(id)->last_plan().instances);
}

TEST(FleetServer, MetricsSnapshotMergesFleetAndTenantRegistries) {
  FleetServer fleet;
  const TenantId a = fleet.add_tenant(make_spec("checkout", 200.0));
  const TenantId b = fleet.add_tenant(make_spec("search", 150.0));
  fleet.push(qps_update(a, 1.0, {60.0}));
  fleet.push(qps_update(b, 1.0, {45.0}));
  fleet.step();

  const auto snap = fleet.metrics_snapshot();
  const auto* steps = snap.find("fleet.steps");
  ASSERT_NE(steps, nullptr);
  EXPECT_EQ(steps->value, 1.0);
  // Per-tenant instruments sum across tenants in the merged view.
  const auto* plans = snap.find("fleet.tenant.plans");
  ASSERT_NE(plans, nullptr);
  EXPECT_EQ(plans->value, 2.0);
  const auto* core_plans = snap.find("core.plans_total");
  ASSERT_NE(core_plans, nullptr);
  EXPECT_EQ(core_plans->value, 2.0);
}

// --- Online training inside a tenant ----------------------------------------

TEST(FleetServer, OnlineTrainingPromotesThroughTenantHandle) {
  FleetServer fleet;
  TenantSpec spec = make_spec("drift-app", 200.0);
  const TenantId id = fleet.add_tenant(spec);

  serve::OnlineTrainerConfig cfg;
  cfg.window_capacity = 360;
  cfg.min_samples = 240;
  cfg.cooldown = 60;
  cfg.ewma_alpha = 0.1;
  cfg.drift_factor = 2.5;
  cfg.drift_floor_pct = 15.0;
  cfg.fine_tune = {.iterations = 700, .batch_size = 64, .lr = 2e-3,
                   .eval_every = 100, .seed = 5};
  ASSERT_TRUE(fleet.enable_online_training(id, cfg));
  EXPECT_FALSE(fleet.enable_online_training({99, 99}, cfg));

  Tenant* t = fleet.tenant(id);
  const auto initial = t->handle().acquire();
  ASSERT_NE(initial, nullptr);

  // Stream drifted-regime observations through the normal ingest path; the
  // trainer runs during step() and eventually promotes a fine-tuned model.
  gnn::Dataset live = regime_dataset(kRegimeB, 420, 40);
  double now = 100.0;
  std::size_t sent = 0;
  while (sent < live.size()) {
    TelemetryUpdate u = qps_update(id, now, {60.0});
    for (std::size_t i = 0; i < 60 && sent < live.size(); ++i)
      u.samples.push_back(live[sent++]);
    ASSERT_TRUE(fleet.push(std::move(u)));
    fleet.step();
    now += 60.0;
  }

  ASSERT_NE(t->trainer(), nullptr);
  EXPECT_GE(t->trainer()->stats().promotions, 1u);
  EXPECT_NE(t->handle().acquire().get(), initial.get())
      << "promotion must hot-swap this tenant's serving handle";
  EXPECT_GT(fleet.registry().active_version(t->key()), 1u);

  // The next plan solves through the promoted model without incident.
  fleet.push(qps_update(id, now, {90.0}));
  EXPECT_EQ(fleet.step().planned, 1u);
  EXPECT_FALSE(t->degraded());
}

// --- Determinism: the §3.7 contract at fleet scale --------------------------

/// Exact-bits rendering of a plan stream: doubles go out as hex bit
/// patterns, so two replays match iff every value is bit-identical.
void render_plan(std::ostringstream& out, const PlanUpdate& u) {
  out << u.application << '#' << u.seq << ':';
  for (int inst : u.plan.instances) out << inst << ',';
  for (Millicores q : u.plan.quota)
    out << std::hex << std::bit_cast<std::uint64_t>(q) << std::dec << ',';
  out << std::hex << std::bit_cast<std::uint64_t>(u.plan.predicted_ms)
      << std::dec << (u.degraded ? "!D" : "") << ';';
}

/// Tenants spread over one shared FleetServer (where same-model tenants
/// solve as one block-diagonal batch, §3.13) or, with `solo`, one
/// single-tenant FleetServer each. Servers step in tenant order, so the
/// rendered plan stream and the summed step stats read the same either way
/// iff a batched group reproduces each member's solo solve bit for bit.
class TenantSet {
 public:
  TenantSet(bool solo, std::ostringstream& out) : solo_{solo}, out_{out} {}

  std::size_t add(const TenantSpec& spec) {
    if (servers_.empty() || solo_) {
      servers_.push_back(std::make_unique<FleetServer>());
      tokens_.push_back(servers_.back()->subscribe(
          [this](const PlanUpdate& u) { render_plan(out_, u); }));
    }
    home_.push_back(servers_.back().get());
    ids_.push_back(home_.back()->add_tenant(spec));
    return ids_.size() - 1;
  }
  void remove(std::size_t i) { home_[i]->remove_tenant(ids_[i]); }
  void push(std::size_t i, double now, std::vector<Qps> qps) {
    home_[i]->push(qps_update(ids_[i], now, std::move(qps)));
  }
  void step() {
    FleetServer::StepStats total;
    for (auto& server : servers_) {
      const FleetServer::StepStats s = server->step();
      total.planned += s.planned;
      total.coasted += s.coasted;
      total.failures += s.failures;
      total.notified += s.notified;
    }
    out_ << "step=" << total.planned << "/" << total.coasted << "/"
         << total.failures << "/" << total.notified << ";";
  }
  double batched_tenants() const {
    double n = 0.0;
    for (const auto& server : servers_)
      n += server->metrics().counter("fleet.batched_tenants").value();
    return n;
  }

 private:
  bool solo_;
  std::ostringstream& out_;
  std::vector<std::unique_ptr<FleetServer>> servers_;
  std::vector<SubscriptionToken> tokens_;
  std::vector<FleetServer*> home_;
  std::vector<TenantId> ids_;
};

/// A scripted 4-tenant scenario with a telemetry blackout and a hard fault.
/// `solo` runs every tenant in its own FleetServer (see TenantSet); the
/// digest must be the same either way.
std::string run_scripted_scenario(bool solo = false) {
  std::ostringstream out;
  TenantSet tenants{solo, out};
  for (int i = 0; i < 4; ++i) {
    TenantSpec spec = make_spec("app" + std::to_string(i), 120.0 + 40.0 * i);
    // Tenant 1's distinct solver config keeps it out of the others' group.
    if (i == 1) spec.solver.multi_starts = 2;
    tenants.add(spec);
  }

  for (int step = 0; step < 12; ++step) {
    const double now = 10.0 * (step + 1);
    for (std::size_t i = 0; i < 4; ++i) {
      // Deterministic per-tenant traffic: phase-shifted swings big enough
      // to beat the hysteresis band on most steps.
      double qps = 40.0 + 12.0 * static_cast<double>((step * (i + 3) + i) % 5);
      if (i == 3 && step >= 4 && step <= 6) qps = 0.0;  // telemetry blackout
      if (i == 2 && step == 5) {
        // Hard fault: malformed workload vector; plan() throws, tenant 2
        // degrades alone.
        tenants.push(i, now, {qps, qps});
        continue;
      }
      tenants.push(i, now, {qps});
    }
    tenants.step();
  }
  if (!solo) {
    EXPECT_GT(tenants.batched_tenants(), 0.0)
        << "scenario must actually exercise batched groups";
  }
  return out.str();
}

TEST(FleetServer, ScriptedScenarioReplaysBitIdenticallyAcrossThreadCounts) {
  std::string at1, at8;
  {
    ThreadGuard guard{1};
    at1 = run_scripted_scenario();
  }
  {
    ThreadGuard guard{8};
    at8 = run_scripted_scenario();
  }
  EXPECT_FALSE(at1.empty());
  EXPECT_NE(at1.find("!D"), std::string::npos)
      << "scenario must exercise the degraded path";
  EXPECT_EQ(at1, at8) << "fleet step() must be bit-identical at any "
                         "GRAF_THREADS (DESIGN.md §3.7/§3.10)";
}

// --- Batched planning (§3.13): bit-identity with solo tenants ---------------

// The tentpole contract: coalescing same-model tenants into one
// block-diagonal solve_batch must reproduce each tenant solving alone in its
// own FleetServer exactly — same quota bits, same predicted_ms bits, same
// step stats — at every thread count. Tenant 1's distinct solver config
// (multi_starts=2) keeps a group of one in the mix, so the scenario covers
// batched groups and lone tenants side by side.
TEST(FleetServer, BatchedPlanningBitIdenticalToPerTenantAcrossThreadCounts) {
  for (std::size_t threads : {1u, 2u, 8u}) {
    ThreadGuard guard{threads};
    const std::string batched = run_scripted_scenario(false);
    const std::string solo = run_scripted_scenario(true);
    EXPECT_FALSE(batched.empty());
    EXPECT_EQ(batched, solo)
        << "batched fleet planning must be bit-identical to solo tenants "
           "at GRAF_THREADS=" << threads << " (DESIGN.md §3.13)";
  }
}

TEST(FleetServer, BatchedGroupsCoalesceSameModelTenants) {
  FleetServer batched;
  std::vector<TenantId> bids;
  std::vector<std::unique_ptr<FleetServer>> solo;
  std::vector<TenantId> sids;
  for (int i = 0; i < 3; ++i) {
    TenantSpec spec = make_spec("svc" + std::to_string(i), 150.0 + 30.0 * i);
    if (i == 2) spec.solver.multi_starts = 2;  // distinct config: solo group
    bids.push_back(batched.add_tenant(spec));
    solo.push_back(std::make_unique<FleetServer>());
    sids.push_back(solo.back()->add_tenant(spec));
  }
  for (int i = 0; i < 3; ++i) {
    const double qps = 45.0 + 10.0 * i;
    batched.push(qps_update(bids[i], 1.0, {qps}));
    solo[i]->push(qps_update(sids[i], 1.0, {qps}));
  }
  EXPECT_EQ(batched.step().planned, 3u);
  for (auto& server : solo) EXPECT_EQ(server->step().planned, 1u);

  // Tenants 0 and 1 share (fingerprint, node count, solver config): exactly
  // one batched group of two. Tenant 2's multi_starts mismatch solves alone.
  EXPECT_EQ(batched.metrics().counter("fleet.batched_groups").value(), 1.0);
  EXPECT_EQ(batched.metrics().counter("fleet.batched_tenants").value(), 2.0);
  for (auto& server : solo)
    EXPECT_EQ(server->metrics().counter("fleet.batched_groups").value(), 0.0);

  for (int i = 0; i < 3; ++i) {
    const auto& bp = batched.tenant(bids[i])->last_plan();
    const auto& sp = solo[i]->tenant(sids[i])->last_plan();
    ASSERT_EQ(bp.quota.size(), sp.quota.size());
    for (std::size_t s = 0; s < bp.quota.size(); ++s)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(bp.quota[s]),
                std::bit_cast<std::uint64_t>(sp.quota[s]));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(bp.predicted_ms),
              std::bit_cast<std::uint64_t>(sp.predicted_ms));
    EXPECT_EQ(bp.instances, sp.instances);
  }
}

/// Batch-composition churn: tenants join and leave mid-run, so the batched
/// grouping reshuffles between steps (groups of 1..4 members). Same digest
/// contract as run_scripted_scenario.
std::string run_composition_scenario(bool solo) {
  std::ostringstream out;
  TenantSet tenants{solo, out};
  std::vector<bool> gone;
  tenants.add(make_spec("base0", 150.0));
  tenants.add(make_spec("base1", 190.0));
  gone.assign(2, false);
  for (int step = 0; step < 10; ++step) {
    if (step == 3) {
      // Two tenants enter: the next batched group can grow to four.
      tenants.add(make_spec("join2", 230.0));
      tenants.add(make_spec("join3", 270.0));
      gone.resize(4, false);
    }
    if (step == 7) {
      // One leaves mid-run: its slot recycles, the batch shrinks.
      tenants.remove(1);
      gone[1] = true;
    }
    const double now = 10.0 * (step + 1);
    for (std::size_t i = 0; i < gone.size(); ++i) {
      if (gone[i]) continue;
      const double qps =
          40.0 + 12.0 * static_cast<double>((static_cast<std::size_t>(step) * (i + 2) + i) % 5);
      tenants.push(i, now, {qps});
    }
    tenants.step();
  }
  if (!solo) {
    EXPECT_GT(tenants.batched_tenants(), 0.0)
        << "composition scenario must actually exercise batched groups";
  }
  return out.str();
}

TEST(FleetServer, BatchedPlanningBitIdenticalUnderCompositionChurn) {
  for (std::size_t threads : {1u, 2u, 8u}) {
    ThreadGuard guard{threads};
    const std::string batched = run_composition_scenario(false);
    const std::string solo = run_composition_scenario(true);
    EXPECT_FALSE(batched.empty());
    EXPECT_EQ(batched, solo)
        << "tenants entering/leaving mid-run must not perturb batched "
           "results at GRAF_THREADS=" << threads;
  }
}

// --- fleet.plan_cache.* delta mirroring (evictions) -------------------------

// Evictions must mirror into the fleet counter exactly like hits/misses: as
// per-step deltas against a per-tenant baseline, never re-counting history.
TEST(FleetServer, PlanCacheEvictionsMirroredAsDeltas) {
  FleetServer fleet;
  // Loose SLO: only feasible plans enter the cache, and only insertions
  // into a full cache evict.
  TenantSpec spec = make_spec("evict-app", 1000.0);
  spec.plan_cache_capacity = 1;   // every second distinct workload evicts
  spec.change_threshold = 0.0;    // defeat hysteresis: each push re-solves
  const TenantId id = fleet.add_tenant(spec);

  const double rates[] = {40.0, 60.0, 80.0, 95.0};
  double now = 1.0;
  for (double qps : rates) {
    fleet.push(qps_update(id, now, {qps}));
    fleet.step();
    now += 10.0;
    // The mirror tracks the controller's own counter step for step.
    EXPECT_EQ(fleet.metrics().counter("fleet.plan_cache.evictions").value(),
              static_cast<double>(
                  fleet.tenant(id)->controller().plan_cache_evictions()));
  }
  // Capacity 1 with 4 distinct workloads: every feasible insertion after the
  // first evicted one (only feasible plans are cached, so the exact count
  // depends on the learned model's verdicts — but several must land).
  EXPECT_GE(fleet.tenant(id)->controller().plan_cache_evictions(), 2u);
  EXPECT_EQ(fleet.metrics().counter("fleet.plan_cache.evictions").value(),
            static_cast<double>(
                fleet.tenant(id)->controller().plan_cache_evictions()));
}

TEST(FleetServer, DisabledPlanCacheReportsNoSpuriousEvictions) {
  FleetServer fleet;
  TenantSpec spec = make_spec("nocache-app", 1000.0);
  spec.change_threshold = 0.0;
  const TenantId id = fleet.add_tenant(spec);
  fleet.tenant(id)->controller().set_plan_cache_capacity(0);

  double now = 1.0;
  for (double qps : {40.0, 70.0, 95.0}) {
    fleet.push(qps_update(id, now, {qps}));
    fleet.step();
    now += 10.0;
  }
  EXPECT_EQ(fleet.tenant(id)->controller().plan_cache_evictions(), 0u);
  EXPECT_EQ(fleet.metrics().counter("fleet.plan_cache.evictions").value(), 0.0)
      << "a disabled cache must not report spurious evictions";
}

TEST(FleetServer, PerTenantPlanCacheCapacityFromSpec) {
  FleetServer fleet;
  // Two tenants on the same model, one with a deep cache (the make_spec
  // default of 64) and one capped at a single entry via TenantSpec — the
  // capacity must be honored per tenant, not fleet-wide.
  TenantSpec lean = make_spec("lean-app", 1000.0);
  lean.plan_cache_capacity = 1;
  lean.change_threshold = 0.0;
  TenantSpec deep = make_spec("deep-app", 1000.0);
  deep.change_threshold = 0.0;
  const TenantId lid = fleet.add_tenant(lean);
  const TenantId did = fleet.add_tenant(deep);

  // Alternate two workloads three times: the single-entry tenant thrashes
  // (each insertion evicts the other workload's entry, so repeats miss)
  // while the deep tenant serves every repeat from cache.
  double now = 1.0;
  for (int round = 0; round < 3; ++round)
    for (double qps : {40.0, 80.0}) {
      fleet.push(qps_update(lid, now, {qps}));
      fleet.push(qps_update(did, now, {qps}));
      fleet.step();
      now += 10.0;
    }
  EXPECT_EQ(fleet.tenant(lid)->controller().plan_cache_hits(), 0u)
      << "capacity-1 tenant: the alternating workload always evicted first";
  EXPECT_GE(fleet.tenant(lid)->controller().plan_cache_evictions(), 3u);
  EXPECT_EQ(fleet.tenant(did)->controller().plan_cache_hits(), 4u)
      << "default-capacity sibling serves every repeat from its own cache";
  EXPECT_EQ(fleet.tenant(did)->controller().plan_cache_evictions(), 0u);
}

TEST(FleetServer, BatchedGroupThrowFallsBackAndEveryTenantCommits) {
  FleetServer fleet;
  std::vector<TenantId> ids;
  for (int t = 0; t < 3; ++t)
    ids.push_back(fleet.add_tenant(make_spec("app-" + std::to_string(t), 200.0)));

  // All three share the model fingerprint and solver config, so they form
  // one batched group — then the middle tenant's retargeted SLO of -1
  // passes prepare() (begin_plan does not validate the SLO) and makes
  // solve_batch throw mid-group. The per-tenant fallback must leave the
  // two healthy tenants with committed plans and degrade the broken one
  // alone, with counters consistent.
  fleet.tenant(ids[1])->set_slo(-1.0);
  for (int t = 0; t < 3; ++t)
    fleet.push(qps_update(ids[static_cast<std::size_t>(t)], 1.0,
                          {55.0 + 5.0 * t}));
  const auto stats = fleet.step();
  EXPECT_EQ(stats.planned, 2u);
  EXPECT_EQ(stats.failures, 1u);
  EXPECT_TRUE(fleet.tenant(ids[0])->has_plan());
  EXPECT_TRUE(fleet.tenant(ids[2])->has_plan());
  EXPECT_FALSE(fleet.tenant(ids[0])->degraded());
  EXPECT_FALSE(fleet.tenant(ids[2])->degraded());
  EXPECT_FALSE(fleet.tenant(ids[1])->has_plan());
  EXPECT_TRUE(fleet.tenant(ids[1])->degraded());
  EXPECT_EQ(fleet.tenant(ids[1])->failures(), 1u);
  EXPECT_EQ(fleet.metrics().counter("fleet.plans").value(), 2.0);
  EXPECT_EQ(fleet.metrics().counter("fleet.tenant_failures").value(), 1.0);

  // The healthy tenants' fallback plans must equal a from-scratch solo
  // solve — the fallback re-runs each member through its own pipeline.
  FleetServer ref;
  const TenantId rid = ref.add_tenant(make_spec("app-0", 200.0));
  ref.push(qps_update(rid, 1.0, {55.0}));
  ref.step();
  EXPECT_EQ(ref.tenant(rid)->last_plan().instances,
            fleet.tenant(ids[0])->last_plan().instances);

  // Recovery: a sane SLO on the broken tenant re-solves on the next step.
  fleet.tenant(ids[1])->set_slo(200.0);
  fleet.push(qps_update(ids[1], 2.0, {60.0}));
  EXPECT_EQ(fleet.step().planned, 1u);
  EXPECT_FALSE(fleet.tenant(ids[1])->degraded());
}

// --- Admission and ingest validation ----------------------------------------

// A spec rejected mid-admission must leave nothing behind: no serving handle
// attached to the registry key (the corrected retry's promote would swap a
// freed handle) and no claimed slot.
TEST(FleetServer, RejectedAdmissionLeavesNoHandleOrSlotBehind) {
  FleetServer fleet;
  TenantSpec bad = make_spec("retry-app", 200.0);
  bad.max_instances = {0, 4};  // set_max_instances rejects a zero cap
  EXPECT_THROW(fleet.add_tenant(bad), std::invalid_argument);
  EXPECT_EQ(fleet.tenant_count(), 0u);
  EXPECT_FALSE(fleet.find("retry-app", 200.0).has_value());

  TenantSpec good = make_spec("retry-app", 200.0);
  good.max_instances = {4, 4};
  const TenantId id = fleet.add_tenant(good);
  EXPECT_EQ(id.slot, 0u) << "the rejected spec must not leak its slot";
  Tenant* t = fleet.tenant(id);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->handle().acquire(), fleet.registry().active(t->key()));

  // A later promote on the key swaps only live handles.
  const std::uint64_t v2 = fleet.registry().publish(t->key(), trained_model(), {});
  ASSERT_TRUE(fleet.registry().promote(t->key(), v2));
  EXPECT_EQ(t->handle().acquire(), fleet.registry().active(t->key()));
  fleet.push(qps_update(id, 1.0, {60.0}));
  EXPECT_EQ(fleet.step().planned, 1u);
  EXPECT_FALSE(t->degraded());

  // A spec that could never plan is rejected before registry.publish: it
  // publishes no version under its key and claims no slot. Each of these
  // was once admitted and then degraded, or reached undefined behaviour
  // (a NaN SLO in the model key's integer cast, a zero unit in Eq. 7).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::pair<const char*, void (*)(TenantSpec&, double)> broken[] = {
      {"NaN slo", [](TenantSpec& s, double n) { s.slo_ms = n; }},
      {"negative slo", [](TenantSpec& s, double) { s.slo_ms = -5.0; }},
      {"lo > hi", [](TenantSpec& s, double) { s.lo[0] = s.hi[0] + 1.0; }},
      {"NaN bound", [](TenantSpec& s, double n) { s.hi[1] = n; }},
      {"zero unit", [](TenantSpec& s, double) { s.unit[0] = 0.0; }},
      {"NaN fan-out", [](TenantSpec& s, double n) { s.fanout[0][1] = n; }},
      {"negative change threshold",
       [](TenantSpec& s, double) { s.change_threshold = -1.0; }},
      {"NaN validation error",
       [](TenantSpec& s, double n) { s.meta.val_error_pct = n; }},
  };
  const serve::ModelKey bad_key{"bad-app", 250.0};
  for (const auto& [what, breaks] : broken) {
    TenantSpec spec = make_spec(bad_key.application, bad_key.slo_ms);
    breaks(spec, nan);
    EXPECT_THROW(fleet.add_tenant(spec), std::invalid_argument) << what;
    EXPECT_EQ(fleet.tenant_count(), 1u) << what;
    EXPECT_TRUE(fleet.registry().versions(bad_key).empty())
        << what << " published a version";
  }
  const TenantId next = fleet.add_tenant(make_spec(bad_key.application, bad_key.slo_ms));
  EXPECT_EQ(next.slot, 1u) << "a rejected spec must not leak its slot";
}

// Pushed rates are validated at drain: a NaN, infinite or negative rate
// never reaches the solver or a plan-cache key. The update is counted under
// fleet.ingest.rejected{cause} and the tenant holds its last plan through
// the signal-loss path.
TEST(FleetServer, NonFiniteOrNegativeRatesAreRejectedAtDrain) {
  FleetServer fleet;
  // Loose SLO: only feasible plans enter the plan cache.
  const TenantId single = fleet.add_tenant(make_spec("one-api", 1000.0));
  TenantSpec dual_spec = make_spec("two-api", 1000.0);
  dual_spec.fanout = {{1.0, 1.0}, {1.0, 1.0}};
  const TenantId dual = fleet.add_tenant(dual_spec);
  fleet.push(qps_update(single, 1.0, {60.0}));
  fleet.push(qps_update(dual, 1.0, {40.0, 20.0}));
  ASSERT_EQ(fleet.step().planned, 2u);

  struct Probe {
    TenantId id;
    std::vector<Qps> good, bad;
    const char* cause;
  };
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Probe probes[] = {{single, {60.0}, {inf}, "inf"},
                          {single, {60.0}, {nan}, "nan"},
                          {dual, {40.0, 20.0}, {80.0, -5.0}, "negative"}};
  double now = 2.0;
  for (const Probe& p : probes) {
    SCOPED_TRACE(p.cause);
    Tenant* t = fleet.tenant(p.id);
    ASSERT_TRUE(t->has_plan());
    const std::vector<int> held = t->last_plan().instances;
    telemetry::MetricsRegistry& m = t->metrics();
    const double nan_faults = m.counter("faults.solver_nan").value();
    const double iterations = m.counter("core.solver_iterations_total").value();
    const std::uint64_t hits = t->controller().plan_cache_hits();
    const std::uint64_t misses = t->controller().plan_cache_misses();
    const std::uint64_t losses = t->signal_losses();

    fleet.push(qps_update(p.id, now, p.bad));
    const FleetServer::StepStats stats = fleet.step();
    now += 1.0;
    EXPECT_EQ(stats.planned, 0u);
    EXPECT_EQ(stats.failures, 0u);
    EXPECT_EQ(
        fleet.metrics().counter("fleet.ingest.rejected", {{"cause", p.cause}}).value(), 1.0);
    EXPECT_EQ(t->signal_losses(), losses + 1);
    EXPECT_EQ(t->last_plan().instances, held) << "the last plan must hold";
    EXPECT_EQ(m.counter("faults.solver_nan").value(), nan_faults);
    EXPECT_EQ(m.counter("core.solver_iterations_total").value(), iterations);
    EXPECT_EQ(t->controller().plan_cache_misses(), misses) << "no cache key computed";

    // The cached entry survived: the next valid push answers from it.
    fleet.push(qps_update(p.id, now, p.good));
    EXPECT_EQ(fleet.step().planned, 1u);
    now += 1.0;
    EXPECT_EQ(t->controller().plan_cache_hits(), hits + 1);
    EXPECT_EQ(m.counter("core.solver_iterations_total").value(), iterations);
    EXPECT_FALSE(t->degraded());
  }
}

// --- GrafController: the fleet driven by a simulated cluster ---------------

/// `services` services with `initial` replicas each; every API calls service
/// 0, which calls the rest in one parallel stage. make_spec's shape is
/// (2 services, 1 API).
sim::Cluster shaped_cluster(int services, int apis, int initial) {
  std::vector<sim::ServiceConfig> svcs;
  for (int s = 0; s < services; ++s)
    svcs.push_back({.name = "svc" + std::to_string(s), .unit_quota = 500.0,
                    .initial_instances = initial, .demand_mean_ms = 5.0});
  sim::CallNode root{.service = 0};
  std::vector<sim::CallNode> stage;
  for (int s = 1; s < services; ++s) stage.push_back({.service = s});
  root.stages.push_back(std::move(stage));
  std::vector<sim::Api> api_list;
  for (int a = 0; a < apis; ++a)
    api_list.push_back({"api" + std::to_string(a), root});
  return sim::Cluster{svcs, api_list, {.seed = 5}};
}

TEST(GrafController, ReattachAppliesThePlanInForce) {
  GrafController graf{make_spec("checkout", 200.0),
                      {.control_interval = 2.0, .rate_window = 4.0}};
  sim::Cluster first = shaped_cluster(2, 1, 1);
  graf.attach(first, 30.0);
  workload::OpenLoopConfig g;
  g.rate = workload::Schedule::constant(60.0);
  workload::OpenLoopGenerator gen{first, g};
  gen.start(30.0);
  first.run_until(30.0);
  ASSERT_TRUE(graf.tenant().has_plan());
  const std::vector<int> in_force = graf.tenant().last_plan().instances;

  // A fresh cluster far from the plan: it carries the plan as soon as it is
  // attached, although no plan change is left to notify.
  constexpr int kInitial = 9;
  sim::Cluster second = shaped_cluster(2, 1, kInitial);
  ASSERT_NE(in_force, std::vector<int>(2, kInitial));
  graf.attach(second, 60.0);
  for (std::size_t s = 0; s < in_force.size(); ++s)
    EXPECT_EQ(second.service(static_cast<int>(s)).target_count(), in_force[s]);
}

TEST(GrafController, AttachRejectsAMismatchedCluster) {
  GrafController graf{make_spec("checkout", 200.0)};
  sim::Cluster three_services = shaped_cluster(3, 1, 1);
  EXPECT_THROW(graf.attach(three_services, 10.0), std::invalid_argument);
  sim::Cluster two_apis = shaped_cluster(2, 2, 1);
  EXPECT_THROW(graf.attach(two_apis, 10.0), std::invalid_argument);
  sim::Cluster matching = shaped_cluster(2, 1, 1);
  EXPECT_NO_THROW(graf.attach(matching, 10.0));
}

}  // namespace
}  // namespace graf::fleet
