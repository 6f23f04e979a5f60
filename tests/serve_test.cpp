// Model store + online serving subsystem (src/serve): registry versioning
// with promote/rollback, hot-swap through the ServingHandle and into the
// ResourceController, and the OnlineTrainer's drift -> fine-tune ->
// validate -> promote loop, including automatic rollback when a promoted
// model regresses on live traffic.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <latch>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/configuration_solver.h"
#include "core/resource_controller.h"
#include "core/workload_analyzer.h"
#include "gnn/latency_model.h"
#include "serve/model_registry.h"
#include "serve/online_trainer.h"
#include "serve/serving_handle.h"

namespace graf::serve {
namespace {

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

/// Ground truth parameterized by per-service demand (core-ms per request):
/// shifting the demand vector mid-run is the "workload regime drift" the
/// online trainer must recover from.
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

const std::vector<double> kRegimeA{20.0, 40.0};
const std::vector<double> kRegimeB{45.0, 90.0};   // drifted: ~2.2x the demand
const std::vector<double> kRegimeC{90.0, 180.0};  // second drift, harsher

/// Model trained on regime A, published + promoted as v1. The expensive
/// initial training runs once for the whole suite; each test publishes a
/// fresh clone into its own registry.
struct ServeFixture : ::testing::Test {
  static gnn::LatencyModel& trained_initial() {
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

  ServeFixture() : key{.application = "drift-app", .slo_ms = 200.0} {
    gnn::LatencyModel initial = trained_initial().clone();
    baseline_err =
        initial.evaluate_accuracy(regime_dataset(kRegimeA, 200, 2)).mean_abs_pct_error;

    CheckpointMeta meta{.train_samples = 1200,
                        .val_error_pct = baseline_err, .created_sim_time = 0.0};
    v1 = registry.publish(key, initial, meta);
    registry.promote(key, v1);
    registry.attach_handle(key, &handle);
  }

  OnlineTrainerConfig trainer_cfg() const {
    OnlineTrainerConfig cfg;
    cfg.window_capacity = 360;
    cfg.min_samples = 240;
    cfg.cooldown = 60;
    cfg.ewma_alpha = 0.1;
    cfg.drift_factor = 2.5;
    cfg.drift_floor_pct = 15.0;
    cfg.fine_tune = {.iterations = 700, .batch_size = 64, .lr = 2e-3,
                     .eval_every = 100, .seed = 5};
    return cfg;
  }

  ModelKey key;
  ModelRegistry registry;
  ServingHandle handle;
  std::uint64_t v1 = 0;
  double baseline_err = 0.0;
};

// --- Registry + handle mechanics -------------------------------------------

TEST_F(ServeFixture, PromoteAndRollbackTrackVersionsAndSwapHandle) {
  EXPECT_EQ(registry.active_version(key), v1);
  EXPECT_FALSE(handle.empty());
  auto first = handle.acquire();

  gnn::LatencyModel second = first->clone();
  const std::uint64_t v2 =
      registry.publish(key, second, {.val_error_pct = 4.0, .created_sim_time = 10.0});
  EXPECT_EQ(v2, v1 + 1);
  EXPECT_EQ(registry.active_version(key), v1) << "publish must not change serving";

  EXPECT_TRUE(registry.promote(key, v2));
  EXPECT_EQ(registry.active_version(key), v2);
  EXPECT_NE(handle.acquire().get(), first.get()) << "promotion swaps the handle";
  EXPECT_EQ(registry.active_meta(key).val_error_pct, 4.0);

  EXPECT_TRUE(registry.rollback(key));
  EXPECT_EQ(registry.active_version(key), v1);
  EXPECT_EQ(handle.acquire().get(), first.get()) << "rollback restores v1";
  EXPECT_FALSE(registry.rollback(key)) << "no further history to unwind";

  EXPECT_FALSE(registry.promote(key, 99)) << "unknown version";
  EXPECT_EQ(registry.versions(key).size(), 2u);
}

TEST_F(ServeFixture, RegistryPersistsCheckpointsInStoreDir) {
  const std::string dir = ::testing::TempDir();
  ModelRegistry persistent{dir};
  auto model = handle.acquire();
  const std::uint64_t v =
      persistent.publish(key, *model, {.val_error_pct = 5.0, .created_sim_time = 3.0});
  const std::string path = persistent.checkpoint_path(key, v);
  ASSERT_FALSE(path.empty());

  ModelRegistry fresh;
  const std::uint64_t restored = fresh.restore(key, path);
  fresh.promote(key, restored);
  auto reloaded = fresh.active(key);
  ASSERT_NE(reloaded, nullptr);
  std::vector<double> w{50.0, 50.0};
  std::vector<double> q{900.0, 900.0};
  EXPECT_DOUBLE_EQ(model->predict(w, q), reloaded->predict(w, q));
  EXPECT_EQ(fresh.active_meta(key).application, key.application);
  std::remove(path.c_str());
}

TEST_F(ServeFixture, ResourceControllerFollowsHotSwappedModel) {
  auto model = handle.acquire();
  core::ConfigurationSolver solver{*model, {.max_iterations = 60}};
  core::WorkloadAnalyzer analyzer{1, 2};
  analyzer.set_fanout({{1.0, 1.0}});
  core::ResourceController rc{*model, solver, analyzer,
                              {300.0, 300.0}, {2000.0, 2000.0}, {500.0, 500.0}};
  rc.set_serving_handle(&handle);
  EXPECT_EQ(&rc.active_model(), model.get());

  // Swap in a model fine-tuned for the drifted regime; the very next
  // allocation decision must solve through it without reconstruction.
  gnn::LatencyModel drifted = model->clone();
  gnn::TrainConfig tcfg{.iterations = 400, .batch_size = 64, .lr = 2e-3,
                        .eval_every = 100, .seed = 11};
  drifted.fit(regime_dataset(kRegimeB, 600, 31), {}, tcfg);
  const std::uint64_t v2 =
      registry.publish(key, drifted, {.val_error_pct = 6.0, .created_sim_time = 50.0});
  registry.promote(key, v2);

  EXPECT_NE(&rc.active_model(), model.get());
  std::vector<Qps> api{60.0};
  core::AllocationPlan plan = rc.plan(api, 200.0);
  EXPECT_EQ(plan.quota.size(), 2u);
  // The drifted regime needs visibly more CPU for the same SLO than the
  // regime-A model would have allocated.
  core::AllocationPlan old_plan = [&] {
    core::ConfigurationSolver s2{*model, {.max_iterations = 60}};
    core::ResourceController rc2{*model, s2, analyzer,
                                 {300.0, 300.0}, {2000.0, 2000.0}, {500.0, 500.0}};
    return rc2.plan(api, 200.0);
  }();
  EXPECT_GT(plan.quota[0] + plan.quota[1], old_plan.quota[0] + old_plan.quota[1]);
}

// --- Drift -> fine-tune -> promote -----------------------------------------

TEST_F(ServeFixture, DriftTriggersFineTuneAndRecoversError) {
  OnlineTrainer trainer{registry, handle, key, trainer_cfg()};
  auto initial_model = handle.acquire();
  const double threshold = trainer.drift_threshold_pct();

  // The workload mix shifts: stream regime-B samples. The promoted model's
  // live error climbs past the drift threshold, a fine-tune fires, and the
  // validated candidate is hot-swapped in.
  gnn::Dataset live = regime_dataset(kRegimeB, 420, 40);
  bool swapped = false;
  double now = 100.0;
  for (const gnn::Sample& s : live) {
    swapped |= trainer.ingest(s, now);
    now += 1.0;
  }
  const OnlineTrainerStats& st = trainer.stats();
  EXPECT_GE(st.drift_events, 1u);
  EXPECT_GE(st.fine_tunes, 1u);
  EXPECT_GE(st.promotions, 1u);
  EXPECT_TRUE(swapped);
  EXPECT_EQ(st.rollbacks, 0u);
  EXPECT_GT(registry.active_version(key), v1);
  EXPECT_NE(handle.acquire().get(), initial_model.get());

  // Keep streaming the new regime: the promoted fine-tuned model's live
  // error must now sit below the (old) drift threshold.
  gnn::Dataset cont = regime_dataset(kRegimeB, 120, 41);
  for (const gnn::Sample& s : cont) trainer.ingest(s, now += 1.0);
  EXPECT_LT(trainer.stats().error_ewma_pct, threshold);
  EXPECT_LT(trainer.stats().error_ewma_pct, 30.0)
      << "fine-tuned model should predict the drifted regime well";

  // Allocation never paused: the handle always held a model.
  EXPECT_FALSE(handle.empty());
  EXPECT_GE(handle.swap_count(), 2u);  // initial attach + >=1 promotion
}

TEST_F(ServeFixture, RegressingCandidateIsRejectedAtHoldoutGate) {
  OnlineTrainerConfig cfg = trainer_cfg();
  // Cripple the fine-tune budget: two giant steps destroy the clone, so the
  // candidate must lose the holdout comparison and never reach serving.
  cfg.fine_tune = {.iterations = 2, .batch_size = 32, .lr = 5.0,
                   .eval_every = 2, .seed = 5};
  OnlineTrainer trainer{registry, handle, key, cfg};
  auto initial_model = handle.acquire();

  gnn::Dataset live = regime_dataset(kRegimeB, 360, 50);
  double now = 100.0;
  for (const gnn::Sample& s : live) trainer.ingest(s, now += 1.0);

  const OnlineTrainerStats& st = trainer.stats();
  EXPECT_GE(st.fine_tunes, 1u);
  EXPECT_GE(st.rejects, 1u);
  EXPECT_EQ(st.promotions, 0u);
  EXPECT_EQ(registry.active_version(key), v1) << "serving model unchanged";
  EXPECT_EQ(handle.acquire().get(), initial_model.get());
}

TEST_F(ServeFixture, WatchdogRollsBackPromotionThatRegressesLive) {
  OnlineTrainerConfig cfg = trainer_cfg();
  // Long watch window: the second drift must land while the freshly
  // promoted model is still under observation.
  cfg.watch_samples = 600;
  cfg.regress_factor = 1.5;
  OnlineTrainer trainer{registry, handle, key, cfg};

  // Drift to regime B and let a good candidate promote.
  gnn::Dataset live = regime_dataset(kRegimeB, 420, 60);
  double now = 100.0;
  for (const gnn::Sample& s : live) trainer.ingest(s, now += 1.0);
  ASSERT_GE(trainer.stats().promotions, 1u);
  const std::uint64_t promoted = registry.active_version(key);
  ASSERT_GT(promoted, v1);

  // Immediately drift again, harder, inside the watch window: the freshly
  // promoted model regresses on live traffic and is unwound automatically.
  gnn::Dataset harsher = regime_dataset(kRegimeC, 60, 61);
  bool rolled_back = false;
  for (const gnn::Sample& s : harsher) {
    rolled_back |= trainer.ingest(s, now += 1.0);
    if (trainer.stats().rollbacks > 0) break;
  }
  EXPECT_TRUE(rolled_back);
  EXPECT_GE(trainer.stats().rollbacks, 1u);
  EXPECT_LT(registry.active_version(key), promoted)
      << "rollback restored the previous version";
}

TEST_F(ServeFixture, TrainerRequiresPromotedModel) {
  ModelRegistry empty;
  ServingHandle h;
  EXPECT_THROW(
      (OnlineTrainer{empty, h, {.application = "none", .slo_ms = 1.0}, {}}),
      std::invalid_argument);
}

// --- Ingest validation --------------------------------------------------------

// A malformed sample reaches neither the drift EWMA nor the fine-tune
// window. Before ingest checked its input, one NaN-latency sample left the
// EWMA at NaN for good: 50 samples at 90% error then raised no drift
// event, and the rollback watchdog read the same poisoned EWMA.
TEST_F(ServeFixture, MalformedSamplesAreRejectedBeforeTheEwma) {
  telemetry::MetricsRegistry metrics;
  OnlineTrainerConfig cfg = trainer_cfg();
  cfg.min_samples = 1000;  // no fine-tune: this test watches the EWMA only
  OnlineTrainer trainer{registry, handle, key, cfg};
  trainer.set_metrics(&metrics);
  const double baseline = trainer.stats().error_ewma_pct;

  const gnn::Sample good = regime_dataset(kRegimeA, 1, 70).front();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::pair<const char*, void (*)(gnn::Sample&, double, double)> broken[] = {
      {"latency", [](gnn::Sample& s, double n, double) { s.latency_ms = n; }},
      {"latency", [](gnn::Sample& s, double, double) { s.latency_ms = -1.0; }},
      {"workload", [](gnn::Sample& s, double, double i) { s.workload[0] = i; }},
      {"workload", [](gnn::Sample& s, double, double) { s.workload[1] = -3.0; }},
      {"quota", [](gnn::Sample& s, double, double) { s.quota[0] = 0.0; }},
      {"quota", [](gnn::Sample& s, double n, double) { s.quota[1] = n; }},
      {"dimension", [](gnn::Sample& s, double, double) { s.quota.pop_back(); }},
  };
  for (const auto& [cause, breaks] : broken) {
    gnn::Sample s = good;
    breaks(s, nan, inf);
    EXPECT_FALSE(trainer.ingest(s, 1.0)) << cause;
  }
  EXPECT_EQ(trainer.stats().rejected_samples, std::size(broken));
  EXPECT_EQ(trainer.stats().samples_seen, 0u);
  EXPECT_EQ(trainer.window_size(), 0u);
  EXPECT_EQ(trainer.stats().error_ewma_pct, baseline);
  const std::pair<const char*, double> per_cause[] = {
      {"latency", 2.0}, {"workload", 2.0}, {"quota", 2.0}, {"dimension", 1.0}};
  for (const auto& [cause, n] : per_cause)
    EXPECT_EQ(metrics.counter("serve.rejected_samples", {{"cause", cause}}).value(), n)
        << cause;

  // The trainer still drifts on 50 samples at 90% error.
  gnn::Sample off = good;
  off.latency_ms = handle.acquire()->predict(good.workload, good.quota) / 1.9;
  for (int i = 0; i < 50; ++i) trainer.ingest(off, 2.0 + i);
  EXPECT_TRUE(std::isfinite(trainer.stats().error_ewma_pct));
  EXPECT_GT(trainer.stats().error_ewma_pct, 80.0);
  EXPECT_EQ(trainer.stats().drift_events, 1u);
  EXPECT_EQ(trainer.window_size(), 50u);
}

// --- Multi-handle attach (fleet regression) ---------------------------------

// Regression: Entry held a single ServingHandle*, so a second attach for the
// same key silently dropped the first tenant's handle — it never swapped on
// promote again, serving a stale model forever with a never-bumped plan-cache
// generation. Every attached handle must track promotions.
TEST_F(ServeFixture, PromoteSwapsEveryAttachedHandle) {
  ServingHandle second;
  registry.attach_handle(key, &second);
  EXPECT_EQ(second.acquire().get(), handle.acquire().get())
      << "attach syncs the new handle to the active model";

  gnn::LatencyModel next = handle.acquire()->clone();
  const std::uint64_t v2 = registry.publish(key, next, {});
  ASSERT_TRUE(registry.promote(key, v2));
  EXPECT_EQ(handle.acquire().get(), registry.active(key).get());
  EXPECT_EQ(second.acquire().get(), registry.active(key).get())
      << "both tenants' handles must follow the promotion";

  // Detached handles stop following (fleet tenants detach in their dtor).
  registry.detach_handle(key, &second);
  const auto frozen = second.acquire();
  const std::uint64_t v3 = registry.publish(key, next, {});
  ASSERT_TRUE(registry.promote(key, v3));
  EXPECT_EQ(second.acquire().get(), frozen.get());
  EXPECT_EQ(handle.acquire().get(), registry.active(key).get());
}

// The end-to-end consequence of the bug above: two ResourceControllers on
// two handles sharing one registry key. After a promote, *both* must solve
// through the new model and invalidate their plan caches (the audit found
// no stale-generation window inside refresh_model() itself — the window was
// the dropped handle).
TEST_F(ServeFixture, TwoControllersSharingKeyBothFollowPromotion) {
  auto make_stack = [](ServingHandle& h, gnn::LatencyModel& m) {
    struct Stack {
      core::ConfigurationSolver solver;
      core::WorkloadAnalyzer analyzer;
      core::ResourceController rc;
      Stack(ServingHandle& h, gnn::LatencyModel& m)
          : solver{m, {.max_iterations = 400}},
            analyzer{1, 2},
            rc{m, solver, analyzer, {200.0, 200.0}, {2000.0, 2000.0},
               {500.0, 500.0}} {
        analyzer.set_fanout({{1.0, 1.0}});
        rc.set_serving_handle(&h);
      }
    };
    return std::make_unique<Stack>(h, m);
  };

  ServingHandle second;
  registry.attach_handle(key, &second);
  auto model_a = handle.acquire();
  auto stack_a = make_stack(handle, *model_a);
  auto stack_b = make_stack(second, *model_a);

  // A modest workload + loose SLO keeps the short-budget solve feasible
  // inside the 2000mc bounds — only feasible, non-degraded plans are
  // cacheable, and the cache is the tell below.
  const std::vector<Qps> api{30.0};
  const double slo = 500.0;
  ASSERT_TRUE(stack_a->rc.plan(api, slo).feasible);
  ASSERT_TRUE(stack_b->rc.plan(api, slo).feasible);
  (void)stack_a->rc.plan(api, slo);  // cache hit
  (void)stack_b->rc.plan(api, slo);
  EXPECT_EQ(stack_a->rc.plan_cache_hits(), 1u);
  EXPECT_EQ(stack_b->rc.plan_cache_hits(), 1u);

  gnn::LatencyModel next = model_a->clone();
  const std::uint64_t v2 = registry.publish(key, next, {});
  ASSERT_TRUE(registry.promote(key, v2));

  // Both controllers pick up the swap on their next plan: same workload is
  // a cache *miss* (generation bumped), and both serve the new model.
  (void)stack_a->rc.plan(api, slo);
  (void)stack_b->rc.plan(api, slo);
  EXPECT_EQ(stack_a->rc.plan_cache_hits(), 1u);
  EXPECT_EQ(stack_b->rc.plan_cache_hits(), 1u);
  EXPECT_EQ(&stack_a->rc.active_model(), registry.active(key).get());
  EXPECT_EQ(&stack_b->rc.active_model(), registry.active(key).get());
}

// The mirror image of the promotion test: a rollback() is also a serving
// swap, and every attached controller must notice. Regression guard for the
// multi-attach path — a rollback that only swapped the first handle would
// leave the second tenant solving through the withdrawn model with a warm
// (now wrong) plan cache.
TEST_F(ServeFixture, RollbackBumpsGenerationForEveryAttachedController) {
  auto make_stack = [](ServingHandle& h, gnn::LatencyModel& m) {
    struct Stack {
      core::ConfigurationSolver solver;
      core::WorkloadAnalyzer analyzer;
      core::ResourceController rc;
      Stack(ServingHandle& h, gnn::LatencyModel& m)
          : solver{m, {.max_iterations = 400}},
            analyzer{1, 2},
            rc{m, solver, analyzer, {200.0, 200.0}, {2000.0, 2000.0},
               {500.0, 500.0}} {
        analyzer.set_fanout({{1.0, 1.0}});
        rc.set_serving_handle(&h);
      }
    };
    return std::make_unique<Stack>(h, m);
  };

  ServingHandle second;
  registry.attach_handle(key, &second);
  auto model_v1 = handle.acquire();
  auto stack_a = make_stack(handle, *model_v1);
  auto stack_b = make_stack(second, *model_v1);

  // Promote v2 and plan through it: both controllers pin v2 and warm their
  // caches (the second plan on each is a hit).
  gnn::LatencyModel next = model_v1->clone();
  const std::uint64_t v2 = registry.publish(key, next, {});
  ASSERT_TRUE(registry.promote(key, v2));
  const std::vector<Qps> api{30.0};
  const double slo = 500.0;
  ASSERT_TRUE(stack_a->rc.plan(api, slo).feasible);
  ASSERT_TRUE(stack_b->rc.plan(api, slo).feasible);
  (void)stack_a->rc.plan(api, slo);
  (void)stack_b->rc.plan(api, slo);
  ASSERT_EQ(stack_a->rc.plan_cache_hits(), 1u);
  ASSERT_EQ(stack_b->rc.plan_cache_hits(), 1u);
  const std::uint64_t gen_a = stack_a->rc.model_generation();
  const std::uint64_t gen_b = stack_b->rc.model_generation();

  // Unwind to v1. Both controllers must re-resolve: same workload is a
  // cache *miss* (generation bumped on both), and both serve v1 again.
  ASSERT_TRUE(registry.rollback(key));
  ASSERT_EQ(registry.active_version(key), v1);
  (void)stack_a->rc.plan(api, slo);
  (void)stack_b->rc.plan(api, slo);
  EXPECT_EQ(stack_a->rc.plan_cache_hits(), 1u)
      << "rollback must invalidate the first controller's plan cache";
  EXPECT_EQ(stack_b->rc.plan_cache_hits(), 1u)
      << "rollback must invalidate the second controller's plan cache too";
  EXPECT_GT(stack_a->rc.model_generation(), gen_a);
  EXPECT_GT(stack_b->rc.model_generation(), gen_b);
  EXPECT_EQ(&stack_a->rc.active_model(), registry.active(key).get());
  EXPECT_EQ(&stack_b->rc.active_model(), registry.active(key).get());
  EXPECT_EQ(registry.active(key).get(), model_v1.get());
}

// --- Concurrent publish/promote (fleet makes this routine) ------------------

TEST_F(ServeFixture, ConcurrentPublishPromoteAgainstOneHandle) {
  // Two trainer-like threads race publish+promote for one key while the
  // handle is attached; a third continuously acquires through the handle
  // (the control loop). Correctness here is "no torn state": every acquire
  // sees a complete model, and the final active version is one of the
  // published ones. TSan/ASan legs make this a real race detector. The
  // publishers start only after the reader's first acquire, so the reader
  // has raced them at least once however the threads are scheduled.
  constexpr int kPerThread = 6;
  std::atomic<bool> stop{false};
  std::atomic<int> acquires{0};
  std::latch reader_started{1};
  std::thread reader{[&] {
    const auto acquire = [&] {
      if (handle.acquire() != nullptr) acquires.fetch_add(1, std::memory_order_relaxed);
    };
    acquire();
    reader_started.count_down();
    while (!stop.load(std::memory_order_relaxed)) {
      acquire();
      std::this_thread::yield();
    }
  }};
  auto publisher = [&](std::uint64_t seed) {
    gnn::LatencyModel mine = trained_initial().clone();
    reader_started.wait();
    for (int i = 0; i < kPerThread; ++i) {
      const std::uint64_t v =
          registry.publish(key, mine, {.train_samples = seed});
      registry.promote(key, v);
    }
  };
  std::thread t1{publisher, 1};
  std::thread t2{publisher, 2};
  t1.join();
  t2.join();
  stop.store(true);
  reader.join();

  EXPECT_GT(acquires.load(), 0);
  const auto versions = registry.versions(key);
  EXPECT_EQ(versions.size(), 1u + 2u * kPerThread);  // v1 + both threads
  const std::uint64_t active = registry.active_version(key);
  EXPECT_GE(active, 1u);
  EXPECT_LE(active, versions.size());
  EXPECT_EQ(handle.acquire().get(), registry.active(key).get())
      << "handle and registry must agree after the dust settles";
}

}  // namespace
}  // namespace graf::serve
