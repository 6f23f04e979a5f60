// Tests for the §6/§7 extensions: integer instance refinement, the
// partitioned (scalable) latency model, and the MIRAS-like baseline.
#include <gtest/gtest.h>

#include "apps/catalog.h"
#include "autoscalers/miras_like.h"
#include "core/integer_refiner.h"
#include "gnn/partitioned_model.h"
#include "workload/open_loop.h"

namespace graf {
namespace {

// ---- Shared synthetic model (same ground truth as core_test's) --------------

gnn::Dag chain2() {
  gnn::Dag d;
  d.add_node("a");
  d.add_node("b");
  d.add_edge(0, 1);
  return d;
}

gnn::Dataset hyperbola_dataset(std::size_t n, std::uint64_t seed) {
  Rng rng{seed};
  gnn::Dataset out;
  for (std::size_t i = 0; i < n; ++i) {
    gnn::Sample s;
    const double w = rng.uniform(20.0, 80.0);
    s.workload = {w, w};
    s.quota = {rng.uniform(300.0, 2000.0), rng.uniform(300.0, 2000.0)};
    s.latency_ms =
        40.0 * 1000.0 / s.quota[0] + 80.0 * 1000.0 / s.quota[1] + 0.8 * w;
    out.push_back(std::move(s));
  }
  return out;
}

gnn::LatencyModel& refiner_model() {
  static gnn::LatencyModel model = [] {
    gnn::MpnnConfig cfg;
    cfg.embed_dim = 8;
    cfg.mpnn_hidden = 8;
    cfg.readout_hidden = 24;
    cfg.dropout_p = 0.0;
    gnn::LatencyModel m{chain2(), cfg, 13};
    gnn::TrainConfig tc;
    tc.iterations = 2000;
    tc.batch_size = 64;
    tc.lr = 2e-3;
    tc.lr_decay_every = 700;
    tc.eval_every = 250;
    m.fit(hyperbola_dataset(2000, 17), {}, tc);
    return m;
  }();
  return model;
}

// ---- IntegerRefiner ----------------------------------------------------------

TEST(IntegerRefiner, RemovesSlackInstances) {
  core::IntegerRefiner refiner{refiner_model()};
  std::vector<double> w{40.0, 40.0};
  // Deliberately padded plan: 4 + 4 one-core instances where ~2 + 3 meet
  // a loose SLO.
  std::vector<int> instances{4, 4};
  std::vector<Millicores> unit{500.0, 500.0};
  std::vector<Millicores> lo{300.0, 300.0};
  const auto plan = refiner.refine(w, 300.0, instances, unit, lo);
  EXPECT_GT(plan.removed, 0u);
  EXPECT_LE(plan.instances[0], 4);
  EXPECT_LE(plan.instances[1], 4);
  EXPECT_DOUBLE_EQ(plan.saved_mc,
                   500.0 * static_cast<double>(plan.removed));
  // Still predicted feasible.
  EXPECT_LE(plan.predicted_ms, 300.0);
}

TEST(IntegerRefiner, RespectsLowerBoundsAndMinOne) {
  core::IntegerRefiner refiner{refiner_model()};
  std::vector<double> w{40.0, 40.0};
  std::vector<int> instances{1, 2};
  std::vector<Millicores> unit{1000.0, 1000.0};
  std::vector<Millicores> lo{900.0, 1800.0};  // second service can't shrink
  const auto plan = refiner.refine(w, 1e6, instances, unit, lo);
  EXPECT_EQ(plan.instances[0], 1);  // never below one instance
  EXPECT_EQ(plan.instances[1], 2);  // lower bound blocks removal
}

TEST(IntegerRefiner, TightSloBlocksRemoval) {
  core::IntegerRefiner refiner{refiner_model()};
  std::vector<double> w{70.0, 70.0};
  std::vector<int> instances{2, 2};
  std::vector<Millicores> unit{500.0, 500.0};
  std::vector<Millicores> lo{300.0, 300.0};
  // SLO below what even the full plan achieves: nothing may be removed.
  const std::vector<double> full_quota{1000.0, 1000.0};
  const auto full = refiner_model().predict(w, full_quota);
  const auto plan = refiner.refine(w, full * 0.5, instances, unit, lo);
  EXPECT_EQ(plan.removed, 0u);
}

TEST(IntegerRefiner, ValidatesDimensions) {
  core::IntegerRefiner refiner{refiner_model()};
  std::vector<double> w{40.0};
  std::vector<int> instances{2, 2};
  std::vector<Millicores> unit{500.0, 500.0};
  std::vector<Millicores> lo{300.0, 300.0};
  EXPECT_THROW(refiner.refine(w, 100.0, instances, unit, lo),
               std::invalid_argument);
}

// ---- partition_dag -----------------------------------------------------------

TEST(PartitionDag, CoversAllNodesOnce) {
  const auto dag = apps::make_dag(apps::social_network());
  const auto parts = gnn::partition_dag(dag, 4);
  std::vector<bool> seen(dag.node_count(), false);
  for (const auto& p : parts) {
    EXPECT_LE(p.size(), 4u);
    for (int n : p) {
      EXPECT_FALSE(seen[static_cast<std::size_t>(n)]);
      seen[static_cast<std::size_t>(n)] = true;
    }
  }
  for (bool b : seen) EXPECT_TRUE(b);
}

TEST(PartitionDag, SinglePartitionWhenLarge) {
  const auto dag = apps::make_dag(apps::bookinfo());
  EXPECT_EQ(gnn::partition_dag(dag, 100).size(), 1u);
  EXPECT_THROW(gnn::partition_dag(dag, 0), std::invalid_argument);
}

// ---- PartitionedLatencyModel --------------------------------------------------

TEST(PartitionedModel, ReadoutParamsShrinkPerPartition) {
  // For the 10-service Social Network, three-node partitions cut each
  // readout's input from 10*20 to <=3*20 embeddings. The MPNN stage is
  // replicated per partition, so total parameters grow there — the win is
  // the readout, which §6 identifies as the scalability bottleneck.
  const auto dag = apps::make_dag(apps::social_network());
  gnn::MpnnConfig cfg;
  gnn::LatencyModel mono{dag, cfg, 3};
  gnn::PartitionedLatencyModel part{dag, cfg, 3, 3};
  EXPECT_GE(part.partition_count(), 3u);
  // Per-partition readouts are sized to the partition (<= 3 * 20 = 60
  // units), so the total stays comparable to the monolithic model even
  // though the MPNN nets are replicated per partition — and it no longer
  // grows when services are added to new partitions.
  EXPECT_LT(part.param_count(), static_cast<std::size_t>(
                                    static_cast<double>(mono.param_count()) * 1.3));
}

TEST(PartitionedModel, TrainsOnSyntheticChain) {
  gnn::MpnnConfig cfg;
  cfg.embed_dim = 8;
  cfg.mpnn_hidden = 8;
  cfg.readout_hidden = 16;
  cfg.dropout_p = 0.0;
  gnn::PartitionedLatencyModel model{chain2(), cfg, 1, 7};
  EXPECT_EQ(model.partition_count(), 2u);
  gnn::TrainConfig tc;
  tc.iterations = 1500;
  tc.batch_size = 64;
  tc.lr = 2e-3;
  tc.lr_decay_every = 500;
  tc.eval_every = 250;
  auto hist = model.fit(hyperbola_dataset(1500, 31), hyperbola_dataset(200, 32), tc);
  EXPECT_LT(hist.best_val_loss, hist.val_loss.front());
  const auto acc = model.evaluate_accuracy(hyperbola_dataset(200, 33));
  EXPECT_LT(acc.mean_abs_pct_error, 25.0);
}

// The partitioned model trains through the loop the other models run: the
// final-only history at eval_every = 0, and the best-validation restore.
TEST(PartitionedModel, FitFollowsTrainConfig) {
  gnn::MpnnConfig cfg;
  cfg.embed_dim = 8;
  cfg.mpnn_hidden = 8;
  cfg.readout_hidden = 16;
  cfg.dropout_p = 0.25;  // noisy steps: the validation loss does not fall monotonically
  const gnn::Dataset train = hyperbola_dataset(400, 51);
  const gnn::Dataset val = hyperbola_dataset(100, 52);
  gnn::TrainConfig tc;
  tc.iterations = 300;
  tc.batch_size = 64;
  tc.lr = 1e-2;
  tc.eval_every = 0;

  gnn::PartitionedLatencyModel last{chain2(), cfg, 1, 7};
  const gnn::TrainHistory final_only = last.fit(train, val, tc);
  ASSERT_EQ(final_only.iteration.size(), 1u);
  EXPECT_EQ(final_only.iteration[0], tc.iterations);

  tc.eval_every = 20;
  gnn::PartitionedLatencyModel best{chain2(), cfg, 1, 7};
  const gnn::TrainHistory hist = best.fit(train, val, tc);
  ASSERT_NE(hist.val_loss.back(), hist.best_val_loss)
      << "the best point must not be the last one, or the restore goes unchecked";
  EXPECT_EQ(best.evaluate_loss(val, tc.theta_under, tc.theta_over), hist.best_val_loss);
}

TEST(PartitionedModel, PredictionMonotoneInQuota) {
  gnn::MpnnConfig cfg;
  cfg.embed_dim = 8;
  cfg.mpnn_hidden = 8;
  cfg.readout_hidden = 16;
  cfg.dropout_p = 0.0;
  gnn::PartitionedLatencyModel model{chain2(), cfg, 1, 9};
  gnn::TrainConfig tc;
  tc.iterations = 1200;
  tc.batch_size = 64;
  tc.lr = 2e-3;
  tc.eval_every = 300;
  model.fit(hyperbola_dataset(1200, 41), {}, tc);
  std::vector<double> w{50.0, 50.0};
  std::vector<double> q_small{400.0, 400.0};
  std::vector<double> q_big{1600.0, 1600.0};
  EXPECT_GT(model.predict(w, q_small), model.predict(w, q_big));
}

// ---- MirasLike ---------------------------------------------------------------

TEST(MirasLike, ScalesUpWhenQueuesGrow) {
  auto topo = apps::online_boutique();
  sim::Cluster c = apps::make_cluster(topo, {.seed = 51});
  autoscalers::MirasLike miras{{.sync_period = 5.0}};
  miras.attach(c, 200.0);
  workload::OpenLoopConfig g;
  g.rate = workload::Schedule::constant(250.0);
  g.api_weights = {1.0, 0.0, 0.0};
  workload::OpenLoopGenerator gen{c, g};
  gen.start(200.0);
  c.run_until(200.0);
  EXPECT_GT(c.total_ready_instances(), 14);
}

TEST(MirasLike, ScalesDownWhenIdle) {
  auto topo = apps::bookinfo();
  sim::Cluster c = apps::make_cluster(topo, {.seed = 53});
  for (int s = 0; s < 4; ++s) c.service(s).force_scale(6);
  autoscalers::MirasLike miras{{.sync_period = 5.0, .scale_down_cooldown = 20.0}};
  miras.attach(c, 600.0);
  c.run_until(600.0);  // no load at all
  EXPECT_LT(c.total_ready_instances(), 24);
}

}  // namespace
}  // namespace graf
