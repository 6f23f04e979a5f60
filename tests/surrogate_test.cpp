// Distilled fast-path surrogate planning (DESIGN.md §3.14): the
// SurrogateModel/SurrogateDistiller pair, the two-tier TieredPlanner
// (fast-path accept, trust-band escalation bit-identical to the full
// solve), the ResourceController plan-cache audit (a planner switch never
// serves the previous planner's plans), the <5% escalation-rate bar on all
// four paper topologies, and the §3.7/§3.13 determinism contracts:
// distillation and tiered solves replay bit-identically at GRAF_THREADS=1
// and 8, and fleet-batched surrogate groups match the per-tenant path bit
// for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "apps/catalog.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/resource_controller.h"
#include "core/tiered_planner.h"
#include "core/workload_analyzer.h"
#include "fleet/fleet_server.h"
#include "gnn/latency_model.h"
#include "gnn/surrogate_model.h"

namespace graf {
namespace {

// --- shared tiny trained teacher (one expensive train for the suite) --------

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
const std::vector<double> kRegion{100.0, 100.0};
const std::vector<Millicores> kLo{200.0, 200.0};
const std::vector<Millicores> kHi{2000.0, 2000.0};

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

/// Shortened distillation schedule: plenty for low single-digit fidelity on
/// the 2-node teacher, cheap enough to run several times in one suite.
gnn::DistillConfig tiny_distill() {
  gnn::DistillConfig cfg;
  cfg.samples = 2048;
  cfg.model.hidden = 64;
  cfg.train.iterations = 4000;
  cfg.workload_floor = 0.2;  // stay on the teacher's trained region
  return cfg;
}

/// The plain pass: distill_for_planner with no rollout rounds, so the SLO
/// and the solver config go unused (the 1000 ms is a placeholder; any SLO,
/// zero or NaN included, will do).
gnn::SurrogateDistiller::Result plain_distill() {
  return core::TieredPlanner::distill_for_planner(
      trained_model(), kRegion, kLo, kHi, 1000.0, {.base = tiny_distill(), .rounds = 0}, {});
}

gnn::SurrogateDistiller::Result& distilled() {
  static gnn::SurrogateDistiller::Result r = plain_distill();
  return r;
}

std::uint64_t mix(std::uint64_t h, double v) {
  h ^= std::bit_cast<std::uint64_t>(v);
  h *= 1099511628211ULL;
  return h;
}

struct ThreadGuard {
  explicit ThreadGuard(std::size_t n) { set_global_threads(n); }
  ~ThreadGuard() { set_global_threads(0); }
};

// --- distillation -----------------------------------------------------------

TEST(SurrogateDistill, HeldOutFidelityIsLowSingleDigits) {
  const gnn::SurrogateDistiller::Result& r = distilled();
  EXPECT_EQ(r.report.samples, 2048u);
  EXPECT_LT(r.report.val_mean_abs_pct_error, 5.0)
      << "surrogate-vs-teacher held-out MAPE";
  EXPECT_FALSE(r.report.history.iteration.empty());
}

// The fixture's plain pass, pinned bit for bit: the surrogate's weights,
// its held-out error and its training history, recorded from
// SurrogateDistiller::distill.
TEST(SurrogateDistill, PlainPassIsPinned) {
  gnn::SurrogateDistiller::Result& r = distilled();
  EXPECT_EQ(gnn::SurrogateModel::fingerprint(r.model), 16316789731794472863ULL);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.report.val_mean_abs_pct_error),
            4612967171783259557ULL);
  const gnn::TrainHistory& hist = r.report.history;
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < hist.iteration.size(); ++i) {
    h = mix(h, static_cast<double>(hist.iteration[i]));
    h = mix(h, hist.train_loss[i]);
    h = mix(h, hist.val_loss[i]);
  }
  EXPECT_EQ(mix(h, hist.best_val_loss), 9094745536963000457ULL);
}

TEST(SurrogateDistill, DeterministicSamplesAndWeights) {
  gnn::Dataset a = gnn::SurrogateDistiller::sample_teacher(
      trained_model(), kRegion, kLo, kHi, 128, 99);
  gnn::Dataset b = gnn::SurrogateDistiller::sample_teacher(
      trained_model(), kRegion, kLo, kHi, 128, 99);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].workload, b[i].workload);
    EXPECT_EQ(a[i].quota, b[i].quota);
    EXPECT_EQ(a[i].latency_ms, b[i].latency_ms) << "teacher label i=" << i;
  }

  gnn::SurrogateDistiller::Result again = plain_distill();
  EXPECT_EQ(gnn::SurrogateModel::fingerprint(again.model),
            gnn::SurrogateModel::fingerprint(distilled().model))
      << "same teacher + config must distill bit-identical weights";
}

// Only the rollouts read the SLO: with rounds > 0 a NaN SLO is refused up
// front, before the fit, and at rounds = 0 any SLO is accepted.
TEST(SurrogateDistill, SloIsCheckedOnlyWhereTheRolloutsReadIt) {
  core::SolverDistillConfig cfg{.base = tiny_distill(), .rounds = 1};
  cfg.base.samples = 64;
  cfg.base.train.iterations = 10;
  cfg.queries_per_round = 4;
  cfg.refine.iterations = 10;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  try {
    core::TieredPlanner::distill_for_planner(trained_model(), kRegion, kLo, kHi, nan, cfg, {});
    ADD_FAILURE() << "a NaN SLO with rounds > 0 must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string{e.what()}.rfind("distill_for_planner:", 0), 0u) << e.what();
  }
  cfg.rounds = 0;
  EXPECT_NO_THROW(
      core::TieredPlanner::distill_for_planner(trained_model(), kRegion, kLo, kHi, 0.0, cfg, {}));
}

// Both comparisons of `!(lo > 0) || hi < lo` are false for a NaN hi, and an
// infinite hi passes them: the sampler must reject either before drawing.
TEST(SurrogateDistill, SampleTeacherRejectsNonFiniteHi) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    std::vector<Millicores> hi(kHi.begin(), kHi.end());
    hi[0] = bad;
    EXPECT_THROW(gnn::SurrogateDistiller::sample_teacher(trained_model(), kRegion, kLo, hi, 8, 99),
                 std::invalid_argument)
        << bad;
  }
}

TEST(SurrogateModel, ScalarPredictMatchesRowBatchedForwardBitwise) {
  gnn::SurrogateModel& model = distilled().model;
  const std::vector<std::vector<double>> ws{{40.0, 60.0}, {60.0, 60.0}, {85.0, 30.0}};
  const std::vector<std::vector<double>> qs{{500.0, 700.0}, {900.0, 1100.0},
                                            {1500.0, 300.0}};
  nn::Tensor wrows{3, 2};
  nn::Tensor qrows{3, 2};
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t i = 0; i < 2; ++i) {
      wrows(r, i) = ws[r][i];
      qrows(r, i) = qs[r][i];
    }
  gnn::SurrogateModel::Pass pass{model, wrows};
  const nn::Tensor& vals = pass.forward(qrows);
  for (std::size_t r = 0; r < 3; ++r)
    EXPECT_EQ(vals(r, 0), model.predict(ws[r], qs[r]))
        << "row " << r << ": stacked rows must equal the scalar path bitwise";
}

// evaluate_accuracy scores every kept sample in one stacked pass; its report
// must equal the per-sample predict() loop it replaced, bit for bit, with
// and without a latency region that drops samples.
TEST(SurrogateModel, AccuracyReportMatchesPerSamplePredictLoop) {
  gnn::SurrogateModel& model = distilled().model;
  const gnn::Dataset data = demand_dataset(300, 77);
  for (const auto& [lo, hi] : {std::pair{0.0, 1e18}, std::pair{60.0, 150.0}}) {
    double abs_sum = 0.0;
    double signed_sum = 0.0;
    std::size_t count = 0;
    for (const gnn::Sample& s : data) {
      if (s.latency_ms < lo || s.latency_ms >= hi) continue;
      const double pct =
          (model.predict(s.workload, s.quota) - s.latency_ms) / std::max(s.latency_ms, 1e-9) *
          100.0;
      abs_sum += std::abs(pct);
      signed_sum += pct;
      ++count;
    }
    ASSERT_GT(count, 0u);
    const gnn::AccuracyReport rep = model.evaluate_accuracy(data, lo, hi);
    EXPECT_EQ(rep.count, count);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(rep.mean_abs_pct_error),
              std::bit_cast<std::uint64_t>(abs_sum / static_cast<double>(count)));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(rep.mean_pct_error),
              std::bit_cast<std::uint64_t>(signed_sum / static_cast<double>(count)));
  }
  EXPECT_EQ(model.evaluate_accuracy(data, 1e9, 1e18).count, 0u);
}

// --- the two-tier planner ---------------------------------------------------

core::TieredPlannerConfig planner_config(double trust_band_pct,
                                         const core::SolverConfig& solver) {
  core::TieredPlannerConfig cfg;
  cfg.solver = solver;
  cfg.trust_band_pct = trust_band_pct;
  return cfg;
}

TEST(TieredPlanner, FastPathAcceptReportsFullModelPrediction) {
  core::SolverConfig scfg;
  scfg.max_iterations = 400;
  core::ConfigurationSolver full{trained_model(), scfg};
  core::TieredPlanner planner{
      std::make_shared<gnn::SurrogateModel>(distilled().model.clone()),
      planner_config(25.0, scfg)};
  telemetry::MetricsRegistry metrics;
  planner.set_metrics(&metrics);
  full.set_metrics(&metrics);

  const std::vector<double> w{60.0, 60.0};
  const core::SolverResult res = planner.solve(trained_model(), full, w, 1000.0,
                                               kLo, kHi);
  ASSERT_EQ(planner.fast_hits(), 1u) << "in-band candidate must be accepted";
  EXPECT_EQ(planner.escalations(), 0u);
  EXPECT_EQ(res.predicted_ms, trained_model().predict(w, res.quota))
      << "accepted plans must report the full model's prediction (truth "
         "flows downstream)";
  EXPECT_GT(res.iterations, 0u);
  EXPECT_EQ(metrics.counter("core.surrogate.fast_hits").value(), 1.0);
  EXPECT_EQ(metrics.gauge("core.surrogate.trust_band_pct").value(), 25.0);
  EXPECT_GT(metrics.counter("core.solver_iterations_total").value(), 0.0)
      << "the surrogate descent must be credited to the solver's ledger";
}

TEST(TieredPlanner, ForcedEscalationMatchesFullModeBitwise) {
  core::SolverConfig scfg;
  scfg.max_iterations = 400;
  core::ConfigurationSolver full{trained_model(), scfg};
  // A vanishing trust band rejects every candidate: the tiered result must
  // be the full solver's, bit for bit.
  core::TieredPlanner planner{
      std::make_shared<gnn::SurrogateModel>(distilled().model.clone()),
      planner_config(1e-9, scfg)};

  const std::vector<double> w{55.0, 55.0};
  const core::SolverResult res = planner.solve(trained_model(), full, w, 1000.0,
                                               kLo, kHi);
  ASSERT_EQ(planner.escalations(), 1u);
  EXPECT_EQ(planner.fast_hits(), 0u);

  core::ConfigurationSolver reference{trained_model(), scfg};
  const core::SolverResult expect = reference.solve(w, 1000.0, kLo, kHi);
  ASSERT_EQ(res.quota.size(), expect.quota.size());
  for (std::size_t i = 0; i < res.quota.size(); ++i)
    EXPECT_EQ(res.quota[i], expect.quota[i]) << "i=" << i;
  EXPECT_EQ(res.predicted_ms, expect.predicted_ms);
  EXPECT_EQ(res.loss, expect.loss);
  EXPECT_EQ(res.iterations, expect.iterations);
  EXPECT_EQ(res.converged, expect.converged);
}

// --- plan-cache audit: a planner switch never serves a stale entry ---------

TEST(PlanCacheSurrogate, ModeAndGenerationNeverServeAStaleEntry) {
  core::SolverConfig scfg;
  scfg.max_iterations = 200;
  core::WorkloadAnalyzer analyzer{1, 2};
  analyzer.set_fanout({{1.0, 1.0}});
  core::ConfigurationSolver solver{trained_model(), scfg};
  core::ResourceController controller{trained_model(), solver, analyzer,
                                      kLo, kHi, {500.0, 500.0}};

  const std::vector<Qps> observed{60.0};
  controller.plan(observed, 1000.0);
  EXPECT_EQ(controller.plan_cache_misses(), 1u);
  controller.plan(observed, 1000.0);
  EXPECT_EQ(controller.plan_cache_hits(), 1u) << "full-mode repeat hits";

  // Same workload, same SLO — but the planner changed. The cached
  // full-mode entry must never answer a surrogate-mode query (mirror of
  // PlanCacheForecast.BoostedDemandNeverServedFromObservedEntry).
  core::TieredPlanner planner{
      std::make_shared<gnn::SurrogateModel>(distilled().model.clone()),
      planner_config(50.0, scfg)};
  controller.set_tiered_planner(&planner);
  EXPECT_EQ(controller.tiered_planner(), &planner);

  std::uint64_t hits = controller.plan_cache_hits();
  controller.plan(observed, 1000.0);
  EXPECT_EQ(controller.plan_cache_hits(), hits)
      << "mode switch must miss the full-mode entry";
  controller.plan(observed, 1000.0);
  EXPECT_EQ(controller.plan_cache_hits(), hits + 1)
      << "the same planner hits its own entry";

  // A second planner whose surrogate has other weights must solve for
  // itself, never be served the first planner's plan.
  gnn::SurrogateModel other = distilled().model.clone();
  std::vector<nn::Tensor> weights = other.state_dict();
  weights.back()(0, 0) += 0.01;  // the output bias
  other.load_state_dict(weights);
  ASSERT_NE(gnn::SurrogateModel::fingerprint(other),
            gnn::SurrogateModel::fingerprint(planner.active_surrogate()));
  core::TieredPlanner planner_b{std::make_shared<gnn::SurrogateModel>(std::move(other)),
                                planner_config(50.0, scfg)};
  controller.set_tiered_planner(&planner_b);
  hits = controller.plan_cache_hits();
  controller.plan(observed, 1000.0);
  EXPECT_EQ(controller.plan_cache_hits(), hits)
      << "a second planner must miss the first planner's entry";
  EXPECT_EQ(planner_b.fast_hits() + planner_b.escalations(), 1u)
      << "the second planner must run its own solve";

  // Reverting to full mode misses as well: every planner switch clears the
  // cache, so the full-mode entry from before is gone.
  controller.set_tiered_planner(nullptr);
  EXPECT_EQ(controller.tiered_planner(), nullptr);
  hits = controller.plan_cache_hits();
  controller.plan(observed, 1000.0);
  EXPECT_EQ(controller.plan_cache_hits(), hits)
      << "the switch back to full mode cleared the full-mode entry";
}

// --- escalation rate across the four paper applications ---------------------

TEST(SurrogateTopologies, EscalationRateStaysUnderFivePercentOnAllFourApps) {
  for (const apps::Topology& topo : apps::all_applications()) {
    const std::size_t n = topo.service_count();
    std::vector<double> demand(n);
    for (std::size_t i = 0; i < n; ++i) demand[i] = topo.services[i].demand_mean_ms;
    const std::vector<double> region(n, 100.0);
    const std::vector<Millicores> lo(n, 200.0);
    const std::vector<Millicores> hi(n, 2000.0);

    gnn::LatencyModel teacher{apps::make_dag(topo),
                              {.node_features = 4, .embed_dim = 8, .mpnn_hidden = 8,
                               .readout_hidden = 24, .message_steps = 2,
                               .dropout_p = 0.05, .use_mpnn = true},
                              7};
    Rng rng{41};
    gnn::Dataset data;
    for (int s = 0; s < 1500; ++s) {
      gnn::Sample sample;
      const double w = rng.uniform(20.0, 100.0);
      sample.workload.assign(n, w);
      sample.quota.resize(n);
      // Quota draws span the solver's full [lo, hi]: a teacher trained on a
      // narrower range extrapolates wildly exactly where the descent probes.
      for (double& q : sample.quota) q = rng.uniform(200.0, 2000.0);
      sample.latency_ms = truth_ms(sample.workload, sample.quota, demand);
      data.push_back(std::move(sample));
    }
    teacher.fit(data, {}, {.iterations = 1200, .batch_size = 64, .lr = 3e-3,
                           .lr_decay_every = 400, .eval_every = 200, .seed = 3});

    // Generous-but-real SLO: 1.5x the analytic latency of the fully
    // provisioned system at the top of the solve workload range.
    const double slo_ms =
        1.5 * truth_ms(std::vector<double>(n, 90.0), hi, demand);

    core::SolverConfig scfg;
    scfg.max_iterations = 400;

    // Solver-in-the-loop distillation at the production SLO/solver config:
    // the rollout rounds are what pins fidelity down on the thin level set
    // the fast path actually lands on (plain uniform distillation leaves
    // the larger topologies at 2-5x this escalation rate).
    core::SolverDistillConfig dcfg;
    dcfg.base.samples = 1024 * n;
    dcfg.base.model.hidden = 96;
    dcfg.base.train.iterations = 5000;
    dcfg.base.workload_floor = 0.2;
    dcfg.rounds = 4;
    dcfg.queries_per_round = 768;
    dcfg.refine.iterations = 2500;
    gnn::SurrogateDistiller::Result distill = core::TieredPlanner::distill_for_planner(
        teacher, region, lo, hi, slo_ms, dcfg, scfg);

    core::ConfigurationSolver full{teacher, scfg};
    core::TieredPlanner planner{
        std::make_shared<gnn::SurrogateModel>(std::move(distill.model)),
        planner_config(10.0, scfg)};

    constexpr std::size_t kSolves = 50;
    Rng wdraw{17};
    for (std::size_t s = 0; s < kSolves; ++s) {
      const std::vector<double> w(n, wdraw.uniform(30.0, 90.0));
      planner.solve(teacher, full, w, slo_ms, lo, hi);
    }
    EXPECT_EQ(planner.fast_hits() + planner.escalations(), kSolves);
    EXPECT_LT(static_cast<double>(planner.escalations()) * 100.0,
              5.0 * static_cast<double>(kSolves))
        << topo.name << ": escalation rate must stay under 5% "
        << "(fidelity " << distill.report.val_mean_abs_pct_error << "%)";
  }
}

// --- determinism: GRAF_THREADS and fleet batching ---------------------------

TEST(SurrogateThreads, DistillAndTieredSolvesBitIdenticalAcrossThreadCounts) {
  auto run = [](std::size_t threads) {
    ThreadGuard guard{threads};
    core::SolverConfig scfg;
    scfg.max_iterations = 300;
    scfg.multi_starts = 3;
    // Solver-in-the-loop distillation so the rollout rounds (stacked
    // descent + teacher labeling + fold-in fine-tune) are under the same
    // bit-identity contract as the plain pass.
    core::SolverDistillConfig dcfg;
    dcfg.base = tiny_distill();
    dcfg.base.train.iterations = 1500;
    dcfg.rounds = 1;
    dcfg.queries_per_round = 24;
    dcfg.refine.iterations = 300;
    gnn::SurrogateDistiller::Result r = core::TieredPlanner::distill_for_planner(
        trained_model(), kRegion, kLo, kHi, 1000.0, dcfg, scfg);
    std::uint64_t digest = gnn::SurrogateModel::fingerprint(r.model);
    core::ConfigurationSolver full{trained_model(), scfg};
    core::TieredPlanner planner{
        std::make_shared<gnn::SurrogateModel>(std::move(r.model)),
        planner_config(10.0, scfg)};
    for (double w : {40.0, 60.0, 80.0}) {
      const core::SolverResult res = planner.solve(
          trained_model(), full, std::vector<double>{w, w}, 1000.0, kLo, kHi);
      for (double q : res.quota) digest = mix(digest, q);
      digest = mix(digest, res.predicted_ms);
      digest = mix(digest, static_cast<double>(res.iterations));
    }
    digest = mix(digest, static_cast<double>(planner.fast_hits()));
    digest = mix(digest, static_cast<double>(planner.escalations()));
    return digest;
  };
  EXPECT_EQ(run(1), run(8))
      << "distillation + tiered planning must replay bit-identically";
}

fleet::TenantSpec surrogate_spec(const std::string& app, double slo_ms) {
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
  spec.solver.max_iterations = 200;
  spec.surrogate.enabled = true;
  spec.surrogate.distill.base.samples = 512;
  spec.surrogate.distill.base.train.iterations = 600;
  spec.surrogate.distill.rounds = 1;
  spec.surrogate.distill.queries_per_round = 16;
  spec.surrogate.distill.refine.iterations = 200;
  spec.surrogate.planner.solver = spec.solver;
  return spec;
}

TEST(FleetSurrogate, BatchedGroupsMatchPerTenantSolvesBitwise) {
  // Three fingerprint-equal surrogate tenants on one FleetServer (one
  // stacked surrogate descent) vs. each in its own single-tenant server.
  auto run = [](bool solo) {
    std::vector<std::unique_ptr<fleet::FleetServer>> servers;
    std::vector<fleet::FleetServer*> home;
    std::vector<fleet::TenantId> ids;
    for (int t = 0; t < 3; ++t) {
      if (servers.empty() || solo)
        servers.push_back(std::make_unique<fleet::FleetServer>());
      home.push_back(servers.back().get());
      ids.push_back(home.back()->add_tenant(
          surrogate_spec("app-" + std::to_string(t), 1000.0)));
    }
    for (std::size_t t = 0; t < 3; ++t)
      home[t]->push({.tenant = ids[t], .now = 1.0,
                     .api_qps = {55.0 + 5.0 * static_cast<double>(t)}});
    std::size_t planned = 0;
    for (auto& server : servers) planned += server->step().planned;
    EXPECT_EQ(planned, 3u);
    std::uint64_t digest = 1469598103934665603ULL;
    for (std::size_t t = 0; t < 3; ++t) {
      const fleet::Tenant* tenant = home[t]->tenant(ids[t]);
      for (double q : tenant->last_plan().quota) digest = mix(digest, q);
      digest = mix(digest, tenant->last_plan().predicted_ms);
      for (int inst : tenant->last_plan().instances)
        digest = mix(digest, static_cast<double>(inst));
      const core::TieredPlanner* planner = home[t]->tenant(ids[t])->tiered_planner();
      digest = mix(digest, static_cast<double>(planner->fast_hits()));
      digest = mix(digest, static_cast<double>(planner->escalations()));
    }
    if (!solo) {
      EXPECT_GE(servers.front()->metrics().counter("fleet.batched_groups").value(), 1.0)
          << "fingerprint-equal surrogate tenants must share a batch";
    }
    return digest;
  };
  for (std::size_t threads : {1u, 2u, 8u}) {
    ThreadGuard guard{threads};
    EXPECT_EQ(run(true), run(false))
        << "stacked surrogate groups must be bit-identical to solo solves at "
           "GRAF_THREADS=" << threads;
  }
}

// The surrogate-mode twin of FleetServer.LoneTenantCommitsTheStandaloneControllerPlan:
// a lone surrogate tenant commits the plan bits of ResourceController::plan
// on a standalone pipeline whose TieredPlanner serves a clone of the
// tenant's surrogate, with the same fast-hit, escalation and solver
// iteration counts. The infeasible SLO forces an escalation.
TEST(FleetSurrogate, LoneTenantCommitsTheStandaloneControllerPlan) {
  fleet::TenantSpec spec = surrogate_spec("lone-app", 1000.0);
  spec.change_threshold = 0.0;  // every push plans
  fleet::FleetServer fleet;
  const fleet::TenantId id = fleet.add_tenant(spec);
  fleet::Tenant& tenant = *fleet.tenant(id);

  gnn::LatencyModel model = spec.model->clone();
  core::WorkloadAnalyzer analyzer{spec.fanout.size(), spec.lo.size()};
  analyzer.set_fanout(spec.fanout);
  core::ConfigurationSolver solver{model, spec.solver};
  core::ResourceController controller{model, solver, analyzer, spec.lo, spec.hi, spec.unit};
  controller.set_plan_cache_capacity(spec.plan_cache_capacity);
  core::TieredPlanner planner{
      std::make_shared<gnn::SurrogateModel>(tenant.tiered_planner()->active_surrogate().clone()),
      spec.surrogate.planner};
  controller.set_tiered_planner(&planner);
  telemetry::MetricsRegistry metrics;
  controller.set_metrics(&metrics);

  const std::pair<double, double> pushes[] = {
      {55.0, 1000.0}, {80.0, 1000.0}, {55.0, 1000.0}, {70.0, 5.0}, {90.0, 1000.0}};
  double now = 1.0;
  for (const auto& [qps, slo] : pushes) {
    tenant.set_slo(slo);
    fleet.push({.tenant = id, .now = now, .api_qps = {qps}});
    ASSERT_EQ(fleet.step().planned, 1u);
    now += 10.0;
    const core::AllocationPlan expect = controller.plan(std::vector<Qps>{qps}, slo);
    const core::AllocationPlan& got = tenant.last_plan();
    EXPECT_EQ(got.instances, expect.instances) << "qps=" << qps << " slo=" << slo;
    ASSERT_EQ(got.quota.size(), expect.quota.size());
    for (std::size_t s = 0; s < got.quota.size(); ++s)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.quota[s]),
                std::bit_cast<std::uint64_t>(expect.quota[s]))
          << "qps=" << qps << " slo=" << slo << " service " << s;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.predicted_ms),
              std::bit_cast<std::uint64_t>(expect.predicted_ms))
        << "qps=" << qps << " slo=" << slo;
    EXPECT_EQ(got.degraded, expect.degraded);
  }
  EXPECT_GE(planner.fast_hits(), 1u);
  EXPECT_GE(planner.escalations(), 1u);
  EXPECT_EQ(tenant.tiered_planner()->fast_hits(), planner.fast_hits());
  EXPECT_EQ(tenant.tiered_planner()->escalations(), planner.escalations());
  EXPECT_EQ(tenant.controller().plan_cache_hits(), controller.plan_cache_hits());
  EXPECT_EQ(tenant.metrics().counter("core.solver_iterations_total").value(),
            metrics.counter("core.solver_iterations_total").value());
}

}  // namespace
}  // namespace graf
