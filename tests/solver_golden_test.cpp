// Golden solver digests: the exact bits every configuration-solver entry
// point produces, pinned per (application, planner mode, start count).
//
// For each of the four paper topologies a tiny latency model is trained on
// the analytic chain latency and distilled (solver-in-the-loop) into a
// surrogate. Three workloads are then solved two ways — one at a time
// (ConfigurationSolver::solve / TieredPlanner::solve) and as one fleet group
// of three same-model tenants (ConfigurationSolver::solve_batch /
// TieredPlanner::solve_items) — in full mode and in surrogate-verified mode
// with a wide trust band (every candidate accepted) and a vanishing one
// (every candidate escalated to the full solve), at multi_starts 1 and 3.
// The digest covers the bit patterns of quota, predicted_ms, loss,
// iterations and converged of all three results, plus each tenant's
// iterations summed over its starts; solo and group must both reproduce the
// pinned value. Single-start full-model solves report LatencyModel::predict()
// (division-form features) as predicted_ms, every other descent the stacked
// frozen forward, so both scoring rules are pinned. The distilled
// surrogates' fingerprints are pinned too, since the distillation rollouts
// run the same descent.
//
// The BackwardSkip cases at the end check the descent's dead-backward skip
// (DESIGN.md §3.9) against a descent that runs every backward, on the same
// trained teachers and surrogates.
//
// Everything here is a pure function of the seeds, so the digests hold at
// any GRAF_THREADS and under the sanitizer builds.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "apps/catalog.h"
#include "apps/topology.h"
#include "common/rng.h"
#include "core/configuration_solver.h"
#include "core/tiered_planner.h"
#include "gnn/batched_latency_model.h"
#include "gnn/latency_model.h"
#include "gnn/surrogate_model.h"
#include "nn/tensor.h"
#include "telemetry/metrics.h"

namespace graf {
namespace {

/// Sum of per-service M/M/1-style stage latencies: the ground truth the
/// tiny teachers are trained on.
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

core::SolverConfig solver_config(std::size_t starts) {
  core::SolverConfig cfg;
  cfg.max_iterations = 250;
  cfg.lr_decay_every = 100;  // exercise the step decay inside the budget
  cfg.multi_starts = starts;
  return cfg;
}

struct AppCase {
  std::string name;
  std::size_t n = 0;
  std::vector<Millicores> lo, hi;
  double slo_ms = 0.0;
  std::vector<std::vector<double>> workloads;  // the three tenants' inputs
  std::unique_ptr<gnn::LatencyModel> teacher;
  std::unique_ptr<gnn::SurrogateModel> surrogate;
  std::uint64_t surrogate_fingerprint = 0;
};

AppCase build_case(const apps::Topology& topo) {
  AppCase c;
  c.name = topo.name;
  c.n = topo.service_count();
  std::vector<double> demand(c.n);
  for (std::size_t i = 0; i < c.n; ++i) demand[i] = topo.services[i].demand_mean_ms;
  c.lo.assign(c.n, 200.0);
  c.hi.assign(c.n, 2000.0);

  c.teacher = std::make_unique<gnn::LatencyModel>(
      apps::make_dag(topo),
      gnn::MpnnConfig{.node_features = 4, .embed_dim = 8, .mpnn_hidden = 8,
                      .readout_hidden = 16, .message_steps = 2, .dropout_p = 0.0,
                      .use_mpnn = true},
      7);
  Rng rng{41};
  gnn::Dataset data;
  for (int s = 0; s < 600; ++s) {
    gnn::Sample sample;
    sample.workload.assign(c.n, rng.uniform(20.0, 100.0));
    sample.quota.resize(c.n);
    for (double& q : sample.quota) q = rng.uniform(200.0, 2000.0);
    sample.latency_ms = truth_ms(sample.workload, sample.quota, demand);
    data.push_back(std::move(sample));
  }
  c.teacher->fit(data, {},
                 {.iterations = 500, .batch_size = 32, .lr = 3e-3,
                  .lr_decay_every = 200, .eval_every = 100, .seed = 3});

  // Generous-but-real SLO: 1.5x the analytic latency of the fully
  // provisioned system near the top of the workload range.
  c.slo_ms = 1.5 * truth_ms(std::vector<double>(c.n, 90.0), c.hi, demand);
  for (double w : {45.0, 60.0, 75.0}) {
    std::vector<double> wl(c.n);
    for (std::size_t i = 0; i < c.n; ++i)
      wl[i] = w * (1.0 + 0.05 * static_cast<double>(i % 3));
    c.workloads.push_back(std::move(wl));
  }

  core::SolverDistillConfig dcfg;
  dcfg.base.samples = 512 * c.n;
  dcfg.base.model.hidden = 48;
  dcfg.base.train.iterations = 1500;
  dcfg.base.workload_floor = 0.2;
  dcfg.rounds = 2;
  dcfg.queries_per_round = 64;
  dcfg.refine.iterations = 600;
  const std::vector<double> region(c.n, 100.0);
  gnn::SurrogateDistiller::Result distilled = core::TieredPlanner::distill_for_planner(
      *c.teacher, region, c.lo, c.hi, c.slo_ms, dcfg, solver_config(1));
  c.surrogate_fingerprint = gnn::SurrogateModel::fingerprint(distilled.model);
  c.surrogate = std::make_unique<gnn::SurrogateModel>(std::move(distilled.model));
  return c;
}

const std::vector<AppCase>& cases() {
  static const std::vector<AppCase> all = [] {
    std::vector<AppCase> out;
    for (const apps::Topology& topo : apps::all_applications())
      out.push_back(build_case(topo));
    return out;
  }();
  return all;
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void mix(std::uint64_t& h, std::uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (byte * 8)) & 0xffULL;
    h *= kFnvPrime;
  }
}

/// `starts_iterations[t]` is tenant t's iteration count summed over all of
/// its starts (what core.solver_iterations_total gains): it moves whenever
/// any start's trajectory moves, not just the winner's.
std::uint64_t digest(const std::vector<core::SolverResult>& results,
                     const std::vector<double>& starts_iterations) {
  std::uint64_t h = kFnvOffset;
  for (std::size_t t = 0; t < results.size(); ++t) {
    const core::SolverResult& r = results[t];
    mix(h, r.quota.size());
    for (double q : r.quota) mix(h, std::bit_cast<std::uint64_t>(q));
    mix(h, std::bit_cast<std::uint64_t>(r.predicted_ms));
    mix(h, std::bit_cast<std::uint64_t>(r.loss));
    mix(h, r.iterations);
    mix(h, r.converged ? 1 : 0);
    mix(h, std::bit_cast<std::uint64_t>(starts_iterations.at(t)));
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

enum class Mode { kFull, kSurrogateWide, kSurrogateVanishing };

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kFull: return "full";
    case Mode::kSurrogateWide: return "surrogate-accept";
    case Mode::kSurrogateVanishing: return "surrogate-escalate";
  }
  return "?";
}

double trust_band(Mode m) { return m == Mode::kSurrogateWide ? 1000.0 : 1e-9; }

// Recorded before the solver's descent loops were folded into one kernel; a
// change to any of these values means the descent's bits moved.
const std::map<std::string, std::string>& pinned() {
  static const std::map<std::string, std::string> table = {
      {"online-boutique/full/1", "13fbb05d57104fc9"},
      {"online-boutique/full/3", "ce7982d6948a2cda"},
      {"online-boutique/surrogate-accept/1", "2983c3ba0ad3d260"},
      {"online-boutique/surrogate-accept/3", "7a0e58dcd04bc60c"},
      {"online-boutique/surrogate-escalate/1", "e8ae635a8d68908f"},
      {"online-boutique/surrogate-escalate/3", "b3d4df2c69c7aceb"},
      {"social-network/full/1", "f2bda8e92c697dc4"},
      {"social-network/full/3", "d40e7fff6fe0ba09"},
      {"social-network/surrogate-accept/1", "2455e2188c5e2eab"},
      {"social-network/surrogate-accept/3", "3cdb358d28637db1"},
      {"social-network/surrogate-escalate/1", "8dabcbe2461ac932"},
      {"social-network/surrogate-escalate/3", "4fe89355118a4cf9"},
      {"robot-shop/full/1", "f40d87f01a75beac"},
      {"robot-shop/full/3", "3eb6b350411163fc"},
      {"robot-shop/surrogate-accept/1", "eca3dc90a96c3509"},
      {"robot-shop/surrogate-accept/3", "92dfc0fb078cc497"},
      {"robot-shop/surrogate-escalate/1", "89ad31e53a4b7799"},
      {"robot-shop/surrogate-escalate/3", "f8809144862afa94"},
      {"bookinfo/full/1", "2fc5f6d284f2d29a"},
      {"bookinfo/full/3", "d67dd994812c0ee1"},
      {"bookinfo/surrogate-accept/1", "c66673fb9709b9af"},
      {"bookinfo/surrogate-accept/3", "433d2a43a14e88ff"},
      {"bookinfo/surrogate-escalate/1", "8a71b0de5c4ff335"},
      {"bookinfo/surrogate-escalate/3", "8174c36a6a70bae8"},
  };
  return table;
}

const std::map<std::string, std::string>& pinned_fingerprints() {
  static const std::map<std::string, std::string> table = {
      {"online-boutique", "6241f6726f53f46e"},
      {"social-network", "0727ad2016f091a7"},
      {"robot-shop", "66b98eec6d668dcb"},
      {"bookinfo", "96793612f8b7efec"},
  };
  return table;
}

void expect_pinned(const std::map<std::string, std::string>& table,
                   const std::string& key, std::uint64_t value) {
  const auto it = table.find(key);
  if (it == table.end()) {
    ADD_FAILURE() << "no pinned digest for " << key << " (computed " << hex(value)
                  << ")";
    return;
  }
  EXPECT_EQ(hex(value), it->second) << key;
}

TEST(SolverGolden, DistilledSurrogateFingerprints) {
  for (const AppCase& c : cases())
    expect_pinned(pinned_fingerprints(), c.name, c.surrogate_fingerprint);
}

TEST(SolverGolden, SoloAndFleetGroupSolvesMatchPinnedDigests) {
  for (const AppCase& c : cases()) {
    for (Mode mode : {Mode::kFull, Mode::kSurrogateWide, Mode::kSurrogateVanishing}) {
      for (std::size_t starts : {1u, 3u}) {
        const core::SolverConfig cfg = solver_config(starts);
        const std::string key =
            c.name + "/" + mode_name(mode) + "/" + std::to_string(starts);
        SCOPED_TRACE(key);
        gnn::LatencyModel& teacher = *c.teacher;
        core::TieredPlannerConfig pcfg;
        pcfg.solver = cfg;
        pcfg.trust_band_pct = trust_band(mode);

        // Solo: one tenant solving each workload in turn through its own
        // entry point; the solver's iteration counter yields the per-solve
        // sum over starts.
        std::vector<core::SolverResult> solo;
        std::vector<double> solo_iterations;
        std::uint64_t solo_hits = 0, solo_escalations = 0;
        {
          telemetry::MetricsRegistry metrics;
          core::ConfigurationSolver solver{teacher, cfg};
          solver.set_metrics(&metrics);
          const telemetry::Counter& counter =
              metrics.counter("core.solver_iterations_total");
          core::TieredPlanner planner{
              std::make_shared<gnn::SurrogateModel>(c.surrogate->clone()), pcfg};
          for (const auto& w : c.workloads) {
            const double before = counter.value();
            solo.push_back(mode == Mode::kFull
                               ? solver.solve(w, c.slo_ms, c.lo, c.hi)
                               : planner.solve(teacher, solver, w, c.slo_ms, c.lo, c.hi));
            solo_iterations.push_back(counter.value() - before);
          }
          solo_hits = planner.fast_hits();
          solo_escalations = planner.escalations();
        }

        // Fleet group: three same-model tenants descending on one stacked
        // tape, each with its own planner and solver.
        std::vector<core::SolverResult> group;
        std::vector<double> group_iterations;
        if (mode == Mode::kFull) {
          gnn::BatchedLatencyModel batched{teacher, starts};
          std::vector<core::BatchItem> items;
          for (const auto& w : c.workloads) items.push_back({w, c.slo_ms, c.lo, c.hi});
          for (core::BatchItemResult& r :
               core::ConfigurationSolver::solve_batch(batched, cfg, items)) {
            group.push_back(std::move(r.result));
            group_iterations.push_back(static_cast<double>(r.total_iterations));
          }
        } else {
          std::vector<std::unique_ptr<telemetry::MetricsRegistry>> registries;
          std::vector<std::unique_ptr<core::TieredPlanner>> planners;
          std::vector<std::unique_ptr<core::ConfigurationSolver>> solvers;
          std::vector<core::TieredPlanner::Item> items;
          for (const auto& w : c.workloads) {
            registries.push_back(std::make_unique<telemetry::MetricsRegistry>());
            planners.push_back(std::make_unique<core::TieredPlanner>(
                std::make_shared<gnn::SurrogateModel>(c.surrogate->clone()), pcfg));
            solvers.push_back(std::make_unique<core::ConfigurationSolver>(teacher, cfg));
            solvers.back()->set_metrics(registries.back().get());
            items.push_back({planners.back().get(), &teacher, solvers.back().get(), w,
                             c.slo_ms, c.lo, c.hi});
          }
          group = core::TieredPlanner::solve_items(planners.front()->active_surrogate(),
                                                   cfg, items);
          std::uint64_t hits = 0, escalations = 0;
          for (std::size_t t = 0; t < planners.size(); ++t) {
            hits += planners[t]->fast_hits();
            escalations += planners[t]->escalations();
            group_iterations.push_back(
                registries[t]->counter("core.solver_iterations_total").value());
          }
          EXPECT_EQ(hits, solo_hits);
          EXPECT_EQ(escalations, solo_escalations);
        }

        if (mode == Mode::kSurrogateWide) {
          EXPECT_EQ(solo_hits, c.workloads.size()) << "wide band must accept";
        }
        if (mode == Mode::kSurrogateVanishing) {
          EXPECT_EQ(solo_escalations, c.workloads.size())
              << "vanishing band must escalate";
        }
        for (const auto& r : solo)
          EXPECT_GT(r.iterations, cfg.patience) << "trivially converged solve";
        ASSERT_EQ(group.size(), solo.size());
        expect_pinned(pinned(), key, digest(solo, solo_iterations));
        EXPECT_EQ(hex(digest(group, group_iterations)), hex(digest(solo, solo_iterations)))
            << "a fleet group must reproduce the solo solves bit for bit";
      }
    }
  }
}

// ---- The dead-backward skip ------------------------------------------------
//
// descend_rows skips the pass's backward on iterations where no live row is
// over its target and the pass keeps zero rows zero. ProbePass wraps a real
// pass, records every forward's predictions and the iterations whose
// backward ran, and reports the inner pass's property, false (the descent
// then runs every backward, as it did before the skip) or true (the skip
// without its finiteness guard).

enum class Report { kInner, kNonFinite, kFinite };

class ProbePass final : public gnn::QuotaPass {
 public:
  ProbePass(gnn::QuotaPass& inner, const nn::Tensor& workload_rows, Report report)
      : QuotaPass{workload_rows, {}, /*node_stacked=*/false}, inner_{inner},
        report_{report} {}

  const nn::Tensor& forward(const nn::Tensor& quota) override {
    const nn::Tensor& pred = inner_.forward(quota);
    preds.emplace_back(pred.data(), pred.data() + pred.size());
    return pred;
  }
  const nn::Tensor& backward(const nn::Tensor& dpred) override {
    backward_at.push_back(preds.size());
    return inner_.backward(dpred);
  }
  bool zero_rows_stay_zero() const override {
    return report_ == Report::kInner ? inner_.zero_rows_stay_zero()
                                     : report_ == Report::kFinite;
  }

  std::vector<std::vector<double>> preds;  // forward f's predictions at f - 1
  std::vector<std::size_t> backward_at;    // iterations (from 1) whose backward ran

 private:
  gnn::QuotaPass& inner_;
  Report report_;
};

enum class PassKind { kFull, kSurrogate };

struct Probed {
  std::vector<core::BatchItemResult> results;
  std::vector<std::vector<double>> preds;
  std::vector<std::size_t> backward_at;
};

nn::Tensor workload_rows(std::span<const core::BatchItem> items, std::size_t starts) {
  const std::size_t n = items.front().workload.size();
  nn::Tensor rows{items.size() * starts, n};
  for (std::size_t t = 0; t < items.size(); ++t)
    for (std::size_t k = 0; k < starts; ++k)
      for (std::size_t i = 0; i < n; ++i) rows(t * starts + k, i) = items[t].workload[i];
  return rows;
}

/// descend_rows through a fresh pass of `kind`, wrapped in a ProbePass.
Probed probe_descent(gnn::LatencyModel& teacher, gnn::SurrogateModel& surrogate,
                     PassKind kind, const core::SolverConfig& cfg,
                     std::span<const core::BatchItem> items, Report report) {
  const nn::Tensor rows = workload_rows(items, std::max<std::size_t>(1, cfg.multi_starts));
  Probed out;
  const auto descend = [&](gnn::QuotaPass& inner) {
    ProbePass probe{inner, rows, report};
    out.results = core::ConfigurationSolver::descend_rows(cfg, items, probe);
    out.preds = std::move(probe.preds);
    out.backward_at = std::move(probe.backward_at);
  };
  if (kind == PassKind::kFull) {
    gnn::LatencyModel::Pass inner{teacher, rows};
    descend(inner);
  } else {
    gnn::SurrogateModel::Pass inner{surrogate, rows};
    descend(inner);
  }
  return out;
}

/// Bit patterns of every recorded prediction, in order (NaN-safe equality).
std::vector<std::uint64_t> bits(const std::vector<std::vector<double>>& preds) {
  std::vector<std::uint64_t> out;
  for (const std::vector<double>& forward : preds)
    for (double v : forward) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

std::string digest_hex(const std::vector<core::BatchItemResult>& items) {
  std::vector<core::SolverResult> results;
  std::vector<double> iterations;
  for (const core::BatchItemResult& r : items) {
    results.push_back(r.result);
    iterations.push_back(static_cast<double>(r.total_iterations));
  }
  return hex(digest(results, iterations));
}

/// The iterations a single-start descent must run the backward on: those
/// where a live row is over its margined target or its prediction is not
/// finite. Row t is live through its item's last iteration.
std::vector<std::size_t> needed_backwards(const Probed& p,
                                          std::span<const core::BatchItem> items,
                                          const core::SolverConfig& cfg) {
  std::vector<std::size_t> out;
  for (std::size_t it = 1; it < p.preds.size(); ++it) {
    bool needed = false;
    for (std::size_t t = 0; t < items.size(); ++t) {
      if (it > p.results[t].result.iterations) continue;
      const double pred = p.preds[it - 1][t];
      const double v = pred * (1.0 / (items[t].slo_ms * cfg.slo_margin)) - 1.0;
      needed = needed || v > 0.0 || !std::isfinite(pred);
    }
    if (needed) out.push_back(it);
  }
  return out;
}

/// Descends `items` skipping and running every backward: both must give the
/// same bits, and at one start the skipping descent's backwards must run on
/// exactly the needed iterations. Returns the skipping descent.
Probed expect_skip_is_exact(const AppCase& c, PassKind kind, const core::SolverConfig& cfg,
                            std::span<const core::BatchItem> items) {
  Probed skip = probe_descent(*c.teacher, *c.surrogate, kind, cfg, items, Report::kInner);
  const Probed every =
      probe_descent(*c.teacher, *c.surrogate, kind, cfg, items, Report::kNonFinite);
  EXPECT_EQ(digest_hex(skip.results), digest_hex(every.results));
  EXPECT_EQ(bits(skip.preds), bits(every.preds)) << "every forward's predictions";
  EXPECT_EQ(every.backward_at.size(), every.preds.size() - 1) << "one per iteration";
  if (cfg.multi_starts <= 1) {
    EXPECT_EQ(skip.backward_at, needed_backwards(skip, items, cfg));
  }
  return skip;
}

TEST(BackwardSkip, SkippingDescentMatchesEveryBackward) {
  std::size_t iterations = 0, skipped = 0;
  for (const AppCase& c : cases()) {
    for (PassKind kind : {PassKind::kFull, PassKind::kSurrogate}) {
      for (std::size_t starts : {1u, 3u}) {
        SCOPED_TRACE(c.name + (kind == PassKind::kFull ? "/full/" : "/surrogate/") +
                     std::to_string(starts));
        const core::SolverConfig cfg = solver_config(starts);
        std::vector<core::BatchItem> group;
        for (const auto& w : c.workloads) {
          const core::BatchItem item{w, c.slo_ms, c.lo, c.hi};
          group.push_back(item);
          const Probed solo = expect_skip_is_exact(c, kind, cfg, {&item, 1});
          iterations += solo.preds.size() - 1;
          skipped += solo.preds.size() - 1 - solo.backward_at.size();
        }
        expect_skip_is_exact(c, kind, cfg, group);
      }
    }
  }
  // The golden workloads sit under their SLO for most of each descent.
  EXPECT_GT(skipped, iterations / 2) << skipped << " of " << iterations << " skipped";
}

// One item is pinned at its hi bounds (lo == hi) under an SLO it cannot
// reach there: its rows converge over target after `patience` calm steps and
// stop counting, while the other item descends on and skips again.
TEST(BackwardSkip, ConvergedRowsOverTargetDoNotBlockTheSkip) {
  for (const AppCase& c : cases()) {
    for (PassKind kind : {PassKind::kFull, PassKind::kSurrogate}) {
      for (std::size_t starts : {1u, 3u}) {
        SCOPED_TRACE(c.name + (kind == PassKind::kFull ? "/full/" : "/surrogate/") +
                     std::to_string(starts));
        const core::SolverConfig cfg = solver_config(starts);
        const double at_hi = kind == PassKind::kFull
                                 ? c.teacher->predict(c.workloads[2], c.hi)
                                 : c.surrogate->predict(c.workloads[2], c.hi);
        const double unreachable = 0.5 * at_hi;
        const core::BatchItem items[] = {{c.workloads[2], unreachable, c.hi, c.hi},
                                         {c.workloads[0], c.slo_ms, c.lo, c.hi}};
        const Probed p = expect_skip_is_exact(c, kind, cfg, items);
        const core::SolverResult& stuck = p.results[0].result;
        const core::SolverResult& free = p.results[1].result;
        EXPECT_TRUE(stuck.converged);
        EXPECT_GT(stuck.predicted_ms, unreachable * cfg.slo_margin);
        EXPECT_LT(stuck.iterations, free.iterations);
        // Every backward runs while the stuck rows are live, and some are
        // skipped once they have converged.
        ASSERT_GE(p.backward_at.size(), stuck.iterations);
        for (std::size_t it = 1; it <= stuck.iterations; ++it)
          EXPECT_EQ(p.backward_at[it - 1], it);
        EXPECT_LT(p.backward_at.size(), p.preds.size() - 1);
      }
    }
  }
}

// A NaN weight on the q·q_scale input of the first hidden unit: ReLU zeroes
// the unit in the forward, so predictions stay finite, but its backward sends
// 0·NaN into every quota gradient. The pass reports it, and the descent runs
// every backward and keeps every forward's bits; the skip without that guard
// would not. (The final results may still agree: once a backward runs, the
// NaN quotas it leaves absorb both trajectories.)
TEST(BackwardSkip, NonFiniteWeightRunsEveryBackward) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const AppCase& c : cases()) {
    SCOPED_TRACE(c.name);
    gnn::LatencyModel teacher = c.teacher->clone();
    gnn::SurrogateModel surrogate = c.surrogate->clone();
    std::vector<nn::Tensor> teacher_state = teacher.state_dict();
    std::vector<nn::Tensor> surrogate_state = surrogate.state_dict();
    ASSERT_EQ(teacher_state.front().rows(), gnn::LatencyModel::kNodeFeatures);
    teacher_state.front()(1, 0) = nan;
    surrogate_state.front()(1, 0) = nan;
    teacher.load_state_dict(teacher_state);
    surrogate.load_state_dict(surrogate_state);

    for (PassKind kind : {PassKind::kFull, PassKind::kSurrogate}) {
      SCOPED_TRACE(kind == PassKind::kFull ? "full" : "surrogate");
      const core::SolverConfig cfg = solver_config(1);
      const core::BatchItem item{c.workloads[0], c.slo_ms, c.lo, c.hi};
      const auto descend = [&](Report report) {
        return probe_descent(teacher, surrogate, kind, cfg, {&item, 1}, report);
      };
      const Probed skip = descend(Report::kInner);
      const Probed every = descend(Report::kNonFinite);
      const Probed unguarded = descend(Report::kFinite);
      ASSERT_TRUE(std::isfinite(skip.preds.front().front())) << "ReLU must hide the NaN";
      EXPECT_EQ(skip.backward_at.size(), skip.preds.size() - 1);
      EXPECT_EQ(digest_hex(skip.results), digest_hex(every.results));
      EXPECT_EQ(bits(skip.preds), bits(every.preds));
      EXPECT_NE(bits(unguarded.preds), bits(every.preds));
    }
  }
}

// A surrogate whose readout overflows exp() at label_ref 0 predicts NaN
// (inf·0) with finite weights and scalers: the penalty's v is NaN, so dpred
// is +0, but the backward multiplies by that row's exp(y) = inf. The finite
// prediction rule runs every backward and keeps the bits.
TEST(BackwardSkip, NonFinitePredictionRunsEveryBackward) {
  const AppCase& c = cases().front();
  gnn::SurrogateModel surrogate = c.surrogate->clone();
  std::vector<nn::Tensor> state = surrogate.state_dict();
  state.back()(0, 0) = 1000.0;  // output bias: exp(y) overflows
  surrogate.load_state_dict(state);
  gnn::ScalerState scalers = surrogate.scalers();
  scalers.label_ref = 0.0;
  surrogate.set_scalers(scalers);

  const core::SolverConfig cfg = solver_config(1);
  const core::BatchItem item{c.workloads[0], c.slo_ms, c.lo, c.hi};
  const auto descend = [&](Report report) {
    return probe_descent(*c.teacher, surrogate, PassKind::kSurrogate, cfg, {&item, 1}, report);
  };
  const Probed skip = descend(Report::kInner);
  const Probed every = descend(Report::kNonFinite);
  ASSERT_TRUE(std::isnan(skip.preds.front().front()));
  EXPECT_EQ(skip.backward_at.size(), skip.preds.size() - 1);
  EXPECT_EQ(digest_hex(skip.results), digest_hex(every.results));
}

// The property itself, on real passes: true for a finite model and quotas,
// with zero-gradient rows coming back as exactly +0 beside a nonzero row;
// false once a weight, a workload or a 1/q is not finite.
TEST(BackwardSkip, PassReportsWhetherZeroRowsStayZero) {
  const AppCase& c = cases().front();
  const std::size_t n = c.n;
  nn::Tensor workload{2, n};
  nn::Tensor quota{2, n};
  for (std::size_t i = 0; i < n; ++i) {
    workload(0, i) = c.workloads[0][i];
    workload(1, i) = c.workloads[1][i];
    quota(0, i) = 700.0;
    quota(1, i) = 1300.0;
  }
  const nn::Tensor dpred{{0.0}, {0.25}};
  const auto check = [&](gnn::QuotaPass& pass) {
    pass.forward(quota);
    EXPECT_TRUE(pass.zero_rows_stay_zero());
    const nn::Tensor& g = pass.backward(dpred);
    double live = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(g(0, i)), 0u) << "node " << i;
      live = std::max(live, std::abs(g(1, i)));
    }
    EXPECT_GT(live, 0.0) << "the nonzero row's gradient";
    nn::Tensor tiny = quota;
    tiny(1, 0) = 1e-310;  // 1/q overflows
    pass.forward(tiny);
    EXPECT_FALSE(pass.zero_rows_stay_zero());
    pass.forward(quota);
    EXPECT_TRUE(pass.zero_rows_stay_zero());
  };
  {
    gnn::LatencyModel::Pass pass{*c.teacher, workload};
    check(pass);
  }
  {
    gnn::SurrogateModel::Pass pass{*c.surrogate, workload};
    check(pass);
  }

  nn::Tensor unbounded = workload;
  unbounded(0, 0) = std::numeric_limits<double>::infinity();
  gnn::LatencyModel::Pass inf_workload{*c.teacher, unbounded};
  inf_workload.forward(quota);
  EXPECT_FALSE(inf_workload.zero_rows_stay_zero());

  gnn::SurrogateModel poisoned = c.surrogate->clone();
  std::vector<nn::Tensor> state = poisoned.state_dict();
  state[state.size() - 2](0, 0) = std::numeric_limits<double>::quiet_NaN();  // last layer W
  poisoned.load_state_dict(state);
  gnn::SurrogateModel::Pass nan_weight{poisoned, workload};
  nan_weight.forward(quota);
  EXPECT_FALSE(nan_weight.zero_rows_stay_zero());
}

}  // namespace
}  // namespace graf
