// Layer replay for traced runs: re-run recorded fleet decisions through the
// public per-layer calls on fresh pipelines built from the same TenantSpecs,
// timing each layer.
//
// Per recorded step the replay mirrors the fleet's phases: the forecast gate
// for forecast-mode tenants, a parallel begin_plan over every tenant that
// planned (the fleet's prepare fan-out), and a parallel solve over same-model
// groups (ConfigurationSolver::solve_batch or TieredPlanner::solve_items,
// each member then finish_plan). Cache hits are reproduced by seeding the
// fresh plan cache, untimed, with the committed plan's own solver result;
// misses start from an emptied cache. Prepare and solve run kPasses times
// and the fastest pass is kept, so a scheduling hiccup in the replay is not
// charged to a layer. The replayed phase spans are what the step spent in those
// layers; the step span minus them is the fleet's self time (drain,
// hysteresis, grouping, commit, notify). distribute() and the forwards are
// timed as probes beside the sum: the step does their work inside
// begin_plan and the solver.
//
// Workloads without surrogate-mode tenants time the surrogate layer on a
// probe: one tenant's model distilled after the window, solving that
// tenant's replayed decisions.
#include <algorithm>
#include <map>
#include <memory>

#include "common/thread_pool.h"
#include "core/tiered_planner.h"
#include "core/workload_analyzer.h"
#include "e2e.h"
#include "forecast/gate.h"
#include "gnn/batched_latency_model.h"
#include "gnn/surrogate_model.h"

namespace graf::e2e {
namespace {

constexpr int kPasses = 5;
constexpr std::size_t kProbeSolves = 20;

/// A tenant's planning pipeline, rebuilt from its admission spec. The
/// surrogate is copied from the live tenant: distilling again would replay
/// admission, not the step.
struct Pipeline {
  Pipeline(const TenantInfo& t, fleet::Tenant& live)
      : model{t.spec.model->clone()},
        analyzer{t.spec.fanout.size(), t.spec.lo.size()},
        solver{model, t.spec.solver},
        controller{model, solver, analyzer, t.spec.lo, t.spec.hi, t.spec.unit} {
    analyzer.set_fanout(t.spec.fanout);
    if (!t.spec.training_reference.empty())
      controller.set_training_reference(t.spec.training_reference);
    if (!t.spec.max_instances.empty()) controller.set_max_instances(t.spec.max_instances);
    controller.set_plan_cache_capacity(t.spec.plan_cache_capacity);
    if (t.spec.surrogate.enabled) {
      tiered = std::make_unique<core::TieredPlanner>(
          std::make_shared<gnn::SurrogateModel>(live.tiered_planner()->active_surrogate().clone()),
          t.spec.surrogate.planner);
      controller.set_tiered_planner(tiered.get());
      surrogate_fp = gnn::SurrogateModel::fingerprint(tiered->active_surrogate());
    }
    if (t.spec.forecast.enabled) gate = std::make_unique<forecast::ForecastGate>(t.spec.forecast);
  }
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  gnn::LatencyModel model;
  core::WorkloadAnalyzer analyzer;
  core::ConfigurationSolver solver;
  core::ResourceController controller;
  std::unique_ptr<core::TieredPlanner> tiered;
  std::uint64_t surrogate_fp = 0;
  std::unique_ptr<forecast::ForecastGate> gate;
  std::size_t stream_pos = 0;  ///< next ObservedStream push to feed the gate
};

using Interval = std::pair<Clock::time_point, Clock::time_point>;

double us_of(const Interval& iv) {
  return std::chrono::duration<double, std::micro>(iv.second - iv.first).count();
}

bool same_plan(const core::AllocationPlan& a, const core::AllocationPlan& b) {
  return a.instances == b.instances && a.quota == b.quota && a.degraded == b.degraded;
}

/// A distilled surrogate for `t`: the admission distillation a
/// surrogate-mode tenant runs (fleet/tenant.cpp), at the benchmark's size.
std::unique_ptr<core::TieredPlanner> probe_planner(const TenantInfo& t, gnn::LatencyModel& model,
                                                   const Options& opts) {
  std::vector<double> region(t.spec.lo.size(), 0.0);
  if (t.spec.training_reference.empty()) {
    std::fill(region.begin(), region.end(), 1.0 / model.scalers().w_scale);
  } else {
    for (const gnn::Sample& s : t.spec.training_reference)
      for (std::size_t i = 0; i < region.size(); ++i) region[i] = std::max(region[i], s.workload[i]);
  }
  core::TieredPlannerConfig planner;
  planner.solver = t.spec.solver;
  gnn::SurrogateDistiller::Result distilled = core::TieredPlanner::distill_for_planner(
      model, region, t.spec.lo, t.spec.hi, t.spec.slo_ms, distill_config(opts, region.size()),
      planner.solver);
  return std::make_unique<core::TieredPlanner>(
      std::make_shared<gnn::SurrogateModel>(std::move(distilled.model)), planner);
}

/// One replay pass over a step's prepare and solve phases.
struct Pass {
  Interval prepare, solve;
  std::vector<Interval> begin, group_solve, finish;
  std::vector<std::size_t> group_iters;
  std::vector<core::AllocationPlan> plans;
  double us() const { return us_of(prepare) + us_of(solve); }
};

}  // namespace

ReplayResult replay_layers(Scenario& sc, const Options& opts, const std::vector<RecordedStep>& steps,
                           const std::vector<ObservedStream>& streams, Tracer& tracer) {
  ReplayResult out;
  std::vector<std::unique_ptr<Pipeline>> pipes(sc.tenants.size());
  auto pipe = [&](std::size_t i) -> Pipeline& {
    if (!pipes[i])
      pipes[i] = std::make_unique<Pipeline>(sc.tenants[i], *sc.server->tenant(sc.tenants[i].id));
    return *pipes[i];
  };
  auto signal = [](const std::vector<Qps>& q) {
    double total = 0.0;
    for (Qps x : q) total += x;
    return total > 0.0;
  };

  // Workloads without a forecast-mode tenant time the forecast layer as a
  // probe: a fresh default gate fed each step's first planned rates.
  forecast::ForecastSpec probe_spec;
  probe_spec.enabled = true;
  forecast::ForecastGate probe_gate{probe_spec};

  bool surrogate_mode = false;
  for (const TenantInfo& t : sc.tenants) surrogate_mode |= t.spec.surrogate.enabled;
  std::size_t probe_tenant = sc.tenants.size();
  std::unique_ptr<core::TieredPlanner> probe;

  for (const RecordedStep& step : steps) {
    const auto r0 = Clock::now();
    const int root = tracer.add("replay.step", r0, r0, step.span, step.tick);
    double replayed_us = 0.0;

    // Forecast gate: catch the fresh gate up on earlier pushes (untimed),
    // then time this tick's call, as the fleet's prepare makes it.
    std::map<std::size_t, std::vector<Qps>> planned_for;
    for (std::size_t f : step.forecast_tenants) {
      Pipeline& p = pipe(f);
      const ObservedStream* s = nullptr;
      for (const ObservedStream& x : streams)
        if (x.tenant == f) s = &x;
      if (s == nullptr) continue;
      while (p.stream_pos < s->pushes.size() && s->pushes[p.stream_pos].first < step.tick) {
        if (signal(s->pushes[p.stream_pos].second)) p.gate->plan_qps(s->pushes[p.stream_pos].second);
        ++p.stream_pos;
      }
      if (p.stream_pos < s->pushes.size() && s->pushes[p.stream_pos].first == step.tick) {
        const std::vector<Qps>& obs = s->pushes[p.stream_pos].second;
        ++p.stream_pos;
        if (!signal(obs)) continue;
        const auto t0 = Clock::now();
        planned_for[f] = p.gate->plan_qps(obs);
        const Interval iv{t0, Clock::now()};
        out.plan_qps_us.push_back(us_of(iv));
        replayed_us += us_of(iv);
        tracer.add("forecast.plan_qps", iv.first, iv.second, root, step.tick);
      }
    }

    if (streams.empty() && !step.decisions.empty()) {
      const auto t0 = Clock::now();
      probe_gate.plan_qps(step.decisions.front().observed);
      const auto t1 = Clock::now();
      out.plan_qps_us.push_back(us_of({t0, t1}));
      tracer.add("forecast.plan_qps.probe", t0, t1, root, step.tick);
    }

    const std::size_t n = step.decisions.size();
    std::vector<std::vector<Qps>> qps(n);
    for (std::size_t d = 0; d < n; ++d) {
      auto it = planned_for.find(step.decisions[d].tenant);
      qps[d] = it != planned_for.end() ? it->second : step.decisions[d].observed;
    }

    std::vector<std::vector<std::size_t>> groups;
    std::vector<std::vector<double>> scaled(n);
    Pass best;
    for (int pass = 0; pass < kPasses; ++pass) {
      // Untimed cache state: a hit finds the committed plan, a miss finds
      // nothing.
      for (std::size_t d = 0; d < n; ++d) {
        const Decision& dec = step.decisions[d];
        core::ResourceController& c = pipe(dec.tenant).controller;
        if (dec.cache_hit) {
          core::PlanPrep p = c.begin_plan(qps[d], sc.tenants[dec.tenant].spec.slo_ms);
          if (!p.done) c.finish_plan(std::move(p), dec.plan.solver);
        } else {
          c.set_plan_cache_capacity(sc.tenants[dec.tenant].spec.plan_cache_capacity);
        }
      }

      Pass cur;
      // Prepare: begin_plan for every planned tenant, fanned out like the fleet.
      std::vector<core::PlanPrep> preps(n);
      cur.begin.resize(n);
      const auto p0 = Clock::now();
      global_pool().parallel_for(n, [&](std::size_t d) {
        const auto t0 = Clock::now();
        const std::size_t i = step.decisions[d].tenant;
        preps[d] = pipe(i).controller.begin_plan(qps[d], sc.tenants[i].spec.slo_ms);
        cur.begin[d] = {t0, Clock::now()};
      });
      cur.prepare = {p0, Clock::now()};

      // Group owed solves the way the fleet does: same application (model
      // content) and, for surrogate tenants, the same distilled surrogate.
      // Every pass starts from the same cache state, so the first pass's
      // grouping holds for the others.
      if (pass == 0) {
        for (std::size_t d = 0; d < n; ++d) {
          scaled[d] = preps[d].scaled;
          if (preps[d].done) continue;
          const std::size_t i = step.decisions[d].tenant;
          bool placed = false;
          for (auto& g : groups) {
            const std::size_t lead = step.decisions[g.front()].tenant;
            if (sc.tenants[lead].app == sc.tenants[i].app &&
                pipe(lead).surrogate_fp == pipe(i).surrogate_fp) {
              g.push_back(d);
              placed = true;
              break;
            }
          }
          if (!placed) groups.emplace_back(1, d);
        }
      }

      cur.plans.resize(n);
      for (std::size_t d = 0; d < n; ++d)
        if (preps[d].done) cur.plans[d] = preps[d].plan;
      cur.group_solve.resize(groups.size());
      cur.group_iters.assign(groups.size(), 1);
      cur.finish.resize(n);
      const auto s0 = Clock::now();
      global_pool().parallel_for(groups.size(), [&](std::size_t g) {
        const std::vector<std::size_t>& members = groups[g];
        Pipeline& lead = pipe(step.decisions[members.front()].tenant);
        std::vector<core::SolverResult> results;
        const auto t0 = Clock::now();
        if (members.size() == 1) {
          results.push_back(lead.controller.solve_prepared(preps[members.front()]));
        } else if (lead.tiered) {
          std::vector<core::TieredPlanner::Item> items;
          for (std::size_t d : members) {
            Pipeline& p = pipe(step.decisions[d].tenant);
            items.push_back({p.tiered.get(), &p.model, &p.solver, preps[d].scaled,
                             preps[d].slo_ms, p.controller.lower_bounds(),
                             p.controller.upper_bounds()});
          }
          results = core::TieredPlanner::solve_items(lead.tiered->active_surrogate(),
                                                     lead.tiered->config().solver, items);
        } else {
          gnn::BatchedLatencyModel batched{lead.model,
                                           std::max<std::size_t>(1, lead.solver.config().multi_starts)};
          std::vector<core::BatchItem> items;
          for (std::size_t d : members) {
            Pipeline& p = pipe(step.decisions[d].tenant);
            items.push_back({preps[d].scaled, preps[d].slo_ms, p.controller.lower_bounds(),
                             p.controller.upper_bounds()});
          }
          for (core::BatchItemResult& r :
               core::ConfigurationSolver::solve_batch(batched, lead.solver.config(), items))
            results.push_back(std::move(r.result));
        }
        cur.group_solve[g] = {t0, Clock::now()};
        for (std::size_t m = 0; m < members.size(); ++m) {
          const std::size_t d = members[m];
          cur.group_iters[g] = std::max(cur.group_iters[g], results[m].iterations);
          const auto f0 = Clock::now();
          cur.plans[d] = pipe(step.decisions[d].tenant)
                             .controller.finish_plan(std::move(preps[d]), std::move(results[m]));
          cur.finish[d] = {f0, Clock::now()};
        }
      });
      cur.solve = {s0, Clock::now()};
      if (pass == 0 || cur.us() < best.us()) best = std::move(cur);
    }

    replayed_us += best.us();
    const int prepare_span = tracer.add("replay.prepare", best.prepare.first, best.prepare.second,
                                        root, step.tick);
    for (const Interval& iv : best.begin) {
      out.begin_plan_us.push_back(us_of(iv));
      tracer.add("core.begin_plan", iv.first, iv.second, prepare_span, step.tick);
    }
    if (!groups.empty()) {
      const int solve_span = tracer.add("replay.solve", best.solve.first, best.solve.second, root,
                                        step.tick);
      for (std::size_t g = 0; g < groups.size(); ++g) {
        const Interval& iv = best.group_solve[g];
        const int gs = tracer.add("core.solve", iv.first, iv.second, solve_span, step.tick);
        out.solve_ms.push_back(us_of(iv) / 1e3);
        if (pipe(step.decisions[groups[g].front()].tenant).tiered)
          out.tiered_solve_ms.push_back(us_of(iv) / 1e3);
        out.iter_us.push_back(us_of(iv) / static_cast<double>(best.group_iters[g]));
        out.group_sizes.push_back(groups[g].size());
        for (std::size_t d : groups[g]) {
          out.finish_plan_us.push_back(us_of(best.finish[d]));
          tracer.add("core.finish_plan", best.finish[d].first, best.finish[d].second, gs,
                     step.tick);
        }
      }
    }

    // Probes beside the sum, and the replay's own correctness check.
    for (std::size_t d = 0; d < n; ++d) {
      const Decision& dec = step.decisions[d];
      Pipeline& p = pipe(dec.tenant);
      const core::AllocationPlan& plan = best.plans[d];
      if (!same_plan(plan, dec.plan)) ++out.mismatches;
      const auto t0 = Clock::now();
      std::vector<double> w = p.analyzer.distribute(qps[d]);
      const auto t1 = Clock::now();
      out.distribute_us.push_back(us_of({t0, t1}));
      tracer.add("core.distribute", t0, t1, root, step.tick);
      std::vector<double> q = plan.quota;
      for (double& x : w) x /= plan.scale_factor;
      for (double& x : q) x /= plan.scale_factor;
      const auto t2 = Clock::now();
      p.model.predict(w, q);
      const auto t3 = Clock::now();
      out.forward_us.push_back(us_of({t2, t3}));
      tracer.add("gnn.forward", t2, t3, root, step.tick);

      if (!surrogate_mode && probe == nullptr && !dec.cache_hit) {
        probe_tenant = dec.tenant;
        probe = probe_planner(sc.tenants[probe_tenant], p.model, opts);
      }
      core::TieredPlanner* tiered = p.tiered ? p.tiered.get()
                                    : dec.tenant == probe_tenant ? probe.get()
                                                                 : nullptr;
      if (tiered == nullptr) continue;
      const auto t4 = Clock::now();
      tiered->active_surrogate().predict(w, q);
      const auto t5 = Clock::now();
      out.surrogate_forward_us.push_back(us_of({t4, t5}));
      tracer.add("gnn.surrogate_forward", t4, t5, root, step.tick);
      if (tiered == probe.get() && !dec.cache_hit && out.tiered_solve_ms.size() < kProbeSolves) {
        const auto t6 = Clock::now();
        probe->solve(p.model, p.solver, scaled[d], sc.tenants[dec.tenant].spec.slo_ms,
                     p.controller.lower_bounds(), p.controller.upper_bounds());
        const auto t7 = Clock::now();
        out.tiered_solve_ms.push_back(ms_between(t6, t7));
        tracer.add("core.tiered.solve.probe", t6, t7, root, step.tick);
      }
    }

    tracer.close(root, Clock::now());
    out.self_ms.push_back((step.step_us - replayed_us) / 1e3);
    out.ratio.push_back(step.step_us > 0.0 ? replayed_us / step.step_us : 0.0);
  }
  return out;
}

}  // namespace graf::e2e
