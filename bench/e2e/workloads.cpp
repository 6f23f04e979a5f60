// The four benchmark workloads. Trained models use fixed seeds: they are
// the system's configuration, not its input, so seed-to-seed spread reflects
// the traffic, fault and simulator streams alone.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <stdexcept>

#include "apps/catalog.h"
#include "common/rng.h"
#include "core/workload_analyzer.h"
#include "e2e.h"
#include "sim/fault_injector.h"
#include "workload/open_loop.h"

namespace graf::e2e {
namespace {

// ---- ground truth + training --------------------------------------------------

/// Teacher training set: per-API rates uniform in [5, 40] qps, per-service
/// quotas uniform in [q_lo, q_hi] units, labelled by `truth`.
template <typename Truth>
gnn::Dataset training_set(const apps::Topology& topo, std::uint64_t seed, double q_lo,
                          double q_hi, Truth truth) {
  const auto fanout = core::expected_fanout(topo);
  Rng rng{seed + 100};
  gnn::Dataset data;
  for (int i = 0; i < 1500; ++i) {
    std::vector<Qps> api(topo.apis.size());
    for (Qps& w : api) w = rng.uniform(5.0, 40.0);
    gnn::Sample s;
    s.workload = node_workload(fanout, api);
    for (const sim::ServiceConfig& svc : topo.services)
      s.quota.push_back(rng.uniform(q_lo * svc.unit_quota, q_hi * svc.unit_quota));
    s.latency_ms = truth(topo, s.workload, s.quota);
    data.push_back(std::move(s));
  }
  return data;
}

gnn::LatencyModel train(const apps::Topology& topo, const gnn::Dataset& data,
                        std::uint64_t seed, const Options& opts) {
  gnn::MpnnConfig cfg;
  cfg.embed_dim = 8;
  cfg.mpnn_hidden = 8;
  cfg.readout_hidden = 24;
  cfg.dropout_p = 0.0;
  gnn::LatencyModel m{apps::make_dag(topo), cfg, seed};
  gnn::TrainConfig tc;
  tc.iterations = opts.smoke ? 100 : 1000;
  tc.batch_size = 64;
  tc.lr = 2e-3;
  tc.lr_decay_every = 500;
  tc.eval_every = 0;
  tc.seed = seed;
  m.fit(data, {}, tc);
  return m;
}

fleet::TenantSpec base_spec(const apps::Topology& topo, gnn::LatencyModel& model,
                            double slo_ms, double q_lo, double q_hi) {
  fleet::TenantSpec spec;
  spec.application = topo.name;
  spec.slo_ms = slo_ms;
  spec.model = &model;
  spec.fanout = core::expected_fanout(topo);
  for (const sim::ServiceConfig& svc : topo.services) {
    spec.lo.push_back(q_lo * svc.unit_quota);
    spec.hi.push_back(q_hi * svc.unit_quota);
    spec.unit.push_back(svc.unit_quota);
    spec.max_instances.push_back(svc.max_instances);
  }
  spec.solver.max_iterations = 600;
  return spec;
}

/// Stateless per-(tenant, tick) stream: inputs never depend on how many
/// draws other tenants or earlier ticks consumed.
Rng stream(std::uint64_t seed, std::uint64_t salt, std::size_t tenant, long tick) {
  return Rng{derive_seed(derive_seed(derive_seed(seed, salt), tenant),
                         static_cast<std::uint64_t>(tick))};
}

/// Per-dimension steps of the d-dimensional Kronecker sequence R_d:
/// 1 / g^(j+1), where g is the positive root of x^(d+1) = x + 1.
std::vector<double> kronecker_steps(std::size_t d) {
  double g = 2.0;
  for (int i = 0; i < 40; ++i) g = std::pow(1.0 + g, 1.0 / static_cast<double>(d + 1));
  std::vector<double> steps;
  for (std::size_t j = 0; j < d; ++j) steps.push_back(std::pow(g, -static_cast<double>(j + 1)));
  return steps;
}

// ---- fleet workloads ----------------------------------------------------------

// The planned-for rates of every fleet workload lie in [kLevelLo, kLevelHi]
// per API: inside the models' trained region, so no §3.6 rescaling.
constexpr double kLevelLo = 8.0;
constexpr double kLevelHi = 8.0 * 3.4785;  // 1.12^11: the cached cycle's top level

/// cached-fleet's 12-level cycle: geometric levels (ratio 1.12) visited in a
/// zig-zag, so consecutive levels differ by 12-25% and every change leaves
/// the 10% hysteresis band.
constexpr int kLevels = 12;
constexpr int kLevelOrder[kLevels] = {0, 2, 4, 6, 8, 10, 11, 9, 7, 5, 3, 1};
/// Ticks per level: each tick a quarter of the tenants change level.
constexpr long kHold = 4;
constexpr long kCycle = kLevels * kHold;       // 48 ticks = 0.48 s
/// The one promotion, at this open-loop tick (inside the 50-tick prefix
/// the determinism check replays). Its re-solve burst lasts one cycle:
/// about 4% of a 15 s run's open-loop ticks, enough for decision_ms.p99 to
/// fall inside the burst.
constexpr long kPromoteAt = 40;

double level(int j) { return kLevelLo * std::pow(1.12, j); }

enum class Traffic { kCycle, kDraws };

struct FleetShape {
  std::size_t per_app = 1;     ///< SLOs per application
  double slo_step_ms = 0.1;    ///< SLO spacing between an app's tenants
  Traffic traffic = Traffic::kDraws;
  bool promotions = false;
  bool surrogate = false;
  std::size_t cache_capacity = 64;
  core::SolverConfig solver;
};

class FleetScenario final : public Scenario {
 public:
  FleetScenario(const Options& opts, const FleetShape& shape,
                const std::vector<gnn::LatencyModel>* trained)
      : seed_{opts.seed}, shape_{shape} {
    topologies = apps::all_applications();
    const auto t0 = Clock::now();
    for (std::size_t a = 0; a < topologies.size(); ++a) {
      if (trained != nullptr) {
        models.push_back((*trained)[a].clone());
      } else {
        const gnn::Dataset data = training_set(topologies[a], 13 + a, 0.8, 4.0, fleet_truth_ms);
        models.push_back(train(topologies[a], data, 13 + a, opts));
      }
    }
    train_s = seconds_between(t0, Clock::now());

    const auto t1 = Clock::now();
    server = std::make_unique<fleet::FleetServer>(fleet::FleetConfig{
        .ingest_capacity = 2 * shape.per_app * topologies.size()});
    for (std::size_t a = 0; a < topologies.size(); ++a) {
      const apps::Topology& topo = topologies[a];
      // SLO floor: every level stays feasible with >= 12% headroom over the
      // analytic latency at the upper quota bounds, after the solver's 0.93
      // margin.
      std::vector<double> hi;
      for (const sim::ServiceConfig& svc : topo.services) hi.push_back(4.0 * svc.unit_quota);
      const std::vector<Qps> top(topo.apis.size(), kLevelHi);
      const double floor_ms =
          std::ceil(10.0 * 1.12 *
                    fleet_truth_ms(topo, node_workload(core::expected_fanout(topo), top), hi) /
                    0.93) /
          10.0;
      for (std::size_t k = 0; k < shape.per_app; ++k) {
        fleet::TenantSpec spec = base_spec(topo, models[a],
                                           floor_ms + shape.slo_step_ms * static_cast<double>(k),
                                           1.1, 4.0);
        spec.solver = shape.solver;
        spec.plan_cache_capacity = shape.cache_capacity;
        if (shape.surrogate) {
          core::TieredSpec& ts = spec.surrogate;
          ts.enabled = true;
          ts.distill = distill_config(opts, topo.service_count());
          ts.planner.solver = spec.solver;
          ts.planner.trust_band_pct = 10.0;
        }
        tenants.push_back({server->add_tenant(spec), spec, a, false});
      }
    }
    admit_s = seconds_between(t1, Clock::now());

    // Each application's tenants spread evenly over the cycle's phases, in
    // a seeded order: every tick the same share of them changes level.
    phase_.resize(tenants.size());
    Rng rng = stream(seed_, 1, 0, 0);
    for (std::size_t a = 0; a < topologies.size(); ++a) {
      std::vector<long> phases;
      for (std::size_t k = 0; k < shape.per_app; ++k)
        phases.push_back(static_cast<long>(k) * kCycle / static_cast<long>(shape.per_app));
      for (std::size_t k = phases.size(); k > 1; --k)
        std::swap(phases[k - 1], phases[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(k) - 1))]);
      for (std::size_t k = 0; k < shape.per_app; ++k) phase_[a * shape.per_app + k] = phases[k];
    }
    for (const apps::Topology& topo : topologies) steps_.push_back(kronecker_steps(topo.apis.size()));
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      Rng r = stream(seed_, 3, i, 0);
      starts_.emplace_back();
      for (std::size_t a = 0; a < topologies[tenants[i].app].apis.size(); ++a)
        starts_.back().push_back(r.uniform());
    }
  }

  void telemetry(long tick, std::vector<fleet::TelemetryUpdate>& out) override {
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      fleet::TelemetryUpdate u;
      u.tenant = tenants[i].id;
      u.now = static_cast<double>(tick);
      const std::size_t apis = topologies[tenants[i].app].apis.size();
      if (shape_.traffic == Traffic::kCycle) {
        // Every tenant rides the cycle from its own phase. A level's first
        // tick carries the exact level (so it lands in the bucket solved on
        // the previous visit); later ticks jitter by <= 0.5% and coast.
        const long pos = (tick + phase_[i]) % kCycle;
        double qps = level(kLevelOrder[pos / kHold]);
        if (pos % kHold != 0 && tick >= kCycle)
          qps *= 1.0 + 0.005 * (2.0 * stream(seed_, 2, i, tick).uniform() - 1.0);
        u.api_qps.assign(apis, qps);
      } else {
        // Log-uniform draws per tenant and API from a Kronecker sequence
        // with seeded starts: consecutive draws of an API are at least 18%
        // of the log range apart, so every push leaves the hysteresis band,
        // and each tenant's rates fill the rate cube evenly whatever the
        // seed, so the outcome rows do not hinge on a seed's luck.
        const std::vector<double>& steps = steps_[tenants[i].app];
        for (std::size_t a = 0; a < apis; ++a) {
          const double x = std::fmod(starts_[i][a] + steps[a] * static_cast<double>(tick), 1.0);
          u.api_qps.push_back(kLevelLo * std::pow(kLevelHi / kLevelLo, x));
        }
      }
      out.push_back(std::move(u));
    }
  }

  void before_tick(long tick, Phase phase, Tracer* tracer) override {
    if (!shape_.promotions || phase != Phase::kOpenLoop || open_ticks_++ != kPromoteAt) return;
    // Write path: republish and promote the first application's tenant
    // models. Each promoted tenant's plan cache is invalidated on its next
    // plan, so the following cycle re-solves all of its levels.
    const std::size_t app = 0;
    const auto t0 = Clock::now();
    for (const TenantInfo& t : tenants) {
      if (t.app != app) continue;
      const serve::ModelKey key{t.spec.application, t.spec.slo_ms};
      const std::uint64_t v = server->registry().publish(key, models[app], {});
      server->registry().promote(key, v);
    }
    const auto t1 = Clock::now();
    promote_ms_.push_back(ms_between(t0, t1));
    promote_ticks_.push_back(tick);
    if (tracer != nullptr) tracer->add("serve.promote", t0, t1, -1, tick);
  }

  double truth_ms(std::size_t tenant, std::span<const Qps> qps,
                  const core::AllocationPlan& plan) const override {
    const TenantInfo& t = tenants[tenant];
    return fleet_truth_ms(topologies[t.app], node_workload(t.spec.fanout, qps), plan.quota);
  }

  std::vector<double> promote_ms() const override { return promote_ms_; }
  std::vector<long> promote_ticks() const override { return promote_ticks_; }

 private:
  std::uint64_t seed_;
  FleetShape shape_;
  std::vector<long> phase_;                   ///< cycle phase, per tenant
  std::vector<std::vector<double>> steps_;    ///< Kronecker steps, per app
  std::vector<std::vector<double>> starts_;   ///< sequence starts, per tenant and API
  long open_ticks_ = 0;
  std::vector<double> promote_ms_;
  std::vector<long> promote_ticks_;
};

std::unique_ptr<Scenario> build_cached(const Options& opts,
                                       const std::vector<gnn::LatencyModel>* trained) {
  FleetShape s;
  s.per_app = opts.smoke ? 16 : 256;
  s.slo_step_ms = 0.1;
  s.traffic = Traffic::kCycle;
  s.promotions = true;
  // A short, coarse descent: this workload's solves happen only in the
  // warm-up and the promotion burst, 1024 tenants x 12 levels must warm up
  // in seconds, and a burst tick (64 re-solves as one batched group) must
  // stay well inside the 10 ms period so the burst builds no backlog.
  s.solver.lr_mc = 60.0;
  s.solver.max_iterations = 6;
  return std::make_unique<FleetScenario>(opts, s, trained);
}

std::unique_ptr<Scenario> build_miss_full(const Options& opts,
                                          const std::vector<gnn::LatencyModel>* trained) {
  FleetShape s;
  s.per_app = 2;
  s.slo_step_ms = 3.0;
  s.cache_capacity = 8;
  s.solver.max_iterations = opts.smoke ? 100 : 600;
  return std::make_unique<FleetScenario>(opts, s, trained);
}

std::unique_ptr<Scenario> build_miss_surrogate(const Options& opts,
                                               const std::vector<gnn::LatencyModel>* trained) {
  FleetShape s;
  s.per_app = 1;
  s.slo_step_ms = 6.0;
  s.cache_capacity = 8;
  s.surrogate = true;
  s.solver.max_iterations = opts.smoke ? 100 : 600;
  return std::make_unique<FleetScenario>(opts, s, trained);
}

// ---- surge-sim ----------------------------------------------------------------

constexpr double kSurgeTick = 2.0;          // simulated seconds per control tick
constexpr long kSurgeWarmupTicks = 30;      // 60 simulated seconds
/// Simulated seconds of measured window per requested wall second.
constexpr double kSimPerWallSecond = 50.0;
constexpr std::size_t kForecastApp = 0;     // Online Boutique plans ahead
constexpr std::size_t kFaultedApp = 2;      // Robot Shop crashes and goes dark
constexpr double kCrashSlot = 30.0;         // simulated seconds per crash

/// Per-cluster open-loop base rate (qps; doubles halfway through the
/// window) and the SLO each application's tenant plans for.
constexpr double kSurgeRate = 300.0;
constexpr double kSurgeSlo[4] = {120.0, 110.0, 200.0, 90.0};

/// Open-loop rate: `base` until `mid`, then doubling in four per-tick
/// steps of 2^(1/4).
workload::Schedule surge_rate(double base, double mid) {
  std::vector<std::pair<Seconds, double>> points{{0.0, base}};
  for (int j = 1; j <= 4; ++j)
    points.emplace_back(mid + kSurgeTick * (j - 1), base * std::pow(2.0, j / 4.0));
  return workload::Schedule::piecewise(std::move(points));
}

class SurgeScenario final : public Scenario {
 public:
  SurgeScenario(const Options& opts, const std::vector<gnn::LatencyModel>* trained) {
    topologies = apps::all_applications();
    window_ticks_ = std::max<long>(
        10, std::lround(opts.seconds * (opts.smoke ? 8.0 : kSimPerWallSecond) / kSurgeTick));
    const double window_start = kSurgeWarmupTicks * kSurgeTick;
    const double end = window_start + static_cast<double>(window_ticks_) * kSurgeTick;

    const auto t0 = Clock::now();
    for (std::size_t a = 0; a < topologies.size(); ++a) {
      data_.push_back(training_set(topologies[a], 31 + a, 0.5, 4.0, mm1_truth_ms));
      if (trained != nullptr)
        models.push_back((*trained)[a].clone());
      else
        models.push_back(train(topologies[a], data_[a], 31 + a, opts));
    }
    train_s = seconds_between(t0, Clock::now());

    const auto t1 = Clock::now();
    server = std::make_unique<fleet::FleetServer>(fleet::FleetConfig{.ingest_capacity = 16});
    gens_.reserve(topologies.size());
    for (std::size_t a = 0; a < topologies.size(); ++a) {
      const apps::Topology& topo = topologies[a];
      clusters_.push_back(apps::make_cluster_factory(
          topo, {.seed = derive_seed(opts.seed, 100 + a)})());
      fleet::TenantSpec spec = base_spec(topo, models[a], kSurgeSlo[a], 0.5, 4.0);
      // Re-plan and solve every tick, each solve running all its iterations
      // (no early stop): every tick carries the same controller work, so
      // the timing rows do not hinge on how many tenants happened to coast,
      // hit the cache or converge early under this seed's traffic.
      spec.change_threshold = 0.0;
      spec.plan_cache_capacity = 0;
      spec.solver.max_iterations = opts.smoke ? 50 : 200;
      spec.solver.tolerance = 0.0;
      // Observed rates exceed the trained region; the reference lets the
      // controller rescale (§3.6) instead of extrapolating the model.
      spec.training_reference = data_[a];
      if (a == kForecastApp) {
        spec.forecast.enabled = true;
        spec.forecast.kind = forecast::ForecastKind::kHoltWinters;
        // 3 ticks = 6 s of lookahead covers the 5.5 s instance creation.
        spec.forecast.gate.horizon_steps = 3;
      }
      const fleet::TenantId id = server->add_tenant(spec);
      tenants.push_back({id, spec, a, a == kFaultedApp});
      slot_to_cluster_.resize(std::max<std::size_t>(slot_to_cluster_.size(), id.slot + 1), 0);
      slot_to_cluster_[id.slot] = a;

      workload::OpenLoopConfig g;
      g.rate = surge_rate(kSurgeRate,
                          window_start + kSurgeTick * static_cast<double>(window_ticks_ / 2));
      g.api_weights = topo.api_weights;
      g.seed = derive_seed(opts.seed, 200 + a);
      g.on_complete = [this, a](const trace::RequestTrace& t) { record(a, t); };
      gens_.emplace_back(*clusters_.back(), g);
      gens_.back().start(end);
    }
    // Robot Shop: one instance crash in every 30 s slot of the window, at a
    // seeded moment, on the services in turn and alternating between
    // aborting and re-queueing in-flight jobs; plus two scripted telemetry
    // blackouts, so the signal-loss path fires on every run. A fixed crash
    // count keeps the violation share from hinging on how many crashes a
    // seed happens to draw.
    injector_ = std::make_unique<sim::FaultInjector>(*clusters_[kFaultedApp]);
    Rng crash_rng{derive_seed(opts.seed, 300)};
    const int services = static_cast<int>(topologies[kFaultedApp].service_count());
    for (int j = 0; window_start + kCrashSlot * (j + 1) <= end; ++j) {
      const double at = window_start + kCrashSlot * (j + crash_rng.uniform());
      const std::uint64_t pick = crash_rng.next_u64();
      injector_->crash_instance(at, j % services, pick,
                                j % 2 == 0 ? sim::CrashMode::kAbort : sim::CrashMode::kRequeue);
    }
    injector_->blackout_telemetry(window_start + 0.3 * (end - window_start), 8.0);
    injector_->blackout_telemetry(window_start + 0.7 * (end - window_start), 8.0);
    injector_->arm();
    admit_s = seconds_between(t1, Clock::now());
  }

  long lock_step_ticks() const override { return window_ticks_; }

  void telemetry(long /*tick*/, std::vector<fleet::TelemetryUpdate>& out) override {
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      sim::Cluster& c = *clusters_[i];
      fleet::TelemetryUpdate u;
      u.tenant = tenants[i].id;
      u.now = c.now();
      for (std::size_t a = 0; a < c.api_count(); ++a)
        u.api_qps.push_back(c.api_qps(static_cast<int>(a), 2.0 * kSurgeTick));
      out.push_back(std::move(u));
    }
  }

  void before_tick(long tick, Phase /*phase*/, Tracer* tracer) override {
    const double t = static_cast<double>(tick + 1) * kSurgeTick;
    for (auto& c : clusters_) {
      const auto t0 = Clock::now();
      c->run_until(t);
      const auto t1 = Clock::now();
      if (measuring_) {
        run_until_s_ += seconds_between(t0, t1);
        run_until_ms_.push_back(ms_between(t0, t1));
      }
      if (tracer != nullptr) tracer->add("sim.run_until", t0, t1, -1, tick);
    }
    if (measuring_)
      for (const auto& c : clusters_) core_s_ += c->total_quota() / 1000.0 * kSurgeTick;
  }

  void on_plan(const fleet::PlanUpdate& u) override {
    core::ResourceController::apply(*clusters_[slot_to_cluster_[u.tenant.slot]], u.plan);
  }

  bool simulated() const override { return true; }

  void start_window(long tick) override {
    measuring_ = true;
    window_start_time_ = static_cast<double>(tick) * kSurgeTick;
    for (const auto& c : clusters_) events0_ += c->events().processed();
  }

  void end_window(long tick) override {
    measuring_ = false;
    window_end_time_ = static_cast<double>(tick) * kSurgeTick;
    for (const auto& c : clusters_) events1_ += c->events().processed();
    for (std::size_t a = 0; a < topologies.size(); ++a)
      std::cerr << "graf_e2e: " << topologies[a].name << " requests " << app_requests_[a]
                << ", over SLO or failed "
                << 100.0 * static_cast<double>(app_violations_[a]) /
                       static_cast<double>(std::max<std::uint64_t>(app_requests_[a], 1))
                << "%\n";
  }

  SimOutcome sim_outcome() const override {
    SimOutcome o;
    std::uint64_t violations = 0;
    for (std::size_t a = 0; a < topologies.size(); ++a) {
      o.requests += app_requests_[a];
      violations += app_violations_[a];
    }
    if (o.requests > 0)
      o.violation_pct = 100.0 * static_cast<double>(violations) / static_cast<double>(o.requests);
    o.core_s = core_s_;
    o.sim_seconds = window_end_time_ - window_start_time_;
    o.run_until_s = run_until_s_;
    o.run_until_ms = run_until_ms_;
    o.events = events1_ - events0_;
    return o;
  }

 private:
  void record(std::size_t app, const trace::RequestTrace& t) {
    if (!measuring_) return;
    // A failed request missed its SLO.
    ++app_requests_[app];
    if (!t.ok || t.e2e_ms() > kSurgeSlo[app]) ++app_violations_[app];
  }

  std::vector<gnn::Dataset> data_;
  std::vector<std::unique_ptr<sim::Cluster>> clusters_;
  std::vector<workload::OpenLoopGenerator> gens_;
  std::unique_ptr<sim::FaultInjector> injector_;
  std::vector<std::size_t> slot_to_cluster_;
  long window_ticks_ = 0;
  bool measuring_ = false;
  double window_start_time_ = 0.0;
  double window_end_time_ = 0.0;
  double run_until_s_ = 0.0;
  std::vector<double> run_until_ms_;
  double core_s_ = 0.0;
  std::uint64_t events0_ = 0;
  std::uint64_t events1_ = 0;
  std::uint64_t app_requests_[4] = {};
  std::uint64_t app_violations_[4] = {};
};

std::unique_ptr<Scenario> build_surge(const Options& opts,
                                      const std::vector<gnn::LatencyModel>* trained) {
  return std::make_unique<SurgeScenario>(opts, trained);
}

}  // namespace

core::SolverDistillConfig distill_config(const Options& opts, std::size_t services) {
  core::SolverDistillConfig cfg;
  cfg.base.samples = (opts.smoke ? 64 : 256) * services;
  cfg.base.train.iterations = opts.smoke ? 100 : 800;
  cfg.rounds = 1;
  cfg.queries_per_round = opts.smoke ? 16 : 64;
  cfg.refine.iterations = opts.smoke ? 50 : 300;
  return cfg;
}

double fleet_truth_ms(const apps::Topology& topo, std::span<const double> node_w,
                      std::span<const double> quota) {
  double latency = 0.0, mean_w = 0.0;
  const double n = static_cast<double>(topo.service_count());
  for (std::size_t i = 0; i < topo.service_count(); ++i) {
    latency += topo.services[i].demand_mean_ms * 1000.0 / quota[i];
    mean_w += node_w[i] / n;
  }
  return latency + 0.6 * mean_w;
}

double mm1_truth_ms(const apps::Topology& topo, std::span<const double> node_w,
                    std::span<const double> quota) {
  double total = 0.0;
  for (std::size_t i = 0; i < topo.service_count(); ++i) {
    const double demand = topo.services[i].demand_mean_ms;
    const double cores = quota[i] / 1000.0;
    const double capacity = cores * 1000.0 / demand;
    const double utilization = std::min(node_w[i] / capacity, 0.95);
    total += demand / std::min(cores, 1.0) / (1.0 - utilization);
  }
  return total;
}

std::vector<double> node_workload(const std::vector<std::vector<double>>& fanout,
                                  std::span<const Qps> api_qps) {
  std::vector<double> w(fanout.empty() ? 0 : fanout.front().size(), 0.0);
  for (std::size_t a = 0; a < api_qps.size(); ++a)
    for (std::size_t s = 0; s < w.size(); ++s) w[s] += api_qps[a] * fanout[a][s];
  return w;
}

SimOutcome probe_simulator(const apps::Topology& topo, std::uint64_t seed) {
  constexpr int kTicks = 10;
  std::unique_ptr<sim::Cluster> cluster =
      apps::make_cluster_factory(topo, {.seed = derive_seed(seed, 400)})();
  workload::OpenLoopConfig g;
  g.rate = workload::Schedule::constant(kSurgeRate);
  g.api_weights = topo.api_weights;
  g.seed = derive_seed(seed, 401);
  workload::OpenLoopGenerator gen{*cluster, g};
  gen.start(kTicks * kSurgeTick);
  SimOutcome o;
  const std::uint64_t events0 = cluster->events().processed();
  for (int k = 1; k <= kTicks; ++k) {
    const auto t0 = Clock::now();
    cluster->run_until(k * kSurgeTick);
    const auto t1 = Clock::now();
    o.run_until_ms.push_back(ms_between(t0, t1));
    o.run_until_s += seconds_between(t0, t1);
  }
  o.events = cluster->events().processed() - events0;
  o.sim_seconds = kTicks * kSurgeTick;
  return o;
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all{
      {.name = "cached-fleet", .tick_s = 0.010, .limit_ms = 10.0, .lock_step = false,
       .closed_ticks_per_s = 1600.0, .warmup_ticks = kCycle, .build = build_cached},
      {.name = "miss-full", .tick_s = 0.150, .limit_ms = 150.0, .lock_step = false,
       .closed_ticks_per_s = 18.0, .warmup_ticks = 10, .build = build_miss_full},
      {.name = "miss-surrogate", .tick_s = 0.045, .limit_ms = 45.0, .lock_step = false,
       .closed_ticks_per_s = 70.0, .warmup_ticks = 10, .build = build_miss_surrogate},
      {.name = "surge-sim", .tick_s = kSurgeTick, .limit_ms = 100.0, .lock_step = true,
       .warmup_ticks = kSurgeWarmupTicks, .build = build_surge},
  };
  return all;
}

}  // namespace graf::e2e
