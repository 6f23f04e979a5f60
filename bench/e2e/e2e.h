// End-to-end GRAF benchmark: shared types.
//
// The driver (driver.cpp) runs one workload against a real
// fleet::FleetServer through its public API only: it pushes each tick's
// telemetry, calls step(), and watches the committed plans. A workload
// (workloads.cpp) supplies the trained models, the admitted tenants and the
// telemetry stream, all built from --seed. The traced run additionally keeps
// spans in memory (Tracer) and replays recorded decisions through the
// per-layer public calls (replay.cpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "apps/topology.h"
#include "common/units.h"
#include "core/resource_controller.h"
#include "core/tiered_planner.h"
#include "fleet/fleet_server.h"
#include "gnn/latency_model.h"

namespace graf::e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes and one setup: checks that every metric is produced.
  bool smoke = false;
  std::string spans_path;
};

// ---- spans -----------------------------------------------------------------

struct Span {
  const char* name = "";  ///< string literal: names never own storage
  double start_us = 0.0;  ///< microseconds since the tracer was created
  double end_us = 0.0;
  int parent = -1;        ///< index into Tracer::spans, -1 for a root
  long tick = -1;         ///< driver tick the span belongs to
};

/// In-memory span store, written on the driver thread only. Capped so a
/// long run cannot exhaust memory.
class Tracer {
 public:
  explicit Tracer(std::size_t cap = 400000) : cap_{cap} {}

  double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }
  /// Record a finished span; returns its index (-1 when over the cap).
  int add(const char* name, Clock::time_point start, Clock::time_point end,
          int parent, long tick);
  /// Set the end of a span added before its end was known.
  void close(int id, Clock::time_point end);

  const std::vector<Span>& spans() const { return spans_; }
  std::size_t dropped() const { return dropped_; }

 private:
  Clock::time_point origin_ = Clock::now();
  std::size_t cap_;
  std::vector<Span> spans_;
  std::size_t dropped_ = 0;
};

// ---- workloads ---------------------------------------------------------------

/// One admitted tenant, as the driver and the replay see it.
struct TenantInfo {
  fleet::TenantId id;
  /// The admission spec (its model points into Scenario::models).
  fleet::TenantSpec spec;
  std::size_t app = 0;  ///< index into Scenario::topologies
  /// Runs under an injected fault schedule (exempt from the health checks).
  bool faulted = false;
};

enum class Phase { kWarmup, kOpenLoop, kClosedLoop };

/// What a simulator reports over the measured window: the simulated
/// workload's request outcomes, or the simulator probe's costs.
struct SimOutcome {
  double violation_pct = 0.0;     ///< requests over SLO or failed, percent
  double core_s = 0.0;            ///< ready-instance core-seconds
  double sim_seconds = 0.0;       ///< simulated time in the window
  double run_until_s = 0.0;       ///< wall time inside Cluster::run_until
  std::vector<double> run_until_ms;  ///< one per Cluster::run_until call
  std::uint64_t events = 0;       ///< simulator events in the window
  std::uint64_t requests = 0;
};

/// A workload instance: trained models, an admitted fleet, and the
/// telemetry stream. Everything is a pure function of the seed, so two
/// instances built from one seed make identical decisions.
class Scenario {
 public:
  virtual ~Scenario() = default;

  std::vector<apps::Topology> topologies;
  std::vector<gnn::LatencyModel> models;  ///< one per topology
  std::unique_ptr<fleet::FleetServer> server;
  std::vector<TenantInfo> tenants;
  double train_s = 0.0;
  double admit_s = 0.0;

  /// The telemetry each tenant pushes on `tick`, in `tenants` order.
  virtual void telemetry(long tick, std::vector<fleet::TelemetryUpdate>& out) = 0;
  /// Driver work that precedes the tick's pushes: model promotions,
  /// advancing simulated clusters. Root spans go to `tracer` when non-null.
  virtual void before_tick(long /*tick*/, Phase /*phase*/, Tracer* /*tracer*/) {}
  /// Subscriber callback body (plan changes only).
  virtual void on_plan(const fleet::PlanUpdate& /*update*/) {}
  /// Ground-truth latency of `plan` at the per-API rates it was planned
  /// for (fleet workloads; simulated ones measure requests instead).
  virtual double truth_ms(std::size_t /*tenant*/, std::span<const Qps> /*qps*/,
                          const core::AllocationPlan& /*plan*/) const {
    return 0.0;
  }

  /// Lock-step workloads fix their measured window in simulated ticks.
  virtual long lock_step_ticks() const { return 0; }
  /// Simulated workloads report request outcomes over the measured window.
  virtual bool simulated() const { return false; }
  virtual void start_window(long /*tick*/) {}
  virtual void end_window(long /*tick*/) {}
  virtual SimOutcome sim_outcome() const { return {}; }
  /// Promotions the workload made in the measured window.
  virtual std::vector<double> promote_ms() const { return {}; }
  virtual std::vector<long> promote_ticks() const { return {}; }
};

/// Static shape of a workload.
struct Workload {
  std::string name;
  /// Control period: wall seconds for the open loop, simulated seconds for
  /// the lock-step workload.
  double tick_s = 0.01;
  /// A decision is on time when committed within this many ms of its due
  /// time.
  double limit_ms = 10.0;
  /// The simulator sets the pace: no open/closed-loop phases.
  bool lock_step = false;
  /// Back-to-back ticks per second on the machine the workload was sized
  /// on: sizes the closed-loop ticks to about a quarter of --seconds.
  double closed_ticks_per_s = 0.0;
  long warmup_ticks = 0;
  /// Trained models can be handed to a rebuild (the thread-count replay).
  std::unique_ptr<Scenario> (*build)(const Options& opts,
                                     const std::vector<gnn::LatencyModel>* trained) = nullptr;
};

const std::vector<Workload>& workloads();

// ---- shared helpers ---------------------------------------------------------

/// Latency surface the fleet workloads' models are trained on:
/// sum_i demand_i * 1000 / quota_i + 0.6 * mean node workload.
double fleet_truth_ms(const apps::Topology& topo, std::span<const double> node_w,
                      std::span<const double> quota);

/// M/M/1-shaped surface the simulated workload's models are trained on:
/// quota buys capacity, latency blows up near saturation.
double mm1_truth_ms(const apps::Topology& topo, std::span<const double> node_w,
                    std::span<const double> quota);

/// Per-node workload for per-API rates through a fan-out matrix
/// ([api][service], as in TenantSpec::fanout).
std::vector<double> node_workload(const std::vector<std::vector<double>>& fanout,
                                  std::span<const Qps> api_qps);

/// The benchmark's reduced admission distillation for surrogate-verified
/// planning over `services` services.
core::SolverDistillConfig distill_config(const Options& opts, std::size_t services);

/// Simulator layer probe for workloads without simulated clusters: one
/// cluster of `topo` under open-loop load, advanced in control ticks.
SimOutcome probe_simulator(const apps::Topology& topo, std::uint64_t seed);

// ---- layer replay (traced runs) ---------------------------------------------

/// One planned decision of a recorded step.
struct Decision {
  std::size_t tenant = 0;
  std::vector<Qps> observed;     ///< the rates the tenant pushed this tick
  bool cache_hit = false;
  core::AllocationPlan plan;     ///< what the fleet committed
};

struct RecordedStep {
  long tick = 0;
  int span = -1;                 ///< the tick's fleet.step span
  double step_us = 0.0;
  std::vector<Decision> decisions;
  /// Forecast-mode tenants that pushed this tick (the gate runs for each).
  std::vector<std::size_t> forecast_tenants;
};

/// Everything one forecast-mode tenant pushed, in tick order.
struct ObservedStream {
  std::size_t tenant = 0;
  std::vector<std::pair<long, std::vector<Qps>>> pushes;
};

struct ReplayResult {
  std::vector<double> distribute_us, begin_plan_us, finish_plan_us, solve_ms,
      tiered_solve_ms, iter_us, forward_us, surrogate_forward_us, plan_qps_us, self_ms,
      ratio;
  std::vector<std::size_t> group_sizes;
  std::size_t mismatches = 0;    ///< replayed plans that differ from the fleet's
};

ReplayResult replay_layers(Scenario& sc, const Options& opts, const std::vector<RecordedStep>& steps,
                           const std::vector<ObservedStream>& streams, Tracer& tracer);

}  // namespace graf::e2e
