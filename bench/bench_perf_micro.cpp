// Performance micro-benchmarks (google-benchmark): the per-operation costs
// behind GRAF's control loop — GNN inference, a full solver run, simulator
// event throughput, the numeric kernels, and the telemetry layer itself
// (histogram record cost, scoped-timer overhead, tail-query strategies).
//
// Results are mirrored through the telemetry BenchExporter into
// BENCH_perf.json (see bench_common.h: env GRAF_BENCH_OUT relocates it), so
// the perf trajectory is machine-readable instead of table-only.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>

#include "apps/catalog.h"
#include "apps/topology.h"
#include "bench_common.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "core/configuration_solver.h"
#include "core/tiered_planner.h"
#include "core/workload_analyzer.h"
#include "fleet/fleet_server.h"
#include "forecast/gate.h"
#include "gnn/latency_model.h"
#include "gnn/surrogate_model.h"
#include "nn/tensor.h"
#include "telemetry/metrics.h"
#include "telemetry/profiler.h"
#include "trace/latency_window.h"
#include "workload/open_loop.h"

namespace {

using namespace graf;

gnn::Dag chain(std::size_t n) {
  gnn::Dag d;
  for (std::size_t i = 0; i < n; ++i) d.add_node("s" + std::to_string(i));
  for (std::size_t i = 0; i + 1 < n; ++i)
    d.add_edge(static_cast<int>(i), static_cast<int>(i + 1));
  return d;
}

gnn::Dataset tiny_dataset(std::size_t nodes, std::size_t count) {
  Rng rng{1};
  gnn::Dataset out;
  for (std::size_t i = 0; i < count; ++i) {
    gnn::Sample s;
    for (std::size_t n = 0; n < nodes; ++n) {
      s.workload.push_back(rng.uniform(10.0, 100.0));
      s.quota.push_back(rng.uniform(300.0, 2000.0));
    }
    s.latency_ms = rng.uniform(50.0, 500.0);
    out.push_back(std::move(s));
  }
  return out;
}

gnn::LatencyModel& shared_model() {
  static gnn::LatencyModel model = [] {
    gnn::LatencyModel m{chain(6), gnn::MpnnConfig{}, 3};
    gnn::TrainConfig cfg;
    cfg.iterations = 50;
    cfg.batch_size = 64;
    cfg.eval_every = 50;
    m.fit(tiny_dataset(6, 512), {}, cfg);
    return m;
  }();
  return model;
}

void BM_GnnInference(benchmark::State& state) {
  auto& model = shared_model();
  std::vector<double> w(6, 50.0);
  std::vector<double> q(6, 1000.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict(w, q));
  }
}
BENCHMARK(BM_GnnInference);

void BM_SolverFullRun(benchmark::State& state) {
  auto& model = shared_model();
  core::SolverConfig cfg;
  cfg.max_iterations = static_cast<std::size_t>(state.range(0));
  core::ConfigurationSolver solver{model, cfg};
  std::vector<double> w(6, 50.0);
  std::vector<Millicores> lo(6, 300.0);
  std::vector<Millicores> hi(6, 2000.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(w, 150.0, lo, hi));
  }
}
BENCHMARK(BM_SolverFullRun)->Arg(100)->Arg(500);

// One frozen MPNN forward (gnn::LatencyModel::Pass) over R quota rows, the
// pass every descent iteration runs, at the end-to-end benchmark's model
// size (embed 8, hidden 8, readout 24) on Online Boutique.
void BM_FrozenPassForward(benchmark::State& state) {
  const apps::Topology topo = apps::online_boutique();
  static gnn::LatencyModel model = [&] {
    gnn::MpnnConfig cfg;
    cfg.embed_dim = 8;
    cfg.mpnn_hidden = 8;
    cfg.readout_hidden = 24;
    cfg.dropout_p = 0.0;
    gnn::LatencyModel m{apps::make_dag(topo), cfg, 3};
    gnn::TrainConfig tc;
    tc.iterations = 50;
    tc.batch_size = 64;
    tc.eval_every = 0;
    m.fit(tiny_dataset(topo.service_count(), 512), {}, tc);
    return m;
  }();
  const auto rows = static_cast<std::size_t>(state.range(0));
  const std::size_t n = topo.service_count();
  nn::Tensor workload{rows, n};
  nn::Tensor quota{rows, n};
  Rng rng{5};
  for (std::size_t e = 0; e < rows * n; ++e) {
    workload.data()[e] = rng.uniform(10.0, 100.0);
    quota.data()[e] = rng.uniform(300.0, 2000.0);
  }
  gnn::LatencyModel::Pass pass{model, workload};
  for (auto _ : state) {
    benchmark::DoNotOptimize(pass.forward(quota).data());
  }
}
BENCHMARK(BM_FrozenPassForward)->Arg(1)->Arg(2)->Arg(8);

// Throughput benches report events/s against *wall clock* measured around
// the run itself. benchmark::Counter's kIsRate flags divide by accumulated
// CPU time, which over-reports per-core throughput the moment a benchmark
// uses more than one thread (8 worker threads x 1s wall = 8s CPU) — the
// "contended rows are mutually inconsistent" caveat EXPERIMENTS.md used to
// carry. UseRealTime() keeps the reported time column on the same basis.
struct WallRate {
  double wall = 0.0;
  std::uint64_t items = 0;
  std::chrono::steady_clock::time_point t0;

  void start() { t0 = std::chrono::steady_clock::now(); }
  void stop(std::uint64_t n) {
    wall += std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                .count();
    items += n;
  }
  benchmark::Counter counter() const {
    return benchmark::Counter(wall > 0.0 ? static_cast<double>(items) / wall
                                         : 0.0);
  }
};

void BM_SimulatorEventThroughput(benchmark::State& state) {
  WallRate rate;
  for (auto _ : state) {
    state.PauseTiming();
    auto topo = apps::online_boutique();
    sim::Cluster cluster = apps::make_cluster(topo, {.seed = 5});
    workload::OpenLoopConfig g;
    g.rate = workload::Schedule::constant(200.0);
    g.api_weights = topo.api_weights;
    workload::OpenLoopGenerator gen{cluster, g};
    gen.start(30.0);
    state.ResumeTiming();
    rate.start();
    cluster.run_until(30.0);
    rate.stop(cluster.events().processed());
  }
  state.counters["events/s"] = rate.counter();
}
BENCHMARK(BM_SimulatorEventThroughput)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Same workload with a full telemetry registry attached (per-service
// instruments, e2e histograms, event-pop profiling): the all-in overhead of
// observing the simulator.
void BM_SimulatorEventThroughputTelemetry(benchmark::State& state) {
  WallRate rate;
  for (auto _ : state) {
    state.PauseTiming();
    auto topo = apps::online_boutique();
    sim::Cluster cluster = apps::make_cluster(topo, {.seed = 5});
    telemetry::MetricsRegistry registry;
    cluster.set_metrics(&registry);
    workload::OpenLoopConfig g;
    g.rate = workload::Schedule::constant(200.0);
    g.api_weights = topo.api_weights;
    workload::OpenLoopGenerator gen{cluster, g};
    gen.start(30.0);
    state.ResumeTiming();
    rate.start();
    cluster.run_until(30.0);
    rate.stop(cluster.events().processed());
  }
  state.counters["events/s"] = rate.counter();
}
BENCHMARK(BM_SimulatorEventThroughputTelemetry)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_Matmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  nn::Tensor a{n, n, 0.5};
  nn::Tensor b{n, n, 0.25};
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::matmul(a, b));
  }
}
BENCHMARK(BM_Matmul)->Arg(32)->Arg(128);

// The PR-5 blocked kernel on its own row (BM_Matmul keeps the historical
// name for trajectory continuity; both run the same kernel now), with the
// reference triple loop alongside for the speedup denominator.
void BM_MatmulBlocked(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  nn::Tensor a{n, n, 0.5};
  nn::Tensor b{n, n, 0.25};
  nn::Tensor out;
  for (auto _ : state) {
    nn::matmul_into(out, a, b);  // steady state: no allocation either
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_MatmulBlocked)->Arg(32)->Arg(128)->Arg(256);

void BM_MatmulNaive(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  nn::Tensor a{n, n, 0.5};
  nn::Tensor b{n, n, 0.25};
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::matmul_naive(a, b));
  }
}
BENCHMARK(BM_MatmulNaive)->Arg(128);

// A * B^T at the descent's backward shapes ({M, K, N}: A is M x K, B is
// N x K): the readout's first layer on a 2-start, 6-service stack, a hidden
// and the first message layer over 12 stacked node rows, and the surrogate
// MLP's first layer on one row.
void BM_MatmulNt(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto n = static_cast<std::size_t>(state.range(2));
  Rng rng{29};
  nn::Tensor a{m, k};
  nn::Tensor b{n, k};
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.uniform(-1.0, 1.0);
  for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = rng.uniform(-1.0, 1.0);
  nn::Tensor out;
  for (auto _ : state) {
    nn::matmul_nt_into(out, a, b);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_MatmulNt)->Args({2, 24, 48})->Args({12, 8, 12})->Args({12, 8, 4})->Args({1, 32, 40});

// Multi-start descent: all K starts as rows of one K x n tape.
void BM_SolveBatched(benchmark::State& state) {
  auto& model = shared_model();
  core::SolverConfig cfg;
  cfg.max_iterations = 300;
  cfg.multi_starts = static_cast<std::size_t>(state.range(0));
  core::ConfigurationSolver solver{model, cfg};
  std::vector<double> w(6, 50.0);
  std::vector<Millicores> lo(6, 300.0);
  std::vector<Millicores> hi(6, 2000.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(w, 150.0, lo, hi));
  }
}
BENCHMARK(BM_SolveBatched)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

// A controller tick answered from the plan cache: the steady-state cost of
// re-planning when traffic hasn't drifted out of its quantization bucket.
void BM_PlanCacheHit(benchmark::State& state) {
  auto& model = shared_model();
  core::ConfigurationSolver solver{model, {}};
  core::WorkloadAnalyzer analyzer{1, 6};
  analyzer.set_fanout({{1.0, 1.0, 1.0, 1.0, 1.0, 1.0}});
  std::vector<Millicores> lo(6, 300.0);
  std::vector<Millicores> hi(6, 2000.0);
  std::vector<Millicores> unit(6, 1000.0);
  core::ResourceController rc{model, solver, analyzer, lo, hi, unit};
  gnn::Dataset ref;
  gnn::Sample s;
  s.workload.assign(6, 60.0);
  s.quota.assign(6, 1000.0);
  s.latency_ms = 100.0;
  ref.push_back(s);
  rc.set_training_reference(ref);
  std::vector<Qps> api{50.0};
  // A loose SLO keeps the warm solve feasible (only feasible plans are
  // cached; the toy model's labels are random, so a tight SLO degrades).
  const double slo_ms = 1000.0;
  benchmark::DoNotOptimize(rc.plan(api, slo_ms));  // warm: one real solve
  for (auto _ : state) {
    benchmark::DoNotOptimize(rc.plan(api, slo_ms));
  }
  state.counters["plan_cache.hits"] =
      static_cast<double>(rc.plan_cache_hits());
  state.counters["plan_cache.misses"] =
      static_cast<double>(rc.plan_cache_misses());
}
BENCHMARK(BM_PlanCacheHit);

// -- distilled fast-path surrogate planning (DESIGN.md §3.14) ----------------

gnn::SurrogateModel& shared_surrogate() {
  static gnn::SurrogateModel model = [] {
    const std::vector<double> region(6, 100.0);
    const std::vector<Millicores> lo(6, 300.0);
    const std::vector<Millicores> hi(6, 2000.0);
    core::SolverDistillConfig cfg;
    cfg.base.samples = 1024;
    cfg.base.train.iterations = 800;
    cfg.rounds = 0;  // the plain pass: no rollout, so the SLO goes unused
    gnn::SurrogateDistiller::Result r = core::TieredPlanner::distill_for_planner(
        shared_model(), region, lo, hi, 1000.0, cfg, {});
    return std::move(r.model);
  }();
  return model;
}

// Single-tenant plan throughput through the two-tier planner: surrogate
// multi-start descent + one full-GNN verification forward per plan. The
// time-per-op against BM_SolverFullRun/500 (the same descent budget through
// the full MPNN tape) is the fast-path speedup claim (>= 20x on the 6-node
// chain). The trust band is wide open so every iteration measures the
// accept path — escalation-rate quality is the topology test's bar
// (tests/surrogate_test.cpp), not this row's; the fast_hits/escalations
// counters make any surprise escalation visible in the emitted JSON.
// Gated in scripts/bench_check.py on the /1 row.
void BM_SurrogatePlanThroughput(benchmark::State& state) {
  set_global_threads(static_cast<std::size_t>(state.range(0)));
  auto& model = shared_model();
  core::SolverConfig scfg;
  scfg.max_iterations = 500;  // matches BM_SolverFullRun/500, the denominator
  core::ConfigurationSolver full{model, scfg};
  core::TieredPlannerConfig pcfg;
  pcfg.solver = scfg;
  pcfg.trust_band_pct = 1e9;
  core::TieredPlanner planner{
      std::make_shared<gnn::SurrogateModel>(shared_surrogate().clone()), pcfg};
  std::vector<double> w(6, 50.0);
  std::vector<Millicores> lo(6, 300.0);
  std::vector<Millicores> hi(6, 2000.0);
  // Loose SLO for the same reason as BM_PlanCacheHit: the toy model's labels
  // are random, and an SLO-breach verdict would detour into the full solve.
  const double slo_ms = 1000.0;
  WallRate rate;
  for (auto _ : state) {
    rate.start();
    benchmark::DoNotOptimize(planner.solve(model, full, w, slo_ms, lo, hi));
    rate.stop(1);
  }
  state.counters["plans/s"] = rate.counter();
  state.counters["fast_hits"] = static_cast<double>(planner.fast_hits());
  state.counters["escalations"] = static_cast<double>(planner.escalations());
  set_global_threads(0);
}
BENCHMARK(BM_SurrogatePlanThroughput)
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// One plain admission-sized distillation pass (sample the teacher, fit the
// MLP, validate): the cost a fleet tenant pays once at admission before the
// fast path starts earning it back. Gated in scripts/bench_check.py.
void BM_SurrogateDistill(benchmark::State& state) {
  auto& model = shared_model();
  const std::vector<double> region(6, 100.0);
  const std::vector<Millicores> lo(6, 300.0);
  const std::vector<Millicores> hi(6, 2000.0);
  core::SolverDistillConfig cfg;
  cfg.base.samples = 512;
  cfg.base.train.iterations = 300;
  cfg.base.train.eval_every = 300;
  cfg.rounds = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::TieredPlanner::distill_for_planner(
        model, region, lo, hi, 1000.0, cfg, {}));
  }
}
BENCHMARK(BM_SurrogateDistill)->Unit(benchmark::kMillisecond);

// Block-diagonal batched planning (§3.13): 8 same-model tenants per step,
// every tenant forced to a fresh solve (plan cache off, zero hysteresis
// band), coalescing into one stacked solve_batch per step instead of 8
// independent descents, at `threads` pool workers. Gated in
// scripts/bench_check.py on the /1 row.
void BM_FleetBatchedPlanThroughput(benchmark::State& state) {
  set_global_threads(static_cast<std::size_t>(state.range(0)));
  fleet::FleetServer server{{.ingest_capacity = 64}};
  std::vector<fleet::TenantId> ids;
  for (int i = 0; i < 8; ++i) {
    fleet::TenantSpec spec;
    spec.application = "tenant" + std::to_string(i);
    // Loose SLO for the same reason as BM_PlanCacheHit: the toy model's
    // labels are random, and a degraded-path shortcut would skip solves.
    spec.slo_ms = 1000.0;
    spec.model = &shared_model();
    spec.lo.assign(6, 300.0);
    spec.hi.assign(6, 2000.0);
    spec.unit.assign(6, 1000.0);
    spec.fanout = {{1.0, 1.0, 1.0, 1.0, 1.0, 1.0}};
    spec.change_threshold = 0.0;   // never coast
    spec.plan_cache_capacity = 0;  // never answer from cache
    spec.solver.max_iterations = 60;
    ids.push_back(server.add_tenant(spec));
  }
  double now = 0.0;
  int round = 0;
  WallRate rate;
  for (auto _ : state) {
    now += 1.0;
    ++round;
    const double qps = 40.0 + 9.0 * (round % 7);
    for (const fleet::TenantId id : ids)
      server.push({.tenant = id, .now = now, .api_qps = {qps}, .samples = {}});
    rate.start();
    const std::uint64_t planned = server.step().planned;
    rate.stop(planned);
  }
  state.counters["plans/s"] = rate.counter();
  set_global_threads(0);
}
BENCHMARK(BM_FleetBatchedPlanThroughput)
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// One forecast-gated control tick past the warm-up window: observe the new
// total, predict at the horizon, scale the vector. This is the per-tick
// cost forecast mode adds on top of plan() — gated in
// scripts/bench_check.py so it stays control-loop-cheap.
void BM_ForecastStep(benchmark::State& state) {
  forecast::ForecastGate gate{std::make_shared<forecast::HoltWinters>(),
                              forecast::ForecastGateConfig{}};
  std::vector<Qps> observed{60.0, 30.0, 10.0};
  Rng rng{17};
  std::vector<double> drift;
  for (int i = 0; i < 1024; ++i) drift.push_back(rng.uniform(55.0, 70.0));
  for (std::size_t i = 0; i < 64; ++i) {  // warm past the not-ready window
    observed[0] = drift[i];
    benchmark::DoNotOptimize(gate.plan_qps(observed));
  }
  std::size_t i = 64;
  for (auto _ : state) {
    observed[0] = drift[i++ & 1023];
    benchmark::DoNotOptimize(gate.plan_qps(observed));
  }
  state.counters["predictions"] = static_cast<double>(gate.predictions());
  state.counters["fallbacks"] = static_cast<double>(gate.fallbacks());
}
BENCHMARK(BM_ForecastStep);

void BM_Percentile(benchmark::State& state) {
  Rng rng{7};
  std::vector<double> v;
  for (int i = 0; i < 10000; ++i) v.push_back(rng.uniform());
  for (auto _ : state) {
    benchmark::DoNotOptimize(percentile(v, 99.0));
  }
}
BENCHMARK(BM_Percentile);

// -- telemetry layer ---------------------------------------------------------

void BM_LogHistogramRecord(benchmark::State& state) {
  telemetry::LogHistogram h;
  Rng rng{11};
  std::vector<double> vals;
  for (int i = 0; i < 1024; ++i) vals.push_back(rng.uniform(0.1, 900.0));
  std::size_t i = 0;
  for (auto _ : state) {
    h.record(vals[i++ & 1023]);
  }
  benchmark::DoNotOptimize(h.total());
}
BENCHMARK(BM_LogHistogramRecord);

void BM_LogHistogramPercentile(benchmark::State& state) {
  telemetry::LogHistogram h;
  Rng rng{11};
  for (int i = 0; i < 10000; ++i) h.record(rng.uniform(0.1, 900.0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.percentile(99.0));
  }
}
BENCHMARK(BM_LogHistogramPercentile);

void BM_ScopedTimerDisabled(benchmark::State& state) {
  for (auto _ : state) {
    telemetry::ScopedTimer t{nullptr};
    benchmark::DoNotOptimize(&t);
  }
}
BENCHMARK(BM_ScopedTimerDisabled);

void BM_ScopedTimerEnabled(benchmark::State& state) {
  telemetry::LogHistogram h;
  for (auto _ : state) {
    telemetry::ScopedTimer t{&h};
    benchmark::DoNotOptimize(&t);
  }
}
BENCHMARK(BM_ScopedTimerEnabled);

// -- tail-query strategies ---------------------------------------------------
//
// The control-tick pattern: a window of ~10k latency samples, one new
// sample per tick, then several rank queries over the same cutoff. The
// legacy implementation copied + sorted per *query*; the sorted cache sorts
// once per tick, and the telemetry histogram needs no sort at all.

constexpr int kWindowSamples = 10000;

trace::LatencyWindow filled_window() {
  trace::LatencyWindow win{1e18};
  Rng rng{13};
  for (int i = 0; i < kWindowSamples; ++i)
    win.add(static_cast<double>(i) * 0.01, rng.uniform(1.0, 500.0));
  return win;
}

// Legacy cost: one copy+sort for every rank queried.
void BM_TailQueryCopySortPerRank(benchmark::State& state) {
  Rng rng{13};
  std::vector<double> v;
  for (int i = 0; i < kWindowSamples; ++i) v.push_back(rng.uniform(1.0, 500.0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(percentile(v, 50.0));
    benchmark::DoNotOptimize(percentile(v, 95.0));
    benchmark::DoNotOptimize(percentile(v, 99.0));
  }
}
BENCHMARK(BM_TailQueryCopySortPerRank);

// Sorted-cache cost: the add invalidates, the first rank sorts, the rest
// hit the cache (FIRM's p50+p95 tick, the scraper's multi-rank export).
void BM_TailQueryWindowCached(benchmark::State& state) {
  trace::LatencyWindow win = filled_window();
  double t = kWindowSamples * 0.01;
  for (auto _ : state) {
    win.add(t, 42.0);
    t += 0.01;
    benchmark::DoNotOptimize(win.percentile_since(-1e300, 50.0));
    benchmark::DoNotOptimize(win.percentile_since(-1e300, 95.0));
    benchmark::DoNotOptimize(win.percentile_since(-1e300, 99.0));
  }
}
BENCHMARK(BM_TailQueryWindowCached);

// Telemetry-histogram cost: record is O(1), every rank query O(buckets).
void BM_TailQueryLogHistogram(benchmark::State& state) {
  telemetry::LogHistogram h;
  Rng rng{13};
  for (int i = 0; i < kWindowSamples; ++i) h.record(rng.uniform(1.0, 500.0));
  for (auto _ : state) {
    h.record(42.0);
    benchmark::DoNotOptimize(h.percentile(50.0));
    benchmark::DoNotOptimize(h.percentile(95.0));
    benchmark::DoNotOptimize(h.percentile(99.0));
  }
}
BENCHMARK(BM_TailQueryLogHistogram);

// -- parallel execution layer -------------------------------------------------
//
// Thread-scaling of data-parallel training (DESIGN.md §3.7). The Arg is the
// pool size; the shard plan is identical at every setting, so the times
// below measure pure speedup.

void BM_TrainScaling(benchmark::State& state) {
  set_global_threads(static_cast<std::size_t>(state.range(0)));
  gnn::Dataset data = tiny_dataset(6, 512);
  for (auto _ : state) {
    gnn::LatencyModel m{chain(6), gnn::MpnnConfig{}, 3};
    gnn::TrainConfig cfg;
    cfg.iterations = 20;
    cfg.batch_size = 256;
    cfg.shard_rows = 32;  // 8 shards per step
    cfg.eval_every = 100;
    m.fit(data, {}, cfg);
    benchmark::DoNotOptimize(&m);
  }
  set_global_threads(0);
}
BENCHMARK(BM_TrainScaling)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

/// Mirrors every finished benchmark into the machine-readable result sink
/// while keeping the normal console table.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      std::string name = run.benchmark_name();
      // UseRealTime() suffixes "/real_time"; strip it so rows keep their
      // historical names and the bench_check gates stay stable.
      if (const auto pos = name.rfind("/real_time"); pos != std::string::npos &&
          pos == name.size() - 10)
        name.erase(pos);
      graf::bench::results().record(name, run.GetAdjustedRealTime(),
                                    benchmark::GetTimeUnitString(run.time_unit));
      for (const auto& [counter_name, counter] : run.counters)
        graf::bench::results().record(name + "." + counter_name, counter.value,
                                      "counter");
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  graf::bench::write_bench_results("BENCH_perf.json");
  return 0;
}
