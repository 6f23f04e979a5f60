#include "bench_common.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>

#include "autoscalers/k8s_hpa.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "workload/closed_loop.h"
#include "workload/open_loop.h"

namespace graf::bench {

namespace fs = std::filesystem;

std::string artifacts_dir() {
  if (const char* env = std::getenv("GRAF_ARTIFACTS")) return env;
  return "graf_artifacts";
}

std::string bench_out_path(const std::string& filename) {
  if (const char* env = std::getenv("GRAF_BENCH_OUT"))
    return (fs::path{env} / filename).string();
  return filename;
}

telemetry::BenchExporter& results() {
  static telemetry::BenchExporter exporter;
  return exporter;
}

namespace {

/// `git describe --always --dirty` of the source tree, or "unknown".
std::string source_revision() {
  const std::string cmd =
      std::string{"git -C '"} + GRAF_SOURCE_DIR + "' describe --always --dirty 2>/dev/null";
  std::string out;
  if (FILE* pipe = popen(cmd.c_str(), "r")) {
    char buf[128];
    while (std::fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
    pclose(pipe);
  }
  while (!out.empty() && std::isspace(static_cast<unsigned char>(out.back())))
    out.pop_back();
  return out.empty() ? "unknown" : out;
}

}  // namespace

bool write_bench_results(const std::string& filename) {
  if (results().empty()) return false;
  const std::string path = bench_out_path(filename);
  // The machine and build these rows ran on; replaces the file's meta.
  telemetry::BenchExporter& out = results();
  out.set_meta("nproc", std::to_string(std::thread::hardware_concurrency()));
  out.set_meta("GRAF_THREADS", std::to_string(configured_threads()));
  out.set_meta("GRAF_NATIVE", GRAF_BUILD_NATIVE);
  out.set_meta("sanitizer", GRAF_BUILD_SANITIZE);
  out.set_meta("compiler", GRAF_BUILD_COMPILER);
  out.set_meta("git_sha", source_revision());
  // Several binaries share one BENCH file (perf micro, chaos surge, ...):
  // fold the rows already on disk in first — fresh same-name rows win, rows
  // from other binaries survive the rewrite.
  results().merge_json_file(path);
  if (!results().write_json_file(path)) {
    std::cerr << "bench: failed to write " << path << "\n";
    return false;
  }
  std::cerr << "bench: wrote " << results().rows().size() << " results to " << path
            << "\n";
  return true;
}

bool full_scale() {
  const char* env = std::getenv("GRAF_SCALE");
  return env != nullptr && std::string{env} == "full";
}

std::vector<double> TrainedStack::node_workload(const std::vector<Qps>& api_qps) const {
  std::vector<double> l(topo.service_count(), 0.0);
  for (std::size_t a = 0; a < api_qps.size(); ++a)
    for (std::size_t s = 0; s < l.size(); ++s) l[s] += api_qps[a] * fanout[a][s];
  return l;
}

StackConfig online_boutique_stack_config() {
  // ~480 qps total front-end traffic: each service runs 3-15 one-core
  // replicas, the regime where per-service allocation differences matter
  // (the paper's Figures 14-18 operate at comparable replica counts).
  StackConfig cfg{.topo = apps::online_boutique(),
                  .base_qps = {168.0, 216.0, 96.0},
                  .closed_loop_collection = true};  // paper: Locust for OB
  if (full_scale()) {
    cfg.samples = 20000;
    cfg.train_iterations = 70000;
  }
  return cfg;
}

StackConfig social_network_stack_config() {
  StackConfig cfg{.topo = apps::social_network(), .base_qps = {480.0}};
  if (full_scale()) {
    cfg.samples = 20000;
    cfg.train_iterations = 70000;
  }
  return cfg;
}

core::SampleCollectorConfig stack_collector_config() {
  core::SampleCollectorConfig scfg;
  scfg.window = 12.0;
  scfg.quota_hi = 8000.0;  // "sufficient CPU" at the ~480-qps scale
  scfg.quota_floor = 200.0;
  scfg.step = 300.0;
  return scfg;
}

namespace {

gnn::TrainConfig bench_train_config(std::size_t iterations, std::uint64_t seed) {
  gnn::TrainConfig cfg;
  cfg.iterations = iterations;
  cfg.batch_size = 128;
  cfg.lr = 1e-3;
  cfg.lr_decay_every = iterations / 4;
  cfg.lr_decay_factor = 0.5;
  cfg.eval_every = 500;
  cfg.theta_under = 0.3;
  cfg.theta_over = 0.1;
  cfg.seed = seed;
  return cfg;
}

std::string meta_path(const std::string& app) {
  return artifacts_dir() + "/" + app + "_stack.txt";
}
std::string dataset_path(const std::string& app) {
  return artifacts_dir() + "/" + app + "_dataset.txt";
}
std::string model_path(const std::string& app) {
  return artifacts_dir() + "/" + app + "_model.grafck";
}

bool load_meta(TrainedStack& st) {
  std::ifstream is{meta_path(st.topo.name)};
  if (!is) return false;
  std::size_t apis = 0;
  std::size_t services = 0;
  if (!(is >> apis >> services)) return false;
  if (apis != st.topo.apis.size() || services != st.topo.service_count()) return false;
  st.base_qps.resize(apis);
  for (auto& v : st.base_qps)
    if (!(is >> v)) return false;
  if (!(is >> st.floor_p99 >> st.default_slo_ms)) return false;
  st.space.lo.resize(services);
  st.space.hi.resize(services);
  for (auto& v : st.space.lo)
    if (!(is >> v)) return false;
  for (auto& v : st.space.hi)
    if (!(is >> v)) return false;
  st.fanout.assign(apis, std::vector<double>(services, 0.0));
  for (auto& row : st.fanout)
    for (auto& v : row)
      if (!(is >> v)) return false;
  return true;
}

void save_meta(const TrainedStack& st) {
  std::ofstream os{meta_path(st.topo.name)};
  os.precision(17);
  os << st.topo.apis.size() << ' ' << st.topo.service_count() << '\n';
  for (double v : st.base_qps) os << v << ' ';
  os << '\n' << st.floor_p99 << ' ' << st.default_slo_ms << '\n';
  for (double v : st.space.lo) os << v << ' ';
  os << '\n';
  for (double v : st.space.hi) os << v << ' ';
  os << '\n';
  for (const auto& row : st.fanout) {
    for (double v : row) os << v << ' ';
    os << '\n';
  }
}

}  // namespace

TrainedStack build_or_load_stack(const StackConfig& cfg) {
  fs::create_directories(artifacts_dir());
  TrainedStack st;
  st.topo = cfg.topo;
  st.dag = apps::make_dag(cfg.topo);
  st.base_qps = cfg.base_qps;

  st.predictor = std::make_unique<core::LatencyPredictor>(st.dag, gnn::MpnnConfig{},
                                                          cfg.seed + 100);

  const std::string app = cfg.topo.name;
  if (load_meta(st) && fs::exists(dataset_path(app)) && fs::exists(model_path(app))) {
    st.dataset = core::load_dataset(dataset_path(app));
    // Restore the train/val/test split deterministically (same seed as the
    // original training run) so accuracy reports match.
    st.predictor->set_split(
        core::split_dataset(st.dataset, 0.15, 0.15, cfg.seed));
    if (st.predictor->load_model(model_path(app))) {
      std::cerr << "[bench] loaded cached stack for " << app << " ("
                << st.dataset.size() << " samples)\n";
      return st;
    }
  }

  std::cerr << "[bench] building stack for " << app << " (samples=" << cfg.samples
            << ", iters=" << cfg.train_iterations << ") ...\n";
  sim::Cluster cluster = apps::make_cluster(cfg.topo, {.seed = cfg.seed});
  core::WorkloadAnalyzer analyzer{cluster.api_count(), cluster.service_count()};
  core::SampleCollectorConfig scfg = stack_collector_config();
  scfg.seed = cfg.seed + 7;
  scfg.closed_loop = cfg.closed_loop_collection;
  core::SampleCollector collector{cluster, analyzer, scfg};

  // Floor: every service at "sufficient CPU".
  for (int s = 0; s < static_cast<int>(cluster.service_count()); ++s)
    cluster.apply_total_quota(s, scfg.quota_hi, scfg.max_per_instance);
  st.floor_p99 = collector.measure_tail(cfg.base_qps, 20.0, 99.0);
  st.default_slo_ms = st.floor_p99 * cfg.slo_floor_factor;
  std::cerr << "[bench] floor p99 = " << st.floor_p99 << " ms, default SLO = "
            << st.default_slo_ms << " ms\n";

  st.space = collector.reduce_search_space(cfg.base_qps, st.default_slo_ms);
  st.dataset = collector.collect(cfg.samples, st.space, cfg.base_qps, 0.5, 1.1);
  st.fanout = analyzer.fanout();
  std::cerr << "[bench] collected " << st.dataset.size() << " samples\n";

  auto tcfg = bench_train_config(cfg.train_iterations, cfg.seed);
  auto hist = st.predictor->train(st.dataset, tcfg);
  const auto acc = st.predictor->model().evaluate_accuracy(st.predictor->test_set());
  std::cerr << "[bench] trained: best val loss " << hist.best_val_loss << ", test MAPE "
            << acc.mean_abs_pct_error << "%, signed " << acc.mean_pct_error << "%\n";

  core::save_dataset(dataset_path(app), st.dataset);
  st.predictor->save_model(model_path(app));
  save_meta(st);
  return st;
}

fleet::TenantSpec graf_spec(TrainedStack& stack, double slo_ms) {
  fleet::TenantSpec spec;
  spec.application = stack.topo.name;
  spec.slo_ms = slo_ms;
  spec.model = &stack.predictor->model();
  spec.lo = stack.space.lo;
  spec.hi = stack.space.hi;
  // The planner clamps (and re-predicts) at each service's replica cap
  // instead of Service::scale_to clamping silently after the fact.
  for (const auto& svc : stack.topo.services) {
    spec.unit.push_back(svc.unit_quota);
    spec.max_instances.push_back(svc.max_instances);
  }
  spec.fanout = stack.fanout;
  // The training reference must come from the *training* split, but per-node
  // maxima over the full dataset are equivalent for scaling purposes.
  spec.training_reference = stack.dataset;
  return spec;
}

sim::Cluster::CompletionFn LatencyRecorder::hook() {
  return [this](const trace::RequestTrace& t) {
    if (t.ok) {
      latencies_.push_back(t.e2e_ms());
    } else {
      ++failures_;
    }
  };
}

double LatencyRecorder::percentile(double rank) const {
  return graf::percentile(latencies_, rank);
}

double tune_hpa_threshold(const apps::Topology& topo, double users, double slo_ms,
                          std::uint64_t seed) {
  // Walk thresholds from loose (cheap) to tight (expensive); return the
  // loosest one meeting the SLO in steady state. Values above 1.0 are legal:
  // utilization is measured against the Kubernetes *request* (half the
  // limit), so a 1.2 target still leaves 40% burst headroom.
  const double thresholds[] = {1.6, 1.4, 1.2, 1.0, 0.9, 0.8, 0.7,
                               0.6, 0.5, 0.4, 0.3, 0.2, 0.15, 0.1};
  for (double thr : thresholds) {
    sim::Cluster cluster = apps::make_cluster(topo, {.seed = seed});
    autoscalers::K8sHpa hpa{{.target_utilization = thr}};
    hpa.attach(cluster, 1e9);
    auto res = measure_steady_state(cluster, users, topo.api_weights, 240.0, 60.0,
                                    seed + 1);
    if (res.p99_ms <= slo_ms) return thr;
  }
  return 0.1;
}

SteadyStateResult measure_steady_state(sim::Cluster& cluster, double users,
                                       const std::vector<double>& api_weights,
                                       Seconds settle, Seconds measure,
                                       std::uint64_t seed) {
  workload::ClosedLoopConfig gcfg;
  gcfg.users = workload::Schedule::constant(users);
  gcfg.api_weights = api_weights;
  gcfg.seed = seed;
  workload::ClosedLoopGenerator gen{cluster, gcfg};
  const Seconds t_end = cluster.now() + settle + measure;
  gen.start(t_end);
  cluster.run_until(cluster.now() + settle);

  SteadyStateResult out;
  out.mean_instances_per_service.assign(cluster.service_count(), 0.0);
  const Seconds measure_from = cluster.now();
  // Sample instance counts once per second while measuring.
  std::size_t ticks = 0;
  while (cluster.now() < t_end) {
    cluster.run_for(1.0);
    ++ticks;
    out.mean_total_instances += cluster.total_ready_instances();
    out.mean_total_quota_mc += cluster.total_quota();
    for (std::size_t s = 0; s < cluster.service_count(); ++s)
      out.mean_instances_per_service[s] +=
          cluster.service(static_cast<int>(s)).ready_count();
  }
  if (ticks > 0) {
    out.mean_total_instances /= static_cast<double>(ticks);
    out.mean_total_quota_mc /= static_cast<double>(ticks);
    for (auto& v : out.mean_instances_per_service) v /= static_cast<double>(ticks);
  }
  auto& e2e = cluster.e2e_latency_all();
  if (e2e.count_since(measure_from) >= 20) {
    out.p99_ms = e2e.percentile_since(measure_from, 99.0);
    out.p95_ms = e2e.percentile_since(measure_from, 95.0);
  } else {
    out.p99_ms = out.p95_ms = 1e9;  // effectively "SLO violated"
  }
  return out;
}

}  // namespace graf::bench
