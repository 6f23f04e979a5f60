// Shared infrastructure for the benchmark harness (one binary per paper
// table/figure, see DESIGN.md §4).
//
// The expensive part of GRAF — Algorithm-1 search-space reduction, sample
// collection, and GNN training — is identical across many figures, so it is
// built once per application and cached under GRAF_ARTIFACTS (default
// ./graf_artifacts). The first bench that needs a trained stack pays the
// cost; the rest load it in milliseconds. Delete the directory to retrain.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "apps/catalog.h"
#include "core/latency_predictor.h"
#include "core/sample_collector.h"
#include "fleet/tenant.h"
#include "gnn/latency_model.h"
#include "sim/cluster.h"
#include "telemetry/exporter.h"

namespace graf::bench {

/// Where cached datasets/models live.
std::string artifacts_dir();

/// Where machine-readable bench results (`BENCH_*.json`) are written:
/// env GRAF_BENCH_OUT when set, else the current directory.
std::string bench_out_path(const std::string& filename);

/// Process-wide sink for machine-readable results. Bench binaries record
/// `name -> value/unit/timestamp` rows here (bench_perf_micro does it
/// automatically via its reporter) and flush with write_bench_results().
telemetry::BenchExporter& results();

/// Write accumulated results to bench_out_path(filename); prints the
/// destination to stderr. No-op (returns false) when nothing was recorded.
/// The file's "meta" object is replaced with this run's machine and build:
/// nproc, GRAF_THREADS (the pool size in effect), GRAF_NATIVE, sanitizer,
/// compiler and the source tree's git revision.
bool write_bench_results(const std::string& filename);

/// Benchmark-scale knobs. The paper's full-scale constants (50k samples,
/// 70k iterations) are impractical on one CPU core; these defaults keep a
/// cold build of one application stack under ~5 minutes while preserving
/// every qualitative result. Override via env GRAF_SCALE=full for a long
/// run closer to paper scale.
struct StackConfig {
  apps::Topology topo;
  std::vector<Qps> base_qps;       ///< reference per-API workload
  std::size_t samples = 6000;
  std::size_t train_iterations = 10000;
  std::uint64_t seed = 3;
  double slo_floor_factor = 1.5;   ///< default SLO = floor_p99 * this
  /// Collect with Locust-style closed-loop users (paper: Online Boutique)
  /// instead of Vegeta-style open-loop arrivals (paper: Social Network).
  bool closed_loop_collection = false;
};

/// A trained GRAF stack for one application.
struct TrainedStack {
  apps::Topology topo;
  gnn::Dag dag;
  std::vector<Qps> base_qps;
  double floor_p99 = 0.0;          ///< e2e p99 at "sufficient CPU"
  double default_slo_ms = 0.0;
  core::SearchSpace space;
  std::vector<std::vector<double>> fanout;  ///< traced 90%-ile fan-out
  gnn::Dataset dataset;                     ///< full collected dataset
  std::unique_ptr<core::LatencyPredictor> predictor;

  /// Per-node workload for the given per-API rates under the traced fanout.
  std::vector<double> node_workload(const std::vector<Qps>& api_qps) const;
};

/// Standard configs for the two evaluation applications (paper §5).
StackConfig online_boutique_stack_config();
StackConfig social_network_stack_config();

/// The collector configuration the stacks are built with (original search
/// bounds for Fig. 13 reporting).
core::SampleCollectorConfig stack_collector_config();

/// Build (or load from cache) the trained stack for a config. Prints
/// progress to stderr.
TrainedStack build_or_load_stack(const StackConfig& cfg);

/// GRAF's tenant for a trained stack, to run as a fleet::GrafController:
/// the stack's model, Algorithm-1 bounds, instance units and replica caps,
/// traced fan-out, and its dataset as the §3.6 training reference.
fleet::TenantSpec graf_spec(TrainedStack& stack, double slo_ms);

/// Collects every successful request's latency via completion callbacks
/// (latency *windows* prune by horizon; experiments need the full run).
class LatencyRecorder {
 public:
  void add(double latency_ms) { latencies_.push_back(latency_ms); }
  /// Completion callback recording success latencies and failures.
  sim::Cluster::CompletionFn hook();

  const std::vector<double>& latencies() const { return latencies_; }
  std::size_t failures() const { return failures_; }
  std::size_t count() const { return latencies_.size(); }
  double percentile(double rank) const;

 private:
  std::vector<double> latencies_;
  std::size_t failures_ = 0;
};

/// Tuned-threshold search (§5.3): the highest HPA utilization threshold
/// (fewest resources) whose steady-state p99 under `users` closed-loop
/// load meets the SLO. Mirrors the paper's hand-tuning.
double tune_hpa_threshold(const apps::Topology& topo, double users, double slo_ms,
                          std::uint64_t seed = 17);

/// Steady-state measurement of an autoscaled cluster under closed-loop
/// load: runs `settle` seconds, then measures for `measure` seconds.
struct SteadyStateResult {
  double p99_ms = 0.0;
  double p95_ms = 0.0;
  double mean_total_instances = 0.0;
  double mean_total_quota_mc = 0.0;
  std::vector<double> mean_instances_per_service;
};

SteadyStateResult measure_steady_state(sim::Cluster& cluster, double users,
                                       const std::vector<double>& api_weights,
                                       Seconds settle, Seconds measure,
                                       std::uint64_t seed = 23);

/// True when env GRAF_SCALE=full (paper-scale runs).
bool full_scale();

}  // namespace graf::bench
