// The simulated Kubernetes cluster: services + deployment pipeline +
// metrics + tracing, driven by one discrete-event clock.
//
// This is the substrate every experiment runs on. Workload generators call
// submit_request(); autoscalers (and GRAF's resource controller) scale
// services; the metrics ticker samples per-service utilization/qps series
// (the simulator's Prometheus/cAdvisor); the Tracer collects request traces
// (its Jaeger).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "sim/deployment.h"
#include "sim/event_queue.h"
#include "sim/request.h"
#include "sim/service.h"
#include "telemetry/metrics.h"
#include "trace/latency_window.h"
#include "trace/tracer.h"

namespace graf::sim {

struct ClusterConfig {
  CreationModel creation{};
  /// End-to-end client timeout (Vegeta default); requests exceeding it are
  /// dropped from queues and reported as failures, not latencies.
  Seconds request_timeout = 30.0;
  Seconds metrics_interval = 1.0;
  Seconds latency_horizon = 120.0;     ///< retention of latency windows
  std::size_t trace_capacity = 2048;   ///< per-API trace history
  std::size_t series_capacity = 8192;  ///< per-service metric points kept
  std::uint64_t seed = 42;
};

/// One metrics-ticker observation for a service.
struct ServicePoint {
  Seconds time = 0.0;
  double qps = 0.0;          ///< perceived workload (arrivals/s)
  double cpu_cores = 0.0;    ///< cores actually consumed
  double utilization = 0.0;  ///< cpu_cores / (ready * unit quota)
  int ready = 0;
  int creating = 0;
  std::size_t queue_len = 0;
};

class Cluster {
 public:
  Cluster(std::vector<ServiceConfig> services, std::vector<Api> apis,
          ClusterConfig cfg = {});

  // -- clock ----------------------------------------------------------------
  EventQueue& events() { return events_; }
  Seconds now() const { return events_.now(); }
  void run_until(Seconds t) { events_.run_until(t); }
  void run_for(Seconds dt) { events_.run_until(events_.now() + dt); }

  // -- topology -------------------------------------------------------------
  std::size_t service_count() const { return services_.size(); }
  Service& service(int i) { return *services_.at(static_cast<std::size_t>(i)); }
  const Service& service(int i) const { return *services_.at(static_cast<std::size_t>(i)); }
  int service_index(const std::string& name) const;
  std::size_t api_count() const { return apis_.size(); }
  const Api& api(int i) const { return apis_.at(static_cast<std::size_t>(i)); }
  int api_index(const std::string& name) const;

  Deployment& deployment() { return deployment_; }
  Rng& rng() { return rng_; }

  // -- load -----------------------------------------------------------------
  using CompletionFn = std::function<void(const trace::RequestTrace&)>;
  /// Inject one front-end request of `api`; optional completion callback.
  void submit_request(int api, CompletionFn on_complete = {});

  std::uint64_t submitted() const { return submitted_; }
  std::uint64_t completed() const { return completed_; }
  /// Requests that failed because some call timed out in a queue.
  std::uint64_t failed() const { return failed_; }
  std::size_t inflight() const { return inflight_; }

  /// Front-end request rate of `api` over the last `window` seconds — the
  /// only workload signal GRAF's proactive path consumes (§3.8).
  Qps api_qps(int api, Seconds window) const;

  /// Deploy a total CPU quota on service `s` as evenly-split replicas of at
  /// most `max_per_instance` each (sample collection / §3.6 even-spread
  /// assumption). Applies immediately, bypassing the deployment pipeline.
  void apply_total_quota(int s, Millicores total, Millicores max_per_instance);

  /// Multiply every per-visit CPU demand by `s` from now on — drift
  /// injection (a rollout that made the services more expensive). The
  /// latency function the GNN learned no longer matches the cluster; the
  /// online serving stack (src/serve) must detect and absorb this.
  void set_demand_scale(double s) { demand_scale_ = s; }
  double demand_scale() const { return demand_scale_; }

  /// Fault injection: black out the observability plane. While active, the
  /// metrics ticker publishes nothing (series and telemetry gauges gap),
  /// traces are not recorded, api_qps() sees no new arrivals, and the e2e /
  /// per-service latency histograms stop recording. Ground-truth experiment
  /// counters (submitted/completed/failed) and the exact e2e latency windows
  /// keep running — the cluster still works; only its sensors go dark.
  /// On recovery the ticker resynchronizes its deltas so the blackout
  /// interval's backlog is discarded, not misattributed to one sample.
  void set_telemetry_blackout(bool on);
  bool telemetry_blackout() const { return blackout_; }

  // -- observability ----------------------------------------------------------

  /// Attach a telemetry registry: the metrics ticker then publishes
  /// per-service gauges (queue depth, utilization, ready/creating, qps) and
  /// counters (instance creations, queue drops), request completions feed
  /// `sim.e2e_latency_ms` log-histograms (overall + per API) and per-service
  /// `sim.service_latency_ms`, and the event queue's pop cost is profiled
  /// into `sim.event_us`. Pass nullptr to detach (the default: zero
  /// overhead). The registry must outlive the cluster or the next
  /// set_metrics call.
  void set_metrics(telemetry::MetricsRegistry* registry);
  telemetry::MetricsRegistry* metrics() const { return telemetry_; }

  /// End-to-end latency log-histogram over all APIs (O(1) mergeable tail
  /// estimates for controllers); nullptr while telemetry is detached.
  /// Exact-percentile queries stay available through e2e_latency_all().
  telemetry::LogHistogram* e2e_histogram() { return e2e_hist_; }

  trace::Tracer& tracer() { return tracer_; }
  /// Local (queue + processing, children excluded) latency per service.
  trace::LatencyWindow& service_latency(int s) {
    return local_latency_.at(static_cast<std::size_t>(s));
  }
  /// End-to-end latency per API and across all APIs.
  trace::LatencyWindow& e2e_latency(int api) {
    return e2e_latency_.at(static_cast<std::size_t>(api));
  }
  trace::LatencyWindow& e2e_latency_all() { return e2e_all_; }

  const std::deque<ServicePoint>& series(int s) const {
    return series_.at(static_cast<std::size_t>(s));
  }
  /// Mean utilization of service `s` over the last `horizon` seconds of
  /// metric points (what a Prometheus-backed HPA would query).
  double utilization_avg(int s, Seconds horizon) const;
  /// Perceived qps of service `s` over the last `horizon` seconds.
  double qps_avg(int s, Seconds horizon) const;
  /// Metric points of service `s` within the last `horizon` seconds — lets
  /// metric consumers distinguish "no data" (blackout) from "data says 0".
  std::size_t series_count_since(int s, Seconds horizon) const;
  Seconds metrics_interval() const { return cfg_.metrics_interval; }

  /// Ready instances summed over all services.
  int total_ready_instances() const;
  /// Ready + creating, summed (what Fig. 2/20/21 plot).
  int total_target_instances() const;
  /// Total CPU quota over ready instances (millicores).
  Millicores total_quota() const;

  // -- experiment hygiene -----------------------------------------------------
  /// Drop all queued and resident work without recording completions
  /// (sample-collection initialization, §5 "flushes out possible existing
  /// requests"). Latency windows and traces are kept unless cleared.
  void hard_reset_load();
  void clear_windows();

 private:
  struct Ctx {
    int api;
    Seconds start;
    Seconds deadline;
    std::vector<std::uint32_t> visits;
    CompletionFn on_complete;
  };

  void exec_node(const std::shared_ptr<Ctx>& ctx, const CallNode& node,
                 std::function<void(bool)> done);
  void run_stages(const std::shared_ptr<Ctx>& ctx, const CallNode* node,
                  std::size_t stage, std::function<void(bool)> done);
  double sample_demand(const CallNode& node, const Service& svc);
  void metrics_tick();
  void validate_api(const CallNode& node) const;

  /// Interned per-service telemetry instruments (stable pointers into the
  /// attached registry; see set_metrics).
  struct ServiceTelemetry {
    telemetry::Gauge* queue_depth = nullptr;
    telemetry::Gauge* utilization = nullptr;
    telemetry::Gauge* ready = nullptr;
    telemetry::Gauge* creating = nullptr;
    telemetry::Gauge* qps = nullptr;
    telemetry::Counter* creations = nullptr;
    telemetry::Counter* drops = nullptr;
    telemetry::Counter* creation_failures = nullptr;
    telemetry::Counter* creation_retries = nullptr;
    telemetry::LogHistogram* local_latency = nullptr;
    std::uint64_t last_creations = 0;
    std::uint64_t last_drops = 0;
    std::uint64_t last_creation_failures = 0;
    std::uint64_t last_creation_retries = 0;
  };

  /// Advance every per-service telemetry delta baseline to the current
  /// cumulative totals (registry attach, blackout recovery).
  void resync_telemetry_baselines();

  ClusterConfig cfg_;
  EventQueue events_;
  Rng rng_;
  double demand_scale_ = 1.0;
  bool blackout_ = false;
  bool blackout_resync_ = false;  // first post-blackout tick must resync deltas
  Deployment deployment_;
  std::vector<std::unique_ptr<Service>> services_;
  std::vector<Api> apis_;
  trace::Tracer tracer_;
  std::vector<trace::LatencyWindow> local_latency_;
  std::vector<trace::LatencyWindow> e2e_latency_;
  trace::LatencyWindow e2e_all_;
  std::vector<trace::LatencyWindow> api_arrivals_;
  std::vector<std::deque<ServicePoint>> series_;
  std::vector<std::uint64_t> last_arrivals_;
  telemetry::MetricsRegistry* telemetry_ = nullptr;
  std::vector<ServiceTelemetry> svc_tel_;
  telemetry::LogHistogram* e2e_hist_ = nullptr;
  std::vector<telemetry::LogHistogram*> e2e_api_hist_;
  telemetry::Counter* tel_submitted_ = nullptr;
  telemetry::Counter* tel_completed_ = nullptr;
  telemetry::Counter* tel_failed_ = nullptr;
  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::size_t inflight_ = 0;
};

}  // namespace graf::sim
