// State-aware sample collector (paper §3.7 + Algorithm 1).
//
// Training the latency model needs (workload, quota, tail-latency) triples
// measured on the cluster. Naive exploration of the quota space is
// hopeless; Algorithm 1 first finds, per service, an upper bound H_i (more
// CPU no longer reduces that service's tail latency) and a lower bound L_i
// (the single service alone would break the end-to-end SLO), then random
// configurations are drawn inside [L, H]. Each sample follows the paper's
// cadence: apply configuration -> generate load -> collect latencies over a
// measurement window -> flush.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "core/workload_analyzer.h"
#include "gnn/latency_model.h"
#include "sim/cluster.h"

namespace graf::core {

struct SampleCollectorConfig {
  Seconds warmup = 2.0;          ///< settle time before measuring
  Seconds window = 10.0;         ///< measurement window (paper: 10 s)
  Seconds flush = 5.0;           ///< inter-sample flush (paper: 5 s)
  double tail_rank = 99.0;       ///< label percentile
  Millicores quota_hi = 2500.0;  ///< Algorithm 1 "sufficient CPU"
  Millicores quota_floor = 100.0;
  Millicores step = 100.0;       ///< Algorithm 1 reduction step
  Millicores max_per_instance = 1000.0;  ///< even-split deployment unit
  Seconds probe_window = 4.0;    ///< Algorithm 1 measurement window
  double probe_rank = 95.0;      ///< per-service tail used in Algorithm 1
  double upper_tolerance = 1.20; ///< "longer latency" = > tol * baseline
  std::size_t min_completions = 20;  ///< discard windows with fewer samples
  /// Exponent biasing quota draws toward the lower bound (u^bias): the
  /// latency cliff lives near L, and the model must see it densely for the
  /// solver not to fall off it.
  double low_quota_bias = 1.4;
  /// Generate load with closed-loop users (Locust) instead of open-loop
  /// arrivals (Vegeta) — the paper uses Locust for Online Boutique and
  /// Vegeta for Social Network. Closed-loop samples record the *measured*
  /// front-end rate as the workload feature.
  bool closed_loop = false;
  /// Users spawned per 1 qps of requested rate in closed-loop mode
  /// (mean think time 2.5 s + typical response time).
  double users_per_qps = 2.6;
  std::uint64_t seed = 5;
};

struct SearchSpace {
  std::vector<Millicores> lo;
  std::vector<Millicores> hi;

  double volume_ratio(Millicores full_lo, Millicores full_hi) const;
};

class SampleCollector {
 public:
  /// The analyzer provides the per-node workload features recorded with
  /// each sample (the same features GRAF uses at allocation time).
  SampleCollector(sim::Cluster& cluster, WorkloadAnalyzer& analyzer,
                  SampleCollectorConfig cfg);

  /// Algorithm 1, verbatim: per-service upper/lower quota bounds for the
  /// reference workload and SLO.
  SearchSpace reduce_search_space(const std::vector<Qps>& api_qps, double slo_ms);

  /// Collect `n` samples: workload drawn as a uniform scale in
  /// [scale_lo, scale_hi] applied to `api_qps_base`, quotas uniform in the
  /// search space. Also refreshes the analyzer's fan-out from traces.
  gnn::Dataset collect(std::size_t n, const SearchSpace& space,
                       const std::vector<Qps>& api_qps_base, double scale_lo,
                       double scale_hi);

  /// One measurement at a fixed configuration: returns the e2e tail
  /// latency (ms), or a negative value when too few requests completed.
  double measure_tail(const std::vector<Qps>& api_qps, Seconds window, double rank);

  /// Total simulated seconds spent collecting (cost accounting, Table 3).
  Seconds simulated_seconds() const { return simulated_seconds_; }

  /// Streaming consumer invoked for every accepted sample, with the
  /// simulation time it was measured at. The online trainer (src/serve)
  /// subscribes here to monitor drift and fine-tune while collection runs.
  using SampleSink = std::function<void(const gnn::Sample&, Seconds)>;
  void set_sample_sink(SampleSink sink) { sink_ = std::move(sink); }

 private:
  void apply_quota(const std::vector<Millicores>& quota);
  /// Drive `duration` seconds of load, the generator seeded from rng_.
  void run_load(const std::vector<Qps>& api_qps, Seconds duration);
  double service_tail(int service, Seconds since, double rank) const;

  sim::Cluster& cluster_;
  WorkloadAnalyzer& analyzer_;
  SampleCollectorConfig cfg_;
  Rng rng_;
  Seconds simulated_seconds_ = 0.0;
  SampleSink sink_;
};

}  // namespace graf::core
