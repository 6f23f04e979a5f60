#include "core/sample_collector.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "workload/closed_loop.h"
#include "workload/open_loop.h"

namespace graf::core {

double SearchSpace::volume_ratio(Millicores full_lo, Millicores full_hi) const {
  double ratio = 1.0;
  const double full = full_hi - full_lo;
  for (std::size_t i = 0; i < lo.size(); ++i) ratio *= (hi[i] - lo[i]) / full;
  return ratio;
}

SampleCollector::SampleCollector(sim::Cluster& cluster, WorkloadAnalyzer& analyzer,
                                 SampleCollectorConfig cfg)
    : cluster_{cluster}, analyzer_{analyzer}, cfg_{cfg}, rng_{cfg.seed} {}

void SampleCollector::apply_quota(const std::vector<Millicores>& quota) {
  for (std::size_t s = 0; s < quota.size(); ++s)
    cluster_.apply_total_quota(static_cast<int>(s), quota[s], cfg_.max_per_instance);
}

void SampleCollector::run_load(const std::vector<Qps>& api_qps, Seconds duration) {
  const std::uint64_t gen_seed = rng_.next_u64();
  double total = 0.0;
  for (double q : api_qps) total += q;
  if (cfg_.closed_loop) {
    workload::ClosedLoopConfig gen_cfg;
    gen_cfg.users = workload::Schedule::constant(total * cfg_.users_per_qps);
    gen_cfg.api_weights = api_qps;
    gen_cfg.seed = gen_seed;
    workload::ClosedLoopGenerator gen{cluster_, gen_cfg};
    gen.start(cluster_.now() + duration);
    cluster_.run_for(duration);
    gen.stop();
  } else {
    workload::OpenLoopConfig gen_cfg;
    gen_cfg.rate = workload::Schedule::constant(total);
    gen_cfg.api_weights = api_qps;
    gen_cfg.seed = gen_seed;
    workload::OpenLoopGenerator gen{cluster_, gen_cfg};
    gen.start(cluster_.now() + duration);
    cluster_.run_for(duration);
  }
  simulated_seconds_ += duration;
}

double SampleCollector::service_tail(int service, Seconds since, double rank) const {
  auto& win = const_cast<sim::Cluster&>(cluster_).service_latency(service);
  if (win.count_since(since) < cfg_.min_completions) return -1.0;
  return win.percentile_since(since, rank);
}

double SampleCollector::measure_tail(const std::vector<Qps>& api_qps, Seconds window,
                                     double rank) {
  cluster_.hard_reset_load();
  cluster_.clear_windows();
  run_load(api_qps, cfg_.warmup);
  const Seconds measure_from = cluster_.now();
  run_load(api_qps, window);
  auto& e2e = cluster_.e2e_latency_all();
  if (e2e.count_since(measure_from) < cfg_.min_completions) return -1.0;
  const double tail = e2e.percentile_since(measure_from, rank);
  cluster_.hard_reset_load();
  cluster_.run_for(cfg_.flush);
  simulated_seconds_ += cfg_.flush;
  return tail;
}

SearchSpace SampleCollector::reduce_search_space(const std::vector<Qps>& api_qps,
                                                 double slo_ms) {
  const std::size_t n = cluster_.service_count();
  SearchSpace space;
  space.lo.assign(n, cfg_.quota_floor);
  space.hi.assign(n, cfg_.quota_hi);

  // Baseline: every service at sufficient CPU.
  std::vector<Millicores> quota(n, cfg_.quota_hi);
  apply_quota(quota);
  cluster_.hard_reset_load();
  cluster_.clear_windows();
  run_load(api_qps, cfg_.warmup);
  Seconds since = cluster_.now();
  run_load(api_qps, cfg_.probe_window);
  std::vector<double> baseline(n, -1.0);
  for (std::size_t i = 0; i < n; ++i)
    baseline[i] = service_tail(static_cast<int>(i), since, cfg_.probe_rank);

  for (std::size_t i = 0; i < n; ++i) {
    if (baseline[i] < 0.0) continue;  // service unexercised by this workload
    // Reset everyone to sufficient CPU, then walk service i's quota down.
    std::fill(quota.begin(), quota.end(), cfg_.quota_hi);
    bool upper_found = false;
    Millicores q = cfg_.quota_hi;
    while (q - cfg_.step >= cfg_.quota_floor) {
      q -= cfg_.step;
      quota[i] = q;
      apply_quota(quota);
      cluster_.hard_reset_load();
      cluster_.clear_windows();
      run_load(api_qps, cfg_.warmup * 0.5);
      since = cluster_.now();
      run_load(api_qps, cfg_.probe_window);
      const double tail = service_tail(static_cast<int>(i), since, cfg_.probe_rank);
      if (!upper_found) {
        if (tail < 0.0 || tail > baseline[i] * cfg_.upper_tolerance) {
          space.hi[i] = std::min(q + cfg_.step, cfg_.quota_hi);  // last harmless quota
          upper_found = true;
        }
      }
      if (tail < 0.0 || tail > slo_ms) {
        space.lo[i] = q;  // this single service alone would break the SLO
        break;
      }
    }
    if (!upper_found) space.hi[i] = std::max(space.lo[i] + cfg_.step, cfg_.quota_floor + cfg_.step);
    if (space.lo[i] >= space.hi[i]) space.hi[i] = space.lo[i] + cfg_.step;
  }

  cluster_.hard_reset_load();
  cluster_.clear_windows();
  return space;
}

gnn::Dataset SampleCollector::collect(std::size_t n, const SearchSpace& space,
                                      const std::vector<Qps>& api_qps_base,
                                      double scale_lo, double scale_hi) {
  if (api_qps_base.size() != cluster_.api_count())
    throw std::invalid_argument{"SampleCollector::collect: api count mismatch"};
  const std::size_t services = cluster_.service_count();

  // Calibration pass: generous quotas, base workload, so the tracer holds
  // representative per-API fan-outs before feature extraction.
  std::vector<Millicores> quota(services, cfg_.quota_hi);
  apply_quota(quota);
  cluster_.hard_reset_load();
  run_load(api_qps_base, 5.0);
  analyzer_.update(cluster_.tracer());

  gnn::Dataset out;
  out.reserve(n);
  std::size_t attempts = 0;
  const std::size_t max_attempts = n * 4 + 100;
  while (out.size() < n && attempts < max_attempts) {
    ++attempts;
    const double scale = rng_.uniform(scale_lo, scale_hi);
    std::vector<Qps> api_qps = api_qps_base;
    for (auto& q : api_qps) q *= scale;
    for (std::size_t s = 0; s < services; ++s) {
      const double u = std::pow(rng_.uniform(), cfg_.low_quota_bias);
      quota[s] = space.lo[s] + u * (space.hi[s] - space.lo[s]);
    }

    apply_quota(quota);
    cluster_.hard_reset_load();
    cluster_.clear_windows();
    run_load(api_qps, cfg_.warmup);
    const Seconds since = cluster_.now();
    run_load(api_qps, cfg_.window);

    auto& e2e = cluster_.e2e_latency_all();
    if (e2e.count_since(since) < cfg_.min_completions) {
      // Hopelessly overloaded configuration: flush and redraw. The flush
      // still consumes cluster time, so it counts toward the simulated-time
      // budget exactly as on the accepted path.
      cluster_.hard_reset_load();
      cluster_.run_for(cfg_.flush);
      simulated_seconds_ += cfg_.flush;
      continue;
    }
    gnn::Sample s;
    if (cfg_.closed_loop) {
      // Closed-loop users self-throttle: record the *achieved* front-end
      // rate, which is what the controller will observe at runtime.
      std::vector<Qps> measured(api_qps.size(), 0.0);
      for (std::size_t a = 0; a < measured.size(); ++a)
        measured[a] = cluster_.api_qps(static_cast<int>(a), cfg_.window);
      s.workload = analyzer_.distribute(measured);
    } else {
      s.workload = analyzer_.distribute(api_qps);
    }
    s.quota = quota;
    s.latency_ms = e2e.percentile_since(since, cfg_.tail_rank);
    if (sink_) sink_(s, cluster_.now());
    out.push_back(std::move(s));

    analyzer_.update(cluster_.tracer());
    cluster_.hard_reset_load();
    cluster_.run_for(cfg_.flush);
    simulated_seconds_ += cfg_.flush;
  }
  return out;
}

}  // namespace graf::core
