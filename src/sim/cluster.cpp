#include "sim/cluster.h"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace graf::sim {

CallNode make_chain(const std::vector<int>& services) {
  if (services.empty()) throw std::invalid_argument{"make_chain: empty"};
  CallNode root{.service = services.front()};
  CallNode* tail = &root;
  for (std::size_t i = 1; i < services.size(); ++i) {
    tail->stages.push_back({CallNode{.service = services[i]}});
    tail = &tail->stages.back().front();
  }
  return root;
}

Cluster::Cluster(std::vector<ServiceConfig> service_cfgs, std::vector<Api> apis,
                 ClusterConfig cfg)
    : cfg_{cfg}, rng_{cfg.seed}, deployment_{events_, cfg.creation},
      apis_{std::move(apis)},
      tracer_{apis_.size(), service_cfgs.size(), cfg.trace_capacity},
      e2e_all_{cfg.latency_horizon} {
  if (service_cfgs.empty()) throw std::invalid_argument{"Cluster: no services"};
  if (apis_.empty()) throw std::invalid_argument{"Cluster: no APIs"};
  services_.reserve(service_cfgs.size());
  for (std::size_t i = 0; i < service_cfgs.size(); ++i) {
    services_.push_back(std::make_unique<Service>(static_cast<int>(i),
                                                  std::move(service_cfgs[i]), events_,
                                                  deployment_));
    local_latency_.emplace_back(cfg.latency_horizon);
    series_.emplace_back();
    last_arrivals_.push_back(0);
  }
  for (std::size_t a = 0; a < apis_.size(); ++a) {
    e2e_latency_.emplace_back(cfg.latency_horizon);
    api_arrivals_.emplace_back(cfg.latency_horizon);
    validate_api(apis_[a].root);
  }
  events_.schedule_in(cfg_.metrics_interval, [this] { metrics_tick(); });
}

void Cluster::validate_api(const CallNode& node) const {
  if (node.service < 0 || static_cast<std::size_t>(node.service) >= services_.size())
    throw std::invalid_argument{"Cluster: API references unknown service"};
  if (node.probability <= 0.0 || node.probability > 1.0)
    throw std::invalid_argument{"Cluster: call probability must be in (0,1]"};
  for (const auto& stage : node.stages)
    for (const auto& child : stage) validate_api(child);
}

int Cluster::service_index(const std::string& name) const {
  for (std::size_t i = 0; i < services_.size(); ++i)
    if (services_[i]->name() == name) return static_cast<int>(i);
  return -1;
}

int Cluster::api_index(const std::string& name) const {
  for (std::size_t i = 0; i < apis_.size(); ++i)
    if (apis_[i].name == name) return static_cast<int>(i);
  return -1;
}

void Cluster::set_metrics(telemetry::MetricsRegistry* registry) {
  telemetry_ = registry;
  svc_tel_.clear();
  e2e_api_hist_.clear();
  e2e_hist_ = nullptr;
  tel_submitted_ = tel_completed_ = tel_failed_ = nullptr;
  events_.set_pop_timer(nullptr);
  if (registry == nullptr) return;

  telemetry::MetricsRegistry& reg = *registry;
  events_.set_pop_timer(&reg.histogram("sim.event_us"));
  tel_submitted_ = &reg.counter("sim.requests_submitted");
  tel_completed_ = &reg.counter("sim.requests_completed");
  tel_failed_ = &reg.counter("sim.requests_failed");
  e2e_hist_ = &reg.histogram("sim.e2e_latency_ms");
  for (const Api& api : apis_)
    e2e_api_hist_.push_back(
        &reg.histogram("sim.e2e_latency_ms", {{"api", api.name}}));
  svc_tel_.resize(services_.size());
  for (std::size_t s = 0; s < services_.size(); ++s) {
    const telemetry::Labels labels{{"service", services_[s]->name()}};
    ServiceTelemetry& t = svc_tel_[s];
    t.queue_depth = &reg.gauge("sim.queue_depth", labels);
    t.utilization = &reg.gauge("sim.utilization", labels);
    t.ready = &reg.gauge("sim.ready_instances", labels);
    t.creating = &reg.gauge("sim.creating_instances", labels);
    t.qps = &reg.gauge("sim.qps", labels);
    t.creations = &reg.counter("sim.instance_creations", labels);
    t.drops = &reg.counter("sim.queue_drops", labels);
    t.creation_failures = &reg.counter("sim.creation_failures", labels);
    t.creation_retries = &reg.counter("sim.creation_retries", labels);
    t.local_latency = &reg.histogram("sim.service_latency_ms", labels);
  }
  // Counters pick up from the cluster's cumulative totals so a registry
  // attached mid-run only reports what happens from now on.
  resync_telemetry_baselines();
}

void Cluster::resync_telemetry_baselines() {
  for (std::size_t s = 0; s < svc_tel_.size(); ++s) {
    ServiceTelemetry& t = svc_tel_[s];
    t.last_creations = services_[s]->creations_started();
    t.last_drops = services_[s]->drops();
    t.last_creation_failures = services_[s]->creation_failures();
    t.last_creation_retries = services_[s]->creation_retries();
  }
}

void Cluster::set_telemetry_blackout(bool on) {
  if (blackout_ && !on) blackout_resync_ = true;  // recovered: next tick resyncs
  blackout_ = on;
}

double Cluster::sample_demand(const CallNode& node, const Service& svc) {
  const double mean = demand_scale_ *
      (node.demand_ms >= 0.0 ? node.demand_ms : svc.config().demand_mean_ms);
  const double sigma = svc.config().demand_sigma;
  if (sigma <= 0.0) return mean;
  // Mean-preserving lognormal: E[exp(N(-s^2/2, s))] = 1.
  return mean * rng_.lognormal(-0.5 * sigma * sigma, sigma);
}

void Cluster::exec_node(const std::shared_ptr<Ctx>& ctx, const CallNode& node,
                        std::function<void(bool)> done) {
  ++ctx->visits[static_cast<std::size_t>(node.service)];
  Service& svc = *services_[static_cast<std::size_t>(node.service)];
  const double work = sample_demand(node, svc);
  const int sid = node.service;
  const CallNode* np = &node;  // stable: apis_ is immutable after construction
  // The callbacks share `done`; exactly one of them fires per submission.
  auto shared_done = std::make_shared<std::function<void(bool)>>(std::move(done));
  svc.submit(
      work,
      [this, ctx, sid, np, shared_done](double local_ms) {
        if (!blackout_) {
          local_latency_[static_cast<std::size_t>(sid)].add(events_.now(), local_ms);
          if (!svc_tel_.empty())
            svc_tel_[static_cast<std::size_t>(sid)].local_latency->record(local_ms);
        }
        run_stages(ctx, np, 0, [shared_done](bool ok) { (*shared_done)(ok); });
      },
      [shared_done] { (*shared_done)(false); }, ctx->deadline);
}

void Cluster::run_stages(const std::shared_ptr<Ctx>& ctx, const CallNode* node,
                         std::size_t stage, std::function<void(bool)> done) {
  while (stage < node->stages.size()) {
    std::vector<const CallNode*> launch;
    for (const CallNode& child : node->stages[stage]) {
      if (child.probability >= 1.0 || rng_.bernoulli(child.probability))
        launch.push_back(&child);
    }
    if (launch.empty()) {
      ++stage;  // everything in this stage was probabilistically skipped
      continue;
    }
    auto remaining = std::make_shared<std::size_t>(launch.size());
    auto all_ok = std::make_shared<bool>(true);
    auto join = [this, ctx, node, stage, remaining, all_ok,
                 done = std::move(done)](bool ok) mutable {
      *all_ok = *all_ok && ok;
      if (--*remaining == 0) {
        if (*all_ok) {
          run_stages(ctx, node, stage + 1, std::move(done));
        } else {
          done(false);
        }
      }
    };
    for (const CallNode* child : launch) exec_node(ctx, *child, join);
    return;
  }
  done(true);
}

void Cluster::submit_request(int api, CompletionFn on_complete) {
  if (api < 0 || static_cast<std::size_t>(api) >= apis_.size())
    throw std::out_of_range{"Cluster::submit_request: bad api"};
  auto ctx = std::make_shared<Ctx>(Ctx{api, events_.now(),
                                       events_.now() + cfg_.request_timeout,
                                       std::vector<std::uint32_t>(services_.size(), 0),
                                       std::move(on_complete)});
  ++submitted_;
  ++inflight_;
  // Everything below the ground-truth counters is observability-plane:
  // a telemetry blackout starves it, while the cluster itself keeps serving.
  if (!blackout_) {
    if (tel_submitted_ != nullptr) tel_submitted_->add();
    api_arrivals_[static_cast<std::size_t>(api)].add(events_.now(), 1.0);
  }
  exec_node(ctx, apis_[static_cast<std::size_t>(api)].root, [this, ctx](bool ok) {
    // A response that arrives after the client timeout is a failure too.
    ok = ok && events_.now() <= ctx->deadline;
    trace::RequestTrace t{ctx->api, ctx->start, events_.now(), ok,
                          std::move(ctx->visits)};
    if (inflight_ > 0) --inflight_;
    if (ok) {
      // Exact e2e windows are the experiments' ground truth — they see
      // through blackouts (the harness measures reality, not Prometheus).
      e2e_all_.add(events_.now(), t.e2e_ms());
      e2e_latency_[static_cast<std::size_t>(ctx->api)].add(events_.now(), t.e2e_ms());
      ++completed_;
      if (e2e_hist_ != nullptr && !blackout_) {
        e2e_hist_->record(t.e2e_ms());
        e2e_api_hist_[static_cast<std::size_t>(ctx->api)]->record(t.e2e_ms());
        tel_completed_->add();
      }
    } else {
      ++failed_;
      if (tel_failed_ != nullptr && !blackout_) tel_failed_->add();
    }
    if (ctx->on_complete) ctx->on_complete(t);
    // Only complete executions inform the workload analyzer's fan-out.
    if (ok && !blackout_) tracer_.record(std::move(t));
  });
}

void Cluster::metrics_tick() {
  const Seconds now = events_.now();
  const double dt = cfg_.metrics_interval;
  if (blackout_) {
    // Scrape lost: publish nothing, keep the ticker alive. Deltas and CPU
    // usage accumulate in the services until the resync tick below.
    events_.schedule_in(dt, [this] { metrics_tick(); });
    return;
  }
  if (blackout_resync_) {
    // First tick after a blackout: the accumulated interval would otherwise
    // be misattributed to one dt-sized sample (a huge fake spike). Discard
    // the dark interval's usage and counter deltas; fresh points resume on
    // the next tick.
    blackout_resync_ = false;
    for (std::size_t s = 0; s < services_.size(); ++s) {
      services_[s]->drain_cpu_core_seconds();
      last_arrivals_[s] = services_[s]->arrivals();
    }
    resync_telemetry_baselines();
    events_.schedule_in(dt, [this] { metrics_tick(); });
    return;
  }
  for (std::size_t s = 0; s < services_.size(); ++s) {
    Service& svc = *services_[s];
    ServicePoint p;
    p.time = now;
    p.qps = static_cast<double>(svc.arrivals() - last_arrivals_[s]) / dt;
    last_arrivals_[s] = svc.arrivals();
    p.cpu_cores = svc.drain_cpu_core_seconds() / dt;
    // Utilization against the Kubernetes *request* (limit * request_factor):
    // bursting instances report >100%, exactly as cAdvisor/HPA see it. The
    // denominator must cover every pod that can appear in the numerator —
    // retiring (terminating-but-draining) pods still burn CPU, and cAdvisor
    // still scrapes them, so their requests count too. Excluding them made
    // utilization spike past ready capacity during scale-downs and tricked
    // the HPA into immediate re-upscale.
    const double requested =
        cores(svc.total_quota() + svc.retiring_quota()) * svc.config().request_factor;
    p.utilization = requested > 0.0 ? p.cpu_cores / requested : 0.0;
    p.ready = svc.ready_count();
    p.creating = svc.creating_count();
    p.queue_len = svc.queue_length();
    auto& ring = series_[s];
    ring.push_back(p);
    if (ring.size() > cfg_.series_capacity) ring.pop_front();
    if (!svc_tel_.empty()) {
      ServiceTelemetry& t = svc_tel_[s];
      t.queue_depth->set(static_cast<double>(p.queue_len));
      t.utilization->set(p.utilization);
      t.ready->set(static_cast<double>(p.ready));
      t.creating->set(static_cast<double>(p.creating));
      t.qps->set(p.qps);
      t.creations->add(
          static_cast<double>(svc.creations_started() - t.last_creations));
      t.last_creations = svc.creations_started();
      t.drops->add(static_cast<double>(svc.drops() - t.last_drops));
      t.last_drops = svc.drops();
      t.creation_failures->add(
          static_cast<double>(svc.creation_failures() - t.last_creation_failures));
      t.last_creation_failures = svc.creation_failures();
      t.creation_retries->add(
          static_cast<double>(svc.creation_retries() - t.last_creation_retries));
      t.last_creation_retries = svc.creation_retries();
    }
  }
  events_.schedule_in(dt, [this] { metrics_tick(); });
}

double Cluster::utilization_avg(int s, Seconds horizon) const {
  const auto& ring = series_.at(static_cast<std::size_t>(s));
  const Seconds since = events_.now() - horizon;
  double sum = 0.0;
  std::size_t n = 0;
  for (auto it = ring.rbegin(); it != ring.rend() && it->time >= since; ++it) {
    sum += it->utilization;
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

double Cluster::qps_avg(int s, Seconds horizon) const {
  const auto& ring = series_.at(static_cast<std::size_t>(s));
  const Seconds since = events_.now() - horizon;
  double sum = 0.0;
  std::size_t n = 0;
  for (auto it = ring.rbegin(); it != ring.rend() && it->time >= since; ++it) {
    sum += it->qps;
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

std::size_t Cluster::series_count_since(int s, Seconds horizon) const {
  const auto& ring = series_.at(static_cast<std::size_t>(s));
  const Seconds since = events_.now() - horizon;
  std::size_t n = 0;
  for (auto it = ring.rbegin(); it != ring.rend() && it->time >= since; ++it) ++n;
  return n;
}

int Cluster::total_ready_instances() const {
  int n = 0;
  for (const auto& s : services_) n += s->ready_count();
  return n;
}

int Cluster::total_target_instances() const {
  int n = 0;
  for (const auto& s : services_) n += s->ready_count() + s->creating_count();
  return n;
}

Millicores Cluster::total_quota() const {
  Millicores q = 0.0;
  for (const auto& s : services_) q += s->total_quota();
  return q;
}

Qps Cluster::api_qps(int api, Seconds window) const {
  if (window <= 0.0) throw std::invalid_argument{"api_qps: window must be > 0"};
  const auto& w = api_arrivals_.at(static_cast<std::size_t>(api));
  return static_cast<double>(w.count_since(events_.now() - window)) / window;
}

void Cluster::apply_total_quota(int s, Millicores total, Millicores max_per_instance) {
  if (total <= 0.0 || max_per_instance <= 0.0)
    throw std::invalid_argument{"apply_total_quota: quotas must be > 0"};
  Service& svc = service(s);
  const int n = std::max(1, static_cast<int>(std::ceil(total / max_per_instance)));
  svc.force_scale(n);
  svc.set_unit_quota(total / static_cast<double>(n));
}

void Cluster::hard_reset_load() {
  for (auto& s : services_) s->abort_all();
  inflight_ = 0;
}

void Cluster::clear_windows() {
  for (auto& w : local_latency_) w.clear();
  for (auto& w : e2e_latency_) w.clear();
  for (auto& w : api_arrivals_) w.clear();
  e2e_all_.clear();
  tracer_.clear();
}

}  // namespace graf::sim
