// graf_e2e: runs one workload end to end and prints its metrics as one JSON
// line on stdout (progress goes to stderr). bench/e2e/run.py builds this
// binary and is the command users run; see bench/e2e/README.md.
//
//   graf_e2e --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//            [--spans PATH]
//
// Schedule: setup (train + admit + warm-up) three times, keeping the last;
// then five segments, each open-loop ticks (due every tick period; a late
// driver runs the backlog tick by tick, never coalescing) followed by
// closed-loop capacity ticks (back-to-back steps). The lock-step workload
// instead advances its simulated clusters one control tick at a time.
// Finally the run is rebuilt and replayed, with the same phase on every
// tick, through the first measured ticks at another worker-pool size (2
// threads when GRAF_THREADS=1, else 1) and must make bit-identical
// decisions there.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/thread_pool.h"
#include "e2e.h"

namespace graf::e2e {

int Tracer::add(const char* name, Clock::time_point start, Clock::time_point end,
                int parent, long tick) {
  if (spans_.size() >= cap_) {
    ++dropped_;
    return -1;
  }
  spans_.push_back({name, us(start), us(end), parent, tick});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::close(int id, Clock::time_point end) {
  if (id >= 0) spans_[static_cast<std::size_t>(id)].end_us = us(end);
}

namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  h *= 1099511628211ULL;
  return h;
}

/// Fold a committed plan into a digest.
std::uint64_t mix_plan(std::uint64_t h, std::size_t tenant, const core::AllocationPlan& plan) {
  h = mix(h, tenant);
  for (int inst : plan.instances) h = mix(h, static_cast<std::uint64_t>(inst));
  for (double q : plan.quota) h = mix(h, std::bit_cast<std::uint64_t>(q));
  return mix(h, (plan.degraded ? 2u : 0u) | (plan.feasible ? 1u : 0u));
}

/// graf::percentile, 0 for an empty sample.
double pct(const std::vector<double>& v, double rank) { return v.empty() ? 0.0 : percentile(v, rank); }

double median(const std::vector<double>& v) { return pct(v, 50.0); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Plan invariants every committed plan must satisfy.
bool plan_valid(const core::AllocationPlan& plan, const fleet::TenantSpec& spec) {
  const std::size_t n = spec.lo.size();
  if (plan.quota.size() != n || plan.instances.size() != n) return false;
  for (std::size_t s = 0; s < n; ++s) {
    if (!std::isfinite(plan.quota[s]) || !(plan.quota[s] > 0.0)) return false;
    if (plan.instances[s] < 1) return false;
    if (!spec.max_instances.empty() && plan.instances[s] > spec.max_instances[s]) return false;
  }
  return std::isfinite(plan.predicted_ms);
}

constexpr std::size_t kReplaySteps = 100;
constexpr long kSegments = 5;

/// Host-speed reference. A core of a shared machine changes speed by up to
/// 1.8x from one second to the next (another guest on its sibling
/// hyperthread), which would make the timings of a 15 s run spread by a
/// third between runs. The driver therefore times a fixed kernel of its own
/// next to every measured tick and reports tick timings at a nominal host
/// speed: each is scaled by sqrt(kNominalUs / r), where r is the kernel's
/// median time over its last kRecent runs. The square root: computing steps
/// slow down nearly as much as the kernel, steps waiting on memory hardly at
/// all, and across the four workloads it kept the worst spread as low as
/// any exponent tried (see README.md). kNominalUs is the kernel's time on an
/// unshared core of a 2.1 GHz Xeon guest, so a nominal timing there equals
/// the wall time.
class HostSpeed {
 public:
  static constexpr double kNominalUs = 25.0;

  /// Run the kernel until about `t`, then spin to `t`: the open loop's idle
  /// time.
  void fill_until(Clock::time_point t) {
    while (Clock::now() + std::chrono::duration<double, std::micro>(2.0 * last_us_) < t) sample();
    while (Clock::now() < t) {
    }
  }
  /// Run the kernel at least once and for about `ms` milliseconds.
  void sample_for(double ms) {
    const auto t0 = Clock::now();
    do sample();
    while (ms_between(t0, Clock::now()) < ms);
  }
  /// Multiplier from wall time now to nominal time (1 before any sample).
  double factor() const {
    if (count_ == 0) return 1.0;
    std::array<double, kRecent> v{};
    const std::size_t n = std::min(count_, kRecent);
    std::copy_n(recent_.begin(), n, v.begin());
    std::nth_element(v.begin(), v.begin() + static_cast<long>(n / 2), v.begin() + static_cast<long>(n));
    return std::sqrt(kNominalUs / v[n / 2]);
  }

 private:
  static constexpr std::size_t kRecent = 16;
  static constexpr std::size_t kN = 48;

  static std::array<double, kN * kN> filled(double v) {
    std::array<double, kN * kN> m;
    m.fill(v);
    return m;
  }

  /// One run: c += a * b for 48x48 matrices (distinct member arrays, so the
  /// inner loop vectorizes).
  void sample() {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < kN; ++i)
      for (std::size_t k = 0; k < kN; ++k) {
        const double x = a_[i * kN + k];
        for (std::size_t j = 0; j < kN; ++j) c_[i * kN + j] += x * b_[k * kN + j];
      }
    last_us_ = 1e3 * ms_between(t0, Clock::now());
    recent_[count_++ % kRecent] = last_us_;
    sink_ = c_[7];
  }

  std::array<double, kN * kN> a_ = filled(1.0001);
  std::array<double, kN * kN> b_ = filled(0.9999);
  std::array<double, kN * kN> c_{};
  std::array<double, kRecent> recent_{};
  std::size_t count_ = 0;
  double last_us_ = kNominalUs;
  volatile double sink_ = 0.0;  ///< keeps the kernel's result live
};

/// The driver: ticks the scenario's fleet and measures every decision.
class Run {
 public:
  Run(Scenario& sc, const Workload& w, const Options& opts, Tracer* tracer)
      : sc_{sc}, w_{w}, opts_{opts}, tracer_{tracer} {
    const std::size_t n = sc.tenants.size();
    seen_plans_.assign(n, 0);
    seen_hits_.assign(n, 0);
    last_qps_.resize(n);
    cores_.assign(n, 0.0);
    digest_ticks_ = opts.smoke ? 10 : 50;
    fleet::FleetServer& server = *sc.server;
    c_hits_ = &server.metrics().counter("fleet.plan_cache.hits");
    c_misses_ = &server.metrics().counter("fleet.plan_cache.misses");
    c_evictions_ = &server.metrics().counter("fleet.plan_cache.evictions");
    c_groups_ = &server.metrics().counter("fleet.batched_groups");
    c_batched_ = &server.metrics().counter("fleet.batched_tenants");
    c_plans_ = &server.metrics().counter("fleet.plans");
    c_stale_ = &server.metrics().counter("fleet.ingest.stale");
    if (tracer_ != nullptr) {
      for (std::size_t i = 0; i < n; ++i) {
        fleet::Tenant* t = server.tenant(sc.tenants[i].id);
        t_iters_.push_back(&t->metrics().counter("core.solver_iterations_total"));
        if (t->tiered_planner() != nullptr) tiered_.push_back(t->tiered_planner());
        if (sc.tenants[i].spec.forecast.enabled) streams_.push_back({i, {}});
      }
    }
    token_ = server.subscribe([this](const fleet::PlanUpdate& u) {
      if (!tracing_tick_) {
        sc_.on_plan(u);
        return;
      }
      const auto t0 = Clock::now();
      sc_.on_plan(u);
      const auto t1 = Clock::now();
      notify_us_.push_back(1e3 * ms_between(t0, t1));
      tracer_->add("fleet.notify", t0, t1, step_span_, tick_);
    });
  }

  ~Run() { token_.reset(); }

  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  /// Tick `k`'s driver-side work: the scenario's prework (model
  /// promotions, advancing simulated clusters) and every tenant's
  /// telemetry. The open loop does it before the tick falls due, so that it
  /// is not timed as the control plane's.
  void stage(long k, Phase phase, bool traced) {
    if (staged_ == k) return;
    sc_.before_tick(k, phase, traced ? tracer_ : nullptr);
    updates_.clear();
    sc_.telemetry(k, updates_);
    for (std::size_t i = 0; i < updates_.size(); ++i) last_qps_[i] = updates_[i].api_qps;
    staged_ = k;
  }

  /// One control tick: push every tenant's telemetry, step(), then scan the
  /// committed plans.
  void tick(long k, Phase phase, Clock::time_point due, bool traced) {
    fleet::FleetServer& server = *sc_.server;
    tick_ = k;
    phases_.push_back(phase);
    tracing_tick_ = traced && tracer_ != nullptr;
    Tracer* tr = tracing_tick_ ? tracer_ : nullptr;
    stage(k, phase, traced);
    // Lock-step: a decision is due once the simulated clusters have reached
    // the tick and reported their rates.
    if (w_.lock_step) due = Clock::now();
    const double speed = host_.factor();
    const auto push_start = Clock::now();
    const int root = tr != nullptr ? tr->add("tick", due, push_start, -1, k) : -1;
    if (phase == Phase::kOpenLoop) late_ms_.push_back(ms_between(due, push_start));
    std::uint64_t accepted = 0;
    for (std::size_t i = 0; i < updates_.size(); ++i) {
      if (tr != nullptr) {
        const auto t0 = Clock::now();
        accepted += server.push(std::move(updates_[i])) ? 1 : 0;
        push_us_.push_back(1e3 * ms_between(t0, Clock::now()));
      } else {
        accepted += server.push(std::move(updates_[i])) ? 1 : 0;
      }
    }
    const auto step_start = Clock::now();
    if (tr != nullptr) {
      tr->add("fleet.push", push_start, step_start, root, k);
      step_span_ = tr->add("fleet.step", step_start, step_start, root, k);
    }
    const double hits_before = c_hits_->value();
    const double misses_before = c_misses_->value();
    const fleet::FleetServer::StepStats stats = server.step();
    const auto step_end = Clock::now();
    if (tr != nullptr) {
      tr->close(step_span_, step_end);
      tr->close(root, step_end);
    }
    const std::uint64_t attempted = updates_.size();
    const std::uint64_t committed = accepted - std::min<std::uint64_t>(accepted, stats.failures);
    if (phase != Phase::kWarmup) {
      attempted_ += attempted;
      failed_ += attempted - committed;
    }
    const bool window = phase == Phase::kOpenLoop;
    const double busy_s = seconds_between(push_start, step_end);
    last_busy_ms_ = 1e3 * busy_s;
    if (window) {
      // Every tenant pushes every tick, so per-tick latencies weigh every
      // push alike. On time means within the limit in wall time.
      const double latency = ms_between(due, step_end);
      decisions_.push_back(speed * latency);
      raw_decisions_.push_back(latency);
      speeds_.push_back(speed);
      (traced ? traced_decisions_ : untraced_decisions_).push_back(speed * latency);
      window_attempted_ += attempted;
      if (latency <= w_.limit_ms) window_ok_ += committed;
      busy_s_ += busy_s;
      const double misses = c_misses_->value() - misses_before;
      window_hits_ += c_hits_->value() - hits_before;
      window_misses_ += misses;
      if (misses > 0) {
        ++miss_ticks_;
        misses_by_tick_.emplace_back(k, misses);
      }
      ++window_ticks_;
      coasted_ += stats.coasted;
      drained_ += stats.drained;
    }
    // Capacity: decisions per busy second of back-to-back push + step.
    if (phase == Phase::kClosedLoop || (window && w_.lock_step)) {
      capacity_decisions_ += static_cast<double>(committed);
      capacity_s_ += speed * busy_s;
      raw_capacity_s_ += busy_s;
    }
    scan(k, window, tr != nullptr, step_span_, ms_between(step_start, step_end));
  }

  /// Every tenant: detect a fresh commit, check it, fold it into the stats.
  void scan(long k, bool window, bool traced, int step_span, double step_ms) {
    fleet::FleetServer& server = *sc_.server;
    RecordedStep* rec = nullptr;
    if (traced && recorded_.size() < kReplaySteps) {
      recorded_.push_back({k, step_span, 1e3 * step_ms, {}, {}});
      rec = &recorded_.back();
    }
    for (ObservedStream& s : streams_) {
      s.pushes.emplace_back(k, last_qps_[s.tenant]);
      if (rec != nullptr) rec->forecast_tenants.push_back(s.tenant);
    }
    for (std::size_t i = 0; i < sc_.tenants.size(); ++i) {
      fleet::Tenant* t = server.tenant(sc_.tenants[i].id);
      if (t == nullptr) {
        ++invalid_plans_;
        continue;
      }
      if (t->plans() == seen_plans_[i]) continue;
      seen_plans_[i] = t->plans();
      const std::uint64_t hits = t->controller().plan_cache_hits();
      const bool hit = hits != seen_hits_[i];
      seen_hits_[i] = hits;
      const core::AllocationPlan& plan = t->last_plan();
      const fleet::TenantSpec& spec = sc_.tenants[i].spec;
      if (!plan_valid(plan, spec)) ++invalid_plans_;
      if (k < w_.warmup_ticks)
        warm_digest_ = mix_plan(warm_digest_, i, plan);
      else if (k < w_.warmup_ticks + digest_ticks_)
        digest_ = mix_plan(digest_, i, plan);
      double cores = 0.0;
      for (double q : plan.quota) cores += q / 1000.0;
      if (window) {
        ++commits_;
        if (plan.feasible && !plan.degraded) ++feasible_;
        // Fleet workloads have no requests: a plan's share of requests over
        // the SLO is modelled as that of exponential response times whose
        // mean is the plan's ground-truth latency at the rates it serves.
        if (!sc_.simulated())
          modelled_violation_ += std::exp(-spec.slo_ms / sc_.truth_ms(i, last_qps_[i], plan));
      }
      total_cores_ += cores - cores_[i];
      cores_[i] = cores;
      if (rec != nullptr && !plan.degraded) rec->decisions.push_back({i, last_qps_[i], hit, plan});
    }
    if (window) tick_cores_ += total_cores_;
    if (traced) {
      StepCounters c;
      c.tick = k;
      c.plans = c_plans_->value();
      c.hits = c_hits_->value();
      c.misses = c_misses_->value();
      c.evictions = c_evictions_->value();
      c.groups = c_groups_->value();
      c.batched = c_batched_->value();
      for (const telemetry::Counter* x : t_iters_) c.iterations += x->value();
      for (const core::TieredPlanner* p : tiered_) {
        c.fast_hits += static_cast<double>(p->fast_hits());
        c.escalations += static_cast<double>(p->escalations());
      }
      step_counters_.push_back(c);
    }
  }

  // ---- phases ----------------------------------------------------------------

  void warmup() {
    for (long k = 0; k < w_.warmup_ticks; ++k) tick(k, Phase::kWarmup, Clock::now(), false);
  }

  /// The measured window. An open-loop workload runs kSegments segments,
  /// each open-loop ticks (75% of --seconds in all) followed by a fixed
  /// number of closed-loop ticks (about 25% at the speed the workload was
  /// sized on); the lock-step workload runs its simulated window. Fixed
  /// tick counts keep every run's decisions identical. Spreading the
  /// closed-loop ticks over the run spreads the capacity measurement over
  /// the machine's quieter and busier moments. The host-speed reference
  /// runs in the open loop's idle time and, for 5% of the previous tick's
  /// time, before every closed-loop or lock-step tick.
  void measure() {
    long k = w_.warmup_ticks;
    sc_.start_window(k);
    plan_changes0_ = plan_changes();
    if (w_.lock_step) {
      const long n = sc_.lock_step_ticks();
      const auto t0 = Clock::now();
      for (long j = 0; j < n; ++j, ++k) {
        const bool traced = opts_.trace && j % 2 == 1;
        stage(k, Phase::kOpenLoop, traced);
        host_.sample_for(0.05 * last_busy_ms_);
        tick(k, Phase::kOpenLoop, Clock::now(), traced);
      }
      window_wall_s_ = seconds_between(t0, Clock::now());
    } else {
      const long n = std::max<long>(1, std::lround(0.75 * opts_.seconds / w_.tick_s));
      const long closed = std::max<long>(
          1, std::lround(w_.closed_ticks_per_s * 0.25 * opts_.seconds / kSegments));
      const auto period = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(w_.tick_s));
      for (long s = 0; s < kSegments; ++s) {
        const long open = n * (s + 1) / kSegments - n * s / kSegments;
        const auto t0 = Clock::now() + period;
        for (long j = 0; j < open; ++j, ++k) {
          const auto due = t0 + j * period;
          const bool traced = opts_.trace && j % 2 == 1;
          stage(k, Phase::kOpenLoop, traced);
          host_.fill_until(due);
          tick(k, Phase::kOpenLoop, due, traced);
        }
        window_wall_s_ += seconds_between(t0, Clock::now());
        for (long j = 0; j < closed; ++j, ++k) {
          stage(k, Phase::kClosedLoop, false);
          host_.sample_for(0.05 * last_busy_ms_);
          tick(k, Phase::kClosedLoop, Clock::now(), false);
        }
      }
    }
    sc_.end_window(k);
    plan_changes1_ = plan_changes();
  }

  /// Cache misses from tick `from` until the next promotion (the re-solve
  /// burst a promotion causes: the steady state has no misses).
  double misses_after(long from, long until) const {
    double n = 0.0;
    for (const auto& [tick, misses] : misses_by_tick_)
      if (tick >= from && tick < until) n += misses;
    return n;
  }

  std::vector<std::uint64_t> plan_changes() {
    std::vector<std::uint64_t> out;
    for (const TenantInfo& t : sc_.tenants) out.push_back(sc_.server->tenant(t.id)->plan_changes());
    return out;
  }

  /// Cumulative counters after a traced step.
  struct StepCounters {
    long tick = 0;
    double plans = 0, hits = 0, misses = 0, evictions = 0, groups = 0, batched = 0;
    double iterations = 0, fast_hits = 0, escalations = 0;
  };

  // ---- results -----------------------------------------------------------------

  Scenario& sc_;
  const Workload& w_;
  const Options& opts_;
  Tracer* tracer_;
  fleet::SubscriptionToken token_;
  bool tracing_tick_ = false;
  int step_span_ = -1;
  long tick_ = 0;

  std::vector<fleet::TelemetryUpdate> updates_;
  long staged_ = -1;  ///< the tick updates_ holds
  std::vector<std::vector<Qps>> last_qps_;
  std::vector<std::uint64_t> seen_plans_, seen_hits_;
  std::vector<double> cores_;
  double total_cores_ = 0.0;  ///< cores of every tenant's plan in force

  std::vector<Phase> phases_;  ///< every tick's phase, by tick
  /// Plans committed in the warm-up (the setups must agree on them) and in
  /// the first digest_ticks_ measured ticks (the thread-count replay must
  /// agree on them).
  long digest_ticks_ = 50;
  std::uint64_t warm_digest_ = 1469598103934665603ULL;
  std::uint64_t digest_ = 1469598103934665603ULL;
  std::uint64_t invalid_plans_ = 0;

  HostSpeed host_;
  double last_busy_ms_ = 0.0;  ///< push + step of the latest tick
  std::uint64_t attempted_ = 0, failed_ = 0;
  /// Per open-loop tick: decision latency at nominal host speed, in wall
  /// time, and the host-speed factor between them.
  std::vector<double> decisions_, raw_decisions_, speeds_;
  std::vector<double> traced_decisions_, untraced_decisions_;
  std::uint64_t window_attempted_ = 0, window_ok_ = 0;
  std::vector<double> late_ms_;
  /// Closed-loop (lock-step) decisions and their busy time, nominal and wall.
  double capacity_decisions_ = 0.0, capacity_s_ = 0.0, raw_capacity_s_ = 0.0;
  double busy_s_ = 0.0;
  double window_wall_s_ = 0.0;  ///< wall time of the open-loop (lock-step) ticks
  std::uint64_t window_ticks_ = 0, miss_ticks_ = 0, coasted_ = 0, drained_ = 0;
  double window_hits_ = 0, window_misses_ = 0;
  std::vector<std::pair<long, double>> misses_by_tick_;

  std::uint64_t commits_ = 0, feasible_ = 0;
  double tick_cores_ = 0.0;  ///< total_cores_ summed over window ticks
  double modelled_violation_ = 0.0;  ///< summed over window commits (fleet workloads)
  std::vector<std::uint64_t> plan_changes0_, plan_changes1_;

  telemetry::Counter *c_hits_, *c_misses_, *c_evictions_, *c_groups_, *c_batched_, *c_plans_,
      *c_stale_;
  std::vector<const telemetry::Counter*> t_iters_;
  std::vector<const core::TieredPlanner*> tiered_;
  std::vector<double> push_us_, notify_us_;
  std::vector<RecordedStep> recorded_;
  std::vector<ObservedStream> streams_;
  std::vector<StepCounters> step_counters_;
};

// ---- output --------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// A JSON number; null for a non-finite value (the checks reject it).
std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

void write_spans(const std::string& path, const Options& opts, const Tracer& tracer,
                 const Run& run, const telemetry::RegistrySnapshot& snap) {
  std::ofstream os{path};
  if (!os) throw std::runtime_error("cannot write " + path);
  os << "{\"workload\":\"" << json_escape(opts.workload) << "\",\"seed\":" << opts.seed
     << ",\"dropped_spans\":" << tracer.dropped() << ",\n\"spans\":[\n";
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    os << (i ? ",\n" : "") << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"start_us\":"
       << num(s.start_us) << ",\"end_us\":" << num(s.end_us) << ",\"parent\":" << s.parent
       << ",\"tick\":" << s.tick << "}";
  }
  os << "],\n\"steps\":[\n";
  for (std::size_t i = 0; i < run.step_counters_.size(); ++i) {
    const Run::StepCounters& c = run.step_counters_[i];
    os << (i ? ",\n" : "") << "{\"tick\":" << c.tick << ",\"plans\":" << num(c.plans)
       << ",\"plan_cache_hits\":" << num(c.hits) << ",\"plan_cache_misses\":" << num(c.misses)
       << ",\"plan_cache_evictions\":" << num(c.evictions) << ",\"batched_groups\":"
       << num(c.groups) << ",\"batched_tenants\":" << num(c.batched)
       << ",\"solver_iterations\":" << num(c.iterations) << ",\"surrogate_fast_hits\":"
       << num(c.fast_hits) << ",\"surrogate_escalations\":" << num(c.escalations) << "}";
  }
  os << "],\n\"counters\":{";
  bool first = true;
  for (const telemetry::MetricSnapshot& m : snap.metrics) {
    if (m.type == telemetry::MetricType::kHistogram) continue;
    os << (first ? "" : ",") << "\"" << json_escape(m.key()) << "\":" << num(m.value);
    first = false;
  }
  os << "}}\n";
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::stoull(value());
    else if (a == "--seconds") o.seconds = std::stod(value());
    else if (a == "--trace") o.trace = value() != "0";
    else if (a == "--spans") o.spans_path = value();
    else if (a == "--smoke") o.smoke = true;
    else throw std::invalid_argument("unknown argument " + a);
  }
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return o;
}

/// Per-layer metrics of a traced run (its end-to-end numbers are not
/// reported: tracing perturbs them).
void layer_metrics(Scenario& sc, Run& run, Tracer& tracer, const Options& opts,
                   const std::vector<double>& train_s, const std::vector<double>& admit_s,
                   const std::vector<double>& warm_s, double escalation_ratio,
                   std::vector<Metric>& metrics, std::map<std::string, double>& info,
                   std::vector<std::string>& problems) {
  const ReplayResult rr = replay_layers(sc, opts, run.recorded_, run.streams_, tracer);
  if (rr.mismatches > 0) problems.push_back("layer replay diverged from the fleet");
  std::vector<double> step_ms;
  for (const RecordedStep& s : run.recorded_) step_ms.push_back(s.step_us / 1e3);

  std::vector<double> promote = sc.promote_ms();
  if (promote.empty()) {
    // No live promotion in this workload: time one republish+promote of
    // the first application's tenants after the window.
    const auto t0 = Clock::now();
    for (const TenantInfo& t : sc.tenants) {
      if (t.app != 0) continue;
      const serve::ModelKey key{t.spec.application, t.spec.slo_ms};
      sc.server->registry().promote(key, sc.server->registry().publish(key, sc.models[0], {}));
    }
    const auto t1 = Clock::now();
    promote.push_back(ms_between(t0, t1));
    tracer.add("serve.promote", t0, t1, -1, -1);
  }
  const std::vector<long> promote_ticks = sc.promote_ticks();
  double resolves = 0.0;
  for (std::size_t p = 0; p < promote_ticks.size(); ++p)
    resolves += run.misses_after(promote_ticks[p], p + 1 < promote_ticks.size()
                                                       ? promote_ticks[p + 1]
                                                       : std::numeric_limits<long>::max());
  resolves = ratio(resolves, static_cast<double>(promote_ticks.size()));

  double prewarms = 0.0, predictions = 0.0;
  for (const TenantInfo& t : sc.tenants) {
    if (const forecast::ForecastGate* g = sc.server->tenant(t.id)->forecast_gate()) {
      prewarms += static_cast<double>(g->prewarms());
      predictions += static_cast<double>(g->predictions());
    }
  }
  double d_iters = 0.0, d_solves = 0.0;
  if (!run.step_counters_.empty()) {
    d_iters = run.step_counters_.back().iterations - run.step_counters_.front().iterations;
    // Every solve is a plan-cache miss.
    d_solves = run.step_counters_.back().misses - run.step_counters_.front().misses;
  }
  double grouped = 0.0;
  for (std::size_t g : rr.group_sizes) grouped += static_cast<double>(g);
  const double untraced_p50 = median(run.untraced_decisions_);
  const double traced_p50 = median(run.traced_decisions_);

  // The simulator layer: the workload's own clusters, else a probe cluster.
  const SimOutcome sim = sc.simulated() ? sc.sim_outcome()
                                        : probe_simulator(sc.topologies[0], opts.seed);
  const double sim_wall_s = sc.simulated() ? run.window_wall_s_ : sim.run_until_s;

  auto add = [&](const char* name, double value, const char* unit) {
    metrics.push_back({name, value, unit});
  };
  add("fleet.push_us.p50", median(run.push_us_), "us");
  add("fleet.push_us.p99", pct(run.push_us_, 99.0), "us");
  add("fleet.step_ms.p50", median(step_ms), "ms");
  add("fleet.self_ms.p50", median(rr.self_ms), "ms");
  add("fleet.notify_us.p50", median(run.notify_us_), "us");
  add("fleet.coast_ratio", ratio(static_cast<double>(run.coasted_), static_cast<double>(run.drained_)),
      "ratio");
  add("fleet.batch_width.mean", ratio(grouped, static_cast<double>(rr.group_sizes.size())), "tenants");
  add("core.distribute_us.p50", median(rr.distribute_us), "us");
  add("core.begin_plan_us.p50", median(rr.begin_plan_us), "us");
  add("core.plan_cache.hit_ratio", info["plan_cache.hit_ratio"], "ratio");
  add("core.solve_ms.p50", median(rr.solve_ms), "ms");
  add("core.solve_ms.p99", pct(rr.solve_ms, 99.0), "ms");
  add("core.solver.iters_per_solve", ratio(d_iters, d_solves), "count");
  add("core.solver.iter_us", median(rr.iter_us), "us");
  add("core.finish_plan_us.p50", median(rr.finish_plan_us), "us");
  add("gnn.forward_us.p50", median(rr.forward_us), "us");
  add("core.tiered.solve_ms.p50", median(rr.tiered_solve_ms), "ms");
  add("gnn.surrogate_forward_us.p50", median(rr.surrogate_forward_us), "us");
  add("core.surrogate.escalation_ratio", escalation_ratio, "ratio");
  add("serve.promote_ms.p50", median(promote), "ms");
  add("serve.resolves_after_promote", resolves, "count");
  add("forecast.plan_qps_us.p50", median(rr.plan_qps_us), "us");
  add("forecast.prewarm_ratio", ratio(prewarms, predictions), "ratio");
  add("sim.run_until_ms.p50", median(sim.run_until_ms), "ms");
  add("sim.events", static_cast<double>(sim.events), "count");
  add("sim.events_per_s", ratio(static_cast<double>(sim.events), sim.run_until_s), "1/s");
  add("sim.speedup", ratio(sim.sim_seconds, sim_wall_s), "sim-s/s");
  add("driver.late_ms.p99", pct(run.late_ms_, 99.0), "ms");
  add("setup.train_s", median(train_s), "s");
  add("setup.admit_s", median(admit_s), "s");
  add("setup.warmup_s", median(warm_s), "s");
  add("trace.overhead_pct", untraced_p50 > 0 ? 100.0 * (traced_p50 - untraced_p50) / untraced_p50 : 0.0,
      "%");

  info["replay.steps"] = static_cast<double>(run.recorded_.size());
  info["replay.ratio.p50"] = median(rr.ratio);
  info["replay.ratio.max"] = pct(rr.ratio, 100.0);
  info["trace.dropped_spans"] = static_cast<double>(tracer.dropped());
  if (!opts.spans_path.empty())
    write_spans(opts.spans_path, opts, tracer, run, sc.server->metrics_snapshot());
}

int run_main(const Options& opts) {
  const Workload* w = nullptr;
  for (const Workload& x : workloads())
    if (x.name == opts.workload) w = &x;
  if (w == nullptr) throw std::invalid_argument("unknown workload '" + opts.workload + "'");

  // ---- setup, several times; the last instance is measured -------------------
  const int reps = opts.smoke ? 1 : 3;
  std::vector<double> setup_s, train_s, admit_s, warm_s;
  std::unique_ptr<Scenario> sc;
  std::unique_ptr<Tracer> tracer;
  std::unique_ptr<Run> run;
  std::uint64_t warm_digest = 0;
  bool setups_agree = true;
  for (int r = 0; r < reps; ++r) {
    run.reset();
    sc.reset();
    if (opts.trace) tracer = std::make_unique<Tracer>();
    std::cerr << "graf_e2e: " << w->name << " setup " << (r + 1) << "/" << reps << "\n";
    const auto t0 = Clock::now();
    sc = w->build(opts, nullptr);
    run = std::make_unique<Run>(*sc, *w, opts, tracer.get());
    const auto t1 = Clock::now();
    run->warmup();
    const auto t2 = Clock::now();
    setup_s.push_back(seconds_between(t0, t2));
    train_s.push_back(sc->train_s);
    admit_s.push_back(sc->admit_s);
    warm_s.push_back(seconds_between(t1, t2));
    if (r > 0 && run->warm_digest_ != warm_digest) setups_agree = false;
    warm_digest = run->warm_digest_;
  }

  std::cerr << "graf_e2e: " << w->name << " measuring " << opts.seconds << " s\n";
  run->measure();
  const double rss = peak_rss_mb();

  std::vector<Metric> metrics;
  std::map<std::string, double> info;
  auto tenant_sum = [&](auto get) {
    double s = 0.0;
    for (const TenantInfo& t : sc->tenants) s += get(*sc->server->tenant(t.id));
    return s;
  };
  const double fast_hits = tenant_sum([](fleet::Tenant& t) {
    return t.tiered_planner() ? static_cast<double>(t.tiered_planner()->fast_hits()) : 0.0;
  });
  const double escalations = tenant_sum([](fleet::Tenant& t) {
    return t.tiered_planner() ? static_cast<double>(t.tiered_planner()->escalations()) : 0.0;
  });
  const double escalation_ratio = ratio(escalations, fast_hits + escalations);
  run->failed_ += static_cast<std::uint64_t>(run->c_stale_->value());
  const double tenant_ticks =
      static_cast<double>(run->window_ticks_) * static_cast<double>(sc->tenants.size());
  const SimOutcome sim = sc->sim_outcome();
  const double violation_pct =
      sc->simulated() ? sim.violation_pct
                      : 100.0 * ratio(run->modelled_violation_, static_cast<double>(run->commits_));

  if (!opts.trace) {
    metrics.push_back({"setup_s", median(setup_s), "s"});
    metrics.push_back({"decision_ms.p50", median(run->decisions_), "ms"});
    metrics.push_back({"decision_ms.p99", pct(run->decisions_, 99.0), "ms"});
    metrics.push_back({"decision_ok_pct",
                       100.0 * ratio(static_cast<double>(run->window_ok_),
                                     static_cast<double>(run->window_attempted_)),
                       "%"});
    metrics.push_back({"capacity_decisions_per_s", ratio(run->capacity_decisions_, run->capacity_s_),
                       "1/s"});
    metrics.push_back({"plan_cores.mean", ratio(run->tick_cores_, tenant_ticks), "cores"});
    metrics.push_back({"plan_feasible_pct",
                       100.0 * ratio(static_cast<double>(run->feasible_),
                                     static_cast<double>(run->commits_)),
                       "%"});
    metrics.push_back({"slo_violation_pct", violation_pct, "%"});
    metrics.push_back({"core_s", sc->simulated() ? sim.core_s : run->tick_cores_ * w->tick_s,
                       "core-s"});
    metrics.push_back({"peak_rss_mb", rss, "MB"});
  }

  // Seed sanity, printed by every run.
  const double window_hits = run->window_hits_;
  const double window_misses = run->window_misses_;
  info["decision_samples"] = static_cast<double>(run->window_attempted_);
  info["capacity_decisions"] = run->capacity_decisions_;
  info["raw.decision_ms.p50"] = median(run->raw_decisions_);
  info["raw.decision_ms.p99"] = pct(run->raw_decisions_, 99.0);
  info["raw.capacity_decisions_per_s"] = ratio(run->capacity_decisions_, run->raw_capacity_s_);
  info["host.speed_factor.p50"] = median(run->speeds_);
  info["window_ticks"] = static_cast<double>(run->window_ticks_);
  info["commits"] = static_cast<double>(run->commits_);
  info["plan_cache.hit_ratio"] = ratio(window_hits, window_hits + window_misses);
  info["miss_tick_share"] = ratio(static_cast<double>(run->miss_ticks_),
                                  static_cast<double>(run->window_ticks_));
  info["solves_per_push"] = ratio(window_misses, static_cast<double>(run->window_attempted_));
  info["surrogate.escalation_ratio"] = escalation_ratio;
  info["slo_violation_pct"] = violation_pct;
  info["window_wall_s"] = run->window_wall_s_;
  info["coordinator_util"] = ratio(run->busy_s_, run->window_wall_s_);
  if (sc->simulated()) {
    info["sim.requests"] = static_cast<double>(sim.requests);
    double min_changes = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < sc->tenants.size(); ++i)
      if (!sc->tenants[i].faulted)
        min_changes = std::min(min_changes,
                               static_cast<double>(run->plan_changes1_[i] - run->plan_changes0_[i]));
    info["healthy_plan_changes.min"] = min_changes;
  }

  // ---- correctness ----------------------------------------------------------
  std::vector<std::string> problems;
  if (run->invalid_plans_ > 0) problems.push_back("invalid committed plans");
  for (const TenantInfo& t : sc->tenants)
    if (!t.faulted && sc->server->tenant(t.id)->failures() != 0)
      problems.push_back("tenant failures on healthy tenant " + t.spec.application);
  if (!setups_agree) problems.push_back("setup repetitions decided differently");
  if (opts.trace)
    layer_metrics(*sc, *run, *tracer, opts, train_s, admit_s, warm_s, escalation_ratio, metrics,
                  info, problems);
  for (const Metric& m : metrics)
    if (!std::isfinite(m.value)) problems.push_back("non-finite " + m.name);

  // ---- determinism: rebuild, replay the prefix at another thread count --------
  // The replay gives every tick the phase the timed run gave it (promotions
  // count open-loop ticks) and compares the plans of the first measured
  // ticks; the warm-up runs untimed in both.
  const std::size_t replay_threads = configured_threads() == 1 ? 2 : 1;
  const std::uint64_t digest = run->digest_;
  const std::size_t prefix = std::min<std::size_t>(
      run->phases_.size(), static_cast<std::size_t>(w->warmup_ticks + run->digest_ticks_));
  const std::vector<Phase> phases(run->phases_.begin(),
                                  run->phases_.begin() + static_cast<long>(prefix));
  std::vector<gnn::LatencyModel> trained;
  for (const gnn::LatencyModel& m : sc->models) trained.push_back(m.clone());
  const std::uint64_t attempted = run->attempted_;
  const std::uint64_t failed = run->failed_;
  run.reset();
  sc.reset();
  std::cerr << "graf_e2e: " << w->name << " replaying "
            << static_cast<long>(prefix) - w->warmup_ticks << " measured ticks at "
            << replay_threads << " thread(s)\n";
  set_global_threads(replay_threads);
  {
    Options o1 = opts;
    o1.trace = false;
    std::unique_ptr<Scenario> sc1 = w->build(o1, &trained);
    Run r1{*sc1, *w, o1, nullptr};
    for (std::size_t k = 0; k < prefix; ++k) {
      if (static_cast<long>(k) == w->warmup_ticks) sc1->start_window(w->warmup_ticks);
      r1.tick(static_cast<long>(k), phases[k], Clock::now(), false);
    }
    if (r1.digest_ != digest) problems.push_back("prefix replay at another thread count diverged");
  }
  set_global_threads(0);

  const bool correct = problems.empty();
  for (const std::string& p : problems) std::cerr << "graf_e2e: CHECK FAILED: " << p << "\n";

  std::ostringstream out;
  out << "{\"workload\":\"" << w->name << "\",\"seed\":" << opts.seed
      << ",\"correct\":" << (correct ? "true" : "false") << ",\"attempted\":" << attempted
      << ",\"failed\":" << failed << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    out << (i ? "," : "") << "\"" << metrics[i].name << "\":{\"value\":" << num(metrics[i].value)
        << ",\"unit\":\"" << metrics[i].unit << "\"}";
  out << "},\"info\":{";
  bool first = true;
  for (const auto& [k, v] : info) {
    out << (first ? "" : ",") << "\"" << k << "\":" << num(v);
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace graf::e2e

int main(int argc, char** argv) {
  try {
    return graf::e2e::run_main(graf::e2e::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "graf_e2e: " << e.what() << "\n";
    return 2;
  }
}
