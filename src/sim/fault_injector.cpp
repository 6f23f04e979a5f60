#include "sim/fault_injector.h"

#include <algorithm>
#include <stdexcept>

#include "common/rng.h"

namespace graf::sim {

namespace {
// Stable per-class rng streams (derive_seed keeps them independent of each
// other and of how much randomness any other component consumes).
enum : std::uint64_t {
  kStreamCrash = 0,
  kStreamOutage = 1,
  kStreamThrottle = 2,
  kStreamBlackout = 3,
};
}  // namespace

FaultInjector::FaultInjector(Cluster& cluster)
    : cluster_{cluster}, active_throttles_(cluster.service_count()) {}

std::vector<FaultEvent> FaultInjector::generate(const FaultScheduleConfig& cfg,
                                                std::size_t service_count) {
  if (service_count == 0)
    throw std::invalid_argument{"FaultInjector::generate: need >= 1 service"};
  if (cfg.until <= cfg.from)
    throw std::invalid_argument{"FaultInjector::generate: empty window"};
  std::vector<FaultEvent> events;

  // Each class is an independent Poisson process with exponential
  // inter-arrivals. The class stream draws *times only*; every event's
  // parameters come from their own derived sub-stream. This matters because
  // uniform_int rejection-samples — it consumes a variable number of raw
  // draws depending on its range — so a service pick fed from the shared
  // class stream would shift every later draw whenever service_count
  // changes (e.g. a topology growing a service). With per-event
  // sub-streams, and the range-dependent service pick ordered last within
  // its stream, changing service_count changes only which service each
  // event hits: times, picks, modes and factors stay pinned.
  auto arrivals = [&](double per_min, std::uint64_t stream, auto&& emit) {
    if (per_min <= 0.0) return;
    Rng times{derive_seed(cfg.seed, stream)};
    const double rate = per_min / 60.0;  // per second
    const std::uint64_t param_base = derive_seed(cfg.seed, stream);
    Seconds t = cfg.from;
    std::uint64_t n = 0;
    while (true) {
      t += times.exponential(rate);
      if (t >= cfg.until) break;
      Rng params{derive_seed(param_base, ++n)};
      emit(params, t);
    }
  };

  arrivals(cfg.crash_per_min, kStreamCrash, [&](Rng& rng, Seconds t) {
    FaultEvent ev;
    ev.kind = FaultEvent::Kind::kInstanceCrash;
    ev.at = t;
    ev.pick = rng.next_u64();
    ev.crash_mode = rng.bernoulli(cfg.crash_abort_fraction) ? CrashMode::kAbort
                                                            : CrashMode::kRequeue;
    ev.service = static_cast<int>(
        rng.uniform_int(0, static_cast<std::int64_t>(service_count) - 1));
    events.push_back(ev);
  });

  arrivals(cfg.creation_outage_per_min, kStreamOutage, [&](Rng&, Seconds t) {
    FaultEvent ev;
    ev.kind = FaultEvent::Kind::kCreationOutage;
    ev.at = t;
    ev.duration = cfg.creation_outage_duration;
    ev.creation_fail = true;
    ev.creation_fail_after = cfg.creation_fail_after;
    ev.creation_extra_delay = cfg.creation_extra_delay;
    events.push_back(ev);
  });

  arrivals(cfg.throttle_per_min, kStreamThrottle, [&](Rng& rng, Seconds t) {
    FaultEvent ev;
    ev.kind = FaultEvent::Kind::kCpuThrottle;
    ev.at = t;
    ev.duration = cfg.throttle_duration;
    ev.factor = rng.uniform(cfg.throttle_factor_lo, cfg.throttle_factor_hi);
    ev.service = static_cast<int>(
        rng.uniform_int(0, static_cast<std::int64_t>(service_count) - 1));
    events.push_back(ev);
  });

  arrivals(cfg.blackout_per_min, kStreamBlackout, [&](Rng&, Seconds t) {
    FaultEvent ev;
    ev.kind = FaultEvent::Kind::kTelemetryBlackout;
    ev.at = t;
    ev.duration = cfg.blackout_duration;
    events.push_back(ev);
  });

  // Stable: ties keep the fixed class order above, independent of anything
  // but the config.
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
  return events;
}

void FaultInjector::crash_instance(Seconds at, int service, std::uint64_t pick,
                                   CrashMode mode) {
  FaultEvent ev;
  ev.kind = FaultEvent::Kind::kInstanceCrash;
  ev.at = at;
  ev.service = service;
  ev.pick = pick;
  ev.crash_mode = mode;
  schedule_.push_back(ev);
}

void FaultInjector::degrade_creations(Seconds at, Seconds duration, bool fail,
                                      Seconds fail_after, Seconds extra_delay) {
  FaultEvent ev;
  ev.kind = FaultEvent::Kind::kCreationOutage;
  ev.at = at;
  ev.duration = duration;
  ev.creation_fail = fail;
  ev.creation_fail_after = fail_after;
  ev.creation_extra_delay = extra_delay;
  schedule_.push_back(ev);
}

void FaultInjector::throttle_cpu(Seconds at, Seconds duration, int service,
                                 double factor) {
  FaultEvent ev;
  ev.kind = FaultEvent::Kind::kCpuThrottle;
  ev.at = at;
  ev.duration = duration;
  ev.service = service;
  ev.factor = factor;
  schedule_.push_back(ev);
}

void FaultInjector::blackout_telemetry(Seconds at, Seconds duration) {
  FaultEvent ev;
  ev.kind = FaultEvent::Kind::kTelemetryBlackout;
  ev.at = at;
  ev.duration = duration;
  schedule_.push_back(ev);
}

void FaultInjector::arm() {
  if (armed_) throw std::logic_error{"FaultInjector: arm() called twice"};
  armed_ = true;
  std::stable_sort(schedule_.begin(), schedule_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
  EventQueue& q = cluster_.events();
  const Seconds now = q.now();
  for (const FaultEvent& ev : schedule_) {
    if (ev.at < now) continue;  // history; can't injure the past
    q.schedule_at(ev.at, [this, ev] { fire(ev); });
    if (ev.kind != FaultEvent::Kind::kInstanceCrash && ev.duration > 0.0)
      q.schedule_at(ev.at + ev.duration, [this, ev] { expire(ev); });
  }
}

void FaultInjector::set_metrics(telemetry::MetricsRegistry* registry) {
  if (registry == nullptr) {
    crashes_ = outages_ = throttles_ = blackouts_ = nullptr;
    active_gauge_ = nullptr;
    return;
  }
  crashes_ = &registry->counter("faults.crashes");
  outages_ = &registry->counter("faults.creation_outages");
  throttles_ = &registry->counter("faults.throttles");
  blackouts_ = &registry->counter("faults.blackouts");
  active_gauge_ = &registry->gauge("faults.active");
  active_gauge_->set(static_cast<double>(active_));
}

void FaultInjector::set_active_delta(int delta) {
  active_ += delta;
  if (active_gauge_ != nullptr) active_gauge_->set(static_cast<double>(active_));
}

void FaultInjector::apply_throttle(int service) {
  double factor = 1.0;
  for (double f : active_throttles_[static_cast<std::size_t>(service)]) factor *= f;
  // Empty window list multiplies out to exactly 1.0 — full-speed restore is
  // bit-exact, not a rounding accident.
  cluster_.service(service).set_cpu_throttle(factor);
}

void FaultInjector::fire(const FaultEvent& ev) {
  ++fired_;
  switch (ev.kind) {
    case FaultEvent::Kind::kInstanceCrash:
      if (crashes_ != nullptr) crashes_->add();
      cluster_.service(ev.service).crash_one(ev.pick, ev.crash_mode);
      break;
    case FaultEvent::Kind::kCreationOutage:
      if (outages_ != nullptr) outages_->add();
      set_active_delta(+1);
      ++active_outages_;
      // Overlapping outages: the most recent shape wins; the pipeline heals
      // only when the last window ends.
      cluster_.deployment().set_creation_fault(CreationFault{
          ev.creation_fail, ev.creation_fail_after, ev.creation_extra_delay});
      break;
    case FaultEvent::Kind::kCpuThrottle:
      if (throttles_ != nullptr) throttles_->add();
      set_active_delta(+1);
      active_throttles_[static_cast<std::size_t>(ev.service)].push_back(ev.factor);
      apply_throttle(ev.service);
      break;
    case FaultEvent::Kind::kTelemetryBlackout:
      if (blackouts_ != nullptr) blackouts_->add();
      set_active_delta(+1);
      if (++active_blackouts_ == 1) cluster_.set_telemetry_blackout(true);
      break;
  }
}

void FaultInjector::expire(const FaultEvent& ev) {
  switch (ev.kind) {
    case FaultEvent::Kind::kInstanceCrash:
      break;  // instantaneous; never scheduled
    case FaultEvent::Kind::kCreationOutage:
      set_active_delta(-1);
      if (--active_outages_ == 0) cluster_.deployment().clear_creation_fault();
      break;
    case FaultEvent::Kind::kCpuThrottle: {
      set_active_delta(-1);
      auto& factors = active_throttles_[static_cast<std::size_t>(ev.service)];
      auto it = std::find(factors.begin(), factors.end(), ev.factor);
      if (it != factors.end()) factors.erase(it);
      apply_throttle(ev.service);
      break;
    }
    case FaultEvent::Kind::kTelemetryBlackout:
      set_active_delta(-1);
      if (--active_blackouts_ == 0) cluster_.set_telemetry_blackout(false);
      break;
  }
}

}  // namespace graf::sim
